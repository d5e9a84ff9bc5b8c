"""Scikit-learn style estimators wrapping the solver and the calibrator.

Both classes follow the fit/predict/get_params protocol so they compose
with pipelines and grid-search tooling without depending on scikit-learn
itself.  Inputs are raw arrays: a score vector and a 0/1 group-membership
matrix with one column per group.
"""

from __future__ import annotations

import inspect
from typing import Optional, Sequence

import numpy as np

from .core import FairnessNotion, aggregate_cells, mask_from_bits
from .core import build_cells  # noqa: F401  (bench/spans.py traces it by this name)
from .multical import apply_patches, calibrate, default_checks
from .metrics import base_rates
from .solver import SolverConfig, run

__all__ = [
    "NotFittedError",
    "check_scores_groups",
    "FairThresholdPostprocessor",
    "JointMulticalibrator",
]


class NotFittedError(RuntimeError):
    """Estimator used before fit()."""


def check_scores_groups(scores, groups, y=None):
    """Validate and normalize (scores, group matrix, optional labels).

    scores: 1-d floats in [0, 1]; groups: (n, k) matrix of 0/1 indicators;
    y: optional 0/1 labels of matching length.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    groups = np.asarray(groups)
    if groups.ndim == 1:
        groups = groups[:, None]
    if groups.shape[0] != scores.shape[0]:
        raise ValueError("scores and groups have different lengths")
    if not np.all(np.isin(groups, (0, 1))):
        raise ValueError("group indicators must be 0 or 1")
    if not np.all((scores >= 0) & (scores <= 1)):
        raise ValueError("scores must lie in [0, 1]")
    if y is not None:
        y = np.asarray(y).ravel()
        if y.shape[0] != scores.shape[0]:
            raise ValueError("labels and scores have different lengths")
        if not np.all(np.isin(y, (0, 1))):
            raise ValueError("labels must be 0 or 1")
    return scores, groups.astype(int), y


class _ParamsMixin:
    """Minimal get_params/set_params implementation (sklearn protocol)."""

    def get_params(self, deep: bool = True) -> dict:
        names = [
            p.name
            for p in inspect.signature(type(self).__init__).parameters.values()
            if p.name != "self" and p.kind is not p.VAR_KEYWORD
        ]
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self


class FairThresholdPostprocessor(_ParamsMixin):
    """Fit a parity-constrained randomized thresholding of a score function.

    fit() aggregates the data into (score, group) cells and runs the
    primal/dual dynamics; predict_proba() returns the mixture's positive
    probability for new points with the same group schema.
    """

    def __init__(self, notion="fp", gamma: float = 0.05, C: float = 10.0,
                 eta="auto", T="auto", projection="euclidean_l1",
                 beta_mode: str = "from_scores", grid_m: int = 100,
                 record_every: int = 100, work_cap: float = 5e9):
        self.notion = notion
        self.gamma = gamma
        self.C = C
        self.eta = eta
        self.T = T
        self.projection = projection
        self.beta_mode = beta_mode
        self.grid_m = grid_m
        self.record_every = record_every
        self.work_cap = work_cap

    def fit(self, scores, groups, y=None, group_names: Optional[Sequence[str]] = None):
        scores, groups, y = check_scores_groups(scores, groups, y)
        dist = aggregate_cells(scores, groups, y, self.grid_m, group_names)
        config = SolverConfig(
            notion=self.notion, gamma=self.gamma, C=self.C, eta=self.eta,
            T=self.T, projection_mode=self.projection, beta_mode=self.beta_mode,
            record_every=self.record_every, work_cap=self.work_cap)
        result = run(dist, config)
        self.result_ = result
        self.mixture_ = result.mixture
        self.base_ = result.base
        self.distribution_ = dist
        self.n_groups_ = groups.shape[1]
        return self

    def _check_fitted(self):
        if not hasattr(self, "mixture_"):
            raise NotFittedError("call fit() before predicting")

    def predict_proba(self, scores, groups) -> np.ndarray:
        """Positive probability of the randomized classifier per point."""
        self._check_fitted()
        scores, groups, _ = check_scores_groups(scores, groups)
        if groups.shape[1] != self.n_groups_:
            raise ValueError("group matrix width changed between fit and predict")
        return self.mixture_.positive_prob_points(scores, groups)

    def predict(self, scores, groups, random_state: Optional[int] = None) -> np.ndarray:
        """Sample hard labels from the randomized classifier."""
        p = self.predict_proba(scores, groups)
        rng = np.random.Generator(np.random.PCG64(random_state))
        return (rng.uniform(size=len(p)) < p).astype(int)


class JointMulticalibrator(_ParamsMixin):
    """Patch a score function toward joint multicalibration on group and
    threshold checks, then apply the learned patches to new points."""

    def __init__(self, alpha: float = 0.01, n_random_checks: int = 64,
                 C: float = 10.0, grid_m: int = 100, seed: int = 0,
                 beta_mode: str = "from_labels"):
        self.alpha = alpha
        self.n_random_checks = n_random_checks
        self.C = C
        self.grid_m = grid_m
        self.seed = seed
        self.beta_mode = beta_mode

    def fit(self, scores, groups, y, group_names: Optional[Sequence[str]] = None):
        scores, groups, y = check_scores_groups(scores, groups, y)
        if y is None:
            raise ValueError("calibration requires labels")
        dist = aggregate_cells(scores, groups, y, self.grid_m, group_names)
        base = base_rates(dist, FairnessNotion.FP, self.beta_mode)
        checks = default_checks(dist, base, n_random=self.n_random_checks,
                                C=self.C, seed=self.seed)
        self.checks_ = checks
        self.result_ = calibrate(dist.scores, checks, dist, self.alpha)
        self.distribution_ = dist
        self.n_groups_ = groups.shape[1]
        return self

    def transform(self, scores, groups) -> np.ndarray:
        """Recalibrated scores obtained by replaying the patch history.

        A check reads a point only through its raw score and its mask, so
        the history is replayed once per distinct (score bits, membership
        row) and the results are scattered back to the points.
        """
        if not hasattr(self, "result_"):
            raise NotFittedError("call fit() before transforming")
        scores, groups, _ = check_scores_groups(scores, groups)
        if groups.shape[1] != self.n_groups_:
            raise ValueError("group matrix width changed between fit and transform")
        rows, inverse = np.unique(np.column_stack([scores.view(np.int64), groups]),
                                  axis=0, return_inverse=True)
        replayed = np.array([
            apply_patches(float(s), mask_from_bits(g), self.result_, self.checks_)
            for s, g in zip(rows[:, 0].view(float), rows[:, 1:].tolist())
        ])
        return replayed[inverse.reshape(-1)]

    def fit_transform(self, scores, groups, y, **kwargs) -> np.ndarray:
        return self.fit(scores, groups, y, **kwargs).transform(scores, groups)
