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

from .core import FairnessNotion, _group_rows, _zero_one, aggregate_cells, grid_indices
from .core import build_cells  # noqa: F401  (bench/spans.py traces it by this name)
from . import multical
from .multical import calibrate, default_checks, replay
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
    if not _zero_one(groups).all():
        raise ValueError("group indicators must be 0 or 1")
    if not np.all((scores >= 0) & (scores <= 1)):
        raise ValueError("scores must lie in [0, 1]")
    if y is not None:
        y = np.asarray(y).ravel()
        if y.shape[0] != scores.shape[0]:
            raise ValueError("labels and scores have different lengths")
        if not _zero_one(y).all():
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
    probability for new points with the same group schema.  The parameters
    are SolverConfig's fields, with its defaults and checks, and grid_m,
    the score grid of the cells.
    """

    def __init__(self, notion=SolverConfig.notion, gamma=SolverConfig.gamma,
                 C=SolverConfig.C, eta=SolverConfig.eta, T=SolverConfig.T, grid_m: int = 100,
                 record_every=SolverConfig.record_every, work_cap=SolverConfig.work_cap):
        self.notion = notion
        self.gamma = gamma
        self.C = C
        self.eta = eta
        self.T = T
        self.grid_m = grid_m
        self.record_every = record_every
        self.work_cap = work_cap

    def fit(self, scores, groups, y=None, group_names: Optional[Sequence[str]] = None):
        config = SolverConfig(**{k: v for k, v in self.get_params().items() if k != "grid_m"})
        scores, groups, y = check_scores_groups(scores, groups, y)
        dist = aggregate_cells(scores, groups, y, self.grid_m, group_names)
        self.result_ = result = run(dist, config)
        self.mixture_, self.base_ = result.mixture, result.mixture.base
        self.distribution_, self.n_groups_ = dist, groups.shape[1]
        return self

    def predict_proba(self, scores, groups) -> np.ndarray:
        """Positive probability of the randomized classifier per point.

        A score is first snapped to the 1/grid_m grid, as fit snapped it
        into its cell, so a training point gets its cell's probability.
        """
        if not hasattr(self, "mixture_"):
            raise NotFittedError("call fit() before predicting")
        scores, groups, _ = check_scores_groups(scores, groups)
        if groups.shape[1] != self.n_groups_:
            raise ValueError("group matrix width changed between fit and predict")
        grid_m = self.distribution_.grid_m
        return self.mixture_.positive_prob_points(grid_indices(scores, grid_m) / grid_m,
                                                  groups)

    def predict(self, scores, groups, random_state: Optional[int] = None) -> np.ndarray:
        """Sample hard labels from the randomized classifier."""
        p = self.predict_proba(scores, groups)
        rng = np.random.Generator(np.random.PCG64(random_state))
        return (rng.uniform(size=len(p)) < p).astype(int)


class JointMulticalibrator(_ParamsMixin):
    """Patch a score function toward joint multicalibration on group and
    threshold checks, then apply the learned patches to new points."""

    def __init__(self, alpha: float = 0.01, n_random_checks: int = 64,
                 C: float = 10.0, grid_m: int = 100, seed: int = 0):
        self.alpha = alpha
        self.n_random_checks = n_random_checks
        self.C = C
        self.grid_m = grid_m
        self.seed = seed

    def fit(self, scores, groups, y, group_names: Optional[Sequence[str]] = None):
        scores, groups, y = check_scores_groups(scores, groups, y)
        if y is None:
            raise ValueError("calibration requires labels")
        dist = aggregate_cells(scores, groups, y, self.grid_m, group_names)
        base = base_rates(dist, FairnessNotion.FP, "from_labels")
        self.checks_ = checks = default_checks(dist, base, n_random=self.n_random_checks,
                                               C=self.C, seed=self.seed)
        self.result_ = calibrate(dist.scores, checks, dist, self.alpha)
        self.distribution_, self.n_groups_ = dist, groups.shape[1]
        return self

    def transform(self, scores, groups) -> np.ndarray:
        """Recalibrated scores: the patch history replayed on the points.

        A score is first snapped to the 1/grid_m grid, as fit snapped it
        into its cell.  A patch reads a point only through that score's
        level and the point's membership row, on which its group or
        threshold check fires, so multical.replay runs on the distinct
        (grid index, membership row) points, through the check family that
        calibrate used, in slices of at most multical.MAX_CHECK_CELLS //
        checks points, and the results are scattered back.  A training
        point therefore gets its cell's assignment bit for bit.
        """
        if not hasattr(self, "result_"):
            raise NotFittedError("call fit() before transforming")
        scores, groups, _ = check_scores_groups(scores, groups)
        if groups.shape[1] != self.n_groups_:
            raise ValueError("group matrix width changed between fit and transform")
        grid_m = self.distribution_.grid_m
        k = grid_indices(scores, grid_m)
        row, point_of = _group_rows(k, groups)
        step = max(1, multical.MAX_CHECK_CELLS // len(self.checks_))
        out = np.empty(len(row))
        for lo in range(0, len(row), step):
            part = row[lo:lo + step]
            out[lo:lo + step] = replay(self.result_, self.checks_, k[part] / grid_m,
                                       groups[part].T)
        return out[point_of]

    def fit_transform(self, scores, groups, y, **kwargs) -> np.ndarray:
        return self.fit(scores, groups, y, **kwargs).transform(scores, groups)
