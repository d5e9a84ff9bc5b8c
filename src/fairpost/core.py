"""Distributions aggregated into cells, group systems, and randomized threshold classifiers.

Every quantity the solver and the metrics need depends on a point x only
through its score f(x) and its group-membership vector, so all distributions
are aggregated into (score, group-membership) cells, held as per-cell arrays
and built only by CellDistribution.from_arrays.  Rows are grouped into cells
by one int64 key (_cell_keys, _group_rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "FairnessNotion",
    "GroupSystem",
    "CellDistribution",
    "BaseRates",
    "MixtureClassifier",
    "aggregate_cells",
    "build_cells",
    "grid_indices",
    "rate_terms",
    "decide_batch",
    "decision_thresholds",
    "group_sums",
]

MASS_TOL = 1e-9


class FairnessNotion(str, Enum):
    """Which group rate the parity constraint equalizes."""

    FP = "fp"    # false positive rate
    FN = "fn"    # false negative rate
    ERR = "err"  # raw error rate
    SP = "sp"    # positive classification rate (statistical parity)

    @classmethod
    def coerce(cls, value: Union[str, "FairnessNotion"]) -> "FairnessNotion":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


def grid_indices(x, m: int) -> np.ndarray:
    """The int64 index k of the grid point k/m nearest each x in [0, 1]:
    floor(x*m + 0.5) clipped to [0, m], so half values round up."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("values to snap must be finite")
    return np.clip(np.floor(x * m + 0.5), 0, m).astype(np.int64)


def _zero_one(a: np.ndarray) -> np.ndarray:
    """Elementwise a == 0 or a == 1; all False for a str, bytes or datetime
    array, which numpy 1.24 would compare with 0 as one scalar False."""
    return np.zeros(a.shape, bool) if a.dtype.kind in "USM" else (a == 0) | (a == 1)


def _check_grid(grid_m) -> None:
    """Refuse a grid_m that operator.index would not take (a float), a bool, or one below 1."""
    if isinstance(grid_m, bool) or not hasattr(grid_m, "__index__") or grid_m < 1:
        raise ValueError(f"grid_m must be a positive integer, not {grid_m!r}")


@dataclass(frozen=True)
class GroupSystem:
    """Ordered, uniquely named collection of group indicators."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(set(names)) != len(names):
            raise ValueError("group names must be unique")
        if not names:
            raise ValueError("at least one group is required")

    @property
    def count(self) -> int:
        return len(self.names)


class CellDistribution:
    """A probability distribution over (score, group-membership) cells.

    The distribution is its arrays: ``scores``, ``masses``, ``label_means``
    (None for unlabeled data) and the (n_groups, n_cells) 0/1
    ``group_matrix``.  Scores lie on the grid {0, 1/m, ..., 1} to within
    1e-12, (score, groups) keys are unique, masses are nonnegative and sum
    to one, and label means lie in [0, 1].
    """

    @classmethod
    def from_arrays(cls, grid_m: int, groups: GroupSystem, scores, masses,
                    label_means, bits) -> "CellDistribution":
        """The distribution of per-cell arrays, checked.  bits is the
        (n_cells, n_groups) 0/1 membership matrix, group 0 first."""
        _check_grid(grid_m)
        scores, masses = np.asarray(scores, dtype=float), np.asarray(masses, dtype=float)
        if not len(scores):
            raise ValueError("empty dataset")
        bits = np.asarray(bits)
        if bits.shape != (len(scores), groups.count):
            raise ValueError("bits must be an (n_cells, n_groups) membership matrix")
        if not _zero_one(bits).all():
            raise ValueError("group indicators must be 0 or 1")
        bits = bits.astype(np.uint8, copy=False)
        if label_means is not None:
            label_means = np.asarray(label_means, dtype=float)
        if masses.shape != scores.shape or (label_means is not None
                                            and label_means.shape != scores.shape):
            raise ValueError("scores, masses and label_means must hold one value per cell")
        if not np.all(masses >= 0):    # NaN too
            raise ValueError("cell masses must be nonnegative")
        if label_means is not None and not np.all((label_means >= 0) & (label_means <= 1)):
            raise ValueError("label_mean must lie in [0, 1]")
        score_rank = np.unique(scores, return_inverse=True)[1].reshape(-1)
        if len(np.unique(_cell_keys(score_rank, bits))) < len(scores):
            raise ValueError("duplicate (score, groups) cell keys")
        total = math.fsum(masses.tolist())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"cell masses sum to {total!r}, expected 1")
        off = np.abs(scores - grid_indices(scores, grid_m) / grid_m) > 1e-12
        if off.any():
            raise ValueError(f"score {float(scores[off.argmax()])!r} is not on the "
                             f"1/{grid_m} grid")
        group_matrix = np.ascontiguousarray(bits.T, dtype=float)
        dist = cls.__new__(cls)
        vars(dist).update(grid_m=grid_m, groups=groups, scores=scores, masses=masses,
                          label_means=label_means, group_matrix=group_matrix)
        return dist

    @property
    def n_cells(self) -> int:
        return len(self.scores)

    @property
    def n_groups(self) -> int:
        return self.groups.count

    def require_labels(self) -> np.ndarray:
        if self.label_means is None:
            raise ValueError("operation requires label_mean on every cell")
        return self.label_means

    def with_scores_from_labels(self) -> "CellDistribution":
        """Replace every cell score by its label_mean snapped to the grid.

        Cells whose new keys collide are merged: masses add, and label_mean
        is the mass-weighted mean (0.0 for zero mass), each sum taken in
        cell order.
        """
        q = self.require_labels()
        k = grid_indices(q, self.grid_m)
        bits = self.group_matrix.T.astype(np.uint8)
        row, cell_of = _group_rows(k, bits)
        mass = np.bincount(cell_of, weights=self.masses)
        wq = np.bincount(cell_of, weights=self.masses * q)
        label_means = np.divide(wq, mass, out=np.zeros_like(mass), where=mass > 0)
        return CellDistribution.from_arrays(self.grid_m, self.groups, k[row] / self.grid_m,
                                            mass, label_means, bits[row])


@dataclass(frozen=True)
class BaseRates:
    """Per-group constants entering the threshold rules and constraints, and
    the notion they were computed for: with the lambdas, all a rule needs.

    ``beta`` centres both the rule's group sum and the parity constraint
    rho_g - beta_g * rho_0 (conditional group frequency for FP/FN, the group
    mass for ERR and SP).
    """

    notion: FairnessNotion
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "notion", FairnessNotion.coerce(self.notion))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.beta.ndim != 1:
            raise ValueError("beta must be a 1-D array")
        # written so that NaN entries fail too
        if not np.all((self.beta >= -1e-12) & (self.beta <= 1 + 1e-12)):
            raise ValueError("beta entries must lie in [0, 1]")


def rate_terms(notion, f):
    """The rate table: (a, b, c) of a notion at per-cell label probability f.

    At positive probability p a cell's rate integrand is a + b*p and its
    conditioning weight is c:

        notion   a    b      c
        FP       0    1-f    1-f
        FN       f    -f     f
        ERR      f    1-2f   1
        SP       0    1      1

    Every group rate, weight, constraint value, error and best response in
    the package is read off this table; the ERR row is the classifier's
    error.
    """
    notion = FairnessNotion.coerce(notion)
    if notion is FairnessNotion.FP:
        neg = 1.0 - f
        return 0.0, neg, neg
    if notion is FairnessNotion.FN:
        return f, -f, f
    if notion is FairnessNotion.ERR:
        return f, 1.0 - 2.0 * f, 1.0
    return 0.0, 1.0, 1.0


def decision_thresholds(f, notion: FairnessNotion):
    """Per-cell sign s and threshold d of the best response: decide 1 iff s*S <= d.

    A point's Lagrangian contribution at decision h is f + (1-2f)h + S(a + b*h),
    with (a, b) the notion's row of rate_terms and S = sum_g lambda_g (g - beta_g),
    so h = 1 is a minimizer exactly when b*S <= 2f - 1; exact ties go to 1.
    Dividing by |b| gives s = -1 where b < 0 (else 1) and d = (2f - 1)/|b|, in
    one division; then a cell with b = 0 (FP at f = 1, FN at f = 0, ERR's 0/0 at
    f = 1/2) gets d = +inf (always 1) when 2f - 1 >= 0 and -inf (never) otherwise.
    Subnormal b may overflow d to +-inf, the correct decision for every finite S.
    """
    f = np.asarray(f, dtype=float)
    b = rate_terms(notion, f)[1]
    margin = 2.0 * f - 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = np.divide(margin, np.abs(b), out=np.empty(f.shape))
    if not np.all(b):
        np.copyto(d, np.where(margin >= 0, np.inf, -np.inf), where=b == 0)
    return np.where(b < 0, -1.0, np.ones(f.shape)), d


def decide_batch(S, f, notion: FairnessNotion):
    """Vectorized best response: s*S <= d with (s, d) = decision_thresholds(f)."""
    s, d = decision_thresholds(f, notion)
    return s * np.asarray(S, dtype=float) <= d


def group_sums(lambdas, beta, G) -> np.ndarray:
    """S[k, j] of the (K, n_groups) lambdas at the points of the (n_groups,
    n_points) membership G, with one beta row or one per rule: the ordered
    sum lambda_0*(G_0 - beta_0) + lambda_1*(G_1 - beta_1) + ..., which
    MixtureClassifier adds too, so a rule decides alike in every evaluator."""
    lam = np.asarray(lambdas, dtype=float).T[:, :, None]
    beta = np.atleast_2d(beta).T[:, :, None]    # (n_groups, 1 or K, 1)
    S = lam[0] * (G[0] - beta[0])
    for i in range(1, len(G)):
        S = S + lam[i] * (G[i] - beta[i])
    return S


# Rules x points per evaluation chunk: a chunk's group sums and decisions
# take O(_EVAL_ENTRIES) memory whatever the point count is.
_EVAL_ENTRIES = 16384


class MixtureClassifier:
    """Weighted mixture over K threshold rules (the randomized classifier):
    rule k plays with probability weights[k] / sum(weights).

    The rules share one BaseRates, which carries their notion; only their
    dual snapshots differ, so the mixture is a (K, n_groups) array of
    lambdas and K positive integer weights, 1 each by default (the uniform
    mixture).  solve's mixture holds one rule per distinct decision pattern
    of its rounds, weighted by the rounds that played it.
    """

    def __init__(self, lambdas, base: BaseRates, weights=None):
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.ndim != 2:
            raise ValueError("lambdas must be a (K, n_groups) array")
        if lambdas.shape[0] == 0:
            raise ValueError("mixture must contain at least one rule")
        if lambdas.shape[1] == 0:
            raise ValueError("lambdas must have at least one group column")
        if lambdas.shape[1] != len(base.beta):
            raise ValueError("lambdas width must match the group count")
        if not np.isfinite(lambdas).all():
            raise ValueError("lambdas must be finite")
        weights = np.ones(len(lambdas), np.int64) if weights is None else np.asarray(weights)
        if weights.shape != lambdas.shape[:1] or weights.dtype.kind not in "iu":
            raise ValueError("weights must hold one integer per rule")
        # counts of up to 2**53 rules' weights stay exact in int64 and float64
        if not (weights > 0).all() or weights.sum(dtype=float) > 2.0 ** 53:
            raise ValueError("weights must be positive and sum to at most 2**53")
        # rounding is monotone, so no group sum, in any pattern, exceeds in
        # magnitude the one of |lambda| at c_i = max|bits_i - beta_i|
        c_max = np.maximum(np.abs(base.beta), np.abs(1.0 - base.beta))
        with np.errstate(over="ignore"):
            bound = group_sums(np.abs(lambdas), np.zeros_like(c_max), c_max[:, None])
        if not np.isfinite(bound).all():
            raise ValueError("lambdas too large: a group sum would overflow")
        self.lambdas, self.weights = lambdas, weights.astype(np.int64)
        self.notion = base.notion
        self.base = base

    def __len__(self) -> int:
        return self.lambdas.shape[0]

    def _positive_probs(self, scores: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Weight share of the rules deciding 1 at each point (scores[i], bits[i]).

        Rule k decides 1 at a point exactly when decide_batch does: s*S_k <= d,
        with (s, d) = decision_thresholds of its score and S_k the ordered
        group_sums of its membership, which depends on no other point.  The
        points are taken in chunks of _EVAL_ENTRIES // K, and a point's count
        is the dot product of the weights with its rules' decisions: integers
        summing to at most 2**53, so exact in any order.
        """
        sign, thresh = decision_thresholds(scores, self.notion)
        G = np.asarray(bits, dtype=float).T
        w = self.weights.astype(float)
        chunk = max(1, _EVAL_ENTRIES // len(self))
        counts = np.empty(len(scores))
        for start in range(0, len(scores), chunk):
            part = slice(start, start + chunk)
            S = group_sums(self.lambdas, self.base.beta, G[:, part])
            counts[part] = w @ (sign[part] * S <= thresh[part])
        return counts / self.weights.sum()

    def positive_prob_points(self, scores, groups) -> np.ndarray:
        """Positive probabilities for a batch of points.

        groups is the (n, n_groups) 0/1 membership matrix, one row per score.
        """
        scores = np.asarray(scores, dtype=float).ravel()
        groups = np.asarray(groups)
        if groups.shape != (len(scores), self.lambdas.shape[1]):
            raise ValueError("groups must be an (n_points, n_groups) membership matrix")
        if not _zero_one(groups).all():
            raise ValueError("group indicators must be 0 or 1")
        if not np.all((scores >= 0) & (scores <= 1)):    # NaN too
            raise ValueError("scores must lie in [0, 1]")
        return self._positive_probs(scores, groups)

    def positive_prob_vector(self, dist: CellDistribution) -> np.ndarray:
        """Per-cell positive probability over a whole distribution, on the
        path of positive_prob_points (_positive_probs): the weighted sum of
        decide_batch over the rules bit for bit, in O(_EVAL_ENTRIES + K +
        n_cells) memory."""
        return self._positive_probs(dist.scores, dist.group_matrix.T)


def _cell_keys(k: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """An int64 key per row, ordered like (k, mask) with mask = sum bits[:, i] << i.

    The groups enter one bit at a time, the highest first.  When the next
    shift could overflow, the key is first replaced by its dense rank
    (below the row count), which keeps its order, so one path serves any
    number of groups.  While k << n_groups fits in 62 bits it never ranks,
    and the key is k << n_groups | mask.
    """
    key = k
    for i in reversed(range(bits.shape[1])):
        if key.max(initial=0) >> 62:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
        key = (key << 1) | bits[:, i]
    return key


def _group_rows(k: np.ndarray, bits: np.ndarray):
    """Rows grouped by (k, mask), numbered in _cell_keys order: (a row of each
    group, the group of each row).  k is a nonnegative int64 per row."""
    keys, group_of = np.unique(_cell_keys(k, bits), return_inverse=True)
    group_of = group_of.reshape(-1)
    row = np.empty(len(keys), dtype=np.intp)
    row[group_of] = np.arange(len(group_of))
    return row, group_of


def _first_bad(ok: np.ndarray) -> Optional[int]:
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


def aggregate_cells(scores, bits, labels, grid_m: int,
                    group_names: Optional[Sequence[str]] = None) -> CellDistribution:
    """Aggregate per-row arrays into cells: the one aggregation path.

    scores: n floats in [0, 1], snapped to the nearest 1/grid_m grid point
    (half up); bits: (n, n_groups) 0/1 memberships; labels: n 0/1 labels or
    None.  Masses are count / n and label_mean is label_sum / count, each
    one correctly rounded division as in a per-row count, and the cells come
    out in (score, mask) order.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    n = len(scores)
    if n == 0:
        raise ValueError("empty dataset")
    _check_grid(grid_m)
    bits = np.asarray(bits)
    if bits.ndim != 2 or len(bits) != n:
        raise ValueError("bits must be an (n_rows, n_groups) membership matrix")
    row = _first_bad((scores >= 0.0) & (scores <= 1.0))
    if row is not None:
        raise ValueError(f"row {row}: score {float(scores[row])!r} outside [0, 1]")
    row = _first_bad(_zero_one(bits).all(axis=1))
    if row is not None:
        raise ValueError(f"row {row}: group indicators must be 0 or 1")
    bits = bits.astype(np.uint8, copy=False)
    if labels is not None:
        labels = np.asarray(labels).reshape(-1)
        if len(labels) != n:
            raise ValueError("labels and scores have different lengths")
        row = _first_bad(_zero_one(labels))
        if row is not None:
            raise ValueError(f"row {row}: label must be 0 or 1")

    k = grid_indices(scores, grid_m)
    row, cell_of = _group_rows(k, bits)
    counts = np.bincount(cell_of)
    label_means = None if labels is None else (
        np.bincount(cell_of, weights=labels.astype(float)) / counts)
    if group_names is None:
        group_names = tuple(f"g{i}" for i in range(bits.shape[1]))
    return CellDistribution.from_arrays(grid_m, GroupSystem(tuple(group_names)),
                                        k[row] / grid_m, counts / n, label_means, bits[row])


def build_cells(rows: Iterable, grid_m: int,
                group_names: Optional[Sequence[str]] = None) -> CellDistribution:
    """Aggregate raw (score, group bits, optional label) rows into cells.

    Checks that the rows have one group vector length and labels on all
    rows or none, then aggregates with aggregate_cells.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("empty dataset")
    scores, bits, labels = zip(*rows)
    width = len(bits[0])
    for idx, b in enumerate(bits):
        if len(b) != width:
            raise ValueError(f"row {idx}: inconsistent group vector length")
    labeled = [label is not None for label in labels]
    if any(labeled) and not all(labeled):
        raise ValueError("labels must be present on all rows or none")
    return aggregate_cells(scores, np.array(bits), labels if labeled[0] else None,
                           grid_m, group_names)
