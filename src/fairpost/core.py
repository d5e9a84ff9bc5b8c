"""Cell-aggregated distributions, group systems, and randomized threshold classifiers.

Every quantity the solver and the metrics need depends on a point x only
through its score f(x) and its group-membership vector, so all distributions
are aggregated into (score, group-mask) cells.  Cell objects are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "FairnessNotion",
    "GroupSystem",
    "Cell",
    "CellDistribution",
    "BaseRates",
    "ThresholdRule",
    "MixtureClassifier",
    "build_cells",
    "snap_to_grid",
    "grid_indices",
    "mask_from_bits",
    "bits_from_mask",
    "pointwise_values",
    "decide_batch",
    "decision_thresholds",
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


def snap_to_grid(x: float, m: int) -> float:
    """Round x in [0,1] to the nearest grid point k/m; half values round up."""
    k = math.floor(x * m + 0.5)
    k = min(max(k, 0), m)
    return k / m


def grid_indices(x, m: int) -> np.ndarray:
    """Array form of snap_to_grid's index: int64 k with k/m nearest each x.

    The same floor(x*m + 0.5) clipped to [0, m], so
    ``grid_indices(x, m) / m`` equals snap_to_grid elementwise, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("values to snap must be finite")
    return np.clip(np.floor(x * m + 0.5), 0, m).astype(np.int64)


def mask_from_bits(bits: Sequence[int]) -> int:
    """Pack a 0/1 membership vector (group index 0 first) into an int mask."""
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"group indicator must be 0 or 1, got {b!r}")
        if b:
            mask |= 1 << i
    return mask


def bits_from_mask(mask: int, count: int) -> tuple:
    return tuple((mask >> i) & 1 for i in range(count))


@dataclass(frozen=True)
class GroupSystem:
    """Ordered collection of group indicators, optionally containing the
    all-ones group I."""

    names: tuple
    includes_all_group: bool = False

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


@dataclass(frozen=True)
class Cell:
    """One (score, group-mask) atom of probability mass.

    ``groups`` is an unsigned bitmask, bit i set iff the cell belongs to
    group i.  Python ints are unbounded, so systems with more than 64
    groups need no special casing.
    """

    score: float
    groups: int
    mass: float
    label_mean: Optional[float] = None

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("cell mass must be nonnegative")
        if self.label_mean is not None and not 0.0 <= self.label_mean <= 1.0:
            raise ValueError("label_mean must lie in [0, 1]")

    def key(self):
        return (self.score, self.groups)


class CellDistribution:
    """A probability distribution over (score, group-mask) cells.

    Scores live on the grid {0, 1/m, ..., 1}; cell keys are unique and
    masses sum to one.  Arrays derived from the cells (scores, masses,
    group membership matrix) are precomputed for vectorized consumers.
    """

    def __init__(self, grid_m: int, groups: GroupSystem, cells: Sequence[Cell]):
        if grid_m < 1:
            raise ValueError("grid_m must be a positive integer")
        cells = tuple(cells)
        if not cells:
            raise ValueError("empty dataset")
        keys = [c.key() for c in cells]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (score, groups) cell keys")
        total = math.fsum(c.mass for c in cells)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"cell masses sum to {total!r}, expected 1")
        for c in cells:
            if abs(c.score - snap_to_grid(c.score, grid_m)) > 1e-12:
                raise ValueError(f"score {c.score!r} is not on the 1/{grid_m} grid")
        self.grid_m = grid_m
        self.groups = groups
        self.cells = cells

        self.scores = np.array([c.score for c in cells], dtype=float)
        self.masses = np.array([c.mass for c in cells], dtype=float)
        if all(c.label_mean is not None for c in cells):
            self.label_means = np.array([c.label_mean for c in cells], dtype=float)
        else:
            self.label_means = None
        g = groups.count
        self.group_matrix = np.zeros((g, len(cells)), dtype=float)
        for j, c in enumerate(cells):
            for i in range(g):
                if (c.groups >> i) & 1:
                    self.group_matrix[i, j] = 1.0
        if groups.includes_all_group and not np.any(self.group_matrix.min(axis=1) == 1.0):
            raise ValueError("includes_all_group set but no group covers every cell")

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_groups(self) -> int:
        return self.groups.count

    def has_labels(self) -> bool:
        return self.label_means is not None

    def require_labels(self) -> np.ndarray:
        if self.label_means is None:
            raise ValueError("operation requires label_mean on every cell")
        return self.label_means

    def with_scores_from_labels(self) -> "CellDistribution":
        """Replace every cell score by its label_mean snapped to the grid.

        Cells whose new keys collide are merged mass-weightedly.
        """
        q = self.require_labels()
        rows = {}
        for c, qi in zip(self.cells, q):
            key = (snap_to_grid(float(qi), self.grid_m), c.groups)
            mass, wq = rows.get(key, (0.0, 0.0))
            rows[key] = (mass + c.mass, wq + c.mass * qi)
        cells = [
            Cell(score=s, groups=g, mass=mass, label_mean=(wq / mass if mass > 0 else 0.0))
            for (s, g), (mass, wq) in sorted(rows.items())
        ]
        return CellDistribution(self.grid_m, self.groups, cells)


@dataclass(frozen=True)
class BaseRates:
    """Per-group constants entering the threshold rules and constraints.

    ``beta`` is the multiplier inside the rule's group sum (conditional
    group frequency for FP/FN, marginal group frequency for ERR, the
    constant one for SP).  ``w`` is the reporting weight of the parity
    constraint.
    """

    notion: FairnessNotion
    beta: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        # written so that NaN entries fail too
        if not np.all((self.beta >= -1e-12) & (self.beta <= 1 + 1e-12)):
            raise ValueError("beta entries must lie in [0, 1]")
        if not np.all((self.w >= -1e-12) & (self.w <= 1 + 1e-12)):
            raise ValueError("w entries must lie in [0, 1]")


def pointwise_values(S, f, notion: FairnessNotion):
    """Per-point Lagrangian contribution at decisions 0 and 1.

    S is the group-weighted sum sum_g lambda_g * (g(x) - beta_g) (with the
    notion's beta).  Returns (value_at_0, value_at_1); both are arrays when
    the inputs are arrays.
    """
    S = np.asarray(S, dtype=float)
    f = np.asarray(f, dtype=float)
    if notion is FairnessNotion.FP:
        return f + 0.0 * S, (1.0 + S) * (1.0 - f)
    if notion is FairnessNotion.FN:
        return f * (1.0 + S), (1.0 - f) + 0.0 * S
    if notion is FairnessNotion.ERR:
        return f * (1.0 + S), (1.0 + S) * (1.0 - f)
    if notion is FairnessNotion.SP:
        return f + 0.0 * S, (1.0 - f) + S
    raise ValueError(f"unknown notion {notion!r}")


def decide_batch(S, f, notion: FairnessNotion, tiebreak_positive: bool = True):
    """Vectorized closed-form best response: argmin of the pointwise values.

    Exact value ties go to 1 (0 with tiebreak_positive=False), which
    reproduces the per-sign tie cases of the four gradient-descent
    algorithm listings, including the zero-denominator rows.
    """
    v0, v1 = pointwise_values(S, f, notion)
    if tiebreak_positive:
        return v1 <= v0
    return v1 < v0


_SIGN_BIT = np.int64(-2 ** 63)
_MAX_KEY = np.float64(np.finfo(float).max).view(np.int64)


def _double_at(key: np.ndarray) -> np.ndarray:
    """The double at each position of the ordered finite doubles (key 0 is +0.0)."""
    return np.where(key >= 0, key, -key | _SIGN_BIT).view(np.float64)


def decision_thresholds(f, notion: FairnessNotion, tiebreak_positive: bool = True,
                        decide=decide_batch):
    """Per-cell sign s and threshold d with decide(S, f)[j] == (s[j]*S <= d[j]).

    The rounded best response is monotone in S for every finite double S:
    a down-set for FP and SP, an up-set for FN, and for ERR a step at
    S = -1 whose direction depends on how f compares with 1-f.  The sign
    comes from the predicate at the two ends of the finite doubles; d is
    the last double of s*S at which it holds, found by bisection over the
    ordered doubles with ``decide`` as the oracle (64 calls), and is +inf
    or -inf for a cell whose decision never changes.  Multiplying S by
    s = -1 is exact, so the threshold form reproduces every rounding and
    tie of ``decide`` bit for bit.
    """
    f = np.asarray(f, dtype=float)
    top = np.full(f.shape, np.finfo(float).max)
    at_low = decide(-top, f, notion, tiebreak_positive)
    at_high = decide(top, f, notion, tiebreak_positive)
    s = np.where(at_high & ~at_low, -1.0, 1.0)
    lo = np.full(f.shape, -_MAX_KEY)   # predicate of s*y holds here ...
    hi = np.full(f.shape, _MAX_KEY)    # ... and fails here
    for _ in range(64):
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        holds = decide(s * _double_at(mid), f, notion, tiebreak_positive)
        lo = np.where(holds, mid, lo)
        hi = np.where(holds, hi, mid)
    d = _double_at(lo)
    d[at_low & at_high] = np.inf
    d[~at_low & ~at_high] = -np.inf
    return s, d


@dataclass(frozen=True)
class ThresholdRule:
    """Deterministic classifier thresholding the score at a group-dependent value."""

    lam: tuple
    notion: FairnessNotion
    base: BaseRates
    tiebreak_positive: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        object.__setattr__(self, "notion", FairnessNotion.coerce(self.notion))
        if len(self.lam) != len(self.base.beta):
            raise ValueError("lambda length must match group count")

    def group_sum(self, mask: int) -> float:
        bits = bits_from_mask(mask, len(self.lam))
        return float(
            sum(l * (b - bta) for l, b, bta in zip(self.lam, bits, self.base.beta))
        )

    def decide(self, cell_or_score, mask: Optional[int] = None) -> int:
        """Decision in {0,1} for a Cell, or for an explicit (score, mask) pair."""
        if mask is None:
            score, mask = cell_or_score.score, cell_or_score.groups
        else:
            score = float(cell_or_score)
        S = self.group_sum(mask)
        return int(decide_batch(np.array([S]), np.array([score]), self.notion,
                                self.tiebreak_positive)[0])

    def decisions(self, dist: CellDistribution) -> np.ndarray:
        lam = np.asarray(self.lam, dtype=float)
        S = lam @ (dist.group_matrix - self.base.beta[:, None])
        return decide_batch(S, dist.scores, self.notion, self.tiebreak_positive).astype(float)


# Rules per evaluation block: a block's group terms and partial sums take
# O(n_groups * _RULE_BLOCK) memory whatever T is, and stay in cache.
_RULE_BLOCK = 16384


class MixtureClassifier:
    """Uniform mixture over T threshold rules (the randomized classifier).

    The rules share one (notion, base) pair; only their dual snapshots
    differ, so the mixture is stored as a (T, n_groups) array of lambdas.
    """

    def __init__(self, lambdas, notion: FairnessNotion, base: BaseRates,
                 tiebreak_positive: bool = True):
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.ndim != 2:
            raise ValueError("lambdas must be a (T, n_groups) array")
        if lambdas.shape[0] == 0:
            raise ValueError("mixture must contain at least one rule")
        if lambdas.shape[1] != len(base.beta):
            raise ValueError("lambdas width must match the group count")
        if not np.isfinite(lambdas).all():
            raise ValueError("lambdas must be finite")
        # rounding is monotone, so no group sum, in any pattern, exceeds the
        # same ordered sum of |lambda_i| * max|bits_i - beta_i| in magnitude
        c_max = np.maximum(np.abs(base.beta), np.abs(1.0 - base.beta))
        bound = np.abs(lambdas[:, 0]) * c_max[0]
        with np.errstate(over="ignore"):
            for i in range(1, len(c_max)):
                bound += np.abs(lambdas[:, i]) * c_max[i]
        if not np.isfinite(bound).all():
            raise ValueError("lambdas too large: a group sum would overflow")
        self.lambdas = lambdas
        self.notion = FairnessNotion.coerce(notion)
        self.base = base
        self.tiebreak_positive = tiebreak_positive

    def __len__(self) -> int:
        return self.lambdas.shape[0]

    def rule(self, i: int) -> ThresholdRule:
        return ThresholdRule(tuple(self.lambdas[i]), self.notion, self.base,
                             self.tiebreak_positive)

    def _positive_probs(self, scores: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Fraction of rules deciding 1 at each point (scores[i], bits[i]).

        A rule decides 1 exactly when s*S_t <= d (decision_thresholds), where
        S_t = lambda_t . (bits - beta), so a point's count needs only its
        membership pattern's sums and its (s, d).  The rules are taken in
        blocks of _RULE_BLOCK.  In a block, each distinct pattern's sums are
        the ordered sum lambda[:, 0]*c_0 + lambda[:, 1]*c_1 + ... with
        c = bits - beta.  Each group's two possible terms are computed once
        per block, and np.unique returns the patterns sorted, so a pattern
        keeps the partial sums of the leading groups it shares with the one
        before.  A pattern with at least log2(block) points sorts its sums
        and counts each point with one binary search; one with fewer points
        compares each point against the sums, which costs less than the
        sort.  Both count the same rules exactly, and the ordered sum, unlike
        a BLAS product that may block and fuse with the batch shape, does not
        depend on the other points evaluated with it.
        """
        T, g = self.lambdas.shape
        patterns, pattern_of = np.unique(bits, axis=0, return_inverse=True)
        values, value_of = np.unique(scores, return_inverse=True)
        sign, thresh = decision_thresholds(values, self.notion, self.tiebreak_positive)
        sign, thresh = sign[value_of], thresh[value_of]
        pattern_of = pattern_of.ravel()  # numpy 2.0.0 returns a 2-d inverse with axis=0
        rows_by_pattern = np.split(np.argsort(pattern_of, kind="stable"),
                                   np.cumsum(np.bincount(pattern_of))[:-1])
        patterns = patterns.astype(np.intp)
        # the first group in which each pattern differs from the one before
        first = np.zeros(len(patterns), dtype=int)
        first[1:] = np.argmax(patterns[1:] != patterns[:-1], axis=1)
        coeffs = np.array([[0.0], [1.0]]) - self.base.beta  # coeffs[b, i] = b - beta_i
        counts = np.zeros(len(scores), dtype=np.int64)
        for start in range(0, T, _RULE_BLOCK):
            lam = self.lambdas[start:start + _RULE_BLOCK]
            n = len(lam)
            # terms[i, b] = lambda_i * (b - beta_i) over the block's rules, each
            # a contiguous row
            terms = np.multiply(lam.T[:, None, :], coeffs.T[:, :, None], order="C")
            partial = np.empty((g, n))  # partial[i]: the sum over groups 0..i
            for pattern, shared, rows in zip(patterns, first, rows_by_pattern):
                if shared == 0:
                    partial[0] = terms[0, pattern[0]]
                for i in range(max(shared, 1), g):
                    np.add(partial[i - 1], terms[i, pattern[i]], out=partial[i])
                S = partial[-1]
                if len(rows) >= np.log2(n):
                    S.sort()
                    d = thresh[rows]
                    counts[rows] += np.where(sign[rows] > 0, np.searchsorted(S, d, "right"),
                                             n - np.searchsorted(S, -d, "left"))
                else:
                    for r in rows:
                        counts[r] += np.count_nonzero(
                            S <= thresh[r] if sign[r] > 0 else S >= -thresh[r])
        return counts / T

    def positive_prob(self, cell_or_score, mask: Optional[int] = None) -> float:
        """Fraction of the constituent rules classifying the point as 1."""
        if mask is None:
            score, mask = cell_or_score.score, cell_or_score.groups
        else:
            score = float(cell_or_score)
        bits = bits_from_mask(mask, self.lambdas.shape[1])
        return float(self.positive_prob_points([score], [bits])[0])

    def positive_prob_points(self, scores, groups) -> np.ndarray:
        """Positive probabilities for a batch of points.

        groups is the (n, n_groups) 0/1 membership matrix, one row per score.
        """
        scores = np.asarray(scores, dtype=float).ravel()
        groups = np.asarray(groups)
        if groups.shape != (len(scores), self.lambdas.shape[1]):
            raise ValueError("groups must be an (n_points, n_groups) membership matrix")
        if not np.isin(groups, (0, 1)).all():
            raise ValueError("group indicators must be 0 or 1")
        return self._positive_probs(scores, groups)

    def positive_prob_vector(self, dist: CellDistribution) -> np.ndarray:
        """Per-cell positive probability over a whole distribution.

        The cells take the same compiled path as positive_prob_points: the
        rules' group sums S_t are built once per distinct membership pattern
        and block of rules, and each cell counts the rules that decide 1
        against its exact threshold (s, d) from decision_thresholds, with a
        binary search in the sorted sums when its pattern has enough cells
        to pay for the sort.  The count equals the sum of decide_batch over
        the rules bit for bit, and memory stays O(n_groups * block + n_cells)
        whatever T is.
        """
        return self._positive_probs(dist.scores, dist.group_matrix.T)


def build_cells(rows: Iterable, grid_m: int,
                group_names: Optional[Sequence[str]] = None) -> CellDistribution:
    """Aggregate raw (score, group bits, optional label) rows into cells.

    Scores are snapped to the nearest 1/grid_m grid point (half up), masses
    are empirical frequencies, and label_mean is the within-cell mean label
    when every row carries one.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("empty dataset")
    if grid_m < 1:
        raise ValueError("grid_m must be a positive integer")

    width = None
    agg = {}
    n_labels = 0
    for idx, row in enumerate(rows):
        score, bits, label = row
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"row {idx}: score {score!r} outside [0, 1]")
        bits = tuple(bits)
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise ValueError(f"row {idx}: inconsistent group vector length")
        key = (snap_to_grid(float(score), grid_m), mask_from_bits(bits))
        cnt, lab_sum, lab_cnt = agg.get(key, (0, 0.0, 0))
        if label is not None:
            if label not in (0, 1):
                raise ValueError(f"row {idx}: label must be 0 or 1")
            lab_sum += label
            lab_cnt += 1
            n_labels += 1
        agg[key] = (cnt + 1, lab_sum, lab_cnt)

    if 0 < n_labels < len(rows):
        raise ValueError("labels must be present on all rows or none")

    n = len(rows)
    cells = []
    for (score, mask), (cnt, lab_sum, lab_cnt) in sorted(agg.items()):
        label_mean = (lab_sum / lab_cnt) if lab_cnt else None
        cells.append(Cell(score=score, groups=mask, mass=cnt / n, label_mean=label_mean))

    if group_names is None:
        group_names = tuple(f"g{i}" for i in range(width))
    all_ones = [
        i for i in range(width)
        if all((c.groups >> i) & 1 for c in cells)
    ]
    system = GroupSystem(tuple(group_names), includes_all_group=len(all_ones) == 1)
    return CellDistribution(grid_m, system, cells)
