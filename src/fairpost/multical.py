"""Joint multicalibration: threshold check family, auditing, and patching.

A predictor assignment maps each cell to a grid value; auditing measures the
mass-weighted conditional bias of each level set against binary checks that
may look at the level value itself.  The patch loop repairs the worst
(level, check) pair until every check passes, with the Brier score as the
decreasing potential that bounds the round count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from .core import (
    BaseRates,
    CellDistribution,
    FairnessNotion,
    bits_from_mask,
    decide_batch,
    decision_thresholds,
    grid_indices,
    snap_to_grid,
)

__all__ = [
    "CheckFunction",
    "PatchRecord",
    "CalibrationResult",
    "threshold_eval",
    "audit",
    "calibrate",
    "brier",
    "default_checks",
    "assignment_from_scores",
    "apply_patches",
]

d_of_v = decision_thresholds  # bench/spans.py counts table builds by this name


def threshold_eval(lam, base: BaseRates, cell_groups: Union[int, Sequence[int]],
                   v: float, notion) -> int:
    """The threshold check s_lambda at (group mask, level v): decide_batch at f = v."""
    notion = FairnessNotion.coerce(notion)
    if not 0.0 <= v <= 1.0:  # NaN fails too
        raise ValueError("v must lie in [0, 1]")
    lam = np.asarray(lam, dtype=float)
    if isinstance(cell_groups, (int, np.integer)):
        bits = np.array(bits_from_mask(int(cell_groups), len(lam)), dtype=float)
    else:
        bits = np.asarray(cell_groups, dtype=float)
    S = float(lam @ (bits - base.beta))
    return int(decide_batch(np.array([S]), np.array([float(v)]), notion)[0])


@dataclass(frozen=True)
class CheckFunction:
    """Binary audit function c(x, v); non-threshold kinds ignore v.

    kind="group": payload is a group index.
    kind="hypothesis": payload is a callable (score, mask) -> {0,1}.
    kind="product": payload is (group index, such a callable).
    kind="threshold": payload is (lambda vector, notion, BaseRates).
    """

    kind: str
    payload: object
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("group", "hypothesis", "product", "threshold"):
            raise ValueError(f"unknown check kind {self.kind!r}")

    def eval_point(self, score: float, mask: int, v: float) -> int:
        if self.kind == "group":
            return (mask >> self.payload) & 1
        if self.kind == "hypothesis":
            return int(self.payload(score, mask))
        if self.kind == "product":
            g, clf = self.payload
            return ((mask >> g) & 1) * int(clf(score, mask))
        lam, notion, base = self.payload
        return threshold_eval(lam, base, mask, v, notion)

    def compile(self, dist: CellDistribution) -> "_CompiledCheck":
        return _CompiledCheck(self, dist)


class _CompiledCheck:
    """Check bound to a distribution for vectorized evaluation at per-cell levels."""

    def __init__(self, check: CheckFunction, dist: CellDistribution):
        self.check = check
        self.S = self.notion = self.fixed = None
        if check.kind == "threshold":
            lam, notion, base = check.payload
            lam = np.asarray(lam, dtype=float)
            self.notion = FairnessNotion.coerce(notion)
            self.S = lam @ (dist.group_matrix - base.beta[:, None])
        elif check.kind == "group":
            self.fixed = dist.group_matrix[check.payload] == 1.0
        else:
            self.fixed = np.array([check.eval_point(c.score, c.groups, c.score)
                                   for c in dist.cells], dtype=bool)

    def evaluate(self, levels: np.ndarray) -> np.ndarray:
        """Indicator per cell, with v set to the cell's current level."""
        if self.fixed is not None:
            return self.fixed
        values, k = np.unique(levels, return_inverse=True)
        s, d = _d_tables([self], values)[self.notion]
        return s[k] * self.S <= d[k]


def _d_tables(compiled: Sequence[_CompiledCheck], values: np.ndarray) -> dict:
    """(s, d) at every level value, per notion the threshold checks use: a check
    fires on s*S <= d, the best response decide_batch(S, v) bit for bit."""
    notions = {c.notion for c in compiled if c.notion is not None}
    return {n: d_of_v(values, n) for n in notions}


class _CheckFamily:
    """A check family compiled and stacked: the fixed indicators as one bool
    matrix, and per notion the threshold checks' group sums as one matrix,
    with the (s, d) tables at the level values (see _d_tables)."""

    def __init__(self, checks: Sequence[CheckFunction], dist: CellDistribution,
                 values: np.ndarray):
        compiled = [c.compile(dist) for c in checks]
        self.tables = _d_tables(compiled, values)
        self.n = len(compiled)
        self.fixed_rows = [i for i, c in enumerate(compiled) if c.fixed is not None]
        self.fixed = np.array([compiled[i].fixed for i in self.fixed_rows],
                              dtype=bool).reshape(len(self.fixed_rows), dist.n_cells)
        self.sums = {}  # notion -> (check rows, group sums per row and cell)
        for notion in dict.fromkeys(c.notion for c in compiled if c.notion is not None):
            rows = [i for i, c in enumerate(compiled) if c.notion is notion]
            self.sums[notion] = (rows, np.array([compiled[i].S for i in rows]))

    def level_sets(self, idx: np.ndarray, level: int):
        """The distinct cell sets the checks select on the cells idx, all at
        values[level], as ascending cell arrays, and per check the index of
        its set."""
        fires = np.empty((self.n, len(idx)), dtype=bool)
        fires[self.fixed_rows] = self.fixed[:, idx]
        for notion, (rows, S) in self.sums.items():
            s, d = self.tables[notion]
            S = S[:, idx]
            fires[rows] = (S if s[level] > 0 else -S) <= d[level]
        # keyed by the row's bytes: np.unique(fires, axis=0) sorts the rows
        # as structured records, several times slower
        index, sets, which = {}, [], []
        for row in fires:
            key = row.tobytes()
            if key not in index:
                index[key] = len(sets)
                sets.append(idx[row])
            which.append(index[key])
        return sets, np.array(which, dtype=np.intp)


@dataclass(frozen=True)
class PatchRecord:
    round: int
    check_index: int
    level: float
    v_tilde: float
    v_prime: float
    potential: float
    mass: float


@dataclass
class CalibrationResult:
    grid_m: int
    initial_assignment: np.ndarray
    assignment: np.ndarray
    history: List[PatchRecord]
    rounds: int
    final_potential: float
    # grid levels (m + 1), (check, level) terms computed and distinct
    # selected cell sets reduced, the initial ones included
    counters: dict = field(default_factory=dict)


def brier(assignment, dist: CellDistribution) -> float:
    """Expected squared error E[(y - f)^2] over label randomness."""
    a = np.asarray(assignment, dtype=float)
    q = dist.require_labels()
    return float(dist.masses @ (q * (1.0 - a) ** 2 + (1.0 - q) * a ** 2))


def assignment_from_scores(dist: CellDistribution, m: int) -> np.ndarray:
    """Per-cell scores snapped to the 1/m calibration grid."""
    return grid_indices(dist.scores, m) / m


def _per_cell(values, dist: CellDistribution, name: str) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.shape != (dist.n_cells,):
        raise ValueError(f"{name} holds {x.size} values for {dist.n_cells} cells")
    return x


def audit(assignment, checks: Sequence[CheckFunction], dist: CellDistribution,
          counters: Optional[dict] = None):
    """Mass-weighted absolute conditional bias per check, plus the maximum.

    For each check, sums over level sets v the quantity
    Pr[f=v, c=1] * |v - E[f* | f=v, c=1]|.  Each distinct cell set the
    checks select at a level is reduced once; a given ``counters`` dict
    receives that count as "distinct_sets".  Every level must lie in [0, 1].
    """
    a = _per_cell(assignment, dist, "assignment")
    if not np.all((0.0 <= a) & (a <= 1.0)):  # NaN fails too
        raise ValueError("v must lie in [0, 1]")
    q = dist.require_labels()
    m = dist.masses
    values, k = np.unique(a, return_inverse=True)
    members = np.split(np.argsort(k, kind="stable"), np.cumsum(np.bincount(k))[:-1])
    family = _CheckFamily(checks, dist, values)
    totals = np.zeros(family.n)
    distinct_sets = 0
    for level, (v, idx) in enumerate(zip(values, members)):
        sets, which = family.level_sets(idx, level)
        bias = np.zeros(len(sets))
        for u, sel in enumerate(sets):
            if len(sel):
                distinct_sets += 1
                bias[u] = abs(float(np.sum(m[sel] * (v - q[sel]))))
        # a check's total adds its level terms left to right, ascending
        totals += bias[which]
    if counters is not None:
        counters["distinct_sets"] = distinct_sets
    per_check = totals.tolist()
    max_violation = max(per_check) if per_check else 0.0
    return per_check, max_violation


def round_cap(alpha: float) -> int:
    """The most patch rounds calibrate takes at this alpha: floor(4/alpha^2) + 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return math.floor(4.0 / (alpha * alpha)) + 1


def calibrate(f_initial, checks: Sequence[CheckFunction], dist: CellDistribution,
              alpha: float) -> CalibrationResult:
    """Patch the worst (level, check) pair until all checks pass.

    Each round reassigns the offending set to its rounded conditional label
    mean; the loop provably needs at most 4/alpha^2 rounds, each decreasing
    the Brier potential by at least alpha^2/4.

    Cells hold a grid index k (level value k/m).  The term of every
    (level, check) pair is cached; a patch moves cells between two levels
    only, so a round recomputes the terms of those two levels alone, one
    reduction per distinct cell set the checks select there.
    """
    max_rounds = round_cap(alpha)
    m_grid = math.ceil(1.0 / alpha)
    q = dist.require_labels()
    masses = dist.masses
    if f_initial is None:
        f_initial = dist.scores
    k = grid_indices(_per_cell(f_initial, dist, "f_initial"), m_grid)
    values = np.arange(m_grid + 1) / m_grid  # values[k] == snap_to_grid(., m_grid)
    assign = values[k]
    initial = assign.copy()

    family = _CheckFamily(checks, dist, values)
    # terms[level, check], 0.0 where the check selects no mass there, and
    # the selected set's label mean mus[level, check]
    terms = np.zeros((m_grid + 1, family.n))
    mus = np.zeros_like(terms)
    term_updates = distinct_sets = 0

    def refresh(level: int) -> None:
        nonlocal term_updates, distinct_sets
        terms[level] = mus[level] = 0.0
        idx = np.flatnonzero(k == level)
        if not len(idx):
            return
        term_updates += family.n
        v = values[level]
        sets, which = family.level_sets(idx, level)
        term, mean = np.zeros(len(sets)), np.zeros(len(sets))
        for u, sel in enumerate(sets):
            if not len(sel):
                continue
            distinct_sets += 1
            mass = float(masses[sel].sum())
            if mass <= 0.0:
                continue
            mu = float((masses[sel] @ q[sel]) / mass)
            term[u] = mass * (v - mu) ** 2
            mean[u] = mu
        terms[level], mus[level] = term[which], mean[which]

    for level in np.flatnonzero(np.bincount(k)):
        refresh(int(level))
    history: List[PatchRecord] = []
    t = 0
    while True:
        # a check's sum adds its terms left to right in ascending level
        # order; terms.sum(axis=0) would sum pairwise when there is one check
        # (empty levels hold zero rows, which leave the sums as they are)
        check_sums = np.add.accumulate(terms[np.bincount(k, minlength=len(values)) > 0],
                                       axis=0)[-1]
        if check_sums.max(initial=0.0) < alpha:
            break
        t += 1
        if t > max_rounds:
            raise RuntimeError(
                "calibration failed to terminate within 4/alpha^2 rounds")
        # the first maximum in (level, check) order: the largest term, ties
        # to the lowest level, then to the lowest check index
        level, ci = divmod(int(np.argmax(terms)), family.n)
        mu = float(mus[level, ci])
        sets, which = family.level_sets(np.flatnonzero(k == level), level)
        sel = sets[which[ci]]
        k_prime = int(grid_indices(mu, m_grid))
        v_prime = k_prime / m_grid
        k[sel] = k_prime
        assign[sel] = v_prime
        history.append(PatchRecord(
            round=t, check_index=ci, level=float(values[level]), v_tilde=mu,
            v_prime=v_prime, potential=brier(assign, dist),
            mass=float(masses[sel].sum())))
        refresh(level)
        if k_prime != level:
            refresh(k_prime)

    return CalibrationResult(
        grid_m=m_grid,
        initial_assignment=initial,
        assignment=assign,
        history=history,
        rounds=t,
        final_potential=brier(assign, dist),
        counters={"levels": m_grid + 1, "term_updates": term_updates,
                  "distinct_sets": distinct_sets},
    )


def apply_patches(score: float, mask: int, result: CalibrationResult,
                  checks: Sequence[CheckFunction]) -> float:
    """Replay a calibration history on a fresh (score, mask) point."""
    v = snap_to_grid(float(score), result.grid_m)
    for patch in result.history:
        if v == patch.level and checks[patch.check_index].eval_point(score, mask, v):
            v = patch.v_prime
    return v


def default_checks(dist: CellDistribution, base: BaseRates,
                   notion=FairnessNotion.FP,
                   hypotheses: Sequence = (),
                   n_random: int = 64,
                   C: float = 10.0,
                   seed: int = 0,
                   trajectory_lambdas: Optional[np.ndarray] = None) -> List[CheckFunction]:
    """Audit set: all groups, group-hypothesis products, random threshold
    checks from the L1 ball, and optional solver dual snapshots."""
    notion = FairnessNotion.coerce(notion)
    checks = [CheckFunction("group", g, name=dist.groups.names[g])
              for g in range(dist.n_groups)]
    for hi, h in enumerate(hypotheses):
        checks.append(CheckFunction("hypothesis", h, name=f"h{hi}"))
        for g in range(dist.n_groups):
            checks.append(CheckFunction(
                "product", (g, h), name=f"{dist.groups.names[g]}*h{hi}"))
    rng = np.random.Generator(np.random.PCG64(seed))
    for k in range(n_random):
        raw = rng.standard_normal(dist.n_groups)
        radius = C * rng.uniform()
        lam = raw * (radius / np.abs(raw).sum())
        checks.append(CheckFunction(
            "threshold", (lam, notion, base), name=f"s[{k}]"))
    if trajectory_lambdas is not None:
        for k, lam in enumerate(np.asarray(trajectory_lambdas, dtype=float)):
            checks.append(CheckFunction(
                "threshold", (lam.copy(), notion, base), name=f"traj[{k}]"))
    return checks
