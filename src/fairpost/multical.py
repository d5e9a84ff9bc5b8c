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
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    BaseRates,
    CellDistribution,
    decision_thresholds,
    grid_indices,
    group_sums,
)

__all__ = [
    "CheckFunction",
    "PatchRecord",
    "CalibrationResult",
    "audit",
    "calibrate",
    "replay",
    "brier",
    "default_checks",
    "assignment_from_scores",
]

d_of_v = decision_thresholds  # bench/spans.py counts table builds by this name

# the most checks x cells default_checks builds (128 MiB of float64 group
# sums), and the most levels x checks in calibrate's level table
MAX_CHECK_CELLS = 1 << 24


@dataclass(frozen=True)
class CheckFunction:
    """Binary audit function c(x, v); a group check ignores v.

    kind="group": payload is a group index.
    kind="threshold": payload is (lambda vector, BaseRates), the threshold
    rule of a MixtureClassifier with those lambdas and base, whose notion it
    takes.
    """

    kind: str
    payload: object
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("group", "threshold"):
            raise ValueError(f"unknown check kind {self.kind!r}")


class _CheckFamily:
    """The checks over points given by their (groups x points) membership
    matrix G: the group checks' indicators as one bool matrix, per notion
    the threshold checks' group sums as one matrix, and the (s, d) tables of
    d_of_v at the level values.  A threshold check fires on s*S <= d,
    decide_batch(S, v) bit for bit, with S the ordered sum of group_sums,
    as MixtureClassifier adds it, so a point's S depends on its own bits
    alone."""

    def __init__(self, checks: Sequence[CheckFunction], G: np.ndarray, values: np.ndarray):
        self.n = len(checks)
        self.group_rows = [i for i, c in enumerate(checks) if c.kind == "group"]
        self.groups = G[[checks[i].payload for i in self.group_rows]] == 1.0
        thresholds = {}
        for i, c in enumerate(checks):
            if c.kind == "threshold":
                lam, base = c.payload
                thresholds.setdefault(base.notion, []).append((i, lam, base.beta))
        self.tables = {notion: d_of_v(values, notion) for notion in thresholds}
        self.sums = {}  # notion -> (check rows, group sums per row and point)
        for notion, group in thresholds.items():
            rows, lam, beta = zip(*group)
            lam = np.array(lam, dtype=float)
            if lam.shape[1] != len(G):
                raise ValueError("lambdas width must match the group count")
            self.sums[notion] = (list(rows), group_sums(lam, np.array(beta), G))

    def fires(self, idx: np.ndarray, level: int) -> np.ndarray:
        """The (checks x idx) indicator matrix of the points idx, all at
        values[level]."""
        fires = np.empty((self.n, len(idx)), dtype=bool)
        fires[self.group_rows] = self.groups[:, idx]
        for notion, (rows, S) in self.sums.items():
            s, d = self.tables[notion]
            S = S[:, idx]
            fires[rows] = (S if s[level] > 0 else -S) <= d[level]
        return fires

    def level_sets(self, idx: np.ndarray, level: int):
        """The distinct point sets the checks select on the points idx, all at
        values[level], as ascending point arrays, and per check the index of
        its set."""
        # keyed by the row's bytes: np.unique(fires, axis=0) sorts the rows
        # as structured records, several times slower
        index, sets, which = {}, [], []
        for row in self.fires(idx, level):
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
    checks select at a level is reduced once.  A given ``counters`` dict
    receives the distinct levels as "levels", the (check, level) terms as
    "term_updates" and the reduced sets as "distinct_sets".  Every level
    must lie in [0, 1].
    """
    a = _per_cell(assignment, dist, "assignment")
    if not np.all((0.0 <= a) & (a <= 1.0)):  # NaN fails too
        raise ValueError("v must lie in [0, 1]")
    q = dist.require_labels()
    m = dist.masses
    values, k = np.unique(a, return_inverse=True)
    members = np.split(np.argsort(k, kind="stable"), np.cumsum(np.bincount(k))[:-1])
    family = _CheckFamily(checks, dist.group_matrix, values)
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
        counters.update(levels=len(values), term_updates=family.n * len(values),
                        distinct_sets=distinct_sets)
    per_check = totals.tolist()
    max_violation = max(per_check) if per_check else 0.0
    return per_check, max_violation


def round_cap(alpha: float) -> int:
    """The most patch rounds calibrate takes at this alpha: floor(4/alpha^2) + 1.
    ValueError unless 0 < alpha < 1 and 4/alpha^2 is a finite float."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    try:
        return math.floor(4.0 / (alpha * alpha)) + 1
    except (ZeroDivisionError, OverflowError):    # alpha^2 underflows, or 4/alpha^2 overflows
        raise ValueError(f"alpha {alpha!r} too small: 4/alpha^2 passes the float range") from None


def calibrate(f_initial, checks: Sequence[CheckFunction], dist: CellDistribution,
              alpha: float) -> CalibrationResult:
    """Patch the worst (level, check) pair until all checks pass.

    Each round reassigns the offending set to its rounded conditional label
    mean; the loop provably needs at most 4/alpha^2 rounds, each decreasing
    the Brier potential by at least alpha^2/4.

    Cells hold a grid index k (level value k/m).  The term of every
    (level, check) pair is cached; a patch moves cells between two levels
    only, so a round recomputes the terms of those two levels alone, one
    reduction per distinct cell set the checks select there.  ValueError,
    before any level is allocated, when the (ceil(1/alpha) + 1) levels times
    the checks (at least one) pass MAX_CHECK_CELLS.
    """
    max_rounds = round_cap(alpha)
    m_grid = math.ceil(1.0 / alpha)
    if (m_grid + 1) * max(len(checks), 1) > MAX_CHECK_CELLS:
        raise ValueError(f"level table too large: {m_grid + 1} levels x {len(checks)} checks "
                         f"> {MAX_CHECK_CELLS}; raise alpha")
    q = dist.require_labels()
    masses = dist.masses
    if f_initial is None:
        f_initial = dist.scores
    k = grid_indices(_per_cell(f_initial, dist, "f_initial"), m_grid)
    values = np.arange(m_grid + 1) / m_grid
    assign = values[k]
    initial = assign.copy()

    family = _CheckFamily(checks, dist.group_matrix, values)
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
        idx = np.flatnonzero(k == level)
        sel = idx[family.fires(idx, level)[ci]]
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


def replay(result: CalibrationResult, checks: Sequence[CheckFunction],
           scores: np.ndarray, G: np.ndarray) -> np.ndarray:
    """A calibration history replayed on points given by their scores and
    (groups x points) membership matrix G, from the scores snapped to the
    grid: each patch moves the points at its level that its check fires on."""
    m = result.grid_m
    k = grid_indices(scores, m)
    family = _CheckFamily(checks, G, np.arange(m + 1) / m)
    for patch in result.history:
        level = int(grid_indices(patch.level, m))
        idx = np.flatnonzero(k == level)
        k[idx[family.fires(idx, level)[patch.check_index]]] = grid_indices(patch.v_prime, m)
    return k / m


def default_checks(dist: CellDistribution, base: BaseRates,
                   n_random: int = 64,
                   C: float = 10.0,
                   seed: int = 0) -> List[CheckFunction]:
    """Audit set: all groups, then threshold rules under base (its notion and
    beta) at random lambdas from the L1 ball of radius C.  ValueError unless
    0 < C < inf, n_random >= 0, seed >= 0 and the checks times the cells are
    at most MAX_CHECK_CELLS."""
    if not 0 < C < math.inf:
        raise ValueError("C must be positive and finite")
    if n_random < 0:
        raise ValueError("n_random must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if (dist.n_groups + n_random) * dist.n_cells > MAX_CHECK_CELLS:
        raise ValueError(f"audit set too large: {dist.n_groups + n_random} checks x "
                         f"{dist.n_cells} cells > {MAX_CHECK_CELLS}; lower n_random")
    checks = [CheckFunction("group", g, name=dist.groups.names[g])
              for g in range(dist.n_groups)]
    rng = np.random.Generator(np.random.PCG64(seed))
    for k in range(n_random):
        raw = rng.standard_normal(dist.n_groups)
        radius = C * rng.uniform()
        lam = raw * (radius / np.abs(raw).sum())
        checks.append(CheckFunction("threshold", (lam, base), name=f"s[{k}]"))
    return checks
