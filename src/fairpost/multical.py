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
    ThresholdRule,
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
    kind="hypothesis": payload is a classifier (ThresholdRule or a callable
        (score, mask) -> {0,1}).
    kind="product": payload is (group index, classifier).
    kind="threshold": payload is (lambda vector, notion, BaseRates).
    """

    kind: str
    payload: object
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("group", "hypothesis", "product", "threshold"):
            raise ValueError(f"unknown check kind {self.kind!r}")

    def _classifier_bit(self, clf, score: float, mask: int) -> int:
        if isinstance(clf, ThresholdRule):
            return clf.decide(score, mask)
        return int(clf(score, mask))

    def eval_point(self, score: float, mask: int, v: float) -> int:
        if self.kind == "group":
            return (mask >> self.payload) & 1
        if self.kind == "hypothesis":
            return self._classifier_bit(self.payload, score, mask)
        if self.kind == "product":
            g, clf = self.payload
            return ((mask >> g) & 1) * self._classifier_bit(clf, score, mask)
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

    def fires(self, idx: np.ndarray, tables: dict, level: int) -> np.ndarray:
        """Indicator on the cells idx, all at one level: ``tables[notion]``
        holds (s, d) per level (see _d_tables)."""
        if self.fixed is not None:
            return self.fixed[idx]
        s, d = tables[self.notion]
        S = self.S[idx]
        return (S if s[level] > 0 else -S) <= d[level]

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
    if notions and not np.all((0.0 <= values) & (values <= 1.0)):
        raise ValueError("v must lie in [0, 1]")
    return {n: d_of_v(values, n) for n in notions}


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
    # grid levels (m + 1) and (check, level) terms computed, the initial
    # ones included
    counters: dict = field(default_factory=dict)


def brier(assignment, dist: CellDistribution) -> float:
    """Expected squared error E[(y - f)^2] over label randomness."""
    a = np.asarray(assignment, dtype=float)
    q = dist.require_labels()
    return float(dist.masses @ (q * (1.0 - a) ** 2 + (1.0 - q) * a ** 2))


def assignment_from_scores(dist: CellDistribution, m: int) -> np.ndarray:
    """Per-cell scores snapped to the 1/m calibration grid."""
    return grid_indices(dist.scores, m) / m


def audit(assignment, checks: Sequence[CheckFunction], dist: CellDistribution):
    """Mass-weighted absolute conditional bias per check, plus the maximum.

    For each check, sums over level sets v the quantity
    Pr[f=v, c=1] * |v - E[f* | f=v, c=1]|.
    """
    a = np.asarray(assignment, dtype=float)
    q = dist.require_labels()
    m = dist.masses
    compiled = [c.compile(dist) for c in checks]
    values, k = np.unique(a, return_inverse=True)
    members = [np.flatnonzero(k == level) for level in range(len(values))]
    tables = _d_tables(compiled, values)
    per_check = []
    for comp in compiled:
        total = 0.0
        for level, (v, idx) in enumerate(zip(values, members)):
            sel = idx[comp.fires(idx, tables, level)]
            if len(sel):
                total += abs(float(np.sum(m[sel] * (v - q[sel]))))
        per_check.append(total)
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
    only, so a round recomputes the terms of those two levels alone.
    """
    max_rounds = round_cap(alpha)
    m_grid = math.ceil(1.0 / alpha)
    q = dist.require_labels()
    masses = dist.masses
    if f_initial is None:
        f_initial = dist.scores
    k = grid_indices(f_initial, m_grid)
    values = np.arange(m_grid + 1) / m_grid  # values[k] == snap_to_grid(., m_grid)
    assign = values[k]
    initial = assign.copy()

    compiled = [c.compile(dist) for c in checks]
    tables = _d_tables(compiled, values)
    n_checks = len(compiled)
    # per occupied level: terms[level][check], 0.0 where the check selects
    # no mass there, and the selected set's label mean mus[level][check]
    terms, mus = {}, {}
    term_updates = 0

    def selected(level: int, ci: int, idx: np.ndarray) -> np.ndarray:
        return idx[compiled[ci].fires(idx, tables, level)]

    def refresh(level: int) -> None:
        nonlocal term_updates
        terms.pop(level, None)
        mus.pop(level, None)
        idx = np.flatnonzero(k == level)
        if not len(idx):
            return
        term_updates += n_checks
        v = values[level]
        row, mu_row = np.zeros(n_checks), np.zeros(n_checks)
        for ci in range(n_checks):
            sel = selected(level, ci, idx)
            if not len(sel):
                continue
            mass = float(masses[sel].sum())
            if mass <= 0.0:
                continue
            mu = float((masses[sel] @ q[sel]) / mass)
            row[ci] = mass * (v - mu) ** 2
            mu_row[ci] = mu
        terms[level], mus[level] = row, mu_row

    for level in np.flatnonzero(np.bincount(k)):
        refresh(int(level))
    history: List[PatchRecord] = []
    t = 0
    while True:
        occupied = sorted(terms)
        # a check's sum adds its terms left to right in ascending level order
        check_sums = np.zeros(n_checks)
        for level in occupied:
            check_sums += terms[level]
        if check_sums.max(initial=0.0) < alpha:
            break
        t += 1
        if t > max_rounds:
            raise RuntimeError(
                "calibration failed to terminate within 4/alpha^2 rounds")
        # the first maximum in (level, check) order: the largest term, ties
        # to the lowest level, then to the lowest check index
        top = max(terms[level].max() for level in occupied)
        level = next(level for level in occupied if terms[level].max() == top)
        ci = int(np.argmax(terms[level]))
        mu = float(mus[level][ci])
        sel = selected(level, ci, np.flatnonzero(k == level))
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
        counters={"levels": m_grid + 1, "term_updates": term_updates},
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
