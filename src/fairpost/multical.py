"""Joint multicalibration: threshold check family, auditing, and patching.

A predictor assignment maps each cell to a grid value; auditing measures the
mass-weighted conditional bias of each level set against binary checks that
may look at the level value itself.  The patch loop repairs the worst
(level, check) pair until every check passes, with the Brier score as the
decreasing potential that bounds the round count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .core import (
    BaseRates,
    CellDistribution,
    FairnessNotion,
    ThresholdRule,
    bits_from_mask,
    snap_to_grid,
)

__all__ = [
    "CheckFunction",
    "PatchRecord",
    "CalibrationResult",
    "d_of_v",
    "threshold_eval",
    "audit",
    "calibrate",
    "brier",
    "default_checks",
    "assignment_from_scores",
    "apply_patches",
]

# Comparison direction of the threshold checks, chosen per notion so that
# s_lambda(x, f(x)) coincides with the closed-form best response whenever
# the rule's denominator is positive (d is increasing for FP/SP, so the
# rule's acceptance region is a lower set in the group sum; it is an upper
# set for FN).  Singular d values compare as 0 for "<=" checks against
# -inf and for ">=" checks against +inf.
_LE_NOTIONS = (FairnessNotion.FP, FairnessNotion.SP)


def d_of_v(notion, v: float) -> float:
    """Threshold curve d(v) of the check family, with singularities mapped
    to +inf at the excluded endpoints."""
    notion = FairnessNotion.coerce(notion)
    if not 0.0 <= v <= 1.0:
        raise ValueError("v must lie in [0, 1]")
    if notion is FairnessNotion.FP:
        if v == 1.0:
            return math.inf
        return (2.0 * v - 1.0) / (1.0 - v)
    if notion is FairnessNotion.FN:
        if v == 0.0:
            return math.inf
        return (1.0 - 2.0 * v) / v
    if notion is FairnessNotion.ERR:
        if v == 0.5:
            return math.inf
        return (2.0 * v - 1.0) / (1.0 - 2.0 * v)
    return 2.0 * v - 1.0


def _compare(S, d, notion: FairnessNotion):
    """Check indicator comparing the group sum against d(v)."""
    if notion in _LE_NOTIONS:
        return S <= d
    return S >= d


def threshold_eval(lam, base: BaseRates, cell_groups: Union[int, Sequence[int]],
                   v: float, notion) -> int:
    """Evaluate the thresholding check s_lambda at (group mask, level v)."""
    notion = FairnessNotion.coerce(notion)
    lam = np.asarray(lam, dtype=float)
    if isinstance(cell_groups, (int, np.integer)):
        bits = np.array(bits_from_mask(int(cell_groups), len(lam)), dtype=float)
    else:
        bits = np.asarray(cell_groups, dtype=float)
    S = float(lam @ (bits - base.beta))
    return int(_compare(S, d_of_v(notion, v), notion))


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
        n = dist.n_cells
        if check.kind == "threshold":
            lam, notion, base = check.payload
            lam = np.asarray(lam, dtype=float)
            self.notion = FairnessNotion.coerce(notion)
            self.S = lam @ (dist.group_matrix - base.beta[:, None])
            self.fixed = None
        else:
            bits = np.empty(n)
            for j, c in enumerate(dist.cells):
                bits[j] = check.eval_point(c.score, c.groups, c.score)
            self.fixed = bits.astype(bool)
            self.S = None
            self.notion = None

    def evaluate(self, levels: np.ndarray) -> np.ndarray:
        """Indicator per cell, with v set to the cell's current level."""
        if self.fixed is not None:
            return self.fixed
        d = np.array([d_of_v(self.notion, float(v)) for v in levels])
        return np.asarray(_compare(self.S, d, self.notion), dtype=bool)


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


def brier(assignment, dist: CellDistribution) -> float:
    """Expected squared error E[(y - f)^2] over label randomness."""
    a = np.asarray(assignment, dtype=float)
    q = dist.require_labels()
    return float(dist.masses @ (q * (1.0 - a) ** 2 + (1.0 - q) * a ** 2))


def assignment_from_scores(dist: CellDistribution, m: int) -> np.ndarray:
    """Per-cell scores snapped to the 1/m calibration grid."""
    return np.array([snap_to_grid(s, m) for s in dist.scores])


def audit(assignment, checks: Sequence[CheckFunction], dist: CellDistribution):
    """Mass-weighted absolute conditional bias per check, plus the maximum.

    For each check, sums over level sets v the quantity
    Pr[f=v, c=1] * |v - E[f* | f=v, c=1]|.
    """
    a = np.asarray(assignment, dtype=float)
    q = dist.require_labels()
    m = dist.masses
    per_check = []
    for check in checks:
        cval = check.compile(dist).evaluate(a)
        total = 0.0
        for v in np.unique(a[cval]):
            sel = cval & (a == v)
            total += abs(float(np.sum(m[sel] * (v - q[sel]))))
        per_check.append(total)
    max_violation = max(per_check) if per_check else 0.0
    return per_check, max_violation


def calibrate(f_initial, checks: Sequence[CheckFunction], dist: CellDistribution,
              alpha: float) -> CalibrationResult:
    """Patch the worst (level, check) pair until all checks pass.

    Each round reassigns the offending set to its rounded conditional label
    mean; the loop provably needs at most 4/alpha^2 rounds, each decreasing
    the Brier potential by at least alpha^2/4.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    m_grid = math.ceil(1.0 / alpha)
    q = dist.require_labels()
    masses = dist.masses
    if f_initial is None:
        f_initial = dist.scores
    f_initial = np.asarray(f_initial, dtype=float)
    assign = np.array([snap_to_grid(float(v), m_grid) for v in f_initial])
    initial = assign.copy()

    compiled = [c.compile(dist) for c in checks]
    max_rounds = math.floor(4.0 / (alpha * alpha)) + 1
    history: List[PatchRecord] = []
    t = 0
    while True:
        best = None  # (term, v, check_idx, sel)
        worst_sum = 0.0
        for ci, comp in enumerate(compiled):
            cval = comp.evaluate(assign)
            check_sum = 0.0
            for v in np.unique(assign[cval]):
                sel = cval & (assign == v)
                mass = float(masses[sel].sum())
                if mass <= 0.0:
                    continue
                mu = float((masses[sel] @ q[sel]) / mass)
                term = mass * (v - mu) ** 2
                check_sum += term
                cand = (term, v, ci)
                if best is None or term > best[0] or (
                        term == best[0] and (v, ci) < (best[1], best[2])):
                    best = cand
                    best_sel = sel
                    best_mu = mu
            worst_sum = max(worst_sum, check_sum)
        if worst_sum < alpha or best is None:
            break
        t += 1
        if t > max_rounds:
            raise RuntimeError(
                "calibration failed to terminate within 4/alpha^2 rounds")
        _, v, ci = best
        v_prime = snap_to_grid(best_mu, m_grid)
        assign = assign.copy()
        assign[best_sel] = v_prime
        history.append(PatchRecord(
            round=t, check_index=ci, level=float(v), v_tilde=best_mu,
            v_prime=v_prime, potential=brier(assign, dist),
            mass=float(masses[best_sel].sum())))

    return CalibrationResult(
        grid_m=m_grid,
        initial_assignment=initial,
        assignment=assign,
        history=history,
        rounds=t,
        final_potential=brier(assign, dist),
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
