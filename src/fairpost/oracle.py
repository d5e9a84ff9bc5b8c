"""Ground truth: the exact optimum over mixtures of cell labelings.

The constrained minimum-error program over mixtures of deterministic
classifiers is an LP over the per-cell positive probability once the domain
is cell-aggregated: n variables in [0, 1] and one constraint row per group,
capped at MAX_CELL_GROUPS cells x groups, solved with a bounded-variable
simplex whose basis has one row per group.  This module exists to certify
the solver, never to drive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import BaseRates, CellDistribution, FairnessNotion, rate_terms

__all__ = ["OracleSolution", "InfeasibleError", "simplex_solve", "enumerate_optimum"]

PIVOT_TOL = 1e-9
MAX_ITER = 50000
MAX_CELL_GROUPS = 50_000     # n_cells * n_groups; 10,000 x 5 solves in about 1 s


class InfeasibleError(RuntimeError):
    pass


def _iterate(T: np.ndarray, x: np.ndarray, lb: np.ndarray, ub: np.ndarray,
             basis: np.ndarray, cost: np.ndarray) -> None:
    """Minimize cost @ x from the basic solution x, in place.

    T is B^-1 [A | -I | artificials] over the reduced-cost row, which this
    sets from cost; every nonbasic variable sits on a bound.  Pricing takes
    the largest reduced cost (Dantzig), and the least index right after a
    degenerate step (Bland): every step of a cycle is degenerate, so the
    rule cannot cycle.  Ratio ties go to the least basis index.
    """
    T[-1] = cost - cost[basis] @ T[:-1]
    fixed = lb == ub
    bland = False
    for _ in range(MAX_ITER):
        d = T[-1]
        score = np.where(x > lb, d, -d)           # the gain of leaving the bound
        score[basis] = 0.0
        score[fixed] = 0.0
        j = int(np.argmax(score > PIVOT_TOL) if bland else np.argmax(score))
        if score[j] <= PIVOT_TOL:
            return
        s = -np.sign(d[j])                        # +1 up from lb, -1 down from ub
        alpha = s * T[:-1, j]
        xb = x[basis]
        room = np.where(alpha > 0, xb - lb[basis], ub[basis] - xb)
        ratio = np.full(len(basis), np.inf)
        ok = np.abs(alpha) > PIVOT_TOL
        ratio[ok] = np.maximum(room[ok], 0.0) / np.abs(alpha[ok])
        t = min(ratio.min(), ub[j] - lb[j])
        x[basis] = xb - t * alpha
        if t < ratio.min():                       # a bound flip, no pivot
            x[j] = ub[j] if s > 0 else lb[j]
        else:
            ties = np.flatnonzero(ratio == t)
            row = ties[np.argmin(basis[ties])]
            x[j] += s * t
            x[basis[row]] = lb[basis[row]] if alpha[row] > 0 else ub[basis[row]]
            T[row] /= T[row, j]
            col = T[:, j].copy()
            col[row] = 0.0
            T -= np.outer(col, T[row])
            basis[row] = j
        bland = t <= PIVOT_TOL
    raise RuntimeError("simplex iteration limit reached")


def simplex_solve(c: np.ndarray, A: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> Tuple[np.ndarray, float]:
    """Minimize c @ p subject to lo <= A @ p <= hi and 0 <= p <= 1.

    Bounded-variable simplex (Dantzig 1955) on the rows A @ p - r = 0 with
    r_g in [lo_g, hi_g]: the basis has one row per group, and a variable
    that crosses its box is a bound flip, not a pivot.  Phase one puts an
    artificial on each row whose r_g cannot start at 0, and fixes them at 0
    once they sum to 0; InfeasibleError when they cannot.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    g, n = A.shape
    start = np.clip(0.0, lo, hi)                  # r at p = 0, or its nearest bound
    art = np.flatnonzero(start != 0.0)
    k = len(art)
    scale = -np.ones(g)                           # rows scaled so that B = I
    scale[art] = np.sign(start[art])
    T = np.zeros((g + 1, n + g + k))
    T[:g, :n] = scale[:, None] * A
    T[np.arange(g), n + np.arange(g)] = -scale
    T[art, n + g + np.arange(k)] = 1.0
    basis = n + np.arange(g)
    basis[art] = n + g + np.arange(k)
    lb = np.concatenate([np.zeros(n), lo, np.zeros(k)])
    ub = np.concatenate([np.ones(n), hi, np.full(k, np.inf)])
    x = np.concatenate([np.zeros(n), start, np.abs(start[art])])

    _iterate(T, x, lb, ub, basis, np.concatenate([np.zeros(n + g), np.ones(k)]))
    if x[n + g:].sum() > PIVOT_TOL:
        raise InfeasibleError("infeasible instance")
    ub[n + g:] = 0.0
    _iterate(T, x, lb, ub, basis, np.concatenate([c, np.zeros(g + k)]))
    p = x[:n]
    p[np.abs(p) <= PIVOT_TOL] = 0.0               # rounding dust on a bound
    p[np.abs(1.0 - p) <= PIVOT_TOL] = 1.0
    return p, float(c @ p)


@dataclass
class OracleSolution:
    opt_value: float
    support: List[Tuple[tuple, float]]
    weights: np.ndarray


def _constraint_columns(dist: CellDistribution, base: BaseRates, f: np.ndarray):
    """(constant_g, coef_g) with a_g(h) = constant_g + coef_g @ h for each group,
    under base's notion and beta."""
    a, b, _ = rate_terms(base.notion, f)
    m = dist.masses
    centered = dist.group_matrix - base.beta[:, None]
    return centered @ (m * a), centered * (m * b)


def _staircase(p: np.ndarray) -> List[Tuple[tuple, float]]:
    """p as a mixture of labelings, its staircase: over p's distinct positive
    levels u, {p >= u} weighs u minus the next level down, and the all-zero
    labeling weighs 1 - max p.  With 0 added to the levels, {p > u} weighs
    the step from u up to the next level, or up to 1."""
    levels = np.unique(np.append(p, 0.0))
    steps = np.diff(np.append(levels, 1.0))
    return [(tuple((p > u).astype(int).tolist()), float(w))
            for u, w in zip(levels, steps) if w > 0.0]


def enumerate_optimum(dist: CellDistribution, base: BaseRates, gamma: float,
                      scores_as_f: bool = True) -> OracleSolution:
    """Exact optimum of the error LP under base's parity constraints.

    The constraints are base's notion, centred on its beta.  Error and every
    constraint are affine in the per-cell positive probability p, and
    [0, 1]^n is the convex hull of the labelings, so the optimum over
    mixtures of labelings is the LP over p: n variables in [0, 1] and one
    two-sided row per group, solved with the bounded-variable simplex,
    guarded to MAX_CELL_GROUPS cells x groups.  f is the scores (the
    solver's program), or with scores_as_f=False the raw label means (the
    true optimum).  The support is p*'s staircase: a vertex has at most |G|
    fractional cells, so at most |G| + 1 labelings.
    """
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    n, g = dist.n_cells, dist.n_groups
    if n * g > MAX_CELL_GROUPS:
        raise ValueError(f"{n} cells x {g} groups = {n * g} exceed LP guard {MAX_CELL_GROUPS}")
    f = dist.scores if scores_as_f else dist.require_labels()
    m = dist.masses

    err_a, err_b, _ = rate_terms(FairnessNotion.ERR, f)
    const, coef = _constraint_columns(dist, base, f)
    p = simplex_solve(m * err_b, coef, -gamma - const, gamma - const)[0]
    # values under PIVOT_TOL apart are rounding dust, as at 0 and 1: each run
    # takes its least, so that no labeling of the staircase has rounding weight
    levels, level_of = np.unique(np.clip(p, 0.0, 1.0), return_inverse=True)
    starts = np.diff(levels, prepend=-np.inf) > PIVOT_TOL
    p = levels[starts][np.cumsum(starts)[level_of.reshape(-1)] - 1]

    if np.any(np.abs(const + coef @ p) > gamma + PIVOT_TOL):
        raise RuntimeError("simplex returned an infeasible mixture")
    support = _staircase(p)
    return OracleSolution(opt_value=float(m @ err_a) + float((m * err_b) @ p),
                          support=support, weights=np.array([w for _, w in support]))
