"""Ground truth: the exact optimum over mixtures of cell labelings.

The constrained minimum-error program over mixtures of deterministic
classifiers is an LP over the per-cell positive probability once the domain
is cell-aggregated: n variables in [0, 1], capped at max_cells (default
400), solved with a dense two-phase simplex.  This module exists to certify
the solver, never to drive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import BaseRates, CellDistribution, FairnessNotion, rate_terms

__all__ = [
    "OracleSolution",
    "InfeasibleError",
    "simplex_solve",
    "enumerate_optimum",
]

PIVOT_TOL = 1e-9


class InfeasibleError(RuntimeError):
    pass


class UnboundedError(RuntimeError):
    pass


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Make column col the unit vector of row in the tableau, in place."""
    T[row] /= T[row, col]
    for r in np.flatnonzero(T[:, col]):
        if r != row:
            T[r] -= T[r, col] * T[row]


def _bland_pivot(T: np.ndarray, basis: List[int], allowed: int, tol: float,
                 max_iter: int) -> None:
    """Run simplex pivots in place with Bland's anti-cycling rule.

    T is (m+1, n+1) with the reduced-cost row last and the rhs column last;
    columns >= allowed may never enter the basis.
    """
    for _ in range(max_iter):
        candidates = np.flatnonzero(T[-1, :allowed] < -tol)
        if not len(candidates):
            return
        entering = candidates[0]
        col = T[:-1, entering]
        rows = np.flatnonzero(col > tol)
        if not len(rows):
            raise UnboundedError("unbounded linear program")
        # the least ratio, ties to the least basis index
        order = np.lexsort((np.asarray(basis)[rows], T[rows, -1] / col[rows]))
        leave = int(rows[order[0]])
        _pivot(T, leave, entering)
        basis[leave] = int(entering)
    raise RuntimeError("simplex iteration limit reached")


def simplex_solve(c: np.ndarray, A_ub: Optional[np.ndarray], b_ub: Optional[np.ndarray],
                  A_eq: Optional[np.ndarray], b_eq: Optional[np.ndarray],
                  tol: float = PIVOT_TOL) -> Tuple[np.ndarray, float]:
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    Dense two-phase tableau simplex with Bland's rule.  Raises
    InfeasibleError when phase one cannot reach zero.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    A_ub = np.empty((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    b_ub = np.empty(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    A_eq = np.empty((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.empty(0) if b_eq is None else np.asarray(b_eq, dtype=float)

    mu, me = len(b_ub), len(b_eq)
    A = np.vstack([A_ub, A_eq])
    b = np.concatenate([b_ub, b_eq])
    sign = np.ones(mu + me)
    flip = b < 0
    A[flip] *= -1.0
    b = np.abs(b)
    sign[:mu][flip[:mu]] = -1.0

    slack_cols = mu
    art_rows = [i for i in range(mu + me) if i >= mu or sign[i] < 0]
    art_cols = len(art_rows)
    total = n + slack_cols + art_cols
    m = mu + me

    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    basis = [-1] * m
    for i in range(mu):
        T[i, n + i] = sign[i]
        if sign[i] > 0:
            basis[i] = n + i
    for k, i in enumerate(art_rows):
        T[i, n + slack_cols + k] = 1.0
        basis[i] = n + slack_cols + k
    T[:m, -1] = b

    # phase 1: minimize the artificial total, priced out over the basis
    T[-1, n + slack_cols:total] = 1.0
    for i, bcol in enumerate(basis):
        if bcol >= n + slack_cols:
            T[-1, :] -= T[i, :]
    _bland_pivot(T, basis, total, tol, max_iter=50000)
    if T[-1, -1] < -tol:
        raise InfeasibleError("infeasible instance")

    # drive any artificial still in the basis out of it, or drop its row
    keep = list(range(m))
    for i in range(m):
        if basis[i] >= n + slack_cols:
            cols = np.flatnonzero(np.abs(T[i, :n + slack_cols]) > tol)
            if len(cols):
                _pivot(T, i, cols[0])
                basis[i] = int(cols[0])
            else:
                keep.remove(i)
    if len(keep) != m:
        rows = keep + [m]
        T = T[rows]
        basis = [basis[i] for i in keep]
        m = len(keep)

    # phase 2 on the original objective
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i, bcol in enumerate(basis):
        if T[-1, bcol] != 0.0:
            T[-1, :] -= T[-1, bcol] * T[i, :]
    _bland_pivot(T, basis, n + slack_cols, tol, max_iter=50000)

    x = np.zeros(total)
    for i, bcol in enumerate(basis):
        x[bcol] = T[i, -1]
    value = float(c @ x[:n])
    return x[:n], value


@dataclass
class OracleSolution:
    opt_value: float
    support: List[Tuple[tuple, float]]
    weights: np.ndarray


def _constraint_columns(dist: CellDistribution, notion: FairnessNotion,
                        base: BaseRates, f: np.ndarray):
    """(constant_g, coef_g) with a_g(h) = constant_g + coef_g @ h for each group."""
    a, b, _ = rate_terms(notion, f)
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


def enumerate_optimum(dist: CellDistribution, notion, base: BaseRates,
                      gamma: float, feasibility_tol: float = 1e-9,
                      scores_as_f: bool = True,
                      max_cells: int = 400) -> OracleSolution:
    """Exact optimum of the parity-constrained error LP.

    Error and every constraint are affine in the per-cell positive
    probability p, and [0, 1]^n is the convex hull of the labelings, so the
    optimum over mixtures of labelings is the LP over p: n variables, 2|G|
    constraint rows and n box rows, solved with the two-phase simplex and
    guarded to max_cells cells.  The support is p*'s staircase.
    """
    notion = FairnessNotion.coerce(notion)
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    n = dist.n_cells
    if n > max_cells:
        raise ValueError(f"{n} cells exceed LP guard {max_cells}")
    f = dist.scores if scores_as_f else dist.require_labels()
    m = dist.masses

    err_a, err_b, _ = rate_terms(FairnessNotion.ERR, f)
    const, coef = _constraint_columns(dist, notion, base, f)
    A_ub = np.vstack([coef, -coef, np.eye(n)])   # (2G + n, n)
    b_ub = np.concatenate([gamma - const, gamma + const, np.ones(n)])
    p, value = simplex_solve(m * err_b, A_ub, b_ub, None, None)
    p = np.clip(p, 0.0, 1.0)

    if np.any(np.abs(const + coef @ p) > gamma + feasibility_tol):
        raise RuntimeError("simplex returned an infeasible mixture")
    support = _staircase(p)
    return OracleSolution(opt_value=float(m @ err_a) + value, support=support,
                          weights=np.array([w for _, w in support]))
