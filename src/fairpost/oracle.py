"""Desk-scale ground truth: exact optimum over all boolean cell labelings.

The constrained minimum-error program over mixtures of deterministic
classifiers is a small LP once the domain is cell-aggregated; we enumerate
every labeling (capped at 2^20) and solve the LP with a dense two-phase
simplex.  This module exists to certify the solver, never to drive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import BaseRates, Cell, CellDistribution, FairnessNotion, pointwise_values
from .metrics import _constraint_multiplier, rate_terms

__all__ = [
    "OracleSolution",
    "PointwiseArgmin",
    "InfeasibleError",
    "simplex_solve",
    "enumerate_optimum",
    "pointwise_argmin",
]

PIVOT_TOL = 1e-9


class InfeasibleError(RuntimeError):
    pass


class UnboundedError(RuntimeError):
    pass


def _bland_pivot(T: np.ndarray, basis: List[int], allowed: int, tol: float,
                 max_iter: int) -> None:
    """Run simplex pivots in place with Bland's anti-cycling rule.

    T is (m+1, n+1) with the reduced-cost row last and the rhs column last;
    columns >= allowed may never enter the basis.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        red = T[-1, :-1]
        entering = -1
        for j in range(allowed):
            if red[j] < -tol:
                entering = j
                break
        if entering < 0:
            return
        col = T[:m, entering]
        ratios = []
        for i in range(m):
            if col[i] > tol:
                ratios.append((T[i, -1] / col[i], basis[i], i))
        if not ratios:
            raise UnboundedError("unbounded linear program")
        _, _, leave = min(ratios)
        piv = T[leave, entering]
        T[leave, :] /= piv
        for r in range(m + 1):
            if r != leave and T[r, entering] != 0.0:
                T[r, :] -= T[r, entering] * T[leave, :]
        basis[leave] = entering
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
            pivot_col = -1
            for j in range(n + slack_cols):
                if abs(T[i, j]) > tol:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                piv = T[i, pivot_col]
                T[i, :] /= piv
                for r in range(m + 1):
                    if r != i and T[r, pivot_col] != 0.0:
                        T[r, :] -= T[r, pivot_col] * T[i, :]
                basis[i] = pivot_col
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
    certificate: dict
    weights: np.ndarray


def _subset_sums(w: np.ndarray) -> np.ndarray:
    """Vector of sum_{i: bit i of k set} w_i over all 2^n labelings k."""
    out = np.zeros(1)
    for wi in w:
        out = np.concatenate([out, out + wi])
    return out


def _constraint_columns(dist: CellDistribution, notion: FairnessNotion,
                        base: BaseRates, f: np.ndarray):
    """(constant_g, coef_g) with a_g(h) = constant_g + coef_g @ h for each group."""
    a, b, _ = rate_terms(notion, f)
    m = dist.masses
    centered = dist.group_matrix - _constraint_multiplier(base)[:, None]
    return centered @ (m * a), centered * (m * b)


def enumerate_optimum(dist: CellDistribution, notion, base: BaseRates,
                      gamma: float, feasibility_tol: float = 1e-9,
                      scores_as_f: bool = True,
                      max_cells: int = 20) -> OracleSolution:
    """Exact optimum of the parity-constrained error LP over all labelings.

    Enumerates every deterministic cell labeling, then solves the mixture
    LP with the two-phase simplex.  Guarded to 2^max_cells labelings.
    """
    notion = FairnessNotion.coerce(notion)
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    n = dist.n_cells
    if n > max_cells or n > 20:
        raise ValueError(f"cell count {n} exceeds enumeration guard {min(max_cells, 20)}")
    f = dist.scores if scores_as_f else dist.require_labels()
    m = dist.masses

    err_a, err_b, _ = rate_terms(FairnessNotion.ERR, f)
    err = float(m @ err_a) + _subset_sums(m * err_b)
    const, coef = _constraint_columns(dist, notion, base, f)
    a = np.stack([const[g] + _subset_sums(coef[g]) for g in range(dist.n_groups)])

    g, K = a.shape
    A_ub = np.vstack([a, -a])                    # (2G, K)
    b_ub = np.full(2 * g, gamma)
    A_eq = np.ones((1, K))
    b_eq = np.array([1.0])

    weights, opt_value = simplex_solve(err, A_ub, b_ub, A_eq, b_eq)

    mix_a = a @ weights
    slack_upper = gamma - mix_a
    slack_lower = gamma + mix_a
    if np.any(slack_upper < -feasibility_tol) or np.any(slack_lower < -feasibility_tol):
        raise RuntimeError("simplex returned an infeasible mixture")

    support = []
    for k in np.flatnonzero(weights > 1e-12):
        bits = tuple((int(k) >> i) & 1 for i in range(n))
        support.append((bits, float(weights[k])))
    certificate = {
        "constraint_values": mix_a,
        "slack_upper": slack_upper,
        "slack_lower": slack_lower,
        "feasibility_tol": feasibility_tol,
    }
    return OracleSolution(
        opt_value=opt_value,
        support=support,
        certificate=certificate,
        weights=weights,
    )


@dataclass(frozen=True)
class PointwiseArgmin:
    bit: int
    value_zero: float
    value_one: float
    tie: bool


def pointwise_argmin(lam, cell: Cell, notion, base: BaseRates,
                     tiebreak_positive: bool = True) -> PointwiseArgmin:
    """Brute-force the per-cell Lagrangian contribution at both decisions."""
    notion = FairnessNotion.coerce(notion)
    lam = np.asarray(lam, dtype=float)
    bits = np.array([(cell.groups >> i) & 1 for i in range(len(lam))], dtype=float)
    S = float(lam @ (bits - base.beta))
    v0, v1 = pointwise_values(np.array([S]), np.array([cell.score]), notion)
    v0, v1 = float(v0[0]), float(v1[0])
    tie = v0 == v1
    if tie:
        bit = 1 if tiebreak_positive else 0
    else:
        bit = int(v1 < v0)
    return PointwiseArgmin(bit=bit, value_zero=v0, value_one=v1, tie=tie)
