"""The exact oracle as it stood before the LP over per-cell probabilities,
kept verbatim, and a scipy HiGHS solve of the LP that replaced it.

`reference_optimum` enumerates every deterministic cell labeling and solves
the mixture LP over all 2^n of them with the tableau simplex of that time
(`simplex_solve`, loop form: a general two-phase program over A_ub/A_eq
with x >= 0).  The box [0, 1]^n is the convex hull of the labelings, so its
optimum must equal `enumerate_optimum`'s; the tests hold the two together
to 1e-12.  `highs_optimum` solves the LP over p with scipy's HiGHS.
"""

from typing import List, Optional, Tuple

import numpy as np

from fairpost.core import BaseRates, CellDistribution, FairnessNotion
from fairpost.metrics import rate_terms
from fairpost.oracle import PIVOT_TOL, InfeasibleError, _constraint_columns


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


def _subset_sums(w: np.ndarray) -> np.ndarray:
    """Vector of sum_{i: bit i of k set} w_i over all 2^n labelings k."""
    out = np.zeros(1)
    for wi in w:
        out = np.concatenate([out, out + wi])
    return out


def labeling_program(dist: CellDistribution, base: BaseRates, gamma: float,
                     scores_as_f: bool = True):
    """(c, A_ub, b_ub, A_eq, b_eq) of the mixture LP over all 2^n labelings."""
    f = dist.scores if scores_as_f else dist.require_labels()
    m = dist.masses

    err_a, err_b, _ = rate_terms(FairnessNotion.ERR, f)
    err = float(m @ err_a) + _subset_sums(m * err_b)
    const, coef = _constraint_columns(dist, base, f)
    a = np.stack([const[g] + _subset_sums(coef[g]) for g in range(dist.n_groups)])

    g, K = a.shape
    A_ub = np.vstack([a, -a])                    # (2G, K)
    b_ub = np.full(2 * g, gamma)
    A_eq = np.ones((1, K))
    b_eq = np.array([1.0])
    return err, A_ub, b_ub, A_eq, b_eq


def reference_optimum(dist: CellDistribution, base: BaseRates, gamma: float,
                      scores_as_f: bool = True) -> Tuple[float, np.ndarray]:
    """(opt_value, weights over the 2^n labelings) of the mixture LP."""
    weights, opt_value = simplex_solve(*labeling_program(dist, base, gamma, scores_as_f))
    return opt_value, weights


def highs_optimum(linprog, dist: CellDistribution, base: BaseRates,
                  gamma: float) -> float:
    """The LP over p in [0, 1]^n with f = scores, solved by scipy's linprog
    (HiGHS)."""
    f, m = dist.scores, dist.masses
    err_a, err_b, _ = rate_terms(FairnessNotion.ERR, f)
    const, coef = _constraint_columns(dist, base, f)
    res = linprog(m * err_b, A_ub=np.vstack([coef, -coef]),
                  b_ub=np.concatenate([gamma - const, gamma + const]),
                  bounds=(0, 1), method="highs")
    assert res.status == 0
    return float(m @ err_a) + res.fun
