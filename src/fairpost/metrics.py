"""Error rates, group rates, base-rate constants, and parity constraint values.

All expectations are exact mass-weighted sums over cells; nothing here
samples.  A classifier is given as its per-cell positive probability, in
which every quantity is linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BaseRates,
    CellDistribution,
    FairnessNotion,
    rate_terms,
)

__all__ = [
    "RateReport",
    "rate_terms",
    "group_rates",
    "error_rate",
    "base_rates",
    "positive_probs",
    "surrogate_error",
    "constraint_vector",
    "true_rates",
]

def positive_probs(h, dist: CellDistribution) -> np.ndarray:
    """A classifier's per-cell positive probabilities as a checked float array."""
    p = np.asarray(h, dtype=float)
    if p.shape != (dist.n_cells,):
        raise ValueError("positive-probability array has wrong shape")
    if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
        raise ValueError("positive probabilities must lie in [0, 1]")
    return p


def group_rates(terms, p, masses: np.ndarray, G: np.ndarray):
    """(per-group rates G @ u, aggregate u.sum()) with u = masses * (a + b p)."""
    a, b, _ = terms
    u = masses * (a + b * p)
    return G @ u, float(u.sum())


def _constraint(terms, p, masses: np.ndarray, G: np.ndarray, beta: np.ndarray):
    """The parity constraint of every group, c_g(p) = rho_g - beta_g * rho_0."""
    rho_g, rho0 = group_rates(terms, p, masses, G)
    return rho_g - beta * rho0


def error_rate(p, f, masses: np.ndarray) -> float:
    """Misclassification rate: the ERR row of the table, masses @ (f + (1-2f) p)."""
    a, b, _ = rate_terms(FairnessNotion.ERR, f)
    return float(masses @ (a + b * p))


def base_rates(dist: CellDistribution, notion, mode: str = "from_scores") -> BaseRates:
    """Per-group beta constants for a fairness notion.

    mode="from_scores" estimates label marginals from the scores (the
    unlabeled-data path); mode="from_labels" uses label_mean.  beta is the
    group's conditioning weight w = G @ (masses * c) over the total weight
    masses @ c: for ERR and SP, whose c is 1, beta is w itself, the group
    mass.
    """
    notion = FairnessNotion.coerce(notion)
    if mode not in ("from_scores", "from_labels"):
        raise ValueError(f"unknown mode {mode!r}")
    q = dist.scores if mode == "from_scores" else dist.require_labels()
    c = rate_terms(notion, q)[2]
    w = dist.group_matrix @ (dist.masses * c)
    if notion in (FairnessNotion.ERR, FairnessNotion.SP):   # c = 1: the group mass
        beta = w
    else:
        denom = float(dist.masses @ c)
        if denom <= 0.0:
            label = 1 if notion is FairnessNotion.FN else 0
            raise ValueError(f"degenerate label marginal: Pr[y={label}] = 0")
        beta = w / denom
    return BaseRates(notion=notion, beta=np.clip(beta, 0.0, 1.0))


def surrogate_error(h, dist: CellDistribution) -> float:
    """error_rate at f = the scores; at the label means it is true_rates' err."""
    return error_rate(positive_probs(h, dist), dist.scores, dist.masses)


def constraint_vector(h, dist: CellDistribution, notion,
                      base: BaseRates) -> np.ndarray:
    """Signed constraint left-hand sides for every group at once, at f = the scores."""
    notion = FairnessNotion.coerce(notion)
    if base.notion is not notion:
        raise ValueError("base rates were computed for a different notion")
    return _constraint(rate_terms(notion, dist.scores), positive_probs(h, dist), dist.masses,
                       dist.group_matrix, base.beta)


@dataclass(frozen=True)
class RateReport:
    """True error and per-group parity violations of a classifier."""

    notion: FairnessNotion
    err: float
    rho_overall: float
    rho_by_group: np.ndarray
    violation_by_group: np.ndarray
    max_violation: float
    degenerate_groups: tuple = ()


def true_rates(h, dist: CellDistribution, notion) -> RateReport:
    """Exact rates against the conditional label means.

    Groups with zero conditioning mass report rate 0 and violation 0; the
    w_g factor makes the violation vanish there anyway.
    """
    notion = FairnessNotion.coerce(notion)
    q = dist.require_labels()
    p = positive_probs(h, dist)
    m = dist.masses
    row = rate_terms(notion, q)

    err = error_rate(p, q, m)
    num, num_total = group_rates(row, p, m, dist.group_matrix)
    cond = m * row[2]
    w = dist.group_matrix @ cond
    total = float(np.sum(cond))
    rho_overall = num_total / total if total > 0 else 0.0

    degenerate = tuple(int(g) for g in np.flatnonzero(w <= 0.0))
    rho = np.zeros(dist.n_groups)
    nonzero = w > 0.0
    rho[nonzero] = num[nonzero] / w[nonzero]
    violation = w * np.abs(rho - rho_overall)
    violation[~nonzero] = 0.0
    return RateReport(
        notion=notion,
        err=err,
        rho_overall=rho_overall,
        rho_by_group=rho,
        violation_by_group=violation,
        max_violation=float(violation.max()),
        degenerate_groups=degenerate,
    )
