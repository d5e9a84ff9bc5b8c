"""Per-notion rate expressions as they stood before the rate table.

Each function here spells a notion's integrand out in its own if-chain,
verbatim from the code that `fairpost.metrics.rate_terms` replaced.  The
tests compare the table against them: bit for bit where the table keeps
the arithmetic (0/1 decisions, the weights, the oracle's LP columns), and
to 1e-12 where it sums in another order (fractional positive
probabilities).

`table_group_rate`, `dual_gradient` and `lagrangian_value` state one
group's rate, the dual step and the Lagrangian with the table's own
helpers; `expanded_lagrangian` is the distributed-out Lagrangian that
`lagrangian_value` is checked against.  Both Lagrangians take the dual as
the solver holds it: one (2|G|,) array, lambda+ then lambda-.
"""

import numpy as np

from fairpost import BaseRates, FairnessNotion, RateReport, metrics
from fairpost.metrics import _constraint, error_rate, group_rates, positive_probs, rate_terms


def _f_array(dist, scores_as_f):
    """f for the references: the scores, or with scores_as_f=False the label means."""
    return dist.scores if scores_as_f else dist.require_labels()


def _rate_terms(notion, f, h, masses, G):
    """(rho_g vector, rho_0 aggregate) of the notion's surrogate rate."""
    if notion is FairnessNotion.FP:
        u = masses * (1.0 - f) * h
    elif notion is FairnessNotion.FN:
        u = masses * f * (1.0 - h)
    elif notion is FairnessNotion.ERR:
        u = masses * (f + h * (1.0 - 2.0 * f))
    else:
        u = masses * h
    return G @ u, float(u.sum())


def _solver_constraints(notion, f, p, masses, G, beta):
    """Per-group signed constraint values in the Lagrangian's own form."""
    rho_g, rho0 = _rate_terms(notion, f, p, masses, G)
    return rho_g - beta * rho0


def _constraint_columns(dist, base, f):
    """(constant_g, coef_g) with a_g(h) = constant_g + coef_g @ h for each group."""
    notion = base.notion
    m = dist.masses
    G = dist.group_matrix
    centered = G - base.beta[:, None]
    if notion is FairnessNotion.FP:
        const = np.zeros(dist.n_groups)
        coef = centered * (m * (1.0 - f))[None, :]
    elif notion is FairnessNotion.FN:
        const = centered @ (m * f)
        coef = -centered * (m * f)[None, :]
    elif notion is FairnessNotion.ERR:
        const = centered @ (m * f)
        coef = centered * (m * (1.0 - 2.0 * f))[None, :]
    else:
        const = np.zeros(dist.n_groups)
        coef = centered * m[None, :]
    return const, coef


def base_rates(dist, notion, mode="from_scores"):
    notion = FairnessNotion.coerce(notion)
    q = dist.scores if mode == "from_scores" else dist.require_labels()
    m = dist.masses
    G = dist.group_matrix
    if notion is FairnessNotion.FP:
        denom = float(m @ (1.0 - q))
        if denom <= 0.0:
            raise ValueError("degenerate label marginal: Pr[y=0] = 0")
        w = G @ (m * (1.0 - q))
        beta = w / denom
    elif notion is FairnessNotion.FN:
        denom = float(m @ q)
        if denom <= 0.0:
            raise ValueError("degenerate label marginal: Pr[y=1] = 0")
        w = G @ (m * q)
        beta = w / denom
    elif notion is FairnessNotion.ERR:
        w = G @ m
        beta = w.copy()
    else:  # SP: w is the group mass, and so is beta
        w = G @ m
        beta = w
    beta = np.clip(beta, 0.0, 1.0)
    return BaseRates(notion=notion, beta=beta)


def surrogate_group_rate(h, g, dist, scores_as_f=True, notion=FairnessNotion.FP):
    notion = FairnessNotion.coerce(notion)
    p = positive_probs(h, dist)
    f = _f_array(dist, scores_as_f)
    m = dist.masses
    gvec = np.ones(dist.n_cells) if g is None else dist.group_matrix[g]
    if notion is FairnessNotion.FP:
        integrand = p * (1.0 - f)
    elif notion is FairnessNotion.FN:
        integrand = (1.0 - p) * f
    elif notion is FairnessNotion.ERR:
        integrand = (1.0 - p) * f + p * (1.0 - f)
    else:
        integrand = p
    return float(m @ (gvec * integrand))


def surrogate_error(h, dist, scores_as_f=True):
    p = positive_probs(h, dist)
    f = _f_array(dist, scores_as_f)
    return float(dist.masses @ (f * (1.0 - p) + (1.0 - f) * p))


def constraint_vector(h, dist, notion, base, scores_as_f=True):
    notion = FairnessNotion.coerce(notion)
    p = positive_probs(h, dist)
    f = _f_array(dist, scores_as_f)
    m = dist.masses
    if notion is FairnessNotion.FP:
        integrand = p * (1.0 - f)
    elif notion is FairnessNotion.FN:
        integrand = (1.0 - p) * f
    elif notion is FairnessNotion.ERR:
        integrand = (1.0 - p) * f + p * (1.0 - f)
    else:
        integrand = p
    per_group = dist.group_matrix @ (m * integrand)
    aggregate = float(m @ integrand)
    return per_group - base.beta * aggregate


def true_rates(h, dist, notion):
    notion = FairnessNotion.coerce(notion)
    q = dist.require_labels()
    p = positive_probs(h, dist)
    m = dist.masses
    G = dist.group_matrix

    err = float(m @ (q * (1.0 - p) + (1.0 - q) * p))
    if notion is FairnessNotion.FP:
        cond = m * (1.0 - q)
        stat = p
    elif notion is FairnessNotion.FN:
        cond = m * q
        stat = 1.0 - p
    elif notion is FairnessNotion.ERR:
        cond = m
        stat = q * (1.0 - p) + (1.0 - q) * p
    else:
        cond = m
        stat = p

    w = G @ cond
    num = G @ (cond * stat)
    total = float(np.sum(cond))
    rho_overall = float(np.sum(cond * stat) / total) if total > 0 else 0.0

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


def expanded_lagrangian(h, dual, dist, notion, base, gamma):
    """The Lagrangian with the penalty distributed over the cells: the
    per-cell weight S = lambda . (g - beta) multiplies each notion's terms."""
    notion = FairnessNotion.coerce(notion)
    p = positive_probs(h, dist)
    f = dist.scores
    m = dist.masses
    lam_p, lam_m = np.split(np.asarray(dual, dtype=float), 2)
    lam = lam_p - lam_m
    S = lam @ (dist.group_matrix - base.beta[:, None])
    budget = gamma * float(lam_p.sum() + lam_m.sum())
    if notion is FairnessNotion.FP:
        expanded = float(m @ (p * (1.0 + S) - f * (-(1.0 - p) + p * (1.0 + S))))
    elif notion is FairnessNotion.FN:
        expanded = float(m @ (p + f * (-p + (1.0 - p) * (1.0 + S))))
    elif notion is FairnessNotion.ERR:
        expanded = float(m @ (p * (1.0 + S) + f * (1.0 + S) * (1.0 - 2.0 * p)))
    else:
        expanded = float(m @ (f * (1.0 - 2.0 * p) + p + p * S))
    return expanded - budget


def table_group_rate(h, g, dist, scores_as_f=True, notion=FairnessNotion.FP):
    """Surrogate rate E[loss-part * g(x) * f-part] for one group, read off the
    rate table.  g=None drops the group factor and yields the aggregate the
    constraint compares against."""
    p = positive_probs(h, dist)
    f = _f_array(dist, scores_as_f)
    rho_g, rho0 = group_rates(rate_terms(notion, f), p, dist.masses, dist.group_matrix)
    return rho0 if g is None else float(rho_g[g])


def dual_gradient(h_t, dist, notion, base, gamma):
    """Gradient of the Lagrangian in (lambda+, lambda-) at a fixed classifier:
    (c - gamma, -c - gamma) with c = metrics.constraint_vector(h_t, ...), the
    constraint c_g = rho_g - beta_g * rho_0 that every notion imposes."""
    c = metrics.constraint_vector(h_t, dist, notion, base)
    return c - gamma, -c - gamma


def lagrangian_value(h, dual, dist, notion, base, gamma):
    """Lagrangian of the parity-constrained program at (h, lambda):
    err(h) + sum_g lambda+_g (c_g - gamma) + lambda-_g (-c_g - gamma), with
    c_g = rho_g - beta_g rho_0 the constraint constraint_vector reports."""
    p = positive_probs(h, dist)
    f = dist.scores
    cons = _constraint(rate_terms(notion, f), p, dist.masses, dist.group_matrix, base.beta)
    lam_p, lam_m = np.split(np.asarray(dual, dtype=float), 2)
    penalty = float(lam_p @ (cons - gamma) + lam_m @ (-cons - gamma))
    return error_rate(p, f, dist.masses) + penalty
