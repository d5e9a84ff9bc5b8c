"""The solver loop as it stood before the round-body cuts, kept verbatim,
and the best response decided one point at a time.

`reference_run_loop` keys its step cache by `np.packbits(h).tobytes()` and
runs the exact `lam_p.sum() + lam_m.sum() > C` test every round; its dual
is the one (2|G|,) array, lambda+ then lambda-, that `project_l1` takes.  The tests
require `solver.run` to give byte-equal lambdas, an equal trajectory and
equal counters.  On request it also keeps the in-loop duality gap
(`_gap_estimate`, from running sums) and each sampled round's rate
deviations, the references for `solver.duality_gap` and for
`replay_deviations`, which recompute both from the returned lambdas.

`decide` is one threshold rule's decision at one point, and
`pointwise_argmin` evaluates both decisions' Lagrangian contributions from
the rate table, the brute force that `decide` is checked against.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from fairpost.core import (BaseRates, CellDistribution, MixtureClassifier, decide_batch,
                           decision_thresholds)
from fairpost.metrics import _constraint, base_rates, error_rate, group_rates, rate_terms
from fairpost.solver import (
    SolveResult,
    SolverConfig,
    TrajectoryRecord,
    _resolve_schedule,
    _theorem_bounds,
    project_l1,
    sample_size,
)

from reference_cells import bits_from_mask


@dataclass
class ReferenceResult(SolveResult):
    """A reference run, with the in-loop gap of each trajectory record (None
    unless compute_gap) and the (T, |G|) sampled-rate deviations (None
    unless record_deviation)."""

    gaps: Optional[List[float]] = None
    deviations: Optional[np.ndarray] = None


def _gap_estimate(p_bar, avg_dual, f, masses, G, memb, beta, notion, gamma, C) -> float:
    """Upper minus lower estimate of the bounded game's value, from the mean
    decisions p_bar and the mean played dual avg_dual, (2|G|,).

    Upper: the running mixture against the best vertex of the dual ball.
    Lower: the dual function at avg_dual (its best response), each half
    dotted with its own side of the constraint.
    """
    row = rate_terms(notion, f)
    cons_bar = _constraint(row, p_bar, masses, G, beta)
    upper = error_rate(p_bar, f, masses) + max(
        0.0, C * (float(np.abs(cons_bar).max()) - gamma))

    avg_lam_p, avg_lam_m = np.split(avg_dual, 2)
    S = (avg_lam_p - avg_lam_m) @ memb
    h_br = decide_batch(S, f, notion).astype(float)
    cons_br = _constraint(row, h_br, masses, G, beta)
    lower = error_rate(h_br, f, masses) + float(
        avg_lam_p @ (cons_br - gamma) + avg_lam_m @ (-cons_br - gamma))
    return upper - lower


def reference_run_loop(dist: CellDistribution, config: SolverConfig, sampler=None,
                       compute_gap: bool = False,
                       record_deviation: bool = False) -> ReferenceResult:
    """Primal/dual rounds.  The best response is the per-cell threshold form
    of decide_batch: one matvec and one compare per round.  The dual step
    depends only on the 0/1 decision pattern, so exact-rate runs compute it
    once per distinct pattern; sampled rounds recompute it every round."""
    notion = config.notion
    base = base_rates(dist, notion)
    f = dist.scores
    masses = dist.masses
    G = dist.group_matrix
    n_groups, n_cells = G.shape
    T, eta = _resolve_schedule(config, n_groups, n_cells)

    beta = base.beta
    row = rate_terms(notion, f)
    memb = G - beta[:, None]
    gamma, C = config.gamma, config.C
    sign, thresh = decision_thresholds(f, notion)
    smemb = memb * sign

    def round_terms(h, eval_masses):
        # (dual step for the concatenated (lambda+, lambda-), err_hat, max
        # violation, rho_g) of one decision pattern; for 0/1 h the rate
        # table gives the reference loop's bits
        h = h.astype(float)
        rho_g, rho0 = group_rates(row, h, eval_masses, G)
        centered = rho_g - beta * rho0
        step = np.concatenate((eta * (centered - gamma), eta * (-centered - gamma)))
        return (step, error_rate(h, f, eval_masses),
                float(np.abs(centered).max()), rho_g)

    dual = np.zeros(2 * n_groups)    # lambda+ then lambda-, updated in place
    lam_p, lam_m = dual[:n_groups], dual[n_groups:]
    lam_hist = np.empty((T, n_groups))
    record_every = config.record_every
    dec_sum = np.zeros(n_cells)
    sum_lam_p = np.zeros(n_groups)
    sum_lam_m = np.zeros(n_groups)
    trajectory: List[TrajectoryRecord] = []
    gaps = [] if compute_gap else None
    deviations = np.zeros((T, n_groups)) if record_deviation else None
    cache = {}
    projections = 0

    for t in range(1, T + 1):
        lam = np.subtract(lam_p, lam_m, out=lam_hist[t - 1])
        h = lam @ smemb <= thresh

        if sampler is None:
            key = np.packbits(h).tobytes()
            terms = cache.get(key)
            if terms is None:
                terms = cache[key] = round_terms(h, masses)
        else:
            terms = round_terms(h, sampler(t))
            if record_deviation:
                pop_rho_g, _ = group_rates(row, h.astype(float), masses, G)
                deviations[t - 1] = np.abs(terms[3] - pop_rho_g)
        step, err_hat, max_violation, _ = terms

        if compute_gap:
            dec_sum += h
            sum_lam_p += lam_p
            sum_lam_m += lam_m

        np.maximum(0.0, dual + step, out=dual)
        total = lam_p.sum() + lam_m.sum()
        if total > C:
            dual[:] = project_l1(dual, C)
            projections += 1

        if (t - 1) % record_every == 0:
            if compute_gap:
                gaps.append(_gap_estimate(
                    dec_sum / t, np.concatenate((sum_lam_p, sum_lam_m)) / t, f, masses, G,
                    memb, beta, notion, gamma, C))
            trajectory.append(TrajectoryRecord(
                t=t,
                err_hat=err_hat,
                max_violation_hat=max_violation,
                lambda_l1=float(lam_p.sum() + lam_m.sum()),
            ))

    return ReferenceResult(
        mixture=MixtureClassifier(lam_hist, base),
        lambdas=lam_hist,
        final_dual=dual,
        trajectory=trajectory,
        theorem_bounds=_theorem_bounds(C),
        T=T,
        eta=eta,
        counters={"rounds": T, "projections": projections,
                  "distinct_decisions": len(cache)},
        gaps=gaps,
        deviations=deviations,
    )


def replay_deviations(population: CellDistribution, sampler_seed: int, lambdas: np.ndarray,
                      base: BaseRates, epsilon: float, delta: float) -> np.ndarray:
    """|sampled - population| group rates, (T, |G|), of each round's rule of
    a run_sampled run, given its lambdas history and BaseRates, at the rates
    that run saw: round t's sample is the t-th multinomial draw of
    run_sampled's PCG64(sampler_seed) stream, and round t's decisions are
    the loop's gemv and compare at lambdas[t - 1]."""
    T, n_groups = lambdas.shape
    m = sample_size(T, n_groups, epsilon, delta)
    rng = np.random.Generator(np.random.PCG64(sampler_seed))
    masses = population.masses
    weights = masses / masses.sum()
    f, G = population.scores, population.group_matrix
    row = rate_terms(base.notion, f)
    sign, thresh = decision_thresholds(f, base.notion)
    smemb = (G - base.beta[:, None]) * sign
    deviations = np.empty((T, n_groups))
    for t, lam in enumerate(lambdas):
        h = (lam @ smemb <= thresh).astype(float)
        sample = rng.multinomial(m, weights) / m
        deviations[t] = np.abs(group_rates(row, h, sample, G)[0]
                               - group_rates(row, h, masses, G)[0])
    return deviations


def group_sum(lam, beta, mask) -> float:
    """The group sum S = lambda . (bits - beta) at a group mask, as the
    left-to-right Python sum, which a mixture's ordered sum equals."""
    bits = bits_from_mask(mask, len(lam))
    return float(sum(l * (b - bta) for l, b, bta in zip(lam, bits, beta)))


def decide(lam, notion, base, score, mask) -> int:
    """The decision in {0, 1} of the threshold rule at lambda, at (score,
    group mask): decide_batch at the group_sum."""
    S = group_sum(lam, base.beta, mask)
    return int(decide_batch(np.array([S]), np.array([float(score)]), notion)[0])


@dataclass(frozen=True)
class PointwiseArgmin:
    bit: int
    value_zero: float
    value_one: float
    tie: bool


def pointwise_argmin(lam, cell, notion, base) -> PointwiseArgmin:
    """Brute-force the per-cell Lagrangian contribution at both decisions.

    v_h = f + (1-2f)h + S(a + b*h) from the rate table, evaluated at h = 0
    and h = 1 and compared; exact ties go to 1.
    """
    lam = np.asarray(lam, dtype=float)
    bits = np.array([(cell.groups >> i) & 1 for i in range(len(lam))], dtype=float)
    S = float(lam @ (bits - base.beta))
    f = cell.score
    a, b, _ = rate_terms(notion, f)
    v0, v1 = (f + (1.0 - 2.0 * f) * h + S * (a + b * h) for h in (0.0, 1.0))
    return PointwiseArgmin(bit=int(v1 <= v0), value_zero=v0, value_one=v1, tie=v0 == v1)
