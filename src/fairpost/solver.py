"""Primal best-response / dual projected-gradient dynamics over the L1 ball.

The dual player runs additive gradient steps on nonnegative multiplier
pairs (lambda+, lambda-) projected onto the ball ||lambda||_1 <= C; the
primal player best-responds with a closed-form threshold rule.  The uniform
mixture over all rounds' rules is the returned randomized classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .core import (
    BaseRates,
    Cell,
    CellDistribution,
    FairnessNotion,
    MixtureClassifier,
    ThresholdRule,
    decide_batch,
    decision_thresholds,
)
from .metrics import (
    _constraint_multiplier,
    base_rates,
    error_rate,
    group_rates,
    positive_probs,
    rate_terms,
)

__all__ = [
    "DualState",
    "SolverConfig",
    "TrajectoryRecord",
    "SolveResult",
    "BudgetExceededError",
    "iteration_budget",
    "sample_size",
    "best_response",
    "dual_gradient",
    "project_l1",
    "lagrangian_value",
    "run",
    "run_sampled",
]


class BudgetExceededError(RuntimeError):
    """Raised when T * n_cells would exceed the configured work cap, or the
    (T, n_groups) lambda history would exceed LAMBDA_HISTORY_CAP bytes."""


# The mixture keeps one float64 lambda row per round: T * n_groups * 8 bytes.
LAMBDA_HISTORY_CAP = 1 << 30


@dataclass(frozen=True)
class DualState:
    """Nonnegative multiplier pairs with an L1 budget C."""

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    bound_C: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_plus", np.asarray(self.lambda_plus, dtype=float))
        object.__setattr__(self, "lambda_minus", np.asarray(self.lambda_minus, dtype=float))
        if self.bound_C <= 0:
            raise ValueError("bound_C must be positive")
        if np.any(self.lambda_plus < 0) or np.any(self.lambda_minus < 0):
            raise ValueError("dual variables must be nonnegative")

    @property
    def lam(self) -> np.ndarray:
        return self.lambda_plus - self.lambda_minus

    def l1(self) -> float:
        return float(self.lambda_plus.sum() + self.lambda_minus.sum())


@dataclass
class SolverConfig:
    notion: Union[str, FairnessNotion] = FairnessNotion.FP
    gamma: float = 0.05
    C: float = 10.0
    eta: Union[str, float] = "auto"
    T: Union[str, int] = "auto"
    projection_mode: str = "euclidean_l1"
    beta_mode: str = "from_scores"
    record_every: int = 100
    work_cap: float = 5e9
    compute_gap: bool = False

    def __post_init__(self):
        self.notion = FairnessNotion.coerce(self.notion)
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.projection_mode not in ("euclidean_l1", "rescale"):
            raise ValueError(f"unknown projection mode {self.projection_mode!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.work_cap <= 0:
            raise ValueError("work_cap must be positive")


@dataclass(frozen=True)
class TrajectoryRecord:
    t: int
    err_hat: float
    max_violation_hat: float
    lambda_l1: float
    duality_gap_estimate: Optional[float] = None


@dataclass
class SolveResult:
    mixture: MixtureClassifier
    final_dual: DualState
    trajectory: List[TrajectoryRecord]
    theorem_bounds: dict
    base: BaseRates
    T: int
    eta: float
    estimation_deviations: Optional[np.ndarray] = None
    # rounds run, rounds whose step left the L1 ball (project_l1 ran), and
    # distinct decision patterns in the step cache (0 for sampled runs,
    # whose rounds bypass it)
    counters: dict = field(default_factory=dict)


def iteration_budget(C: float, group_count: int) -> int:
    """Round budget T = ceil(C^2 (C^2 + 4|G|)^2 / 4)."""
    if C <= 0 or group_count < 1:
        raise ValueError("C must be positive and group_count >= 1")
    return math.ceil(0.25 * C * C * (C * C + 4.0 * group_count) ** 2)


def sample_size(T: int, group_count: int, epsilon: float, delta: float) -> int:
    """Per-round i.i.d. sample size for epsilon-accurate rate estimates.

    Hoeffding plus a union bound over T rounds and the per-group
    estimates: m = ceil(ln(2 |G| T / delta) / (2 eps^2)).
    """
    if T < 1 or group_count < 1:
        raise ValueError("T and group_count must be positive")
    if not (0 < epsilon <= 1 and 0 < delta <= 1):
        raise ValueError("epsilon and delta must lie in (0, 1]")
    return math.ceil(math.log(2.0 * group_count * T / delta) / (2.0 * epsilon * epsilon))


def best_response(lam, cell: Cell, notion, base: BaseRates,
                  tiebreak_positive: bool = True) -> int:
    """Closed-form pointwise Lagrangian minimizer for one cell."""
    rule = ThresholdRule(tuple(lam), FairnessNotion.coerce(notion), base, tiebreak_positive)
    return rule.decide(cell)


def dual_gradient(h_t, dist: CellDistribution, notion, base: BaseRates,
                  gamma: float, scores_as_f: bool = True):
    """Gradient of the Lagrangian in (lambda+, lambda-) at a fixed classifier.

    grad_plus[g] = rho_g - beta_g * rho_0 - gamma and grad_minus is its
    mirror; for SP the rule-side beta of one makes this the E[h(g-1)] form
    of the statistical-parity Lagrangian.
    """
    p = positive_probs(h_t, dist)
    f = dist.scores if scores_as_f else dist.require_labels()
    rho_g, rho0 = group_rates(rate_terms(notion, f), p, dist.masses, dist.group_matrix)
    centered = rho_g - base.beta * rho0
    return centered - gamma, -centered - gamma


def _project_euclidean(v: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection of a nonnegative vector onto {x >= 0, sum x <= C}."""
    total = v.sum()
    if total <= C:
        return v
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(u) + 1)
    rho = np.nonzero(u * idx > (css - C))[0][-1]
    theta = (css[rho] - C) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_l1(dual: DualState, mode: str = "euclidean_l1") -> DualState:
    """Bring the concatenated (lambda+, lambda-) vector back into the L1 ball."""
    v = np.concatenate([dual.lambda_plus, dual.lambda_minus])
    if mode == "euclidean_l1":
        w = _project_euclidean(v, dual.bound_C)
    elif mode == "rescale":
        total = v.sum()
        w = v * (dual.bound_C / total) if total > dual.bound_C else v
    else:
        raise ValueError(f"unknown projection mode {mode!r}")
    g = len(dual.lambda_plus)
    return DualState(w[:g], w[g:], dual.bound_C)


def lagrangian_value(h, dual: DualState, dist: CellDistribution, notion,
                     base: BaseRates, gamma: float, scores_as_f: bool = True) -> float:
    """Lagrangian of the parity-constrained program at (h, lambda):
    err(h) + sum_g lambda+_g (c_g - gamma) + lambda-_g (-c_g - gamma), with
    c_g = rho_g - beta_g rho_0 the constraint in the rule's own form."""
    p = positive_probs(h, dist)
    f = dist.scores if scores_as_f else dist.require_labels()
    rho_g, rho0 = group_rates(rate_terms(notion, f), p, dist.masses, dist.group_matrix)
    cons = rho_g - base.beta * rho0
    penalty = float(dual.lambda_plus @ (cons - gamma) + dual.lambda_minus @ (-cons - gamma))
    return error_rate(p, f, dist.masses) + penalty


def _resolve_schedule(config: SolverConfig, n_groups: int, n_cells: int):
    T = iteration_budget(config.C, n_groups) if config.T == "auto" else int(config.T)
    if T < 1:
        raise ValueError("T must be at least 1")
    if T * n_cells > config.work_cap:
        raise BudgetExceededError(
            f"budget exceeded: T*cells = {T * n_cells:.3g} > work cap "
            f"{config.work_cap:.3g}; lower C or raise work_cap")
    if T * n_groups * 8 > LAMBDA_HISTORY_CAP:
        raise BudgetExceededError(
            f"budget exceeded: lambda history T*groups*8 = {T * n_groups * 8:.3g} bytes "
            f"> cap {LAMBDA_HISTORY_CAP:.3g} bytes; lower C or T")
    eta = (config.C / math.sqrt(2.0 * n_groups * T)
           if config.eta == "auto" else float(config.eta))
    if eta <= 0:
        raise ValueError("eta must be positive")
    return T, eta


def _theorem_bounds(C: float, epsilon: float = 0.0) -> dict:
    v = 1.0 / C
    return {
        "err_slack": 2.0 / C + 8.0 * epsilon,
        "violation_slack": 1.0 / C + 2.0 / (C * C) + 8.0 * epsilon / C,
        # equilibrium form (1 + 2v)/C at v = 1/C; coincides with the above
        "violation_slack_equilibrium": (1.0 + 2.0 * v) / C + 8.0 * epsilon / C,
    }


def _run_loop(dist: CellDistribution, config: SolverConfig, sampler=None,
              record_deviation: bool = False) -> SolveResult:
    """Primal/dual rounds.  The best response is the per-cell threshold form
    of decide_batch: one matvec and one compare per round.  The dual step
    depends only on the 0/1 decision pattern, so exact-rate runs compute it
    once per distinct pattern; sampled rounds recompute it every round."""
    notion = config.notion
    base = base_rates(dist, notion, config.beta_mode)
    f = dist.scores
    masses = dist.masses
    G = dist.group_matrix
    n_groups, n_cells = G.shape
    T, eta = _resolve_schedule(config, n_groups, n_cells)

    beta = base.beta
    viol_mult = _constraint_multiplier(base)
    row = rate_terms(notion, f)
    memb = G - beta[:, None]
    gamma, C = config.gamma, config.C
    sign, thresh = decision_thresholds(f, notion, decide=decide_batch)
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
                float(np.abs(rho_g - viol_mult * rho0).max()), rho_g)

    dual = np.zeros(2 * n_groups)    # lambda+ then lambda-, updated in place
    lam_p, lam_m = dual[:n_groups], dual[n_groups:]
    lam_hist = np.empty((T, n_groups))
    compute_gap, record_every = config.compute_gap, config.record_every
    dec_sum = np.zeros(n_cells)
    sum_lam_p = np.zeros(n_groups)
    sum_lam_m = np.zeros(n_groups)
    trajectory: List[TrajectoryRecord] = []
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
            projected = project_l1(DualState(lam_p, lam_m, C), config.projection_mode)
            lam_p[:] = projected.lambda_plus
            lam_m[:] = projected.lambda_minus
            projections += 1

        if (t - 1) % record_every == 0:
            gap = None
            if compute_gap:
                gap = _gap_estimate(
                    dec_sum / t, sum_lam_p / t, sum_lam_m / t, f, masses, G,
                    memb, beta, notion, gamma, C)
            trajectory.append(TrajectoryRecord(
                t=t,
                err_hat=err_hat,
                max_violation_hat=max_violation,
                lambda_l1=float(lam_p.sum() + lam_m.sum()),
                duality_gap_estimate=gap,
            ))

    mixture = MixtureClassifier(lam_hist, notion, base)
    return SolveResult(
        mixture=mixture,
        final_dual=DualState(lam_p, lam_m, C),
        trajectory=trajectory,
        theorem_bounds=_theorem_bounds(C),
        base=base,
        T=T,
        eta=eta,
        estimation_deviations=deviations,
        counters={"rounds": T, "projections": projections,
                  "distinct_decisions": len(cache)},
    )


def _gap_estimate(p_bar, avg_lam_p, avg_lam_m, f, masses, G, memb, beta,
                  notion, gamma, C) -> float:
    """Upper minus lower estimate of the bounded game's value.

    Upper: the running mixture against the best vertex of the dual ball.
    Lower: the dual function at the averaged played dual (best response).
    """
    row = rate_terms(notion, f)
    rho_g, rho0 = group_rates(row, p_bar, masses, G)
    cons_bar = rho_g - beta * rho0
    upper = error_rate(p_bar, f, masses) + max(
        0.0, C * (float(np.abs(cons_bar).max()) - gamma))

    avg_lam = avg_lam_p - avg_lam_m
    S = avg_lam @ memb
    h_br = decide_batch(S, f, notion).astype(float)
    rho_g, rho0 = group_rates(row, h_br, masses, G)
    cons_br = rho_g - beta * rho0
    lower = error_rate(h_br, f, masses) + float(
        avg_lam_p @ (cons_br - gamma) + avg_lam_m @ (-cons_br - gamma))
    return upper - lower


def run(dist: CellDistribution, config: SolverConfig,
        scores_as_f: bool = True) -> SolveResult:
    """Run the full deterministic dynamics over exact cell expectations.

    With scores_as_f=False the distribution is re-based so that cell scores
    equal the (grid-snapped) label means first; threshold rules always cut
    on the cell score, so the dynamics and the returned mixture agree.
    """
    if not scores_as_f:
        dist = dist.with_scores_from_labels()
    return _run_loop(dist, config)


def run_sampled(population: CellDistribution, sampler_seed: int,
                config: SolverConfig, epsilon: float, delta: float,
                scores_as_f: bool = True,
                record_deviation: bool = False) -> SolveResult:
    """Dynamics with each round's rates estimated from a fresh i.i.d. sample.

    Per-round sample size comes from sample_size(T, |G|, epsilon, delta);
    the theorem slacks widen by the 8*epsilon terms.
    """
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if not scores_as_f:
        population = population.with_scores_from_labels()
    n_groups, n_cells = population.group_matrix.shape
    T, _ = _resolve_schedule(config, n_groups, n_cells)
    m = sample_size(T, n_groups, epsilon, delta)
    rng = np.random.Generator(np.random.PCG64(sampler_seed))
    masses = population.masses / population.masses.sum()

    def sampler(_t: int) -> np.ndarray:
        counts = rng.multinomial(m, masses)
        return counts / m

    result = _run_loop(population, config, sampler=sampler,
                       record_deviation=record_deviation)
    result.theorem_bounds = _theorem_bounds(config.C, epsilon)
    return result
