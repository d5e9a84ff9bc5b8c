import itertools
import math
import re
from typing import List

import numpy as np
import pytest

from fairpost import (
    BudgetExceededError,
    Cell,
    DualState,
    FairnessNotion,
    SolverConfig,
    ThresholdRule,
    base_rates,
    best_response,
    dual_gradient,
    iteration_budget,
    lagrangian_value,
    pointwise_argmin,
    project_l1,
    run,
    run_sampled,
    sample_size,
    surrogate_error,
)
from fairpost.core import MixtureClassifier, decide_batch
from fairpost.solver import (
    SolveResult,
    TrajectoryRecord,
    _gap_estimate,
    _resolve_schedule,
    _theorem_bounds,
)

from conftest import make_dist, rand_lambda
from reference_rates import _rate_terms, _solver_constraints, expanded_lagrangian

NOTIONS = ["fp", "fn", "err", "sp"]


def test_iteration_budget_values():
    assert iteration_budget(2.0, 3) == 256
    assert iteration_budget(1.0, 1) == 7       # ceil(6.25)
    assert iteration_budget(10.0, 2) == 291600


def test_sample_size_values():
    assert sample_size(1, 1, 1.0, 1.0) == 1
    assert sample_size(10, 2, 0.1, 0.1) == 300
    assert sample_size(100, 4, 0.05, 0.05) == 1937


def test_sample_size_epsilon_scaling():
    m1 = sample_size(50, 3, 0.05, 0.1)
    m2 = sample_size(50, 3, 0.1, 0.1)
    assert m2 <= m1
    assert m2 >= m1 / 4 - 1  # quarters up to the log term


def test_best_response_bayes_at_zero_dual():
    base = base_rates(_two_cell_dist(), "fp", "from_scores")
    lam = (0.0,)
    assert best_response(lam, Cell(0.6, 1, 0.5), "fp", base) == 1
    assert best_response(lam, Cell(0.4, 1, 0.5), "fp", base) == 0


def test_best_response_sp_tie_goes_positive():
    dist = _two_cell_dist()
    base = base_rates(dist, "sp", "from_scores")
    assert best_response((0.0,), Cell(0.5, 1, 0.5), "sp", base) == 1


def _two_cell_dist():
    from fairpost import build_cells
    return build_cells([(0.4, (1,), None), (0.6, (1,), None)], 10)


def test_best_response_matches_pointwise_argmin(rng):
    dist, _ = make_dist(30, n_cells=12, n_groups=3, grid_m=40)
    for _ in range(1000):
        lam = rand_lambda(rng, dist.n_groups, 5.0)
        cell = dist.cells[rng.integers(dist.n_cells)]
        notion = NOTIONS[rng.integers(4)]
        base = base_rates(dist, notion, "from_labels")
        pw = pointwise_argmin(lam, cell, notion, base)
        assert best_response(lam, cell, notion, base) == pw.bit
        # optimality: the chosen bit never loses to the other one
        chosen = pw.value_one if pw.bit else pw.value_zero
        other = pw.value_zero if pw.bit else pw.value_one
        assert chosen <= other + 1e-12


def test_dual_gradient_trivial_cases():
    dist, _ = make_dist(31, n_cells=8, n_groups=2)
    base = base_rates(dist, "fp", "from_scores")
    zeros = np.zeros(dist.n_cells)
    gp, gm = dual_gradient(zeros, dist, "fp", base, gamma=0.0)
    assert np.all(gp == 0.0) and np.all(gm == 0.0)
    gp, gm = dual_gradient(np.ones(dist.n_cells), dist, "fp", base, gamma=0.03)
    assert gp[0] == pytest.approx(-0.03, abs=1e-15)   # all-ones group, beta = 1
    assert gm[0] == pytest.approx(-0.03, abs=1e-15)


def test_dual_gradient_is_lagrangian_derivative(rng):
    dist, _ = make_dist(5, n_cells=10, n_groups=2)
    for notion in NOTIONS:
        base = base_rates(dist, notion, "from_labels")
        lam = rand_lambda(rng, dist.n_groups, 3.0)
        rule = ThresholdRule(tuple(lam), notion, base)
        gp, gm = dual_gradient(rule, dist, notion, base, gamma=0.02)
        lp = np.abs(rng.standard_normal(dist.n_groups))
        lm = np.abs(rng.standard_normal(dist.n_groups))
        eps = 1e-6
        for g in range(dist.n_groups):
            for arr, grad, plus in ((lp, gp, True), (lm, gm, False)):
                hi, lo = arr.copy(), arr.copy()
                hi[g] += eps
                lo[g] -= eps
                if plus:
                    dv_hi = DualState(hi, lm, 10.0)
                    dv_lo = DualState(lo, lm, 10.0)
                else:
                    dv_hi = DualState(lp, hi, 10.0)
                    dv_lo = DualState(lp, lo, 10.0)
                fd = (lagrangian_value(rule, dv_hi, dist, notion, base, 0.02)
                      - lagrangian_value(rule, dv_lo, dist, notion, base, 0.02)) / (2 * eps)
                assert fd == pytest.approx(grad[g], abs=1e-6)


def test_project_l1_examples():
    d = project_l1(DualState(np.array([3.0]), np.array([0.0]), 1.0))
    assert np.allclose(d.lambda_plus, [1.0]) and np.allclose(d.lambda_minus, [0.0])

    d = project_l1(DualState(np.array([0.3]), np.array([0.2]), 1.0))
    assert d.lambda_plus[0] == 0.3 and d.lambda_minus[0] == 0.2

    d = project_l1(DualState(np.array([2.0, 1.0]), np.array([1.0]), 2.0))
    merged = np.concatenate([d.lambda_plus, d.lambda_minus])
    assert np.allclose(merged, [4 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_project_l1_rescale_mode():
    d = project_l1(DualState(np.array([3.0, 1.0]), np.array([0.0, 0.0]), 2.0),
                   mode="rescale")
    assert d.l1() == pytest.approx(2.0)
    assert np.allclose(d.lambda_plus, [1.5, 0.5])


def _bisect_project(v, C):
    if v.sum() <= C:
        return v
    lo, hi = 0.0, float(v.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > C:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def test_project_l1_against_bisection(rng):
    for _ in range(300):
        g = int(rng.integers(1, 5))
        lp = rng.uniform(0, 2, size=g)
        lm = rng.uniform(0, 2, size=g)
        C = float(rng.uniform(0.2, 3.0))
        d = project_l1(DualState(lp, lm, C))
        got = np.concatenate([d.lambda_plus, d.lambda_minus])
        want = _bisect_project(np.concatenate([lp, lm]), C)
        assert np.abs(got - want).max() <= 1e-9
        assert d.l1() <= C + 1e-12
        assert np.all(got >= 0.0)


def test_run_vacuous_gamma_keeps_dual_at_zero():
    dist, _ = make_dist(33, n_cells=10, n_groups=2)
    for notion in NOTIONS:
        cfg = SolverConfig(notion=notion, gamma=1.0, C=5.0, T=200, record_every=50)
        res = run(dist, cfg)
        assert res.final_dual.l1() == 0.0
        assert np.all(res.mixture.lambdas == 0.0)
        p = res.mixture.positive_prob_vector(dist)
        bayes = (dist.scores >= 0.5).astype(float)
        assert np.array_equal(p, bayes)
        want = float(dist.masses @ np.minimum(dist.scores, 1 - dist.scores))
        assert surrogate_error(p, dist) == pytest.approx(want, abs=1e-15)


def test_run_is_deterministic(biased_instance):
    cfg = SolverConfig(notion="fp", gamma=0.01, C=4.0, T=500, record_every=25)
    a = run(biased_instance, cfg)
    b = run(biased_instance, cfg)
    assert np.array_equal(a.mixture.lambdas, b.mixture.lambdas)
    assert [(r.t, r.err_hat, r.max_violation_hat, r.lambda_l1) for r in a.trajectory] == \
           [(r.t, r.err_hat, r.max_violation_hat, r.lambda_l1) for r in b.trajectory]


def test_run_dual_feasibility(biased_instance):
    cfg = SolverConfig(notion="fp", gamma=0.0, C=0.5, T=800, record_every=1)
    res = run(biased_instance, cfg)
    assert all(r.lambda_l1 <= 0.5 + 1e-12 for r in res.trajectory)
    assert res.final_dual.l1() <= 0.5 + 1e-12


def test_run_work_cap():
    dist, _ = make_dist(34, n_cells=10, n_groups=2)
    cfg = SolverConfig(notion="fp", gamma=0.01, C=10.0, T="auto", work_cap=1000)
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        run(dist, cfg)


def test_lambda_history_cap():
    # C=40 on 4 groups: T = 1,044,582,400 rounds.  On 4 cells T*cells stays
    # under the default work cap, but the lambda history would take 33 GB.
    from fairpost import build_cells
    from fairpost.solver import LAMBDA_HISTORY_CAP
    rows = [(0.2, (1, 0, 1, 0), None), (0.4, (1, 1, 0, 0), None),
            (0.6, (1, 0, 0, 1), None), (0.8, (1, 1, 1, 1), None)]
    dist = build_cells(rows, 10)
    assert dist.n_cells == 4
    cfg = SolverConfig(notion="fp", gamma=0.01, C=40.0, T="auto")
    T = iteration_budget(40.0, 4)
    assert T * 4 <= cfg.work_cap < T * 4 * 8
    message = f"{T * 4 * 8:.3g} bytes > cap {LAMBDA_HISTORY_CAP:.3g} bytes"
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        run(dist, cfg)


def test_trajectory_row_count(biased_instance):
    cfg = SolverConfig(notion="fp", gamma=0.05, C=2.0, T=103, record_every=10)
    res = run(biased_instance, cfg)
    assert len(res.trajectory) == math.ceil(103 / 10)
    assert [r.t for r in res.trajectory] == list(range(1, 104, 10))


def test_theorem_bounds_fields(biased_instance):
    cfg = SolverConfig(notion="fp", gamma=0.05, C=8.0, T=10)
    res = run(biased_instance, cfg)
    assert res.theorem_bounds["err_slack"] == pytest.approx(0.25)
    assert res.theorem_bounds["violation_slack"] == pytest.approx(1 / 8 + 2 / 64)
    assert res.theorem_bounds["violation_slack_equilibrium"] == pytest.approx(1 / 8 + 2 / 64)


def test_lagrangian_reduces_to_objective_at_zero_dual(rng):
    dist, _ = make_dist(35, n_cells=9, n_groups=2)
    p = rng.uniform(size=dist.n_cells)
    for notion in NOTIONS:
        base = base_rates(dist, notion, "from_labels")
        zero = DualState(np.zeros(dist.n_groups), np.zeros(dist.n_groups), 1.0)
        got = lagrangian_value(p, zero, dist, notion, base, gamma=0.3)
        assert got == pytest.approx(surrogate_error(p, dist), abs=1e-15)


def test_lagrangian_all_negative_closed_form(rng):
    dist, _ = make_dist(36, n_cells=9, n_groups=2)
    base = base_rates(dist, "fp", "from_scores")
    lp = np.abs(rng.standard_normal(dist.n_groups))
    lm = np.abs(rng.standard_normal(dist.n_groups))
    dual = DualState(lp, lm, 10.0)
    gamma = 0.07
    got = lagrangian_value(np.zeros(dist.n_cells), dual, dist, "fp", base, gamma)
    want = float(dist.masses @ dist.scores) - gamma * (lp.sum() + lm.sum())
    assert got == pytest.approx(want, abs=1e-12)


def test_lagrangian_forms_agree(rng):
    for trial in range(25):
        dist, _ = make_dist(300 + trial, n_cells=8, n_groups=2)
        p = rng.uniform(size=dist.n_cells)
        notion = NOTIONS[trial % 4]
        base = base_rates(dist, notion, "from_labels")
        lp = np.abs(rng.standard_normal(dist.n_groups)) * rng.uniform(0, 3)
        lm = np.abs(rng.standard_normal(dist.n_groups)) * rng.uniform(0, 3)
        args = (p, DualState(lp, lm, 10.0), dist, notion, base, float(rng.uniform(0, 0.2)))
        assert abs(lagrangian_value(*args) - expanded_lagrangian(*args)) <= 1e-10


def test_no_regret_bound(biased_instance):
    # dual player's average regret against the best fixed comparator found
    # by grid search over the L1 ball at resolution 0.1
    dist = biased_instance
    C, gamma, T = 1.0, 0.01, 1500
    cfg = SolverConfig(notion="fp", gamma=gamma, C=C, T=T, record_every=10 ** 9)
    res = run(dist, cfg)
    base = res.base
    memb = dist.group_matrix - base.beta[:, None]
    f, m, G = dist.scores, dist.masses, dist.group_matrix

    lam_p = np.zeros(dist.n_groups)
    lam_m = np.zeros(dist.n_groups)
    errs = np.empty(T)
    cons = np.empty((T, dist.n_groups))
    played = np.empty(T)
    for t in range(T):
        lam = lam_p - lam_m
        h = decide_batch(lam @ memb, f, FairnessNotion.FP).astype(float)
        errs[t] = m @ (f + h * (1 - 2 * f))
        cons[t] = _solver_constraints(FairnessNotion.FP, f, h, m, G, base.beta)
        played[t] = errs[t] + lam_p @ (cons[t] - gamma) + lam_m @ (-cons[t] - gamma)
        lam_p = np.maximum(0.0, lam_p + res.eta * (cons[t] - gamma))
        lam_m = np.maximum(0.0, lam_m + res.eta * (-cons[t] - gamma))
        if lam_p.sum() + lam_m.sum() > C:
            d = project_l1(DualState(lam_p, lam_m, C))
            lam_p, lam_m = d.lambda_plus, d.lambda_minus
    mean_err = errs.mean()
    mean_cons = cons.mean(axis=0)
    best = -np.inf
    steps = range(11)
    for point in itertools.product(steps, repeat=2 * dist.n_groups):
        if sum(point) > 10:
            continue
        v = np.array(point) * 0.1
        val = mean_err + v[:dist.n_groups] @ (mean_cons - gamma) \
            + v[dist.n_groups:] @ (-mean_cons - gamma)
        best = max(best, float(val))
    regret = best - played.mean()
    bound = (C * C + 4 * dist.n_groups) / (2 * math.sqrt(T))
    assert regret <= 2.0 * bound


def test_run_sampled_converges_to_exact():
    dist, _ = make_dist(2, n_cells=12, n_groups=2, grid_m=20)
    cfg = SolverConfig(notion="fp", gamma=0.02, C=5.0, T=1500, record_every=10 ** 9)
    exact = run(dist, cfg)
    e_exact = surrogate_error(exact.mixture.positive_prob_vector(dist), dist)
    for eps in (0.05, 0.02):
        sampled = run_sampled(dist, 77, cfg, epsilon=eps, delta=0.05)
        e_s = surrogate_error(sampled.mixture.positive_prob_vector(dist), dist)
        assert abs(e_s - e_exact) <= 2 * eps
        assert sampled.theorem_bounds["err_slack"] == pytest.approx(2 / 5 + 8 * eps)
        assert sampled.theorem_bounds["violation_slack"] == pytest.approx(
            1 / 5 + 2 / 25 + 8 * eps / 5)


def test_run_scores_as_f_false_rebases_on_label_means():
    dist, pert = make_dist(37, n_cells=12, n_groups=2, grid_m=20, miscalibration=0.4)
    cfg = SolverConfig(notion="fp", gamma=0.05, C=2.0, T=100, record_every=50)
    res = run(pert, cfg, scores_as_f=False)
    rebased = pert.with_scores_from_labels()
    want = run(rebased, cfg)
    assert np.array_equal(res.mixture.lambdas, want.mixture.lambdas)
    # the mixture's own decisions match what the dynamics optimized
    assert np.array_equal(res.mixture.positive_prob_vector(rebased),
                          want.mixture.positive_prob_vector(rebased))


def test_run_sampled_is_reproducible():
    dist, _ = make_dist(2, n_cells=10, n_groups=2)
    cfg = SolverConfig(notion="fp", gamma=0.02, C=3.0, T=50, record_every=10)
    a = run_sampled(dist, 5, cfg, 0.1, 0.1)
    b = run_sampled(dist, 5, cfg, 0.1, 0.1)
    assert np.array_equal(a.mixture.lambdas, b.mixture.lambdas)


def test_gap_estimate_nonnegative_and_shrinks():
    dist, _ = make_dist(4, n_cells=10, n_groups=1, grid_m=20)
    cfg = SolverConfig(notion="fp", gamma=0.01, C=1.0, T=4000, record_every=500,
                       compute_gap=True)
    res = run(dist, cfg)
    gaps = [r.duality_gap_estimate for r in res.trajectory]
    assert all(g >= -1e-9 for g in gaps)
    assert gaps[-1] <= gaps[0]


# ------------------------------------------------------------ reference loop
#
# The dense solver loop the threshold kernel replaced, kept verbatim as the
# reference: every round evaluates decide_batch on all cells and recomputes
# the dual step from scratch.

def _reference_run_loop(dist, config, scores_as_f, sampler=None,
                        record_deviation=False):
    notion = config.notion
    base = base_rates(dist, notion, config.beta_mode)
    f = dist.scores if scores_as_f else dist.require_labels()
    masses = dist.masses
    G = dist.group_matrix
    n_groups, n_cells = G.shape
    T, eta = _resolve_schedule(config, n_groups, n_cells)

    beta = base.beta
    viol_mult = base.w if notion is FairnessNotion.SP else base.beta
    memb = G - beta[:, None]
    gamma, C = config.gamma, config.C

    lam_p = np.zeros(n_groups)
    lam_m = np.zeros(n_groups)
    lam_hist = np.empty((T, n_groups))
    dec_sum = np.zeros(n_cells)
    sum_lam_p = np.zeros(n_groups)
    sum_lam_m = np.zeros(n_groups)
    trajectory: List[TrajectoryRecord] = []
    deviations = np.empty((T, n_groups)) if record_deviation else None

    for t in range(1, T + 1):
        lam = lam_p - lam_m
        lam_hist[t - 1] = lam
        S = lam @ memb
        h = decide_batch(S, f, notion).astype(float)
        dec_sum += h

        if sampler is None:
            eval_masses = masses
        else:
            eval_masses = sampler(t)
        rho_g, rho0 = _rate_terms(notion, f, h, eval_masses, G)
        if record_deviation:
            pop_rho_g, _ = _rate_terms(notion, f, h, masses, G)
            deviations[t - 1] = np.abs(rho_g - pop_rho_g)
        centered = rho_g - beta * rho0

        if config.compute_gap:
            sum_lam_p += lam_p
            sum_lam_m += lam_m

        lam_p = np.maximum(0.0, lam_p + eta * (centered - gamma))
        lam_m = np.maximum(0.0, lam_m + eta * (-centered - gamma))
        total = lam_p.sum() + lam_m.sum()
        if total > C:
            projected = project_l1(DualState(lam_p, lam_m, C), config.projection_mode)
            lam_p, lam_m = projected.lambda_plus, projected.lambda_minus

        if (t - 1) % config.record_every == 0:
            err_hat = float(eval_masses @ (f + h * (1.0 - 2.0 * f)))
            viol_g = rho_g - viol_mult * rho0
            gap = None
            if config.compute_gap:
                gap = _gap_estimate(
                    dec_sum / t, sum_lam_p / t, sum_lam_m / t, f, masses, G,
                    memb, beta, notion, gamma, C)
            trajectory.append(TrajectoryRecord(
                t=t,
                err_hat=err_hat,
                max_violation_hat=float(np.abs(viol_g).max()),
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
    )


def _reference_sampled(population, sampler_seed, config, epsilon, delta,
                       record_deviation=False):
    """run_sampled's sampler driving the reference loop."""
    n_groups, n_cells = population.group_matrix.shape
    T, _ = _resolve_schedule(config, n_groups, n_cells)
    m = sample_size(T, n_groups, epsilon, delta)
    rng = np.random.Generator(np.random.PCG64(sampler_seed))
    masses = population.masses / population.masses.sum()

    def sampler(_t):
        return rng.multinomial(m, masses) / m

    return _reference_run_loop(population, config, True, sampler=sampler,
                               record_deviation=record_deviation)


def _reference_positive_prob_vector(mixture, dist, chunk=65536):
    """Per-cell positive probability through decide_batch on every rule."""
    memb = dist.group_matrix - mixture.base.beta[:, None]
    counts = np.zeros(dist.n_cells, dtype=float)
    T = len(mixture)
    for start in range(0, T, chunk):
        S = mixture.lambdas[start:start + chunk] @ memb
        dec = decide_batch(S, dist.scores[None, :], mixture.notion,
                           mixture.tiebreak_positive)
        counts += dec.sum(axis=0)
    return counts / T


def _bits(a):
    return None if a is None else np.asarray(a, dtype=float).view(np.uint64)


def _assert_bit_equal(got, want, dist):
    assert np.array_equal(_bits(got.mixture.lambdas), _bits(want.mixture.lambdas))
    # repr round-trips every float, so equal reprs mean equal bits
    assert repr(got.trajectory) == repr(want.trajectory)
    assert np.array_equal(_bits(got.final_dual.lambda_plus),
                          _bits(want.final_dual.lambda_plus))
    assert np.array_equal(_bits(got.final_dual.lambda_minus),
                          _bits(want.final_dual.lambda_minus))
    if want.estimation_deviations is None:
        assert got.estimation_deviations is None
    else:
        assert np.array_equal(_bits(got.estimation_deviations),
                              _bits(want.estimation_deviations))
    for tiebreak in (True, False):
        mix = MixtureClassifier(got.mixture.lambdas, got.mixture.notion, got.base,
                                tiebreak_positive=tiebreak)
        assert np.array_equal(_bits(mix.positive_prob_vector(dist)),
                              _bits(_reference_positive_prob_vector(mix, dist)))


@pytest.mark.parametrize("notion", NOTIONS)
def test_threshold_kernel_matches_reference_loop(biased_instance, notion):
    cfg = SolverConfig(notion=notion, gamma=0.01, C=10.0, T=20000, record_every=100)
    got = run(biased_instance, cfg)
    _assert_bit_equal(got, _reference_run_loop(biased_instance, cfg, True),
                      biased_instance)
    assert got.counters["rounds"] == 20000
    assert 1 <= got.counters["distinct_decisions"] <= 2 ** biased_instance.n_cells


@pytest.mark.parametrize("mode", ["euclidean_l1", "rescale"])
def test_threshold_kernel_matches_reference_when_projecting(biased_instance, mode):
    cfg = SolverConfig(notion="fp", gamma=0.0, C=1.0, eta=0.05, T=2000,
                       record_every=7, projection_mode=mode)
    got = run(biased_instance, cfg)
    _assert_bit_equal(got, _reference_run_loop(biased_instance, cfg, True),
                      biased_instance)
    assert 0 < got.counters["projections"] < 2000


def test_threshold_kernel_matches_reference_with_gap(biased_instance):
    cfg = SolverConfig(notion="fn", gamma=0.0, C=1.0, eta=0.05, T=2000,
                       record_every=50, compute_gap=True)
    got = run(biased_instance, cfg)
    _assert_bit_equal(got, _reference_run_loop(biased_instance, cfg, True),
                      biased_instance)
    assert all(r.duality_gap_estimate is not None for r in got.trajectory)


def test_threshold_kernel_matches_reference_sampled(biased_instance):
    cfg = SolverConfig(notion="fp", gamma=0.02, C=3.0, T=300, record_every=10)
    got = run_sampled(biased_instance, 5, cfg, 0.1, 0.1, record_deviation=True)
    want = _reference_sampled(biased_instance, 5, cfg, 0.1, 0.1, record_deviation=True)
    want.theorem_bounds = _theorem_bounds(cfg.C, 0.1)
    _assert_bit_equal(got, want, biased_instance)
    assert got.theorem_bounds == want.theorem_bounds
    assert got.counters["distinct_decisions"] == 0   # sampled rounds bypass the cache


def test_threshold_kernel_matches_reference_on_ties():
    # scores on the 1/2 grid: at the zero dual of round 1, cells with f = 1/2
    # tie for every notion and must go positive, as decide_batch has it
    dist, _ = make_dist(3, n_cells=6, n_groups=2, grid_m=2)
    assert np.any(dist.scores == 0.5)
    for notion in NOTIONS:
        cfg = SolverConfig(notion=notion, gamma=0.01, C=2.0, T=500, record_every=1)
        _assert_bit_equal(run(dist, cfg), _reference_run_loop(dist, cfg, True), dist)
