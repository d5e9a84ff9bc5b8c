import dataclasses
import itertools
import math
import re
from typing import List

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fairpost import (
    BudgetExceededError,
    FairnessNotion,
    SolverConfig,
    base_rates,
    duality_gap,
    enumerate_optimum,
    iteration_budget,
    project_l1,
    run,
    run_sampled,
    sample_size,
    surrogate_error,
    true_rates,
)
from fairpost.cli import main, read_dataset
from fairpost.core import CellDistribution, MixtureClassifier, decide_batch, decision_thresholds
from fairpost import solver
from fairpost.solver import (
    TrajectoryRecord,
    _resolve_schedule,
    _theorem_bounds,
)

from conftest import make_dist, rand_lambda
from reference_cells import cells_of
from reference_rates import (_rate_terms, _solver_constraints, dual_gradient,
                             expanded_lagrangian, lagrangian_value)
from reference_solver import (ReferenceResult, _gap_estimate, decide, pointwise_argmin,
                              reference_run_loop, replay_deviations)

NOTIONS = ["fp", "fn", "err", "sp"]


def test_iteration_budget_values():
    assert iteration_budget(2.0, 3) == 256
    assert iteration_budget(1.0, 1) == 7       # ceil(6.25)
    assert iteration_budget(10.0, 2) == 291600


def _unguarded_budget(C, group_count):
    """The budget formula with no floor and no range check: None where it
    overflows."""
    try:
        return math.ceil(0.25 * C * C * (C * C + 4.0 * group_count) ** 2)
    except OverflowError:
        return None


def test_c_min_is_the_least_c_whose_square_is_not_zero():
    assert solver.C_MIN * solver.C_MIN > 0.0
    assert np.nextafter(solver.C_MIN, 0.0) ** 2 == 0.0


def test_c_slack_min_is_the_least_c_whose_slack_is_finite():
    # SolverConfig refuses a smaller C: its report would hold inf
    def slack(C):
        return _theorem_bounds(C)["violation_slack"]
    assert math.isfinite(slack(solver.C_SLACK_MIN))
    below = float(np.nextafter(solver.C_SLACK_MIN, 0.0))
    assert slack(below) == math.inf
    SolverConfig(C=solver.C_SLACK_MIN)
    for C in (below, 2e-162, solver.C_MIN):
        with pytest.raises(ValueError, match=re.escape(
                f"C must be positive and finite, in [{solver.C_SLACK_MIN!r}, inf)")):
            SolverConfig(C=C)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.integers(1, 64))
@example(solver.C_MIN, 1)
@example(float(np.nextafter(solver.C_MIN, 0.0)), 1)
@example(1e-170, 3)
@example(2e-162, 1)
@example(3e51, 1)
@example(1e154, 3)
@example(1e160, 3)
def test_iteration_budget_is_positive_or_refused(C, group_count):
    # at least 1 round; BudgetExceededError where no float holds T, and
    # ValueError below C_MIN, where the formula gives 0 rounds
    want = _unguarded_budget(C, group_count)
    try:
        T = iteration_budget(C, group_count)
    except BudgetExceededError as exc:
        assert want is None and str(exc).startswith("budget exceeded: T = C^2")
        return
    except ValueError as exc:
        assert C < solver.C_MIN and want == 0 and "C must lie in" in str(exc)
        return
    assert type(T) is int and T == max(1, want)


def test_sample_size_values():
    assert sample_size(1, 1, 1.0, 1.0) == 1
    assert sample_size(10, 2, 0.1, 0.1) == 300
    assert sample_size(100, 4, 0.05, 0.05) == 1937


@pytest.mark.parametrize("epsilon", [1e-200, 1e-160, 5e-324])
def test_sample_size_past_the_float_range_is_a_budget_miss(epsilon):
    # 2 eps^2 underflows to 0, or m overflows
    with pytest.raises(BudgetExceededError, match="sample size .* passes the float range"):
        sample_size(10, 3, epsilon, 0.5)


def test_a_sample_size_past_int64_is_refused_before_any_round(biased_instance, monkeypatch):
    # one multinomial draw takes at most 2**63 - 1 samples
    cfg = SolverConfig(C=1, T=5)
    assert sample_size(5, biased_instance.n_groups, 1e-10, 0.1) > np.iinfo(np.int64).max
    monkeypatch.setattr(solver, "_run_loop", None)    # no round may run
    with pytest.raises(BudgetExceededError, match=re.escape(
            "sample size 2.85e+20 at epsilon = 1e-10 passes the int64 range")):
        run_sampled(biased_instance, 0, cfg, 1e-10, 0.1)
    monkeypatch.undo()
    # a sample size inside the range runs
    assert sample_size(5, biased_instance.n_groups, 2e-9, 0.1) <= np.iinfo(np.int64).max
    assert run_sampled(biased_instance, 0, cfg, 2e-9, 0.1).T == 5


def test_sample_size_epsilon_scaling():
    m1 = sample_size(50, 3, 0.05, 0.1)
    m2 = sample_size(50, 3, 0.1, 0.1)
    assert m2 <= m1
    assert m2 >= m1 / 4 - 1  # quarters up to the log term


def test_best_response_bayes_at_zero_dual():
    base = base_rates(_two_cell_dist(), "fp", "from_scores")
    assert decide((0.0,), "fp", base, 0.6, 1) == 1
    assert decide((0.0,), "fp", base, 0.4, 1) == 0


def test_best_response_sp_tie_goes_positive():
    base = base_rates(_two_cell_dist(), "sp", "from_scores")
    assert decide((0.0,), "sp", base, 0.5, 1) == 1


def _two_cell_dist():
    from fairpost import build_cells
    return build_cells([(0.4, (1,), None), (0.6, (1,), None)], 10)


def test_best_response_matches_pointwise_argmin(rng):
    dist, _ = make_dist(30, n_cells=12, n_groups=3, grid_m=40)
    cells = cells_of(dist)
    for _ in range(1000):
        lam = rand_lambda(rng, dist.n_groups, 5.0)
        cell = cells[rng.integers(dist.n_cells)]
        notion = NOTIONS[rng.integers(4)]
        base = base_rates(dist, notion, "from_labels")
        pw = pointwise_argmin(lam, cell, notion, base)
        assert decide(lam, notion, base, cell.score, cell.groups) == pw.bit
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
        rule = MixtureClassifier(lam[None], base).positive_prob_vector(dist)
        grad = np.concatenate(dual_gradient(rule, dist, notion, base, gamma=0.02))
        dual = np.abs(rng.standard_normal(2 * dist.n_groups))
        eps = 1e-6
        for j in range(2 * dist.n_groups):
            hi, lo = dual.copy(), dual.copy()
            hi[j] += eps
            lo[j] -= eps
            fd = (lagrangian_value(rule, hi, dist, notion, base, 0.02)
                  - lagrangian_value(rule, lo, dist, notion, base, 0.02)) / (2 * eps)
            assert fd == pytest.approx(grad[j], abs=1e-6)


@pytest.mark.parametrize("seed", [5, 9])
def test_sp_meets_criterion_1_bounds(seed):
    """Criterion 1's bounds for SP on the exact fixture at other seeds:
    err <= OPT + 2/C + 0.01 and true violation <= gamma + 1/C + 2/C^2 + 0.01.
    SP's dynamics must play the game for the constraint that the oracle and
    the report measure for these to hold."""
    dist, _ = make_dist(seed, n_cells=8, n_groups=2, grid_m=20, profile="two_group_bias")
    gamma, C = 0.01, 10.0
    res = run(dist, SolverConfig(notion="sp", gamma=gamma, C=C, record_every=100000))
    p = res.mixture.positive_prob_vector(dist)
    opt = enumerate_optimum(dist, res.mixture.base, gamma).opt_value
    assert surrogate_error(p, dist) <= opt + 2.0 / C + 0.01
    assert true_rates(p, dist, "sp").max_violation <= gamma + 1.0 / C + 2.0 / C ** 2 + 0.01


def test_project_l1_examples():
    assert np.allclose(project_l1(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])
    assert project_l1(np.array([0.3, 0.2]), 1.0).tolist() == [0.3, 0.2]
    assert np.allclose(project_l1(np.array([2.0, 1.0, 1.0, 0.0]), 2.0),
                       [4 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)


@pytest.mark.parametrize("v, C, message", [
    ([0.5, 0.5], 0.0, "C must be positive"),
    ([0.5, 0.5], -1.0, "C must be positive"),
    ([0.5, -0.25], 1.0, "dual variables must be nonnegative"),
    ([-0.0, -1e-300], 1.0, "dual variables must be nonnegative"),
])
def test_project_l1_refuses_a_bad_ball_or_dual(v, C, message):
    with pytest.raises(ValueError, match=message):
        project_l1(np.array(v), C)


def test_project_l1_of_an_entry_far_past_the_ball():
    # 1e16 - 1 rounds to 1e16, so no index passes the rounded test
    assert project_l1(np.array([1e16, 0.0]), 1.0).tolist() == [0.0, 0.0]
    assert project_l1(np.array([3.0, 1e16, 2.0]), 1.0).tolist() == [0.0, 0.0, 0.0]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=16),
       st.floats(min_value=1e-300, max_value=1e300))
@example([1e300, 1.0, 5e-324], 1e-300)
def test_project_l1_lands_in_the_ball(v, C):
    # nonnegative, v itself inside the ball, and off it a sum of at most C
    # up to the rounding of the sums of v
    v = np.array(v)
    x = project_l1(v, C)
    assert x.shape == v.shape and np.all(x >= 0.0)
    if v.sum() <= C:
        assert np.array_equal(x, v)
    else:
        assert x.sum() <= C + 4 * len(v) * np.finfo(float).eps * v.sum()


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
        v = np.concatenate([lp, lm])
        got = project_l1(v, C)
        want = _bisect_project(v, C)
        assert np.abs(got - want).max() <= 1e-9
        assert got.sum() <= C + 1e-12
        assert np.all(got >= 0.0)


def test_run_vacuous_gamma_keeps_dual_at_zero():
    dist, _ = make_dist(33, n_cells=10, n_groups=2)
    # at lambda = 0 the margin M is 0, so a d = 0 cell (f = 0.5) certifies
    # its decision on the closed side s*S <= d and blocks carry the run
    halves, _ = make_dist(3, n_cells=6, n_groups=2, grid_m=2)
    assert np.any(halves.scores == 0.5)
    _, M = solver._certify(np.zeros((3, halves.n_groups)), halves.group_matrix)
    assert np.all(M == 0.0)
    for dist, notion in itertools.product((dist, halves), NOTIONS):
        cfg = SolverConfig(notion=notion, gamma=1.0, C=5.0, T=200, record_every=50)
        res = run(dist, cfg)
        assert np.all(res.final_dual == 0.0)
        assert np.all(res.lambdas == 0.0)
        assert res.speculation["speculated_rounds"] >= 0.8 * cfg.T
        p = res.mixture.positive_prob_vector(dist)
        bayes = (dist.scores >= 0.5).astype(float)
        assert np.array_equal(p, bayes)
        want = float(dist.masses @ np.minimum(dist.scores, 1 - dist.scores))
        assert surrogate_error(p, dist) == pytest.approx(want, abs=1e-15)


def test_run_is_deterministic(biased_instance):
    cfg = SolverConfig(notion="fp", gamma=0.01, C=4.0, T=500, record_every=25)
    a = run(biased_instance, cfg)
    b = run(biased_instance, cfg)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert [(r.t, r.err_hat, r.max_violation_hat, r.lambda_l1) for r in a.trajectory] == \
           [(r.t, r.err_hat, r.max_violation_hat, r.lambda_l1) for r in b.trajectory]


def test_run_dual_feasibility(biased_instance):
    cfg = SolverConfig(notion="fp", gamma=0.0, C=0.5, T=800, record_every=1)
    res = run(biased_instance, cfg)
    assert all(r.lambda_l1 <= 0.5 + 1e-12 for r in res.trajectory)
    assert res.final_dual.sum() <= 0.5 + 1e-12


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
        zero = np.zeros(2 * dist.n_groups)
        got = lagrangian_value(p, zero, dist, notion, base, gamma=0.3)
        assert got == pytest.approx(surrogate_error(p, dist), abs=1e-15)


def test_lagrangian_all_negative_closed_form(rng):
    dist, _ = make_dist(36, n_cells=9, n_groups=2)
    base = base_rates(dist, "fp", "from_scores")
    lp = np.abs(rng.standard_normal(dist.n_groups))
    lm = np.abs(rng.standard_normal(dist.n_groups))
    dual = np.concatenate((lp, lm))
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
        args = (p, np.concatenate((lp, lm)), dist, notion, base, float(rng.uniform(0, 0.2)))
        assert abs(lagrangian_value(*args) - expanded_lagrangian(*args)) <= 1e-10


def test_no_regret_bound(biased_instance):
    # dual player's average regret against the best fixed comparator found
    # by grid search over the L1 ball at resolution 0.1
    dist = biased_instance
    C, gamma, T = 1.0, 0.01, 1500
    cfg = SolverConfig(notion="fp", gamma=gamma, C=C, T=T, record_every=10 ** 9)
    res = run(dist, cfg)
    base = res.mixture.base
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
            lam_p, lam_m = np.split(project_l1(np.concatenate((lam_p, lam_m)), C), 2)
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


def test_run_sampled_is_reproducible():
    dist, _ = make_dist(2, n_cells=10, n_groups=2)
    cfg = SolverConfig(notion="fp", gamma=0.02, C=3.0, T=50, record_every=10)
    a = run_sampled(dist, 5, cfg, 0.1, 0.1)
    b = run_sampled(dist, 5, cfg, 0.1, 0.1)
    assert np.array_equal(a.lambdas, b.lambdas)


def _prefix_gaps(result, dist, config, rounds):
    """duality_gap of the first t rules of a run, for each t of rounds."""
    lambdas, base = result.lambdas, result.mixture.base
    return [duality_gap(MixtureClassifier(lambdas[:t], base), dist, config.gamma, config.C)
            for t in rounds]


def test_gap_estimate_nonnegative_and_shrinks():
    dist, _ = make_dist(4, n_cells=10, n_groups=1, grid_m=20)
    cfg = SolverConfig(notion="fp", gamma=0.01, C=1.0, T=4000, record_every=500)
    gaps = _prefix_gaps(run(dist, cfg), dist, cfg, range(1, 4001, 500))
    assert all(g >= -1e-9 for g in gaps)
    assert gaps[-1] <= gaps[0]


@pytest.mark.parametrize("notion", NOTIONS)
@pytest.mark.parametrize("C, eta, gamma", [(10.0, "auto", 0.01), (0.5, 0.05, 0.0)],
                         ids=["10.0-auto-0.01", "0.5-0.05-0.0"])
def test_duality_gap_never_looser_than_the_in_loop_gap(biased_instance, notion, C, eta,
                                                       gamma):
    # the netted mean dual's lower bound is at least the split averages',
    # and the mixture's probabilities are the running decisions' mean, so
    # the gap of every prefix lies between 0 and the reference loop's gap
    cfg = SolverConfig(notion=notion, gamma=gamma, C=C, eta=eta, T=3000, record_every=50)
    want = reference_run_loop(biased_instance, cfg, compute_gap=True)
    rounds = [r.t for r in want.trajectory]
    gaps = _prefix_gaps(run(biased_instance, cfg), biased_instance, cfg, rounds)
    assert len(gaps) == len(want.gaps) == 60
    for t, gap, reference in zip(rounds, gaps, want.gaps):
        assert -1e-12 <= gap <= reference + 1e-12, (t, gap, reference)


@pytest.mark.parametrize("notion", NOTIONS)
@pytest.mark.parametrize("instance", ["fixture", "150-13-overlap"])
def test_duality_gap_bounds_the_error_above_the_optimum(biased_instance, instance, notion):
    # err(p) <= upper and lower <= the game's value <= OPT, so every
    # prefix's error exceeds the oracle's optimum by at most its gap
    if instance == "fixture":
        dist, T = biased_instance, 20000
    else:    # 12 overlapping groups and the all-ones group
        dist, T = make_dist(2, n_cells=150, n_groups=12, grid_m=100,
                            profile="adversarial_overlap")[1], 2000
        assert dist.n_groups == 13
    cfg = SolverConfig(notion=notion, gamma=0.01, C=10.0, T=T, record_every=T)
    result = run(dist, cfg)
    opt = enumerate_optimum(dist, result.mixture.base, cfg.gamma).opt_value
    rounds = [1, 10, 100, T // 10, T // 2, T]
    for t, gap in zip(rounds, _prefix_gaps(result, dist, cfg, rounds)):
        prefix = MixtureClassifier(result.lambdas[:t], result.mixture.base)
        err = surrogate_error(prefix.positive_prob_vector(dist), dist)
        assert err - opt <= gap + 1e-12, (t, err, opt, gap)


# ------------------------------------------------------------ reference loop
#
# The dense solver loop the threshold kernel replaced, kept verbatim as the
# reference: every round evaluates decide_batch on all cells and recomputes
# the dual step from scratch.

def _reference_run_loop(dist, config, scores_as_f, sampler=None, compute_gap=False,
                        record_deviation=False):
    notion = config.notion
    base = base_rates(dist, notion)
    f = dist.scores if scores_as_f else dist.require_labels()
    masses = dist.masses
    G = dist.group_matrix
    n_groups, n_cells = G.shape
    T, eta = _resolve_schedule(config, n_groups, n_cells)

    beta = base.beta
    memb = G - beta[:, None]
    gamma, C = config.gamma, config.C

    lam_p = np.zeros(n_groups)
    lam_m = np.zeros(n_groups)
    lam_hist = np.empty((T, n_groups))
    dec_sum = np.zeros(n_cells)
    sum_lam_p = np.zeros(n_groups)
    sum_lam_m = np.zeros(n_groups)
    trajectory: List[TrajectoryRecord] = []
    gaps = [] if compute_gap else None
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

        if compute_gap:
            sum_lam_p += lam_p
            sum_lam_m += lam_m

        lam_p = np.maximum(0.0, lam_p + eta * (centered - gamma))
        lam_m = np.maximum(0.0, lam_m + eta * (-centered - gamma))
        total = lam_p.sum() + lam_m.sum()
        if total > C:
            lam_p, lam_m = np.split(project_l1(np.concatenate((lam_p, lam_m)), C), 2)

        if (t - 1) % config.record_every == 0:
            err_hat = float(eval_masses @ (f + h * (1.0 - 2.0 * f)))
            if compute_gap:
                gaps.append(_gap_estimate(
                    dec_sum / t, np.concatenate((sum_lam_p, sum_lam_m)) / t, f, masses, G,
                    memb, beta, notion, gamma, C))
            trajectory.append(TrajectoryRecord(
                t=t,
                err_hat=err_hat,
                max_violation_hat=float(np.abs(centered).max()),
                lambda_l1=float(lam_p.sum() + lam_m.sum()),
            ))

    return ReferenceResult(
        mixture=MixtureClassifier(lam_hist, base),
        lambdas=lam_hist,
        final_dual=np.concatenate((lam_p, lam_m)),
        trajectory=trajectory,
        theorem_bounds=_theorem_bounds(C),
        T=T,
        eta=eta,
        gaps=gaps,
        deviations=deviations,
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
        dec = decide_batch(S, dist.scores[None, :], mixture.notion)
        counts += dec.sum(axis=0)
    return counts / T


def _bits(a):
    return None if a is None else np.asarray(a, dtype=float).view(np.uint64)


def _assert_bit_equal(got, want, dist):
    assert np.array_equal(_bits(got.lambdas), _bits(want.lambdas))
    # repr round-trips every float, so equal reprs mean equal bits
    assert repr(got.trajectory) == repr(want.trajectory)
    assert np.array_equal(_bits(got.final_dual), _bits(want.final_dual))
    # the distinct-rule mixture counts on the cells as the T-rule one does
    assert np.array_equal(_bits(got.mixture.positive_prob_vector(dist)),
                          _bits(_reference_positive_prob_vector(want.mixture, dist)))


@pytest.mark.parametrize("notion", NOTIONS)
def test_threshold_kernel_matches_reference_loop(biased_instance, notion):
    cfg = SolverConfig(notion=notion, gamma=0.01, C=10.0, T=20000, record_every=100)
    got = run(biased_instance, cfg)
    _assert_bit_equal(got, _reference_run_loop(biased_instance, cfg, True),
                      biased_instance)
    assert got.counters["rounds"] == 20000
    assert 1 <= got.counters["distinct_decisions"] <= 2 ** biased_instance.n_cells


# mode, here and below: the projection these runs exercise, the solver's only one
@pytest.mark.parametrize("mode", ["euclidean_l1"])
def test_threshold_kernel_matches_reference_when_projecting(biased_instance, mode):
    cfg = SolverConfig(notion="fp", gamma=0.0, C=1.0, eta=0.05, T=2000, record_every=7)
    got = run(biased_instance, cfg)
    _assert_bit_equal(got, _reference_run_loop(biased_instance, cfg, True),
                      biased_instance)
    assert 0 < got.counters["projections"] < 2000


def test_threshold_kernel_matches_reference_with_gap(biased_instance):
    # FN at gamma = 0, projecting
    cfg = SolverConfig(notion="fn", gamma=0.0, C=1.0, eta=0.05, T=2000, record_every=50)
    got = run(biased_instance, cfg)
    _assert_bit_equal(got, _reference_run_loop(biased_instance, cfg, True),
                      biased_instance)


def test_threshold_kernel_matches_reference_sampled(biased_instance):
    cfg = SolverConfig(notion="fp", gamma=0.02, C=3.0, T=300, record_every=10)
    got = run_sampled(biased_instance, 5, cfg, 0.1, 0.1)
    want = _reference_sampled(biased_instance, 5, cfg, 0.1, 0.1, record_deviation=True)
    want.theorem_bounds = _theorem_bounds(cfg.C, 0.1)
    _assert_bit_equal(got, want, biased_instance)
    assert got.theorem_bounds == want.theorem_bounds
    # sampled rounds step with their own rates but count their patterns
    assert got.counters["distinct_decisions"] == len(got.mixture) >= 1
    assert _bits(replay_deviations(biased_instance, 5, got.lambdas, got.mixture.base,
                                   0.1, 0.1)).tobytes() == \
        _bits(want.deviations).tobytes()


@pytest.mark.parametrize("notion", NOTIONS)
@pytest.mark.parametrize("seed", [0, 5, 424242])
def test_replayed_deviations_equal_the_in_loop_deviations(biased_instance, notion, seed):
    # the sampler's stream, replayed against the returned rules, gives the
    # deviations the reference loop recorded round by round, bit for bit
    cfg = SolverConfig(notion=notion, gamma=0.01, C=3.0, T=300, record_every=10)
    got = run_sampled(biased_instance, seed, cfg, 0.1, 0.1)
    m = sample_size(cfg.T, biased_instance.n_groups, 0.1, 0.1)
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = biased_instance.masses / biased_instance.masses.sum()
    want = reference_run_loop(biased_instance, cfg, sampler=lambda _t: rng.multinomial(
        m, weights) / m, record_deviation=True)
    assert got.lambdas.tobytes() == want.lambdas.tobytes()
    assert replay_deviations(biased_instance, seed, got.lambdas, got.mixture.base,
                             0.1, 0.1).tobytes() == \
        want.deviations.tobytes()


def test_threshold_kernel_matches_reference_on_ties():
    # scores on the 1/2 grid: at the zero dual of round 1, cells with f = 1/2
    # tie for every notion and must go positive, as decide_batch has it
    dist, _ = make_dist(3, n_cells=6, n_groups=2, grid_m=2)
    assert np.any(dist.scores == 0.5)
    for notion in NOTIONS:
        cfg = SolverConfig(notion=notion, gamma=0.01, C=2.0, T=500, record_every=1)
        _assert_bit_equal(run(dist, cfg), _reference_run_loop(dist, cfg, True), dist)


# ------------------------------------------------------------ round body
#
# run against the loop before the round-body cuts (step cache keyed by the
# raw decision bytes, quick L1 sum in front of the exact test).

def _assert_same_run(got, want):
    assert got.lambdas.tobytes() == want.lambdas.tobytes()
    # repr round-trips every float, so equal reprs mean equal bits
    assert repr(got.trajectory) == repr(want.trajectory)
    assert got.counters == want.counters
    assert got.final_dual.tobytes() == want.final_dual.tobytes()


@pytest.mark.parametrize("notion", NOTIONS)
@pytest.mark.parametrize("C, eta, T, gamma", [
    (10.0, "auto", 20000, 0.01),
    (0.5, 0.05, 3000, 0.0),
    (0.5, 0.05, 3000, 0.01),
], ids=["10.0-auto-20000-euclidean_l1", "0.5-0.05-3000-euclidean_l1",
        "0.5-0.05-3000-euclidean_l1-gamma0.01"])
def test_round_body_matches_parent_loop(biased_instance, notion, C, eta, T, gamma):
    cfg = SolverConfig(notion=notion, gamma=gamma, C=C, eta=eta, T=T, record_every=7)
    got = run(biased_instance, cfg)
    _assert_same_run(got, reference_run_loop(biased_instance, cfg))
    if C < 1.0:
        # the quick sum passes rounds on to the exact test, which projects;
        # at gamma = 0.01 the FP dual stays inside the ball
        assert 0 < got.counters["projections"] < T or (gamma, notion) == (0.01, "fp")


def test_round_body_matches_parent_loop_with_gap():
    # SP at gamma = 0 on three groups, projecting
    dist, _ = make_dist(4, n_cells=12, n_groups=3, grid_m=20, profile="two_group_bias")
    cfg = SolverConfig(notion="sp", gamma=0.0, C=0.5, eta=0.02, T=2000, record_every=25)
    got = run(dist, cfg)
    _assert_same_run(got, reference_run_loop(dist, cfg))
    assert got.counters["projections"] > 0


@pytest.mark.parametrize("notion", NOTIONS)
def test_block_records_past_eight_groups_match_the_loop(notion):
    # a block sums the record rows' lambda+ and lambda- halves in one
    # row-wise sum; with 10 groups plus I each half has 11 terms, past the
    # 8 at which numpy's pairwise sum changes its order
    dist, _ = make_dist(9, n_cells=40, n_groups=10, grid_m=20)
    cfg = SolverConfig(notion=notion, gamma=0.01, C=2.0, T=6000, record_every=3)
    got = run(dist, cfg)
    assert dist.n_groups == 11 and got.speculation["speculated_rounds"] >= 300
    want = reference_run_loop(dist, cfg)
    # the first differing record, before the whole-trajectory repr comparison
    off = [(a, b) for a, b in zip(got.trajectory, want.trajectory) if a != b]
    assert not off, off[0]
    _assert_same_run(got, want)


def _assert_ball_boundary(dist, notion, eta, gamma=0.01):
    # C set to the exact L1 total after round 1, and one double either
    # side: the quick sum lets each through, and only the exact test tells
    # "on the sphere" (no projection) from "just outside" (projection)
    def config(C, T):
        return SolverConfig(notion=notion, gamma=gamma, C=C, eta=eta, T=T, record_every=3)

    first = run(dist, config(10.0, 1)).final_dual
    lam_p, lam_m = np.split(first, 2)
    total = lam_p.sum() + lam_m.sum()    # the loop's exact test
    assert total > 0.0
    for C, projected in ((np.nextafter(total, 0.0), 1), (total, 0),
                         (np.nextafter(total, np.inf), 0)):
        assert run(dist, config(float(C), 1)).counters["projections"] == projected
        cfg = config(float(C), 300)
        _assert_same_run(run(dist, cfg), reference_run_loop(dist, cfg))
    return first


@pytest.mark.parametrize("notion", NOTIONS)
def test_l1_check_at_the_ball_boundary(biased_instance, notion):
    _assert_ball_boundary(biased_instance, notion, 0.05)


@pytest.mark.parametrize("eta, quick_above", [(0.03, True), (0.07, False)])
def test_l1_check_where_summation_orders_differ(eta, quick_above):
    # here the quick sum of the round-1 dual and lam_p.sum() + lam_m.sum()
    # differ in the last bit, one way for each eta, so a check that trusted
    # the quick sum alone would project on the wrong rounds
    dist, _ = make_dist(3, n_cells=12, n_groups=3, grid_m=20, profile="two_group_bias")
    first = _assert_ball_boundary(dist, "fp", eta, gamma=0.001)
    quick = sum(first.tolist())
    lam_p, lam_m = np.split(first, 2)
    exact = lam_p.sum() + lam_m.sum()
    assert (quick > exact) if quick_above else (quick < exact)


def test_solver_config_is_frozen_and_replace_runs_the_checks():
    # a field assigned after construction skipped __post_init__ and failed
    # inside the loop; a copy made with replace is checked
    config = SolverConfig(T=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.T = 2.5
    assert dataclasses.replace(config, gamma="0.1").gamma == 0.1
    with pytest.raises(ValueError, match="gamma must be a finite nonnegative number"):
        dataclasses.replace(config, gamma=math.nan)


# ------------------------------------------------------------ speculative blocks

@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_groups=st.integers(1, 6), n_cells=st.integers(1, 40),
       rows=st.integers(1, 40))
def test_certificate_bounds_the_gemv_of_every_cell(data, n_groups, n_cells, rows):
    # a block certifies its rows with one gemm S = lams @ cols over the
    # distinct membership columns and the margin M of solver._certify: on
    # every cell, the loop's own gemv lies within M of s * S, at any scale
    G = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n_cells,
                                             max_size=n_cells),
                                    min_size=n_groups, max_size=n_groups)), dtype=float)
    beta = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_groups,
                                       max_size=n_groups)))
    sign = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n_cells,
                                       max_size=n_cells)))
    entry = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(1.0, 10.0),
                      st.integers(-300, 299)).map(lambda t: t[0] * t[1] * 10.0 ** t[2])
    lams = np.array(data.draw(st.lists(st.lists(entry, min_size=n_groups, max_size=n_groups),
                                       min_size=rows, max_size=rows)))
    memb = G - beta[:, None]
    smemb = memb * sign
    cols, inv = np.unique(memb, axis=1, return_inverse=True)
    inv = inv.ravel()
    S, M = solver._certify(lams, cols)
    for k, lam in enumerate(lams):
        gemv = lam @ smemb    # the loop's decision input, over every cell
        assert np.all(np.abs(gemv - sign * S[k, inv]) <= M[k, inv])
        assert lam.any() or not M[k].any()


def _with_zero_mass_cell(dist, score, like):
    # dist and one more cell, of mass 0, with cell like's groups and a
    # score on the 2**-52 grid: its decisions leave every rate as it was
    bits = dist.group_matrix.T.astype(np.uint8)
    return CellDistribution.from_arrays(
        2 ** 52, dist.groups, np.append(dist.scores, score), np.append(dist.masses, 0.0),
        None, np.vstack((bits, bits[like])))


def test_a_near_tie_stops_blocks_at_the_margin_and_keeps_the_loops_bits():
    # SP: a zero-mass cell with threshold d = 2f - 1 set to the largest S the
    # loop's gemv gives it, so it is decided every round and one round's S
    # lies within M of d; inside a block that row fails its certificate with
    # a right guess, a margin stop, and the loop runs it
    base, _ = make_dist(2, n_cells=8, n_groups=2, grid_m=20, profile="two_group_bias")
    stops = 0
    for C, like in itertools.product((2.0, 1.0), range(base.n_cells)):
        cfg = SolverConfig(notion="sp", gamma=0.01, C=C, T=3000)
        probe = _with_zero_mass_cell(base, 1.0, like)    # d = 1 exceeds every S here
        first = run(probe, cfg)
        memb = probe.group_matrix - base_rates(probe, "sp").beta[:, None]
        S = np.array([lam @ memb for lam in first.lambdas])[:, -1]    # the loop's gemv
        top = int(S.argmax())
        if not 0.0 < S[top] < 1.0:    # no f in (1/2, 1) puts d there
            continue
        f = (1.0 + S[top]) / 2.0    # the least f whose 2f - 1 is at least S[top]
        while 2.0 * f - 1.0 < S[top]:
            f = np.nextafter(f, 2.0)
        while 2.0 * np.nextafter(f, 0.0) - 1.0 >= S[top]:
            f = np.nextafter(f, 0.0)
        _, M = solver._certify(first.lambdas[top:top + 1], memb[:, -1:])
        assert 0.0 <= (2.0 * f - 1.0) - S[top] < M[0, 0]
        tied = _with_zero_mass_cell(base, f, like)
        got = run(tied, cfg)
        assert got.lambdas.tobytes() == first.lambdas.tobytes()
        _assert_same_run(got, reference_run_loop(tied, cfg))
        stops += got.speculation["margin_stops"]
    assert stops >= 1


@pytest.mark.parametrize("n_cols", [2, 4, 6, 24])
def test_cumsum_rows_equal_the_sequential_update(n_cols):
    # a block's duals where they stay positive are np.cumsum over the rows
    # (dual, step_1, step_2, ...); numpy accumulates axis 0 row by row, so
    # row i has the bits of i in-place updates dual + step, as the loop makes
    rng = np.random.Generator(np.random.PCG64(n_cols))
    for scale in (1e-6, 1e-3, 1.0):
        dual = rng.uniform(0.0, 5.0, n_cols)
        steps = rng.standard_normal((4096, n_cols)) * scale
        rows = np.cumsum(np.concatenate((dual[None], steps)), axis=0)
        for i, step in enumerate(steps, 1):
            dual = dual + step
            assert rows[i].tobytes() == dual.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n_cells=st.integers(2, 12), n_groups=st.integers(1, 3),
       grid_m=st.sampled_from([2, 20]), notion=st.sampled_from(NOTIONS),
       C=st.sampled_from([0.5, 1.0, 10.0]), gamma=st.sampled_from([0.0, 0.01]),
       eta=st.sampled_from(["auto", 0.05]), record_every=st.sampled_from([1, 7, 100]),
       T=st.integers(1, 20000) | st.sampled_from([3000, 20000]))
@example(seed=195, n_cells=2, n_groups=2, grid_m=2, notion="fp", C=10.0, gamma=0.01,
         eta="auto", record_every=100, T=3000)
@example(seed=27138, n_cells=2, n_groups=1, grid_m=2, notion="fp", C=10.0, gamma=0.01,
         eta="auto", record_every=100, T=3000)
def test_speculative_blocks_match_the_reference_loop(seed, n_cells, n_groups, grid_m, notion,
                                                     C, gamma, eta, record_every, T):
    # exact runs replay recurring decision patterns in blocks; every
    # kept round must be the reference loop's, projections included
    if grid_m == 2 and n_groups < 3:    # 3 scores on the 1/2 grid: at most 6 cells
        n_cells = min(n_cells, 6)
    try:
        dist, _ = make_dist(seed, n_cells=n_cells, n_groups=n_groups, grid_m=grid_m,
                            profile="two_group_bias")
    except RuntimeError:    # the generator found no instance past its violation floor
        assume(False)
    try:
        base_rates(dist, FairnessNotion.coerce(notion), "from_scores")
    except ValueError:    # a label marginal of 0 or 1 has no constrained problem
        assume(False)
    cfg = SolverConfig(notion=notion, gamma=gamma, C=C, eta=eta, T=T,
                       record_every=record_every)
    _assert_same_run(run(dist, cfg), reference_run_loop(dist, cfg))


def test_speculative_blocks_carry_the_fixture_run(biased_instance):
    result = run(biased_instance, SolverConfig(notion="fp", gamma=0.01, C=10.0))
    assert result.speculation["speculated_rounds"] >= 0.9 * result.T
    # sampled runs go round by round
    got = run_sampled(biased_instance, 5, SolverConfig(notion="fp", gamma=0.01, C=10.0, T=300),
                      0.1, 0.1)
    assert got.speculation == {"blocks": 0, "speculated_rounds": 0, "columns": 3,
                               "margin_stops": 0}


@pytest.mark.parametrize("notion", NOTIONS)
def test_speculative_blocks_back_off_when_projecting(biased_instance, notion):
    # test_round_body_matches_parent_loop's C = 0.5 case: a projection ends
    # every block, so short blocks double the wait before the next attempt
    cfg = SolverConfig(notion=notion, gamma=0.0, C=0.5, eta=0.05, T=3000, record_every=7)
    result = run(biased_instance, cfg)
    assert result.counters["projections"] > 0.5 * cfg.T
    assert result.speculation["blocks"] < 0.02 * cfg.T


# ------------------------------------------------------------ two forms of S
# The solver decides each round with the gemv lam @ smemb; a mixture counts
# its rules with the ordered sum lam[0]*c_0 + lam[1]*c_1 + ...  Each round's
# rule, replayed through the solver's own 1-D expression, must decide as
# positive_prob_vector counts it, bit for bit.

def _round_patterns(result, dist):
    """(T, n_cells): each round's decisions through the solver's own 1-D
    expression."""
    sign, thresh = decision_thresholds(dist.scores, result.mixture.notion)
    smemb = (dist.group_matrix - result.mixture.base.beta[:, None]) * sign
    return np.array([lam @ smemb <= thresh for lam in result.lambdas])


def _solver_form_probs(result, dist):
    return _round_patterns(result, dist).sum(axis=0) / result.T


@pytest.mark.parametrize("notion", NOTIONS)
def test_two_forms_of_S_agree_on_the_acceptance_fixture(biased_instance, notion):
    result = run(biased_instance, SolverConfig(notion=notion, gamma=0.01, C=10.0,
                                               record_every=100000))
    assert result.T == 313600
    assert np.array_equal(_solver_form_probs(result, biased_instance),
                          result.mixture.positive_prob_vector(biased_instance))


def test_two_forms_of_S_agree_on_sweep_wide(tmp_path):
    # the sweep_wide bench instance at its four gammas
    data = tmp_path / "wide.csv"
    assert main(["synth", "--seed", "2", "--n-cells", "400", "--n-groups", "4",
                 "--profile", "two_group_bias", "--grid-m", "100", "--samples", "50000",
                 "--out", str(data)]) == 0
    dist = read_dataset(str(data), 100)
    assert dist.n_cells == 400
    for gamma in (0.005, 0.01, 0.02, 0.05):
        result = run(dist, SolverConfig(notion="sp", gamma=gamma, C=6.0))
        assert result.T == 28224
        assert np.array_equal(_solver_form_probs(result, dist),
                              result.mixture.positive_prob_vector(dist))


# ------------------------------------------------------------ distinct rules
# The mixture holds one rule per distinct decision pattern of the rounds,
# weighted by the rounds that played it; on the cells it was fit on it must
# count as the uniform mixture over all T rounds does, bit for bit.

def _assert_exact_on_the_cells(result, dist):
    mixture, base = result.mixture, result.mixture.base
    assert mixture.weights.sum() == result.T == len(result.lambdas)
    full = MixtureClassifier(result.lambdas, base)
    assert np.array_equal(_bits(mixture.positive_prob_vector(dist)),
                          _bits(full.positive_prob_vector(dist)))
    # rule k plays the k-th distinct pattern of the rounds, in order of first
    # play, as often as the rounds played it, and decides it under the
    # mixture's own evaluation
    patterns, first, counts = np.unique(_round_patterns(result, dist), axis=0,
                                        return_index=True, return_counts=True)
    order = np.argsort(first)
    assert np.array_equal(mixture.weights, counts[order])
    assert result.counters["distinct_decisions"] == len(mixture)
    for rule, pattern in zip(mixture.lambdas, patterns[order]):
        p = MixtureClassifier(rule[None], base).positive_prob_vector(dist)
        assert np.array_equal(p, pattern.astype(float))


@pytest.mark.parametrize("notion", NOTIONS)
def test_mixture_is_exact_on_the_acceptance_fixture(biased_instance, notion):
    result = run(biased_instance, SolverConfig(notion=notion, gamma=0.01, C=10.0,
                                               record_every=100000))
    assert result.T == 313600
    _assert_exact_on_the_cells(result, biased_instance)


@pytest.mark.parametrize("notion", NOTIONS)
def test_mixture_is_exact_on_thirteen_overlapping_groups(notion):
    dist, _ = make_dist(2, n_cells=150, n_groups=12, grid_m=100, profile="adversarial_overlap")
    assert (dist.n_cells, dist.n_groups) == (150, 13)
    result = run(dist, SolverConfig(notion=notion, gamma=0.01, C=4.0, record_every=100000))
    _assert_exact_on_the_cells(result, dist)


def test_sampled_mixture_is_exact_on_the_cells(biased_instance):
    cfg = SolverConfig(notion="sp", gamma=0.01, C=3.0, T=2000, record_every=1000)
    result = run_sampled(biased_instance, 7, cfg, 0.1, 0.1)
    assert len(result.mixture) > 1
    _assert_exact_on_the_cells(result, biased_instance)


def test_a_mean_that_decides_otherwise_falls_back_to_the_first_round(biased_instance,
                                                                     monkeypatch):
    # with every candidate's check inverted, no mean reproduces its pattern,
    # and each rule is its pattern's first round
    monkeypatch.setattr(solver, "decide_batch", lambda S, f, notion: ~decide_batch(S, f, notion))
    result = run(biased_instance, SolverConfig(notion="fn", gamma=0.01, C=10.0, T=20000))
    monkeypatch.undo()
    _, first = np.unique(_round_patterns(result, biased_instance), axis=0, return_index=True)
    assert len(first) > 1
    assert np.array_equal(result.mixture.lambdas, result.lambdas[np.sort(first)])
    _assert_exact_on_the_cells(result, biased_instance)
