"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS ...` line (visible with
pytest -s); assertions enforce the same bounds.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from fairpost import (
    SolverConfig,
    SynthSpec,
    base_rates,
    calibrate,
    constraint_vector,
    default_checks,
    enumerate_optimum,
    gen_instance,
    project_l1,
    run,
    run_sampled,
    sample_size,
    surrogate_error,
    true_rates,
)
from fairpost.cli import main as cli_main
from fairpost.multical import CheckFunction, _CheckFamily, audit

from conftest import make_dist, rand_lambda
from reference_cells import cells_of
from reference_checks import Compiled
from reference_rates import expanded_lagrangian, lagrangian_value
from reference_solver import (decide, pointwise_argmin, reference_run_loop,
                              reference_run_sampled, replay_deviations)

NOTIONS = ["fp", "fn", "err", "sp"]


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def fixture_seed1():
    exact, _ = gen_instance(SynthSpec(seed=1, n_cells=8, n_groups=2, grid_m=20,
                                      bias_profile="two_group_bias"))
    return exact


@pytest.mark.parametrize("notion", NOTIONS)
def test_criterion_1_theorem_gap(fixture_seed1, notion):
    """err(mixture) <= OPT + 2/C + 0.01 and every weighted violation
    <= gamma + 1/C + 2/C^2 + 0.01, at the full iteration budget."""
    dist = fixture_seed1
    gamma, C = 0.01, 10.0
    t0 = time.perf_counter()
    cfg = SolverConfig(notion=notion, gamma=gamma, C=C, T="auto",
                       record_every=100000)
    res = run(dist, cfg)
    p = res.mixture.positive_prob_vector(dist)
    err_hat = surrogate_error(p, dist)
    rep = true_rates(p, dist, notion)
    base = base_rates(dist, notion, "from_scores")
    opt = enumerate_optimum(dist, base, gamma).opt_value
    elapsed = time.perf_counter() - t0

    err_bound = opt + 2.0 / C + 0.01
    viol_bound = gamma + 1.0 / C + 2.0 / C ** 2 + 0.01
    ok = (err_hat <= err_bound and rep.max_violation <= viol_bound
          and elapsed <= 60.0)
    _report(
        1, ok,
        f"{notion}: T={res.T} err_hat={err_hat:.5f} <= {err_bound:.5f}; "
        f"max w-violation={rep.max_violation:.5f} <= {viol_bound:.5f}; "
        f"runtime {elapsed:.1f}s <= 60s")


def test_criterion_2_best_response(rng):
    """10,000 random (lambda, cell, notion) draws agree with the pointwise
    brute force, ties resolved by the tie table."""
    t0 = time.perf_counter()
    dist, _ = make_dist(77, n_cells=14, n_groups=3, grid_m=50)
    bases = {n: base_rates(dist, n, "from_labels") for n in NOTIONS}
    cells = cells_of(dist)
    mismatches = 0
    for _ in range(10000):
        lam = rand_lambda(rng, dist.n_groups, 5.0)
        cell = cells[rng.integers(dist.n_cells)]
        notion = NOTIONS[rng.integers(4)]
        pw = pointwise_argmin(lam, cell, notion, bases[notion])
        if decide(lam, notion, bases[notion], cell.score, cell.groups) != pw.bit:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed <= 5.0
    _report(2, ok, f"10000 draws, {mismatches} mismatches, runtime {elapsed:.1f}s <= 5s")


def test_criterion_3_lagrangian_identity(rng):
    """400 random (h, lambda, notion) triples: definitional and expanded
    Lagrangian forms agree to 1e-10."""
    worst = 0.0
    for trial in range(400):
        dist, _ = make_dist(1000 + trial % 50, n_cells=9, n_groups=2)
        notion = NOTIONS[trial % 4]
        base = base_rates(dist, notion, "from_labels")
        p = (rng.uniform(size=dist.n_cells) if trial % 2
             else rng.integers(0, 2, size=dist.n_cells).astype(float))
        lam_p = np.abs(rng.standard_normal(dist.n_groups)) * rng.uniform(0, 2)
        lam_m = np.abs(rng.standard_normal(dist.n_groups)) * rng.uniform(0, 2)
        gamma = float(rng.uniform(0, 0.2))
        args = (p, np.concatenate((lam_p, lam_m)), dist, notion, base, gamma)
        worst = max(worst, abs(lagrangian_value(*args) - expanded_lagrangian(*args)))
    _report(3, worst <= 1e-10, f"400 triples, worst gap {worst:.2e} <= 1e-10")


def test_criterion_4_lemma32_family(rng):
    """200 random (distribution, h) pairs with f = label_mean: |constraint
    LHS| equals the weighted true-rate gap to 1e-10, all four notions."""
    worst = 0.0
    for trial in range(200):
        dist, _ = make_dist(2000 + trial, n_cells=10, n_groups=2, grid_m=25)
        p = (rng.uniform(size=dist.n_cells) if trial % 2
             else rng.integers(0, 2, size=dist.n_cells).astype(float))
        for notion in NOTIONS:
            base = base_rates(dist, notion, "from_labels")
            cv = np.abs(constraint_vector(p, dist, notion, base))
            rep = true_rates(p, dist, notion)
            worst = max(worst, float(np.abs(cv - rep.violation_by_group).max()))
    _report(4, worst <= 1e-10, f"200 pairs x 4 notions, worst gap {worst:.2e} <= 1e-10")


def test_criterion_5_fixh_identity(rng):
    """Threshold checks, as the check family that audit, calibrate and
    transform share evaluates them, equal the best response on every cell
    with positive denominator, over 50 random instances."""
    mismatches = 0
    cells_checked = 0
    for trial in range(50):
        dist, _ = make_dist(3000 + trial, n_cells=12, n_groups=2, grid_m=30)
        base = base_rates(dist, "fp", "from_labels")
        lam = rand_lambda(rng, dist.n_groups, 5.0)
        values, level_of = np.unique(dist.scores, return_inverse=True)
        family = _CheckFamily([CheckFunction("threshold", (lam, base))],
                              dist.group_matrix, values)
        for j, cell in enumerate(cells_of(dist)):
            bits = np.array([(cell.groups >> i) & 1 for i in range(dist.n_groups)])
            if 2.0 + float(lam @ (bits - base.beta)) <= 0:
                continue
            cells_checked += 1
            if family.fires(np.array([j]), level_of[j])[0, 0] != \
                    decide(lam, "fp", base, cell.score, cell.groups):
                mismatches += 1
    _report(5, mismatches == 0 and cells_checked > 0,
            f"{cells_checked} cells across 50 instances, {mismatches} mismatches")


def test_criterion_6_calibration_guarantees():
    """Patch loop on the seed=9 miscalibrated fixture: halts within 4/alpha^2
    rounds, every round drops the potential by >= alpha^2/4 (recomputed
    independently), and the final audit is <= sqrt(alpha)."""
    alpha = 0.01
    t0 = time.perf_counter()
    _, pert = gen_instance(SynthSpec(seed=9, n_cells=60, n_groups=3, grid_m=20,
                                     bias_profile="uniform", miscalibration=0.5))
    base = base_rates(pert, "fp", "from_labels")
    traj = reference_run_loop(pert, SolverConfig(notion="fp", gamma=0.01, C=10.0, T=500,
                                                 record_every=100)).lambdas[::50][:10]
    checks = default_checks(pert, base, n_random=64, C=10.0, seed=9)
    checks += [CheckFunction("threshold", (lam.copy(), base), name=f"traj[{k}]")
               for k, lam in enumerate(traj)]
    result = calibrate(pert.scores, checks, pert, alpha)

    round_cap = 4.0 / alpha ** 2
    halted = result.rounds <= round_cap

    # independent replay of the per-round potential drops
    assign = result.initial_assignment.copy()
    q, masses = pert.label_means, pert.masses
    prev = float(masses @ (q * (1 - assign) ** 2 + (1 - q) * assign ** 2))
    min_drop = math.inf
    for rec in result.history:
        comp = Compiled(checks[rec.check_index], pert)
        sel = comp.evaluate(assign) & (assign == rec.level)
        assign = assign.copy()
        assign[sel] = rec.v_prime
        pot = float(masses @ (q * (1 - assign) ** 2 + (1 - q) * assign ** 2))
        min_drop = min(min_drop, prev - pot)
        prev = pot

    _, max_violation = audit(result.assignment, checks, pert)
    elapsed = time.perf_counter() - t0
    ok = (halted and min_drop >= alpha ** 2 / 4
          and max_violation <= math.sqrt(alpha) and elapsed <= 120.0)
    _report(
        6, ok,
        f"rounds={result.rounds} <= {round_cap:.0f}; min drop={min_drop:.2e} >= "
        f"{alpha ** 2 / 4:.1e}; post-audit={max_violation:.4f} <= {math.sqrt(alpha):.2f}; "
        f"runtime {elapsed:.1f}s <= 120s")


def test_criterion_7_estimation():
    """Per-round sampled rate estimates stay within epsilon of the population
    values in at least a 1-delta fraction, at 95% binomial confidence."""
    epsilon = delta = 0.05
    t0 = time.perf_counter()
    pop, _ = gen_instance(SynthSpec(seed=2, n_cells=12, n_groups=2, grid_m=20,
                                    bias_profile="uniform"))
    trials = 200
    m = sample_size(trials, pop.n_groups, epsilon, delta)
    cfg = SolverConfig(notion="fp", gamma=0.01, C=5.0, T=trials, record_every=1000)
    res = run_sampled(pop, 424242, cfg, epsilon, delta)
    # each round's sampled rates, replayed from the sampler's stream against
    # the rounds' duals, which the reference loop keeps and run_sampled does not
    lambdas = reference_run_sampled(pop, 424242, cfg, epsilon, delta).lambdas
    dev = replay_deviations(pop, 424242, lambdas, res.mixture.base, epsilon, delta)
    n_checks = dev.size
    k_bad = int((dev > epsilon).sum())
    # Clopper-Pearson style upper bound at 95% for the failure fraction
    if k_bad == 0:
        upper = 1.0 - 0.05 ** (1.0 / n_checks)
    else:
        phat = k_bad / n_checks
        upper = phat + 1.6449 * math.sqrt(phat * (1 - phat) / n_checks)
    elapsed = time.perf_counter() - t0
    ok = upper <= delta and elapsed <= 60.0
    _report(
        7, ok,
        f"m={m}, {k_bad}/{n_checks} deviations > {epsilon}; 95% upper bound "
        f"{upper:.4f} <= {delta}; runtime {elapsed:.1f}s <= 60s")


def test_criterion_8_projection(rng):
    """Euclidean projection matches a bisection water-filling oracle to 1e-9
    and fixes interior points."""
    def bisect(v, C):
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

    worst = 0.0
    interior_moved = 0
    for _ in range(1000):
        g = int(rng.integers(1, 6))
        lp = rng.uniform(0, 2.5, size=g)
        lm = rng.uniform(0, 2.5, size=g)
        C = float(rng.uniform(0.3, 4.0))
        v = np.concatenate([lp, lm])
        got = project_l1(v, C)
        want = bisect(v, C)
        worst = max(worst, float(np.abs(got - want).max()))
        if lp.sum() + lm.sum() <= C:
            if not np.array_equal(got, v):
                interior_moved += 1
    ok = worst <= 1e-9 and interior_moved == 0
    _report(8, ok, f"1000 points, worst gap {worst:.2e} <= 1e-9, "
                   f"{interior_moved} interior points moved")


def test_criterion_9_pareto_monotone(fixture_seed1):
    """Reported error is nonincreasing in gamma up to the solver slack."""
    dist = fixture_seed1
    C = 10.0
    gammas = [0.005, 0.01, 0.02, 0.05, 0.1, 0.25]
    results = [run(dist, SolverConfig(notion="fp", gamma=g, C=C, T="auto",
                                      record_every=100000)) for g in gammas]
    errs = [surrogate_error(res.mixture.positive_prob_vector(dist), dist) for res in results]
    slack = 2.0 / C + 0.01
    ok = all(b <= a + slack for a, b in zip(errs, errs[1:]))
    _report(9, ok, "err_hat by gamma: " +
            ", ".join(f"{g}:{e:.5f}" for g, e in zip(gammas, errs)) +
            f" (nonincreasing within {slack})")


def test_criterion_10_determinism(tmp_path):
    """Byte-identical trajectory.csv and pareto.csv across two invocations."""
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--seed", "1", "--samples", "3000",
                     "--out", str(data)]) == 0
    solve_args = ["solve", str(data), "--gamma", "0.01", "--C", "10", "--T", "2000",
                  "--grid-m", "20", "--record-every", "100"]
    sweep_args = ["sweep", str(data), "--gammas", "0.005,0.02,0.1", "--C", "10",
                  "--T", "2000", "--grid-m", "20"]
    outs = []
    for tag in ("a", "b"):
        d1, d2 = tmp_path / f"solve_{tag}", tmp_path / f"sweep_{tag}"
        assert cli_main(solve_args + ["--out-dir", str(d1)]) == 0
        assert cli_main(sweep_args + ["--out-dir", str(d2)]) == 0
        outs.append(((d1 / "trajectory.csv").read_bytes(),
                     (d2 / "pareto.csv").read_bytes()))
    ok = outs[0] == outs[1]
    _report(10, ok, "trajectory.csv and pareto.csv byte-identical across reruns")
