import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairpost import (
    BaseRates,
    GroupSystem,
    MixtureClassifier,
    SolverConfig,
    base_rates,
    constraint_vector,
    enumerate_optimum,
    simplex_solve,
    surrogate_error,
)
from fairpost import oracle
from fairpost.oracle import InfeasibleError, _staircase

import reference_oracle
from conftest import make_dist, rand_lambda
from reference_cells import Cell, cells_of, dist_from_cells
from reference_rates import lagrangian_value
from reference_solver import decide, pointwise_argmin, reference_run_loop

NOTIONS = ["fp", "fn", "err", "sp"]


def test_simplex_basic():
    # min -x - y st x + y <= 1 -> -1
    x, val = simplex_solve(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]),
                           np.array([-np.inf]), np.array([1.0]))
    assert val == pytest.approx(-1.0)
    assert x.sum() == pytest.approx(1.0)


def test_simplex_infeasible():
    # x <= -1 with x >= 0
    with pytest.raises(InfeasibleError):
        simplex_solve(np.array([1.0]), np.array([[1.0]]), np.array([-np.inf]),
                      np.array([-1.0]))


def test_simplex_matches_scipy_on_lp_family(rng):
    scipy_opt = pytest.importorskip("scipy.optimize")
    from fairpost.oracle import _constraint_columns
    from reference_oracle import _subset_sums

    for trial in range(40):
        dist, _ = make_dist(7000 + trial, n_cells=7, n_groups=2, grid_m=10)
        notion = NOTIONS[trial % 4]
        gamma = [0.0, 0.005, 0.02, 0.1][trial % 4]
        base = base_rates(dist, notion, "from_labels")
        sol = enumerate_optimum(dist, base, gamma)

        f, m = dist.scores, dist.masses
        err = float(m @ f) + _subset_sums(m * (1 - 2 * f))
        const, coef = _constraint_columns(dist, base, f)
        a = np.stack([const[g] + _subset_sums(coef[g]) for g in range(dist.n_groups)])
        res = scipy_opt.linprog(
            err, A_ub=np.vstack([a, -a]), b_ub=np.full(2 * dist.n_groups, gamma),
            A_eq=np.ones((1, len(err))), b_eq=[1.0], bounds=(0, None), method="highs")
        assert res.status == 0
        assert sol.opt_value == pytest.approx(res.fun, abs=1e-9)


def test_oracle_two_group_bias_cross_check(biased_instance):
    scipy_opt = pytest.importorskip("scipy.optimize")
    from fairpost.oracle import _constraint_columns
    from reference_oracle import _subset_sums

    dist = biased_instance
    base = base_rates(dist, "fp", "from_labels")
    sol = enumerate_optimum(dist, base, 0.01)
    f, m = dist.scores, dist.masses
    err = float(m @ f) + _subset_sums(m * (1 - 2 * f))
    const, coef = _constraint_columns(dist, base, f)
    a = np.stack([const[g] + _subset_sums(coef[g]) for g in range(dist.n_groups)])
    res = scipy_opt.linprog(
        err, A_ub=np.vstack([a, -a]), b_ub=np.full(2 * dist.n_groups, 0.01),
        A_eq=np.ones((1, len(err))), b_eq=[1.0], bounds=(0, None), method="highs")
    assert res.status == 0
    assert abs(sol.opt_value - res.fun) <= 0.005


def test_oracle_vacuous_gamma_is_bayes():
    dist, _ = make_dist(50, n_cells=9, n_groups=2)
    for notion in NOTIONS:
        base = base_rates(dist, notion, "from_labels")
        sol = enumerate_optimum(dist, base, gamma=1.0)
        bayes = float(dist.masses @ np.minimum(dist.scores, 1 - dist.scores))
        assert sol.opt_value == pytest.approx(bayes, abs=1e-12)


def test_oracle_single_cell():
    system = GroupSystem(("I",))
    dist = dist_from_cells(10, system, [Cell(0.3, 1, 1.0, 0.3)])
    base = base_rates(dist, "fp", "from_labels")
    sol = enumerate_optimum(dist, base, gamma=0.0)
    assert sol.opt_value == pytest.approx(0.3, abs=1e-12)
    assert sol.support == [((0,), 1.0)]


def test_oracle_mixture_is_feasible_and_weights_normalized(biased_instance):
    base = base_rates(biased_instance, "fp", "from_labels")
    sol = enumerate_optimum(biased_instance, base, gamma=0.01)
    assert sol.weights.min() >= 0.0
    assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)
    # direct recomputation through the metrics module
    p = np.zeros(biased_instance.n_cells)
    for bits, w in sol.support:
        p += w * np.array(bits, dtype=float)
    cv = constraint_vector(p, biased_instance, "fp", base)
    assert np.abs(cv).max() <= 0.01 + 1e-9
    assert surrogate_error(p, biased_instance) == pytest.approx(sol.opt_value, abs=1e-9)


def test_oracle_monotone_in_gamma(biased_instance):
    for notion in NOTIONS:
        base = base_rates(biased_instance, notion, "from_labels")
        values = [
            enumerate_optimum(biased_instance, base, g).opt_value
            for g in (0.0, 0.01, 0.05, 0.2, 1.0)
        ]
        for lo, hi in zip(values, values[1:]):
            assert lo >= hi - 1e-9


def test_oracle_cell_guard(monkeypatch):
    """The guard is on n_cells * n_groups: at the cap the LP is solved, one
    below it is refused before the LP is built."""
    dist, _ = make_dist(51, n_cells=12, n_groups=1)
    base = base_rates(dist, "fp", "from_labels")
    size = dist.n_cells * dist.n_groups
    monkeypatch.setattr(oracle, "MAX_CELL_GROUPS", size)
    enumerate_optimum(dist, base, 0.1)
    monkeypatch.setattr(oracle, "MAX_CELL_GROUPS", size - 1)
    monkeypatch.setattr(oracle, "simplex_solve", None)
    with pytest.raises(ValueError, match=f"12 cells x 2 groups = 24 exceed LP guard {size - 1}"):
        enumerate_optimum(dist, base, 0.1)


def test_pointwise_argmin_values():
    system = GroupSystem(("I",))
    cells = [Cell(0.6, 1, 0.6, 0.6), Cell(0.5, 1, 0.4, 0.5)]
    dist = dist_from_cells(10, system, cells)
    base = base_rates(dist, "fp", "from_labels")
    pw = pointwise_argmin(np.zeros(1), cells[0], "fp", base)
    assert (pw.bit, pw.value_zero, pw.value_one, pw.tie) == (1, 0.6, pytest.approx(0.4), False)
    pw = pointwise_argmin(np.zeros(1), cells[1], "fp", base)
    assert pw.tie and pw.value_zero == pw.value_one == 0.5 and pw.bit == 1


def test_pointwise_argmin_cross_check(rng):
    dist, _ = make_dist(52, n_cells=10, n_groups=2, grid_m=40)
    cells = cells_of(dist)
    for _ in range(2000):
        lam = rand_lambda(rng, dist.n_groups, 5.0)
        notion = NOTIONS[rng.integers(4)]
        base = base_rates(dist, notion, "from_labels")
        cell = cells[rng.integers(dist.n_cells)]
        pw = pointwise_argmin(lam, cell, notion, base)
        assert pw.bit == decide(lam, notion, base, cell.score, cell.groups)


def test_weak_duality_against_solver_duals(biased_instance):
    dist = biased_instance
    gamma, C = 0.01, 4.0
    base = base_rates(dist, "fp", "from_scores")
    sol = enumerate_optimum(dist, base, gamma)
    cfg = SolverConfig(notion="fp", gamma=gamma, C=C, T=400, record_every=100)
    # rule i best-responds to round i's dual, so pairing them evaluates the
    # dual function there: a valid lower bound on the optimum
    lambdas = reference_run_loop(dist, cfg).lambdas
    best_lower = -np.inf
    for i in range(0, len(lambdas), 7):
        lam = lambdas[i]
        dual = np.concatenate((np.maximum(lam, 0.0), np.maximum(-lam, 0.0)))
        h = MixtureClassifier(lambdas[i:i + 1], base).positive_prob_vector(dist)
        value = lagrangian_value(h, dual, dist, "fp", base, gamma)
        best_lower = max(best_lower, value)
    assert sol.opt_value >= best_lower - 1e-9


ITERATION_LIMIT = "simplex iteration limit reached"


def _solve_or_none(solve, *args):
    """solve(*args), or None when it raises InfeasibleError."""
    try:
        return solve(*args)
    except InfeasibleError:
        return None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_cells=st.integers(1, 12), n_groups=st.integers(1, 3),
       notion=st.sampled_from(NOTIONS), gamma=st.sampled_from([0.0, 1e-3, 0.01, 0.05, 0.3]),
       perturbed=st.booleans(), beta_mode=st.sampled_from(["from_scores", "from_labels"]),
       shrink=st.sampled_from([1.0, 0.9]), scores_as_f=st.booleans())
@example(seed=0, n_cells=12, n_groups=3, notion="sp", gamma=0.0, perturbed=True,
         beta_mode="from_labels", shrink=1.0, scores_as_f=True)
@example(seed=0, n_cells=5, n_groups=2, notion="err", gamma=0.0, perturbed=False,
         beta_mode="from_scores", shrink=0.9, scores_as_f=True)
# the loop-form Bland simplex stalls on this 1024-labeling program
@example(seed=1, n_cells=10, n_groups=2, notion="fn", gamma=0.0, perturbed=False,
         beta_mode="from_scores", shrink=0.9, scores_as_f=False)
def test_lp_oracle_equals_labeling_enumeration(seed, n_cells, n_groups, notion, gamma,
                                                perturbed, beta_mode, shrink, scores_as_f):
    """The LP over per-cell probabilities has the optimum of the mixture LP
    over all 2^n labelings, and the two are infeasible together.  Where the
    loop-form simplex hits its iteration limit on the labeling LP, the LP's
    optimum is checked against HiGHS's on the labeling LP instead.

    Base rates from either mode leave some constant p feasible; shrinking
    beta by 0.9 makes small gammas infeasible for ERR and SP."""
    dist = make_dist(seed, n_cells=n_cells, n_groups=n_groups, grid_m=20)[perturbed]
    base = base_rates(dist, notion, beta_mode)
    base = BaseRates(base.notion, base.beta * shrink)
    program = reference_oracle.labeling_program(dist, base, gamma, scores_as_f)
    lp = _solve_or_none(
        lambda: enumerate_optimum(dist, base, gamma, scores_as_f=scores_as_f))
    try:
        ref = _solve_or_none(reference_oracle.simplex_solve, *program)
    except RuntimeError as exc:
        if str(exc) != ITERATION_LIMIT:
            raise
        scipy_opt = pytest.importorskip("scipy.optimize")
        c, A_ub, b_ub, A_eq, b_eq = program
        res = scipy_opt.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                bounds=(0, None), method="highs")
        assert res.status == 0
        assert abs(lp.opt_value - res.fun) <= 1e-9
        return
    if ref is None or lp is None:
        assert ref is lp is None
    else:
        assert abs(lp.opt_value - ref[1]) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.5, 1 / 3]) | st.floats(0.0, 1.0),
                       min_size=1, max_size=40))
def test_staircase_rebuilds_p(levels):
    p = np.array(levels)
    support = _staircase(p)
    bits = np.array([b for b, _ in support], dtype=float)
    weights = np.array([w for _, w in support])
    assert len(support) <= len(p) + 1
    assert weights.min() > 0.0
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert np.abs(weights @ bits - p).max() <= 1e-12


@pytest.mark.parametrize("seed, n_cells, n_groups, profile, grid_m, perturbed", [
    pytest.param(2, 100, 2, "two_group_bias", 100, 1, id="100-2"),
    pytest.param(2, 400, 4, "two_group_bias", 100, 1, id="400-4"),
    pytest.param(2, 1000, 4, "two_group_bias", 1000, 1, id="1000-4"),
    pytest.param(2, 150, 12, "adversarial_overlap", 100, 1, id="150-12-overlap"),
    # at ERR and gamma = 0 the vertex holds 0.5 - eps, 0.5 and 0.5 + eps; kept
    # apart, they made labelings of weight 2.8e-16 and 1.9e-15
    pytest.param(41479, 5, 4, "uniform", 20, 0, id="5-4-rounding-levels"),
])
def test_oracle_at_scale(seed, n_cells, n_groups, profile, grid_m, perturbed):
    """At the sweep_wide shape, at 1,000 cells and over 13 overlapping
    groups: HiGHS agrees to 1e-9, and the staircase support is a feasible
    mixture whose error is the optimum, at gamma = 0.01 and at the
    degenerate gamma = 0.  A vertex has at most |G| fractional cells and
    every other cell exactly on 0 or 1, so the support holds at most
    |G| + 1 labelings, none of rounding weight."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    dist = make_dist(seed, n_cells=n_cells, n_groups=n_groups, grid_m=grid_m,
                     profile=profile)[perturbed]
    assert dist.n_cells == n_cells
    for gamma, notion in itertools.product((0.01, 0.0), NOTIONS):
        base = base_rates(dist, notion, "from_scores")
        sol = enumerate_optimum(dist, base, gamma)
        highs = reference_oracle.highs_optimum(scipy_opt.linprog, dist, base, gamma)
        assert abs(sol.opt_value - highs) <= 1e-9

        assert len(sol.support) == len(sol.weights) <= dist.n_groups + 1
        assert sol.weights.min() >= 1e-12
        assert abs(sol.weights.sum() - 1.0) <= 1e-12
        p = sol.weights @ np.array([bits for bits, _ in sol.support], dtype=float)
        assert surrogate_error(p, dist) == pytest.approx(sol.opt_value, abs=1e-12)
        assert np.abs(constraint_vector(p, dist, notion, base)).max() <= gamma + 1e-9
