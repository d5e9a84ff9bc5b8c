import dataclasses

import numpy as np
import pytest

from fairpost import (
    BaseRates,
    FairnessNotion,
    base_rates,
    build_cells,
    constraint_vector,
    surrogate_error,
    true_rates,
)

from conftest import make_dist
from reference_cells import Cell, cells_of, dist_from_cells
from reference_rates import table_group_rate

NOTIONS = ["fp", "fn", "err", "sp"]


def test_base_rates_is_its_notion_and_beta():
    assert [f.name for f in dataclasses.fields(BaseRates)] == ["notion", "beta"]
    assert BaseRates("sp", [0.25, 1.0]).beta.tolist() == [0.25, 1.0]
    with pytest.raises(ValueError, match="beta must be a 1-D array"):
        BaseRates("fp", np.full((2, 2), 0.5))
    for bad in (np.nan, -0.5, 1.5):
        with pytest.raises(ValueError, match="beta entries must lie in"):
            BaseRates("fp", [0.5, bad])


def test_base_rates_all_group_is_one():
    dist = build_cells([(0.3, (1,), None), (0.7, (1,), None)], 10)
    for notion in NOTIONS:
        b = base_rates(dist, notion, "from_scores")
        assert b.beta[0] == pytest.approx(1.0)


def test_base_rates_two_disjoint_groups_at_half():
    rows = [(0.5, (1, 1, 0), None), (0.5, (1, 0, 1), None)]
    dist = build_cells(rows, 10)
    b = base_rates(dist, "fp", "from_scores")
    assert b.beta[1] == pytest.approx(0.5)
    assert b.beta[2] == pytest.approx(0.5)


def test_base_rates_modes_agree_when_scores_are_label_means():
    dist, _ = make_dist(3, n_cells=12, n_groups=2)
    assert np.array_equal(dist.scores, dist.label_means)
    for notion in NOTIONS:
        a = base_rates(dist, notion, "from_scores")
        b = base_rates(dist, notion, "from_labels")
        assert np.allclose(a.beta, b.beta, atol=0)


def test_base_rates_degenerate_marginal():
    dist = build_cells([(1.0, (1,), None)], 1)
    with pytest.raises(ValueError, match="degenerate label marginal"):
        base_rates(dist, "fp", "from_scores")
    dist0 = build_cells([(0.0, (1,), None)], 1)
    with pytest.raises(ValueError, match="degenerate label marginal"):
        base_rates(dist0, "fn", "from_scores")


def test_surrogate_rate_all_negative_classifier():
    dist, _ = make_dist(5, n_cells=9, n_groups=2)
    p = np.zeros(dist.n_cells)
    for g in range(dist.n_groups):
        assert table_group_rate(p, g, dist, notion="fp") == 0.0


def test_surrogate_rate_all_positive_on_I_is_mean_negative_mass():
    dist, _ = make_dist(6, n_cells=9, n_groups=2)
    p = np.ones(dist.n_cells)
    got = table_group_rate(p, 0, dist, notion="fp")
    assert got == pytest.approx(float(dist.masses @ (1 - dist.scores)), abs=1e-15)


def test_surrogate_rate_matches_per_sample_brute_force(rng):
    rows = []
    for _ in range(4000):
        score = round(rng.integers(0, 21) / 20, 10)
        bits = (1, int(rng.integers(2)), int(rng.integers(2)))
        rows.append((score, bits, int(rng.uniform() < score)))
    dist = build_cells(rows, 20)
    decisions = {c.key(): int(rng.integers(2)) for c in cells_of(dist)}
    p = np.array([decisions[c.key()] for c in cells_of(dist)], dtype=float)

    for notion in NOTIONS:
        for g in range(3):
            total = 0.0
            for score, bits, _ in rows:
                s = round(np.floor(score * 20 + 0.5)) / 20
                mask = sum(b << i for i, b in enumerate(bits))
                h = decisions[(s, mask)]
                f = s
                if notion == "fp":
                    val = h * (1 - f)
                elif notion == "fn":
                    val = (1 - h) * f
                elif notion == "err":
                    val = (1 - h) * f + h * (1 - f)
                else:
                    val = h
                total += bits[g] * val
            brute = total / len(rows)
            got = table_group_rate(p, g, dist, notion=notion)
            assert got == pytest.approx(brute, abs=1e-12)


def test_constraint_lhs_zero_cases(rng):
    dist, _ = make_dist(7, n_cells=10, n_groups=2)
    p0 = np.zeros(dist.n_cells)
    base = base_rates(dist, "fp", "from_labels")
    for g in range(dist.n_groups):
        assert constraint_vector(p0, dist, "fp", base)[g] == 0.0
    # the all-ones group kills its constraint for any h (its beta is 1)
    for notion in NOTIONS:
        b = base_rates(dist, notion, "from_labels")
        p = rng.uniform(size=dist.n_cells)
        assert constraint_vector(p, dist, notion, b)[0] == pytest.approx(0.0, abs=1e-15)


def test_constraint_vector_takes_base_rates_built_from_a_str_notion(rng):
    # BaseRates coerces its notion, so "fp" there is FairnessNotion.FP
    dist, _ = make_dist(7, n_cells=10, n_groups=2)
    base = base_rates(dist, "fp", "from_labels")
    from_str = BaseRates("fp", base.beta)
    assert from_str.notion is FairnessNotion.FP
    p = rng.uniform(size=dist.n_cells)
    want = constraint_vector(p, dist, FairnessNotion.FP, base)
    assert constraint_vector(p, dist, "fp", from_str).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="different notion"):
        constraint_vector(p, dist, "fn", from_str)


def test_lemma32_family_small(rng):
    # weighted true-rate gap equals |constraint LHS| when f is the label mean
    for trial in range(40):
        dist, _ = make_dist(100 + trial, n_cells=10, n_groups=2)
        p = rng.uniform(size=dist.n_cells)
        for notion in NOTIONS:
            base = base_rates(dist, notion, "from_labels")
            cv = np.abs(constraint_vector(p, dist, notion, base))
            rep = true_rates(p, dist, notion)
            assert np.abs(cv - rep.violation_by_group).max() <= 1e-10


def test_constraint_linear_in_mixture(rng):
    dist, _ = make_dist(8, n_cells=8, n_groups=2)
    base = base_rates(dist, "fp", "from_scores")
    rules = rng.integers(0, 2, size=(6, dist.n_cells)).astype(float)
    mean_of_values = np.mean(
        [constraint_vector(h, dist, "fp", base) for h in rules], axis=0)
    value_of_mean = constraint_vector(rules.mean(axis=0), dist, "fp", base)
    assert np.abs(mean_of_values - value_of_mean).max() <= 1e-12


def test_true_rates_bayes_error():
    from fairpost import GroupSystem
    system = GroupSystem(("I",))
    dist = dist_from_cells(10, system, [Cell(0.2, 1, 0.5, 0.2), Cell(0.8, 1, 0.5, 0.8)])
    rep = true_rates(np.array([0.0, 1.0]), dist, "fp")  # threshold at 1/2
    assert rep.err == pytest.approx(0.2)


def test_true_rates_all_positive_fp_violations_vanish():
    dist, _ = make_dist(11, n_cells=10, n_groups=2)
    rep = true_rates(np.ones(dist.n_cells), dist, "fp")
    assert rep.max_violation == pytest.approx(0.0, abs=1e-15)
    for g in range(dist.n_groups):
        if dist.group_matrix[g] @ (dist.masses * (1 - dist.label_means)) > 0:
            assert rep.rho_by_group[g] == 1.0


def test_true_rates_degenerate_group_reports_zero():
    rows = [(0.4, (1, 0), 1), (0.6, (1, 0), 0), (0.8, (1, 1), 1)]
    dist = build_cells(rows, 10)
    # group 1 only covers a cell with label_mean 1 => zero FP conditioning mass
    rep = true_rates(np.ones(dist.n_cells), dist, "fp")
    assert 1 in rep.degenerate_groups
    assert rep.rho_by_group[1] == 0.0
    assert rep.violation_by_group[1] == 0.0


def test_true_rates_match_monte_carlo(rng):
    dist, _ = make_dist(11, n_cells=10, n_groups=2)
    p = rng.uniform(size=dist.n_cells)
    rep = true_rates(p, dist, "fp")

    n = 1_000_000
    cells = rng.choice(dist.n_cells, size=n, p=dist.masses / dist.masses.sum())
    y = rng.uniform(size=n) < dist.label_means[cells]
    h = rng.uniform(size=n) < p[cells]
    err_mc = float(np.mean(h != y))
    sigma = 0.5 / np.sqrt(n)
    assert abs(err_mc - rep.err) <= 3 * sigma + 1e-12

    g = dist.group_matrix[1][cells].astype(bool)
    sel = g & ~y
    rho_mc = float(np.mean(h[sel]))
    sigma_g = 0.5 / np.sqrt(sel.sum())
    assert abs(rho_mc - rep.rho_by_group[1]) <= 3 * sigma_g + 1e-12


def test_surrogate_error_definition(rng):
    dist, _ = make_dist(13, n_cells=7, n_groups=1)
    p = rng.uniform(size=dist.n_cells)
    f = dist.scores
    # the ERR row of the rate table, a + b*p with a = f and b = 1 - 2f
    expect = float(dist.masses @ (f + (1 - 2 * f) * p))
    assert surrogate_error(p, dist) == expect
