"""The rate table against the per-notion expressions it replaced.

`rate_terms` gives each notion's integrand a + b*p and weight c once.  For
0/1 decisions the table's rates and aggregate, the solver's error, the base
rates and the oracle's LP columns keep the old expressions' bits; at
fractional positive probabilities the metrics sum the same terms in another
order and agree to 1e-12.  The references are in `reference_rates.py`.
Distributions are drawn with scores and label means on grids k/m, m <= 200.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fairpost import (
    FairnessNotion,
    GroupSystem,
    base_rates,
    constraint_vector,
    surrogate_error,
    true_rates,
)
from fairpost.metrics import error_rate, group_rates, rate_terms
from fairpost.oracle import _constraint_columns

import reference_rates as ref
from reference_cells import Cell, dist_from_cells

NOTIONS = st.sampled_from(list(FairnessNotion))
MODES = st.sampled_from(["from_scores", "from_labels"])


@st.composite
def grid_dists(draw):
    """Cells with scores and label means on the 1/m grid; group 0 is I."""
    m = draw(st.integers(min_value=1, max_value=200))
    n_groups = draw(st.integers(min_value=1, max_value=4))
    keys = draw(st.lists(
        st.tuples(st.integers(0, m), st.integers(0, 2 ** (n_groups - 1) - 1)),
        min_size=1, max_size=16, unique=True))
    n = len(keys)
    weights = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, m), min_size=n, max_size=n))
    total = sum(weights)
    cells = [Cell(k / m, 1 | (mask << 1), w / total, lab / m)
             for (k, mask), w, lab in zip(keys, weights, labels)]
    names = ("I",) + tuple(f"g{i}" for i in range(1, n_groups))
    return dist_from_cells(m, GroupSystem(names), cells)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _base_or_skip(dist, notion, mode):
    try:
        return base_rates(dist, notion, mode)
    except ValueError:
        assume(False)


def _decisions(data, n):
    return np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                    dtype=float)


def _probabilities(data, n):
    return np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(grid_dists(), NOTIONS, st.data())
def test_table_rates_bit_equal_at_binary_decisions(dist, notion, data):
    h = _decisions(data, dist.n_cells)
    m, G = dist.masses, dist.group_matrix
    # sampled rounds weigh the cells by multinomial frequencies, not masses
    counts = np.array(data.draw(st.lists(st.integers(0, 50), min_size=dist.n_cells,
                                         max_size=dist.n_cells)), dtype=float)
    for f in (dist.scores, dist.label_means):
        for masses in (m, counts / max(counts.sum(), 1.0)):
            got_g, got_0 = group_rates(rate_terms(notion, f), h, masses, G)
            want_g, want_0 = ref._rate_terms(notion, f, h, masses, G)
            assert np.array_equal(_bits(got_g), _bits(want_g))
            assert _bits(got_0) == _bits(want_0)
            # the solver's err_hat before the table
            assert _bits(error_rate(h, f, masses)) == _bits(
                float(masses @ (f + h * (1.0 - 2.0 * f))))


@settings(max_examples=300, deadline=None)
@given(grid_dists(), NOTIONS, MODES)
def test_base_rates_bit_equal(dist, notion, mode):
    try:
        want = ref.base_rates(dist, notion, mode)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            base_rates(dist, notion, mode)
        return
    got = base_rates(dist, notion, mode)
    assert got.notion is want.notion
    assert np.array_equal(_bits(got.beta), _bits(want.beta))


@settings(max_examples=300, deadline=None)
@given(grid_dists(), NOTIONS, MODES)
def test_constraint_columns_bit_equal(dist, notion, mode):
    base = _base_or_skip(dist, notion, mode)
    for f in (dist.scores, dist.label_means):
        const, coef = _constraint_columns(dist, base, f)
        want_const, want_coef = ref._constraint_columns(dist, base, f)
        assert np.array_equal(_bits(const), _bits(want_const))
        assert np.array_equal(_bits(coef), _bits(want_coef))


@settings(max_examples=300, deadline=None)
@given(grid_dists(), NOTIONS, MODES, st.sampled_from([0.0, 0.01, 0.3]), st.booleans(),
       st.data())
def test_dual_gradient_is_the_reported_constraint(dist, notion, mode, gamma, binary, data):
    """The dynamics step on the constraint the reports measure: dual_gradient
    is (c - gamma, -c - gamma) with c = constraint_vector, bit for bit, at
    0/1 and at fractional positive probabilities."""
    base = _base_or_skip(dist, notion, mode)
    for d in (dist, dist.with_scores_from_labels()):    # f = the scores, then the labels
        h = (_decisions if binary else _probabilities)(data, d.n_cells)
        c = constraint_vector(h, d, notion, base)
        grad_plus, grad_minus = ref.dual_gradient(h, d, notion, base, gamma)
        assert np.array_equal(_bits(grad_plus), _bits(c - gamma))
        assert np.array_equal(_bits(grad_minus), _bits(-c - gamma))


@settings(max_examples=300, deadline=None)
@given(grid_dists(), NOTIONS, MODES, st.data())
def test_metrics_match_reference_at_fractional_p(dist, notion, mode, data):
    p = _probabilities(data, dist.n_cells)
    base = _base_or_skip(dist, notion, mode)
    got = constraint_vector(p, dist, notion, base)
    assert np.abs(got - ref.constraint_vector(p, dist, notion, base)).max() <= 1e-12
    assert abs(surrogate_error(p, dist) - ref.surrogate_error(p, dist)) <= 1e-12
    for scores_as_f in (True, False):
        for g in [None, *range(dist.n_groups)]:
            got = ref.table_group_rate(p, g, dist, scores_as_f, notion)
            want = ref.surrogate_group_rate(p, g, dist, scores_as_f, notion)
            assert abs(got - want) <= 1e-12
        f = dist.scores if scores_as_f else dist.label_means
        assert abs(error_rate(p, f, dist.masses)
                   - ref.surrogate_error(p, dist, scores_as_f)) <= 1e-12

    got, want = true_rates(p, dist, notion), ref.true_rates(p, dist, notion)
    # the signed constraint at the label means, against the label base
    # rates, is true_rates' violation up to its sign
    if mode == "from_labels":
        label_form = ref.constraint_vector(p, dist, notion, base, scores_as_f=False)
        assert np.abs(np.abs(label_form) - got.violation_by_group).max() <= 1e-12
    assert got.notion is want.notion
    assert got.degenerate_groups == want.degenerate_groups
    for field in ("err", "rho_overall", "max_violation"):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12
    assert np.abs(got.rho_by_group - want.rho_by_group).max() <= 1e-12
    assert np.abs(got.violation_by_group - want.violation_by_group).max() <= 1e-12

