"""The mixture evaluation counts exactly the rules decide_batch fires.

MixtureClassifier takes the points in chunks and, for each, computes every
rule's ordered group sum S_k, applies decide_batch's own test s*S_k <= d and
adds the weights of the rules that fire.  The reference here builds the same
S_k as an ordered sum over the groups, applies decide_batch to every rule and
counts, so the two must agree bit for bit: on off-grid scores and f in
{0, 1/2, 1}, on all-zero rules, on sums exactly at the threshold, at -1 and
at signed zeros, with duplicate patterns, at K = 1 and K = 2, with one point
per chunk or several, and with weights summing to the 2**53 cap.  A point's
probability must also not depend on the batch it is scored in.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpost import FairThresholdPostprocessor, cli, core
from fairpost.core import (
    BaseRates,
    FairnessNotion,
    MixtureClassifier,
    decide_batch,
    decision_thresholds,
    grid_indices,
)

from conftest import make_dist

NOTIONS = list(FairnessNotion)


def _ordered_sums(lambdas, beta, bits):
    c = np.asarray(bits, dtype=float) - beta
    S = lambdas[:, 0] * c[0]
    for i in range(1, len(c)):
        S = S + lambdas[:, i] * c[i]
    return S


def _reference_probs(mix, scores, groups):
    K = len(mix)
    counts = [mix.weights[decide_batch(_ordered_sums(mix.lambdas, mix.base.beta, bits),
                                       np.full(K, f), mix.notion)].sum()
              for f, bits in zip(scores, groups)]
    return np.array(counts, dtype=float) / mix.weights.sum()


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


unit = st.floats(min_value=0.0, max_value=1.0)
lam_value = st.floats(min_value=-50.0, max_value=50.0)


@st.composite
def instances(draw):
    g = draw(st.integers(min_value=1, max_value=4))
    # beta = 0 or 1 makes c = +-1 exactly, so a rule's sum can be aimed at a value
    beta = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit),
                                  min_size=g, max_size=g)))
    notion = draw(st.sampled_from(NOTIONS))
    scores = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit),
                                    min_size=1, max_size=12)))
    patterns = draw(st.lists(st.lists(st.integers(0, 1), min_size=g, max_size=g),
                             min_size=1, max_size=6))
    # few patterns for many points, so patterns repeat
    groups = np.array([draw(st.sampled_from(patterns)) for _ in scores], dtype=int)
    s, d = decision_thresholds(scores, notion)
    flips = [float(v) for v in (s * d)[np.isfinite(d)]]
    aimed = flips + [float(np.nextafter(v, w)) for v in flips for w in (-np.inf, np.inf)]
    aimed += [-1.0, 1.0, 0.0, -0.0]
    T = draw(st.one_of(st.sampled_from([1, 2]), st.integers(min_value=3, max_value=16)))
    rows = []
    for _ in range(T):
        kind = draw(st.sampled_from(["zero", "free", "aimed"]))
        if kind == "zero":
            rows.append([0.0] * g)
        elif kind == "free":
            rows.append(draw(st.lists(lam_value, min_size=g, max_size=g)))
        else:
            # one nonzero weight: S = lambda_i * c_i plus signed zeros
            row = [draw(st.sampled_from([0.0, -0.0])) for _ in range(g)]
            row[draw(st.integers(0, g - 1))] = draw(st.sampled_from(aimed))
            rows.append(row)
    base = BaseRates(notion, beta)
    mix = MixtureClassifier(np.array(rows), base)
    return mix, scores, groups


# the default chunk holds every batch drawn here; 1 entry gives one point per
# chunk, and 3 entries give chunks of 3 // K points, the last one shorter
@pytest.mark.parametrize("entries", [core._EVAL_ENTRIES, 1, 3])
@settings(max_examples=300, deadline=None)
@given(case=instances())
def test_compiled_counts_equal_decide_batch(entries, case):
    mix, scores, groups = case
    want = _reference_probs(mix, scores, groups)
    with mock.patch.object(core, "_EVAL_ENTRIES", entries):
        assert np.array_equal(_bits(mix.positive_prob_points(scores, groups)), _bits(want))
        for f, bits, p in zip(scores, groups, want):
            assert _bits(mix.positive_prob_points([f], [bits])[0]) == _bits(p)


# one chunk of every drawn batch, and the two smaller chunkings, as above
@pytest.mark.parametrize("entries", [core._EVAL_ENTRIES, 1, 3])
@pytest.mark.parametrize("notion", NOTIONS)
@settings(max_examples=100, deadline=None)
@given(case=instances(), data=st.data())
def test_weights_count_as_repeated_rules(entries, notion, case, data):
    # a rule of weight w counts as w copies of it, bit for bit, however the
    # points fall into chunks
    mix, scores, groups = case
    base = BaseRates(notion, mix.base.beta)
    w = np.array(data.draw(st.lists(st.integers(1, 5), min_size=len(mix), max_size=len(mix))))
    weighted = MixtureClassifier(mix.lambdas, base, w)
    repeated = MixtureClassifier(np.repeat(mix.lambdas, w, axis=0), base)
    with mock.patch.object(core, "_EVAL_ENTRIES", entries):
        assert np.array_equal(_bits(weighted.positive_prob_points(scores, groups)),
                              _bits(repeated.positive_prob_points(scores, groups)))


@pytest.mark.parametrize("weights, message", [
    ([1, 2], "one integer per rule"), ([[1, 2, 3]], "one integer per rule"),
    ([1.0, 2.0, 3.0], "one integer per rule"), ([True, True, True], "one integer per rule"),
    ([1, 0, 2], "positive"), ([1, -1, 2], "positive"), ([2 ** 53, 2, 1], "2\\*\\*53")])
def test_mixture_rejects_bad_weights(weights, message):
    base = BaseRates(FairnessNotion.FP, np.full(2, 0.5))
    with pytest.raises(ValueError, match=message):
        MixtureClassifier(np.zeros((3, 2)), base, np.array(weights))


def test_many_patterns_over_several_blocks(rng):
    # 2**8 patterns over a few points each and K = 32,773 rules, more than
    # _EVAL_ENTRIES, so every point is a chunk of its own
    g, T, n = 8, 32_773, 600
    beta = rng.uniform(size=g)
    lambdas = rng.standard_normal((T, g)) * rng.choice([0.0, 1.0, 30.0], size=(T, g))
    scores = np.concatenate([rng.uniform(size=n - 3), [0.0, 0.5, 1.0]])
    groups = rng.integers(0, 2, size=(n, g))
    groups[:200] = groups[0]  # one pattern shared by many points
    for notion in NOTIONS:
        mix = MixtureClassifier(lambdas, BaseRates(notion, beta))
        assert np.array_equal(_bits(mix.positive_prob_points(scores, groups)),
                              _bits(_reference_probs(mix, scores, groups)))


@pytest.mark.parametrize("notion", NOTIONS)
def test_more_than_62_groups_counts_equal_decide_batch(rng, notion):
    # 70 groups, with patterns that differ from another in the first or the
    # last group only
    g, T, n = 70, 40, 120
    beta = rng.choice([0.0, 0.5, 1.0], size=g) * rng.uniform(size=g)
    lambdas = rng.standard_normal((T, g)) * rng.choice([0.0, 1.0, 30.0], size=(T, g))
    patterns = rng.integers(0, 2, size=(6, g))
    patterns[1:3] = patterns[0]
    patterns[1, -1] ^= 1   # differs from pattern 0 in the last group only
    patterns[2, 0] ^= 1    # ... and in the first group only
    groups = patterns[rng.integers(0, 6, size=n)]
    scores = np.concatenate([rng.uniform(size=n - 3), [0.0, 0.5, 1.0]])
    mix = MixtureClassifier(lambdas, BaseRates(notion, beta))
    assert np.array_equal(_bits(mix.positive_prob_points(scores, groups)),
                          _bits(_reference_probs(mix, scores, groups)))


def test_sums_at_the_threshold_are_counted_by_decide_batch():
    # c = 1 for the single group, so S_t = lambda_t exactly
    f = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for notion in NOTIONS:
        s, d = decision_thresholds(f, notion)
        finite = np.isfinite(d)
        flips = (s * d)[finite]
        lams = np.concatenate([flips, np.nextafter(flips, np.inf),
                               np.nextafter(flips, -np.inf), [-1.0, 0.0, -0.0]])
        base = BaseRates(notion, np.zeros(1))
        mix = MixtureClassifier(lams[:, None], base)
        groups = np.ones((len(f), 1), dtype=int)
        assert np.array_equal(_bits(mix.positive_prob_points(f, groups)),
                              _bits(_reference_probs(mix, f, groups)))


def test_points_need_a_membership_matrix():
    base = BaseRates(FairnessNotion.FP, np.full(2, 0.5))
    mix = MixtureClassifier(np.zeros((3, 2)), base)
    with pytest.raises(ValueError, match="membership matrix"):
        mix.positive_prob_points([0.5, 0.5], [1, 3])
    for bad in (2, 0.5, -1):
        with pytest.raises(ValueError, match="0 or 1"):
            mix.positive_prob_points([0.5, 0.5], [[1, 0], [bad, 1]])
    assert mix.positive_prob_points([], np.zeros((0, 2))).shape == (0,)


@pytest.mark.parametrize("notion", NOTIONS)
@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25, np.inf])
def test_points_need_scores_in_the_unit_interval(notion, bad):
    # decide_batch fires no rule at a NaN score, and a score outside [0, 1]
    # is no label probability, so neither has a count to stand for it
    base = BaseRates(notion, np.full(2, 0.5))
    mix = MixtureClassifier(np.zeros((3, 2)), base)
    with pytest.raises(ValueError, match=r"scores must lie in \[0, 1\]"):
        mix.positive_prob_points([0.5, bad], [[1, 0], [0, 1]])


def test_counts_are_exact_at_the_weight_cap():
    # weights summing to exactly 2**53, with points whose counts are 2**53 - 1,
    # 2**52 + 1, 2**53, 2**52 and 0: each count and its share is exact in float64
    weights = np.array([2 ** 52, 1, 2 ** 52 - 1])
    lambdas = np.array([[-2.0, -2.0], [2.0, 0.0], [0.0, 2.0]])
    # SP with beta = 0: a point decides 1 iff its S = lambda . bits is <= 2f - 1
    mix = MixtureClassifier(lambdas, BaseRates(FairnessNotion.SP, np.zeros(2)),
                            weights)
    scores = np.array([0.5, 0.5, 0.5, 0.0, 0.0])
    groups = np.array([[1, 0], [0, 1], [0, 0], [1, 0], [0, 0]])
    got = mix.positive_prob_points(scores, groups)
    counts = [2 ** 53 - 1, 2 ** 52 + 1, 2 ** 53, 2 ** 52, 0]
    assert [Fraction(p) for p in got] == [Fraction(c, 2 ** 53) for c in counts]
    assert np.array_equal(_bits(got), _bits(_reference_probs(mix, scores, groups)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mixture_rejects_non_finite_lambdas(bad):
    base = BaseRates(FairnessNotion.FP, np.full(2, 0.5))
    with pytest.raises(ValueError, match="finite"):
        MixtureClassifier(np.array([[0.1, 0.2], [bad, 0.0]]), base)


def test_mixture_rejects_lambdas_whose_group_sum_overflows():
    # with beta = 0 the pattern (1, 1) sums to 2e308 = inf; with beta = 1/2
    # every |c_i| is 1/2 and no pattern can overflow
    lambdas = np.array([[1e308, 1e308], [0.1, 0.2]])
    zero = BaseRates(FairnessNotion.FP, np.zeros(2))
    with pytest.raises(ValueError, match="overflow"):
        MixtureClassifier(lambdas, zero)
    half = BaseRates(FairnessNotion.FP, np.full(2, 0.5))
    mix = MixtureClassifier(lambdas, half)
    groups = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    scores = np.ones(4)
    assert np.array_equal(_bits(mix.positive_prob_points(scores, groups)),
                          _bits(_reference_probs(mix, scores, groups)))


@pytest.mark.parametrize("notion", [n.value for n in NOTIONS])
@pytest.mark.parametrize("reloaded", [True, False])
def test_predict_proba_is_batch_independent(rng, tmp_path, notion, reloaded):
    dist, _ = make_dist(31, n_cells=12, n_groups=3, grid_m=20)
    idx = rng.choice(dist.n_cells, size=2000, p=dist.masses / dist.masses.sum())
    groups = dist.group_matrix[:, idx].T.astype(int)
    y = (rng.uniform(size=len(idx)) < dist.label_means[idx]).astype(int)
    est = FairThresholdPostprocessor(notion=notion, gamma=0.02, C=3.0, T=500, grid_m=20)
    est.fit(dist.scores[idx], groups, y)
    fitted = est.mixture_
    if reloaded:
        # a mixture read back from mixture.json holds rules and weights
        # parsed from JSON; it must score as the fitted one does
        path = tmp_path / "mixture.json"
        cli._write_json(path, cli._mixture_payload(est.mixture_, dist, 0.02))
        est.mixture_ = cli.load_mixture(str(path))[0]
    # grid scores, off-grid scores and the ends, over every group pattern seen
    n = 60
    scores = np.concatenate([dist.scores[idx[:n // 2]], rng.uniform(size=n // 2 - 3),
                             [0.0, 0.5, 1.0]])
    pts = groups[rng.integers(0, len(idx), size=n)]
    whole = est.predict_proba(scores, pts)
    alone = np.array([est.predict_proba(scores[i:i + 1], pts[i:i + 1])[0]
                      for i in range(n)])
    assert np.array_equal(_bits(alone), _bits(whole))
    perm = rng.permutation(n)
    assert np.array_equal(_bits(est.predict_proba(scores[perm], pts[perm])),
                          _bits(whole[perm]))
    rep = np.repeat(np.arange(n), 3)
    assert np.array_equal(_bits(est.predict_proba(scores[rep], pts[rep])),
                          _bits(whole[rep]))
    # predict_proba snaps each score to the fit's grid before it counts
    snapped = grid_indices(scores, 20) / 20
    assert np.array_equal(_bits(whole), _bits(_reference_probs(fitted, snapped, pts)))
