"""The best response read off the rate table is the exact pointwise argmin.

decision_thresholds gives each cell a sign s and a threshold d, and the
best response decides 1 where s*S <= d.  At decision h a point contributes
f + (1-2f)h + S(a + b*h) to the Lagrangian, with (a, b) its notion's row of
the rate table.  The reference here minimizes that in exact rational
arithmetic (fractions.Fraction) at the same doubles f and S: the two must
agree for every S outside a relative 4 eps band around the exact threshold
(2f-1)/b, and every exact tie must decide 1.  f is drawn from grids with
m <= 1000 plus {0, 1/2, 1}; S from the reachable range, from all finite
doubles, and at the threshold and its neighbouring doubles.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from fairpost.core import FairnessNotion, decide_batch, decision_thresholds

import reference_thresholds

NOTIONS = st.sampled_from(list(FairnessNotion))
BAND = 4 * Fraction(np.finfo(float).eps)

# |S| <= ||lambda||_1 * max|g - beta| <= C for the rules a solve produces;
# the draws go well past any C the work cap admits
REACH = 1e3
reachable = st.floats(min_value=-REACH, max_value=REACH, allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
near_minus_one = st.floats(min_value=-1.0 - 1e-12, max_value=-1.0 + 1e-12)


@st.composite
def grid_scores(draw):
    m = draw(st.integers(min_value=1, max_value=1000))
    ks = draw(st.lists(st.integers(min_value=0, max_value=m), min_size=1, max_size=24))
    return np.array([k / m for k in ks] + [0.0, 0.5, 1.0])


def _exact_b(notion, F):
    """The b column of the rate table, in exact arithmetic."""
    return {FairnessNotion.FP: 1 - F, FairnessNotion.FN: -F,
            FairnessNotion.ERR: 1 - 2 * F, FairnessNotion.SP: Fraction(1)}[notion]


def _exact_a(notion, F):
    return F if notion in (FairnessNotion.FN, FairnessNotion.ERR) else Fraction(0)


def _check(S, f, notion):
    """decide_batch at every (S, f) pair against the exact argmin; returns the
    number of exact ties seen."""
    got = decide_batch(S, f, notion)
    ties = 0
    for S_j, f_j, got_j in zip(S.tolist(), f.tolist(), got.tolist()):
        F, X = Fraction(f_j), Fraction(S_j)
        a, b = _exact_a(notion, F), _exact_b(notion, F)
        v0, v1 = (F + (1 - 2 * F) * h + X * (a + b * h) for h in (0, 1))
        if v0 == v1:
            ties += 1
            assert got_j, ("tie must decide 1", notion, f_j, S_j)
            continue
        if b != 0:
            t = (2 * F - 1) / b
            if abs(X - t) <= BAND * abs(t):
                continue
        assert got_j == (v1 < v0), (notion, f_j, S_j)
    return ties


def _aimed(f, notion):
    """Per cell: the exact threshold (2f-1)/b rounded to a double, the double
    at which decide_batch flips, and the neighbours of both."""
    s, d = decision_thresholds(f, notion)
    values = []
    for f_j, s_j, d_j in zip(f.tolist(), s.tolist(), d.tolist()):
        F = Fraction(f_j)
        b = _exact_b(notion, F)
        aims = [s_j * d_j] if np.isfinite(d_j) else []
        if b != 0:
            t = (2 * F - 1) / b
            if abs(t) <= Fraction(np.finfo(float).max):
                aims.append(float(t))
        for v in aims:
            values += [(f_j, v), (f_j, float(np.nextafter(v, np.inf))),
                       (f_j, float(np.nextafter(v, -np.inf)))]
    return values


@settings(max_examples=300, deadline=None)
@given(f=grid_scores(), notion=NOTIONS,
       values=st.lists(st.one_of(reachable, finite, near_minus_one), min_size=1,
                       max_size=40))
def test_threshold_form_is_the_exact_argmin(f, notion, values):
    S = np.array(values + [-1.0, 0.0, -0.0, 1.0])
    pairs = np.array([(f_j, S_j) for f_j in f for S_j in S])
    _check(pairs[:, 1], pairs[:, 0], notion)


@settings(max_examples=300, deadline=None)
@given(f=grid_scores(), notion=NOTIONS)
def test_threshold_form_exact_at_the_threshold(f, notion):
    pairs = np.array(_aimed(f, notion))
    _check(pairs[:, 1], pairs[:, 0], notion)
    # a cell whose decision never changes has d = +-inf and agrees everywhere
    for S in (-np.finfo(float).max, -1.0, 0.0, np.finfo(float).max):
        _check(np.full(f.shape, S), f, notion)


def test_zero_denominator_rows_and_ties():
    f = np.array([0.0, 0.5, 1.0])
    S = np.array([-3.0, -1.0, -0.0, 0.0, 2.0])
    for notion in FairnessNotion:
        s, d = decision_thresholds(f, notion)
        assert set(np.unique(s)) <= {-1.0, 1.0}
        _check(np.repeat(S, len(f)), np.tile(f, len(S)), notion)
    # SP ties go positive: at S = 0 a score of 1/2 is labelled 1
    s, d = decision_thresholds(np.array([0.5]), FairnessNotion.SP)
    assert bool(s[0] * 0.0 <= d[0])
    # ERR at f = 1/2 is a tie for every S, so the decision is constant
    s, d = decision_thresholds(np.array([0.5]), FairnessNotion.ERR)
    assert d[0] == np.inf
    # FN at a subnormal f: (2f-1)/|b| overflows to -inf, and no finite S
    # reaches the exact threshold (1-2f)/f either
    s, d = decision_thresholds(np.array([2.2e-309]), FairnessNotion.FN)
    assert (s[0], d[0]) == (-1.0, -np.inf)
    # at the thresholds of the 1/20 grid the aimed draws reach exact ties
    f = np.array([k / 20 for k in range(21)])
    ties = 0
    for notion in FairnessNotion:
        pairs = np.array(_aimed(f, notion))
        ties += _check(pairs[:, 1], pairs[:, 0], notion)
    assert ties > 0


subnormals = st.floats(min_value=0.0, max_value=np.finfo(float).tiny, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(f=grid_scores(), extra=st.lists(subnormals, max_size=6), notion=NOTIONS,
       scalar=st.booleans())
def test_threshold_form_equals_the_reference_bit_for_bit(f, extra, notion, scalar):
    # the one-division form against the nested-where one, both outputs,
    # signed zeros and infinities included, for arrays and for 0-d inputs
    f = np.concatenate((f, extra, [1e-320, 0.5]))
    inputs = [np.float64(v) for v in f.tolist()] + [float(f[0])] if scalar else [f, f[:, None]]
    for x in inputs:
        for got, want in zip(decision_thresholds(x, notion),
                             reference_thresholds.decision_thresholds(x, notion)):
            assert type(got) is type(want) and got.shape == want.shape
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
