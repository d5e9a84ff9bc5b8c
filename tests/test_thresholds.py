"""The threshold form of the best response reproduces decide_batch exactly.

decision_thresholds gives each cell a sign s and a double d with
decide_batch(S, f)[j] == (s[j]*S <= d[j]).  The solver and the mixture
evaluation rely on this bit for bit, ties and zero-denominator rows
included, so the property is checked on grid scores, on f in {0, 1/2, 1},
on S drawn from the reachable range and from all finite doubles, and at the
thresholds themselves and their neighbouring doubles.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fairpost.core import FairnessNotion, decide_batch, decision_thresholds

NOTIONS = st.sampled_from(list(FairnessNotion))

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


def _check(S, f, s, d, notion, tiebreak):
    """decide_batch and the threshold form agree at every (S row, cell)."""
    want = decide_batch(S, f, notion, tiebreak)
    got = s * S <= d
    assert np.array_equal(got, want), (S[got != want], np.broadcast_to(f, got.shape)[
        got != want])


@settings(max_examples=300, deadline=None)
@given(f=grid_scores(), notion=NOTIONS, tiebreak=st.booleans(),
       values=st.lists(st.one_of(reachable, finite, near_minus_one), min_size=1,
                       max_size=40))
def test_threshold_form_equals_decide_batch(f, notion, tiebreak, values):
    s, d = decision_thresholds(f, notion, tiebreak)
    S = np.array(values + [-1.0, 0.0, -0.0, 1.0])[:, None]
    _check(S, f[None, :], s, d, notion, tiebreak)


@settings(max_examples=200, deadline=None)
@given(f=grid_scores(), notion=NOTIONS, tiebreak=st.booleans())
def test_threshold_form_exact_at_the_threshold(f, notion, tiebreak):
    s, d = decision_thresholds(f, notion, tiebreak)
    finite_d = np.isfinite(d)
    for y in (d, np.nextafter(d, np.inf), np.nextafter(d, -np.inf)):
        keep = finite_d & np.isfinite(y)
        # S = s*y is the double at which the decision flips (or its neighbour)
        _check(s[keep] * y[keep], f[keep], s[keep], d[keep], notion, tiebreak)
    # a cell whose decision never changes has d = +-inf and agrees everywhere
    for S in (-np.finfo(float).max, -1.0, 0.0, np.finfo(float).max):
        _check(np.full(f.shape, S), f, s, d, notion, tiebreak)


def test_zero_denominator_rows_and_ties():
    f = np.array([0.0, 0.5, 1.0])
    S = np.array([-3.0, -1.0, -0.0, 0.0, 2.0])[:, None]
    for notion in FairnessNotion:
        for tiebreak in (True, False):
            s, d = decision_thresholds(f, notion, tiebreak)
            assert set(np.unique(s)) <= {-1.0, 1.0}
            _check(S, f[None, :], s, d, notion, tiebreak)
    # SP ties go positive: at S = 0 a score of 1/2 is labelled 1, or 0 without
    # the positive tiebreak
    s, d = decision_thresholds(np.array([0.5]), FairnessNotion.SP, True)
    assert bool(s[0] * 0.0 <= d[0])
    s, d = decision_thresholds(np.array([0.5]), FairnessNotion.SP, False)
    assert not bool(s[0] * 0.0 <= d[0])
    # ERR at f = 1/2 is a tie for every S, so the decision is constant
    s, d = decision_thresholds(np.array([0.5]), FairnessNotion.ERR, True)
    assert d[0] == np.inf
    s, d = decision_thresholds(np.array([0.5]), FairnessNotion.ERR, False)
    assert d[0] == -np.inf
