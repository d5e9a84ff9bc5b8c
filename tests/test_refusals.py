"""Every entry point that takes scores, a 0/1 membership matrix or 0/1 labels
refuses bad input with the exception type and message, and in the order of
checks, that it had when its 0/1 checks were set-membership tests
(np.isin(a, (0, 1))).  CASES holds that behaviour, recorded case by case:
str, bytes and object arrays, NaN, +-inf, 2, 0.5, bool, 1-D and
length-mismatched memberships, labels and scores.  None means the input is
accepted.
"""

import numpy as np
import pytest

from fairpost import CellDistribution, FairThresholdPostprocessor, GroupSystem, JointMulticalibrator
from fairpost.estimators import check_scores_groups

SCORES = np.array([0.0, 0.25, 0.5, 1.0])
GROUPS = np.array([[1, 0], [1, 1], [1, 0], [1, 1]])
Y = np.array([0, 1, 0, 1])


def _with(a, value, dtype=None):
    a = a.astype(dtype or np.result_type(a, type(value)))
    a.flat[2] = value
    return a


TARGETS = ("postprocessor_fit", "predict_proba", "calibrator_fit", "transform",
           "check_scores_groups", "positive_prob_points", "from_arrays")
GROUP_BITS = "group indicators must be 0 or 1"
LABELS = "labels must be 0 or 1"
LENGTHS = "scores and groups have different lengths"
SCORE_RANGE = "scores must lie in [0, 1]"
POINTS_SHAPE = "groups must be an (n_points, n_groups) membership matrix"
CELLS_SHAPE = "bits must be an (n_cells, n_groups) membership matrix"
LABEL_MEAN = "label_mean must lie in [0, 1]"
BAD_GROUPS = (GROUP_BITS,) * 7
BAD_LABELS = (LABELS, None, LABELS, None, LABELS, None, None)
BAD_SCORES = (SCORE_RANGE,) * 6 + ("values to snap must be finite",)
SHORT = (LENGTHS,) * 5 + (POINTS_SHAPE, CELLS_SHAPE)
OK = (None,) * 7

# case -> (the inputs it changes, the ValueError message of each target in TARGETS)
CASES = {
    "groups_str": ({"groups": GROUPS.astype(str)}, BAD_GROUPS),
    "groups_bytes": ({"groups": GROUPS.astype(bytes)}, BAD_GROUPS),
    "groups_object": ({"groups": GROUPS.astype(object)}, OK),
    "groups_object_str": ({"groups": _with(GROUPS, "1", object)}, BAD_GROUPS),
    "groups_nan": ({"groups": _with(GROUPS, np.nan)}, BAD_GROUPS),
    "groups_inf": ({"groups": _with(GROUPS, np.inf)}, BAD_GROUPS),
    "groups_minus_inf": ({"groups": _with(GROUPS, -np.inf)}, BAD_GROUPS),
    "groups_2": ({"groups": _with(GROUPS, 2)}, BAD_GROUPS),
    "groups_half": ({"groups": _with(GROUPS, 0.5)}, BAD_GROUPS),
    "groups_bool": ({"groups": GROUPS.astype(bool)}, OK),
    "groups_1d": ({"groups": GROUPS[:, 1]}, (
        None, "group matrix width changed between fit and predict", None,
        "group matrix width changed between fit and transform", None, POINTS_SHAPE,
        CELLS_SHAPE)),
    "groups_short": ({"groups": GROUPS[:-1]}, SHORT),
    "groups_short_2": ({"groups": _with(GROUPS, 2)[:-1]}, SHORT),
    "groups_2_scores_nan": ({"groups": _with(GROUPS, 2), "scores": _with(SCORES, np.nan)},
                            BAD_GROUPS),
    "groups_2_y_2": ({"groups": _with(GROUPS, 2), "y": _with(Y, 2)}, BAD_GROUPS),
    "y_str": ({"y": Y.astype(str)}, BAD_LABELS),
    "y_bytes": ({"y": Y.astype(bytes)}, BAD_LABELS),
    "y_object_str": ({"y": _with(Y, "1", object)}, BAD_LABELS),
    "y_nan": ({"y": _with(Y, np.nan)}, BAD_LABELS[:-1] + (LABEL_MEAN,)),
    "y_inf": ({"y": _with(Y, np.inf)}, BAD_LABELS[:-1] + (LABEL_MEAN,)),
    "y_2": ({"y": _with(Y, 2)}, BAD_LABELS[:-1] + (LABEL_MEAN,)),
    "y_half": ({"y": _with(Y, 0.5)}, BAD_LABELS),
    "y_bool": ({"y": Y.astype(bool)}, OK),
    "y_short": ({"y": Y[:-1]}, tuple(
        "labels and scores have different lengths" if m else None for m in BAD_LABELS[:-1])
        + ("scores, masses and label_means must hold one value per cell",)),
    "scores_str": ({"scores": SCORES.astype(str)}, OK),
    "scores_nan": ({"scores": _with(SCORES, np.nan)}, BAD_SCORES),
    "scores_inf": ({"scores": _with(SCORES, np.inf)}, BAD_SCORES),
    "scores_minus_inf": ({"scores": _with(SCORES, -np.inf)}, BAD_SCORES),
    "scores_2": ({"scores": _with(SCORES, 2.0)},
                 BAD_SCORES[:-1] + ("score 2.0 is not on the 1/4 grid",)),
    "scores_short": ({"scores": SCORES[:-1]}, SHORT),
}


@pytest.fixture(scope="module")
def fitted():
    post = FairThresholdPostprocessor(T=5, grid_m=4).fit(SCORES, GROUPS, Y)
    cal = JointMulticalibrator(n_random_checks=2, grid_m=4).fit(SCORES, GROUPS, Y)
    return post, cal


def _targets(post, cal):
    return {
        "postprocessor_fit": lambda s, g, y: FairThresholdPostprocessor(T=5, grid_m=4).fit(s, g, y),
        "predict_proba": lambda s, g, y: post.predict_proba(s, g),
        "calibrator_fit": lambda s, g, y: JointMulticalibrator(
            n_random_checks=2, grid_m=4).fit(s, g, y),
        "transform": lambda s, g, y: cal.transform(s, g),
        "check_scores_groups": check_scores_groups,
        "positive_prob_points": lambda s, g, y: post.mixture_.positive_prob_points(s, g),
        "from_arrays": lambda s, g, y: CellDistribution.from_arrays(
            4, GroupSystem(("a", "b")), s, np.full(4, 0.25), y, g),
    }


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("target", TARGETS)
def test_refusal_parity(target, case, fitted):
    changes, messages = CASES[case]
    args = {"scores": SCORES, "groups": GROUPS, "y": Y, **changes}
    call = _targets(*fitted)[target]
    message = messages[TARGETS.index(target)]
    if message is None:
        call(args["scores"], args["groups"], args["y"])
        return
    with pytest.raises(ValueError) as info:
        call(args["scores"], args["groups"], args["y"])
    assert type(info.value) is ValueError and str(info.value) == message
