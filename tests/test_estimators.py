from unittest import mock

import numpy as np
import pytest

from fairpost import (
    BaseRates,
    BudgetExceededError,
    CheckFunction,
    FairnessNotion,
    FairThresholdPostprocessor,
    JointMulticalibrator,
    NotFittedError,
    audit,
    calibrate,
)
from fairpost import core
from fairpost.estimators import check_scores_groups
from fairpost.multical import assignment_from_scores, replay

from conftest import make_dist
from reference_cells import cells_of, mask_from_bits, snap_to_grid
from reference_checks import apply_patches
import reference_thresholds


def _sample_arrays(rng, dist, n):
    idx = rng.choice(dist.n_cells, size=n, p=dist.masses / dist.masses.sum())
    scores = dist.scores[idx]
    groups = dist.group_matrix[:, idx].T.astype(int)
    y = (rng.uniform(size=n) < dist.label_means[idx]).astype(int)
    return scores, groups, y


def test_postprocessor_fit_predict(rng):
    dist, _ = make_dist(60, n_cells=10, n_groups=2, grid_m=20)
    scores, groups, y = _sample_arrays(rng, dist, 3000)
    est = FairThresholdPostprocessor(notion="fp", gamma=0.02, C=3.0, T=300,
                                     grid_m=20, record_every=100)
    est.fit(scores, groups, y)
    p = est.predict_proba(scores[:50], groups[:50])
    assert np.all((0.0 <= p) & (p <= 1.0))
    # agreement with the underlying mixture on the training cells
    cell_p = est.mixture_.positive_prob_vector(est.distribution_)
    for j, cell in enumerate(cells_of(est.distribution_)):
        bits = [(cell.groups >> i) & 1 for i in range(est.n_groups_)]
        assert est.predict_proba([cell.score], [bits])[0] == cell_p[j]


def test_postprocessor_predict_proba_on_off_grid_training_points(rng):
    # fit puts each point in the cell of its snapped score, so predict_proba
    # gives an off-grid training point its cell's probability, bit for bit
    scores = rng.beta(2.0, 3.0, size=4000)
    groups = rng.integers(0, 2, size=(4000, 2))
    y = (rng.uniform(size=4000) < scores).astype(int)
    est = FairThresholdPostprocessor(notion="fp", gamma=0.01, C=5.0, T=2000, grid_m=20)
    est.fit(scores, groups, y)
    cell_p = est.mixture_.positive_prob_vector(est.distribution_)
    cell_of = {(c.score, c.groups): j for j, c in enumerate(cells_of(est.distribution_))}
    want = cell_p[[cell_of[snap_to_grid(s, 20), mask_from_bits(g)]
                   for s, g in zip(scores.tolist(), groups.tolist())]]
    assert est.predict_proba(scores, groups).tobytes() == want.tobytes()


def test_postprocessor_predict_samples_labels(rng):
    dist, _ = make_dist(61, n_cells=8, n_groups=1, grid_m=10)
    scores, groups, y = _sample_arrays(rng, dist, 500)
    est = FairThresholdPostprocessor(gamma=0.5, C=2.0, T=50, grid_m=10)
    est.fit(scores, groups, y)
    labels = est.predict(scores[:100], groups[:100], random_state=0)
    assert set(np.unique(labels)) <= {0, 1}
    again = est.predict(scores[:100], groups[:100], random_state=0)
    assert np.array_equal(labels, again)


@pytest.mark.parametrize("notion", ["fp", "fn", "err", "sp"])
def test_predict_proba_equals_the_reference_threshold_path(notion, monkeypatch):
    # predict_proba through the one-division threshold form against the same
    # call through the nested-where reference, bit for bit, on batches of
    # 1, 499 and 500 points and on either side of one evaluation chunk
    rng = np.random.Generator(np.random.PCG64(62))
    dist, _ = make_dist(62, n_cells=12, n_groups=3, grid_m=20)
    est = FairThresholdPostprocessor(notion=notion, gamma=0.01, C=5.0, T=3000, grid_m=20)
    est.fit(*_sample_arrays(rng, dist, 4000))
    K = len(est.mixture_)
    assert K > 1
    chunk = core._EVAL_ENTRIES // K
    for n in (1, 499, 500, chunk - 1, chunk + 1):
        scores = np.concatenate(([0.0, 0.5, 1.0], rng.uniform(size=n)))[:n]
        groups = rng.integers(0, 2, size=(n, est.n_groups_))
        got = est.predict_proba(scores, groups)
        with monkeypatch.context() as m:
            m.setattr(core, "decision_thresholds", reference_thresholds.decision_thresholds)
            want = est.predict_proba(scores, groups)
        assert got.tobytes() == want.tobytes()


def test_postprocessor_requires_fit():
    est = FairThresholdPostprocessor()
    with pytest.raises(NotFittedError):
        est.predict_proba([0.5], [[1]])


def test_params_roundtrip():
    est = FairThresholdPostprocessor(gamma=0.07, C=2.5)
    params = est.get_params()
    assert params["gamma"] == 0.07 and params["C"] == 2.5
    est.set_params(gamma=0.11)
    assert est.gamma == 0.11
    with pytest.raises(ValueError, match="invalid parameter"):
        est.set_params(nope=1)


def test_input_validation():
    est = FairThresholdPostprocessor()
    with pytest.raises(ValueError, match="lengths"):
        est.fit([0.5, 0.6], [[1]], None)
    with pytest.raises(ValueError, match="0 or 1"):
        est.fit([0.5], [[2]], None)
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        est.fit([1.5], [[1]], None)


def test_fractional_T_refused():
    # as the --T flag and a config file's "T" are: never truncated to 2 rounds
    with pytest.raises(ValueError, match='T must be "auto" or a whole number, not 2.5'):
        FairThresholdPostprocessor(T=2.5).fit([0.5], [[1]], [1])


def test_extreme_C_and_alpha_refused_before_any_work():
    # an auto budget past the float range, a C whose square is 0, and a
    # level table past the cap
    scores, groups, y = [0.25, 0.75], [[1], [1]], [0, 1]
    with pytest.raises(BudgetExceededError, match="T = C\\^2 .* passes the float range"):
        FairThresholdPostprocessor(C=1e160).fit(scores, groups, y)
    with pytest.raises(ValueError, match="C must be positive and finite, in"):
        FairThresholdPostprocessor(C=1e-170).fit(scores, groups, y)
    with pytest.raises(ValueError, match="level table too large: 1000000001 levels x 65 checks"):
        JointMulticalibrator(alpha=1e-9).fit(scores, groups, y)
    with pytest.raises(ValueError, match="alpha 1e-300 too small"):
        JointMulticalibrator(alpha=1e-300).fit(scores, groups, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_rejected(bad):
    with pytest.raises(ValueError, match="scores must lie in \\[0, 1\\]"):
        check_scores_groups([0.5, bad], [[1], [0]])
    with pytest.raises(ValueError, match="scores must lie in \\[0, 1\\]"):
        FairThresholdPostprocessor().fit([bad], [[1]], [1])


def test_calibrator_reduces_audit_violation(rng):
    _, pert = make_dist(9, n_cells=40, n_groups=2, grid_m=20, miscalibration=0.5)
    scores, groups, y = _sample_arrays(rng, pert, 12000)
    # labels drawn from the true conditional means of the perturbed twin
    idx = rng.choice(pert.n_cells, size=12000, p=pert.masses / pert.masses.sum())
    scores = pert.scores[idx]
    groups = pert.group_matrix[:, idx].T.astype(int)
    y = (rng.uniform(size=12000) < pert.label_means[idx]).astype(int)

    cal = JointMulticalibrator(alpha=0.02, n_random_checks=16, C=5.0, grid_m=20, seed=0)
    out = cal.fit_transform(scores, groups, y)
    assert np.all((0.0 <= out) & (out <= 1.0))

    dist = cal.distribution_
    before = audit(assignment_from_scores(dist, cal.result_.grid_m),
                   cal.checks_, dist)[1]
    after = audit(cal.result_.assignment, cal.checks_, dist)[1]
    assert after <= before + 1e-12
    assert after <= np.sqrt(0.02)


def test_calibrator_transform_matches_fit_assignment(rng):
    _, pert = make_dist(19, n_cells=25, n_groups=2, grid_m=20, miscalibration=0.4)
    idx = rng.choice(pert.n_cells, size=8000, p=pert.masses / pert.masses.sum())
    scores = pert.scores[idx]
    groups = pert.group_matrix[:, idx].T.astype(int)
    y = (rng.uniform(size=8000) < pert.label_means[idx]).astype(int)
    cal = JointMulticalibrator(alpha=0.02, n_random_checks=8, grid_m=20, seed=1)
    cal.fit(scores, groups, y)
    cells = cells_of(cal.distribution_)
    got = cal.transform(
        [c.score for c in cells],
        [[(c.groups >> i) & 1 for i in range(cal.n_groups_)] for c in cells])
    assert np.array_equal(got, cal.result_.assignment)


def test_calibrator_transform_equals_assignment_at_a_group_sum_tie():
    # cell 1's SP group sum is -1 to within an ulp, on the threshold d = -1
    # of level 0: a BLAS product reads it as -1.0 and the ordered sum as
    # -0.9999999999999998, so a transform that summed in another form than
    # calibrate gave the cell another level than calibrate did
    _, pert = make_dist(522432655, n_cells=7, n_groups=2, grid_m=20, miscalibration=0.4)
    beta = np.array([float.fromhex(x) for x in (
        "0x1.64a1b7e26316cp-1", "0x1.a9b9d6fabd7a0p-1", "0x1.ecfbe5d3403c6p-1")])
    lam = np.array([float.fromhex(x) for x in (
        "-0x1.576f306d7a3a5p+2", "0x1.cd2c3b1738d60p+1", "0x1.254d4b607662cp-1")])
    checks = [CheckFunction("threshold", (lam, BaseRates(FairnessNotion.SP, beta)))]
    result = calibrate(pert.scores, checks, pert, alpha=0.05)
    assert result.rounds > 0
    cal = JointMulticalibrator(alpha=0.05)
    cal.result_, cal.checks_, cal.distribution_, cal.n_groups_ = (
        result, checks, pert, pert.n_groups)
    got = cal.transform(pert.scores, pert.group_matrix.T.astype(int))
    assert got.tobytes() == result.assignment.tobytes()


def test_calibrator_fit_transform_equals_fit_assignment_off_the_grid(rng):
    # ceil(1/0.03) = 34 does not divide grid_m = 100, so a raw score snapped
    # straight to the 1/34 grid can land on another level than its cell's
    # score does
    scores = rng.uniform(size=4000)
    groups = rng.integers(0, 2, size=(4000, 2))
    y = (rng.uniform(size=4000) < 1.0 - scores).astype(int)
    cal = JointMulticalibrator(alpha=0.03, n_random_checks=8, grid_m=100, seed=0)
    got = cal.fit_transform(scores, groups, y)
    assert cal.result_.rounds > 0
    cell_of = {(c.score, c.groups): j for j, c in enumerate(cells_of(cal.distribution_))}
    want = cal.result_.assignment[[cell_of[snap_to_grid(s, 100), mask_from_bits(g)]
                                   for s, g in zip(scores.tolist(), groups.tolist())]]
    assert got.tobytes() == want.tobytes()


def test_calibrator_transform_equals_per_point_replay(rng):
    _, pert = make_dist(23, n_cells=30, n_groups=3, grid_m=20, miscalibration=0.4)
    scores, groups, y = _sample_arrays(rng, pert, 6000)
    cal = JointMulticalibrator(alpha=0.02, n_random_checks=8, grid_m=20, seed=2)
    cal.fit(scores, groups, y)
    assert cal.result_.rounds > 0
    # fit cells and off-grid points, each repeated, shuffled, with both zeros
    fresh = rng.uniform(size=200)
    fresh[:2] = [0.0, -0.0]
    batch_scores = np.concatenate([scores[:300], fresh, scores[:300], fresh])
    batch_groups = np.concatenate([groups[:300], groups[300:500]] * 2)
    order = rng.permutation(len(batch_scores))
    batch_scores, batch_groups = batch_scores[order], batch_groups[order]
    want = np.array([apply_patches(snap_to_grid(float(s), 20), tuple(g), cal.result_,
                                   cal.checks_)
                     for s, g in zip(batch_scores, batch_groups.tolist())])
    got = cal.transform(batch_scores, batch_groups)
    assert got.tobytes() == want.tobytes()
    assert cal.transform(batch_scores[:0], batch_groups[:0]).shape == (0,)


def test_calibrator_transform_slices_to_the_audit_set_cap(rng, monkeypatch):
    from fairpost import multical
    _, pert = make_dist(23, n_cells=30, n_groups=3, grid_m=20, miscalibration=0.4)
    scores, groups, y = _sample_arrays(rng, pert, 6000)
    cal = JointMulticalibrator(alpha=0.02, n_random_checks=8, grid_m=20, seed=2)
    cal.fit(scores, groups, y)
    assert cal.result_.rounds > 0
    batch_scores = np.concatenate([scores[:2000], rng.uniform(size=2000)])
    batch_groups = np.concatenate([groups[:2000], groups[2000:4000]])
    whole = cal.transform(batch_scores, batch_groups)
    # a cap that holds 7 points' worth of checks: the distinct points are
    # replayed in slices of 7, which read each point alone
    monkeypatch.setattr(multical, "MAX_CHECK_CELLS", 7 * len(cal.checks_) + 3)
    with mock.patch("fairpost.estimators.replay", wraps=replay) as replayed:
        sliced = cal.transform(batch_scores, batch_groups)
    sizes = [call.args[2].shape[0] for call in replayed.call_args_list]
    assert len(sizes) > 1 and max(sizes) == 7
    assert sliced.tobytes() == whole.tobytes()


def test_calibrator_transform_signed_zero_and_repeats(rng):
    _, pert = make_dist(23, n_cells=30, n_groups=3, grid_m=20, miscalibration=0.4)
    scores, groups, y = _sample_arrays(rng, pert, 6000)
    cal = JointMulticalibrator(alpha=0.02, n_random_checks=8, grid_m=20, seed=2)
    cal.fit(scores, groups, y)
    rows = np.concatenate([groups[:50], groups[:50]])
    zeros = np.concatenate([np.zeros(50), np.full(50, -0.0)])
    with mock.patch("fairpost.estimators.replay", wraps=replay) as replayed:
        got = cal.transform(zeros, rows)
    # -0.0 and 0.0 share a key, so the history is replayed once, on one
    # point per distinct row
    assert replayed.call_count == 1
    assert replayed.call_args.args[2].shape == (len(np.unique(groups[:50], axis=0)),)
    assert got[:50].tobytes() == got[50:].tobytes()
    assert got.tobytes() == cal.transform(np.abs(zeros), rows).tobytes()
    repeated = cal.transform(np.tile(scores[:100], 3), np.tile(groups[:100], (3, 1)))
    assert repeated.tobytes() == np.tile(cal.transform(scores[:100], groups[:100]), 3).tobytes()


def test_calibrator_requires_labels():
    cal = JointMulticalibrator()
    with pytest.raises(ValueError, match="labels"):
        cal.fit([0.5], [[1]], None)
