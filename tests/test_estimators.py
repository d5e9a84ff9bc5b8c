import numpy as np
import pytest

from fairpost import (
    FairThresholdPostprocessor,
    JointMulticalibrator,
    NotFittedError,
    audit,
    base_rates,
    build_cells,
    default_checks,
)
from fairpost.core import mask_from_bits
from fairpost.estimators import check_scores_groups
from fairpost.multical import apply_patches, assignment_from_scores

from conftest import make_dist


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
    for j, cell in enumerate(est.distribution_.cells):
        bits = [(cell.groups >> i) & 1 for i in range(est.n_groups_)]
        assert est.predict_proba([cell.score], [bits])[0] == cell_p[j]


def test_postprocessor_predict_samples_labels(rng):
    dist, _ = make_dist(61, n_cells=8, n_groups=1, grid_m=10)
    scores, groups, y = _sample_arrays(rng, dist, 500)
    est = FairThresholdPostprocessor(gamma=0.5, C=2.0, T=50, grid_m=10)
    est.fit(scores, groups, y)
    labels = est.predict(scores[:100], groups[:100], random_state=0)
    assert set(np.unique(labels)) <= {0, 1}
    again = est.predict(scores[:100], groups[:100], random_state=0)
    assert np.array_equal(labels, again)


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
    cells = cal.distribution_.cells
    got = cal.transform(
        [c.score for c in cells],
        [[(c.groups >> i) & 1 for i in range(cal.n_groups_)] for c in cells])
    assert np.array_equal(got, cal.result_.assignment)


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
    want = np.array([apply_patches(float(s), mask_from_bits(g), cal.result_, cal.checks_)
                     for s, g in zip(batch_scores, batch_groups.tolist())])
    got = cal.transform(batch_scores, batch_groups)
    assert got.tobytes() == want.tobytes()
    assert cal.transform(batch_scores[:0], batch_groups[:0]).shape == (0,)


def test_calibrator_requires_labels():
    cal = JointMulticalibrator()
    with pytest.raises(ValueError, match="labels"):
        cal.fit([0.5], [[1]], None)
