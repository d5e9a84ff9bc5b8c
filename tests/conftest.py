import numpy as np
import pytest
from hypothesis import settings

from fairpost import SynthSpec, gen_instance

# CI runs with --hypothesis-profile=ci: a failing property prints the blob
# that reproduces it with @reproduce_failure
settings.register_profile("ci", print_blob=True)


def make_dist(seed, n_cells=10, n_groups=2, grid_m=25, profile="uniform",
              miscalibration=0.0):
    spec = SynthSpec(seed=seed, n_cells=n_cells, n_groups=n_groups, grid_m=grid_m,
                     bias_profile=profile, miscalibration=miscalibration)
    return gen_instance(spec)


def rand_lambda(rng, n_groups, radius):
    raw = rng.standard_normal(n_groups)
    return raw * (radius * rng.uniform() / np.abs(raw).sum())


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))


@pytest.fixture
def biased_instance():
    exact, _ = make_dist(1, n_cells=8, n_groups=2, grid_m=20, profile="two_group_bias")
    return exact
