import json

import numpy as np
import pytest
from hypothesis import settings

from fairpost import SynthSpec, gen_instance

# CI runs with --hypothesis-profile=ci: a failing property prints the blob
# that reproduces it with @reproduce_failure
settings.register_profile("ci", print_blob=True)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(autouse=True, scope="session")
def reports_are_standard_json(tmp_path_factory):
    # every report.json the suite writes parses as standard JSON: a slack
    # or threshold written as Infinity or NaN fails the session
    yield
    for path in tmp_path_factory.getbasetemp().rglob("report.json"):
        try:
            json.loads(path.read_text(), parse_constant=_refuse_constant)
        except ValueError as exc:
            raise AssertionError(f"{path}: {exc}") from None


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
