"""CellDistribution is its arrays: equivalence with the per-cell code.

`reference_cells` keeps the per-cell `CellDistribution` and the dict merge of
`synth._build`.  Built from the same input, the array code must give
bit-equal scores, masses, label means and group matrix, the same cells and
the same rejection, over one to seventy groups (the grouping key ranks past
62), scores on or within 1e-12 of a grid point, -0.0, duplicate and shuffled
cells, zero masses and merges of zero-mass cells.  `from_arrays` must also
reject what no distribution holds: NaN or negative masses, label means
outside [0, 1], membership matrices of another shape or with entries other
than 0 and 1, and a grid_m that is not a positive integer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpost import synth
from fairpost.core import CellDistribution, GroupSystem, aggregate_cells

import reference_cells as ref
from reference_cells import Cell, cells_of, dist_from_cells

GROUP_COUNTS = [1, 2, 3, 8, 62, 63, 64, 70]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _cells(dist):
    return [(float(c.score).hex(), c.groups, float(c.mass).hex(),
             None if c.label_mean is None else float(c.label_mean).hex()) for c in cells_of(dist)]


def assert_same(new, old):
    assert (new.grid_m, new.groups, new.n_cells, new.n_groups) == \
           (old.grid_m, old.groups, old.n_cells, old.n_groups)
    assert np.array_equal(_bits(new.scores), _bits(old.scores))
    assert np.array_equal(_bits(new.masses), _bits(old.masses))
    assert (new.label_means is None) == (old.label_means is None)
    if old.label_means is not None:
        assert np.array_equal(_bits(new.label_means), _bits(old.label_means))
    assert new.group_matrix.shape == old.group_matrix.shape
    assert new.group_matrix.flags.c_contiguous
    assert np.array_equal(_bits(new.group_matrix), _bits(old.group_matrix))
    assert _cells(new) == _cells(old)


def _outcome(make):
    try:
        return make()
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def cell_inputs(draw, valid=False):
    """(grid_m, system, cells); valid=True draws only accepted, labeled input."""
    g = draw(st.sampled_from(GROUP_COUNTS))
    m = draw(st.sampled_from([1, 2, 7, 20, 100, 10 ** 6]))
    patterns = draw(st.lists(st.integers(0, 2 ** g - 1), min_size=1, max_size=4))
    n = draw(st.integers(1, 10))
    keys = draw(st.lists(st.tuples(st.integers(0, m), st.sampled_from(patterns)),
                         min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    if sum(weights) == 0:
        weights[0] = 1
    labeled = valid or draw(st.sampled_from(["all", "none"]))
    cells = []
    for (k, mask), w in zip(keys, weights):
        score = k / m
        nudge = draw(st.sampled_from(["on", "near", "zero"]))
        if nudge == "near":    # within 1e-12: accepted, and kept unsnapped
            score = float(np.clip(score + draw(st.sampled_from([-9e-13, -1e-15, 4e-13])),
                                  -1e-12, 1 + 1e-12))
        elif nudge == "zero" and k == 0:
            score = -0.0
        if labeled == "none":
            label = None
        else:
            label = draw(st.one_of(st.integers(0, m).map(lambda j: j / m),
                                   st.floats(0.0, 1.0)))
        cells.append(Cell(score, mask, w / sum(weights), label))
    # at most one fault: a duplicate key, a score 1e-9 off the grid, masses off one
    fault = "none" if valid else draw(st.sampled_from(["none", "none", "none", "duplicate",
                                                       "off-grid", "mass"]))
    if fault == "duplicate":
        cells.append(cells[draw(st.integers(0, len(cells) - 1))])
    order = draw(st.permutations(range(len(cells))))
    cells = [cells[i] for i in order]
    c = cells[0]
    if fault == "off-grid":
        cells[0] = Cell(c.score + 1e-9, c.groups, c.mass, c.label_mean)
    elif fault == "mass":
        cells[0] = Cell(c.score, c.groups, c.mass + 1e-6, c.label_mean)
    return m, GroupSystem(tuple(f"g{i}" for i in range(g))), cells


@settings(max_examples=400, deadline=None)
@given(case=cell_inputs())
def test_distribution_from_cells_equals_per_cell_code(case):
    m, system, cells = case
    new = _outcome(lambda: dist_from_cells(m, system, cells))
    old = _outcome(lambda: ref.CellDistribution(m, system, cells))
    if isinstance(old, tuple):
        assert new == old
    else:
        assert_same(new, old)
        assert cells_of(new) == tuple(cells)


@settings(max_examples=300, deadline=None)
@given(case=cell_inputs(valid=True))
def test_scores_from_labels_equals_dict_merge(case):
    m, system, cells = case
    new = dist_from_cells(m, system, cells).with_scores_from_labels()
    old = ref.CellDistribution(m, system, cells).with_scores_from_labels()
    assert_same(new, old)
    # twice: the second merge starts from an array-built distribution
    assert_same(new.with_scores_from_labels(), old.with_scores_from_labels())


@pytest.mark.parametrize("g", GROUP_COUNTS)
def test_aggregated_cells_and_relabelling_equal_per_cell_code(g):
    rng = np.random.default_rng(g)
    n, m = 3000, 40
    patterns = rng.integers(0, 2, size=(6, g))
    bits = patterns[rng.integers(0, 6, size=n)]
    scores = rng.choice([0.0, -0.0, 0.5, 1.0, 0.2], size=n) + rng.uniform(size=n) * (
        rng.uniform(size=n) < 0.5) * 0.5
    labels = rng.integers(0, 2, size=n)
    new = aggregate_cells(np.clip(scores, 0.0, 1.0), bits, labels, m)
    old = ref.CellDistribution(m, new.groups, cells_of(new))
    assert_same(new, old)
    assert_same(new.with_scores_from_labels(), old.with_scores_from_labels())


def test_zero_mass_cells_merge_to_label_zero():
    system = GroupSystem(("I",))
    cells = [Cell(0.1, 1, 0.0, 0.5), Cell(0.2, 1, 0.0, 0.5), Cell(0.9, 1, 1.0, 0.9)]
    new = dist_from_cells(10, system, cells).with_scores_from_labels()
    assert_same(new, ref.CellDistribution(10, system, cells).with_scores_from_labels())
    assert new.label_means.tolist() == [0.0, 0.9]


@st.composite
def synth_inputs(draw):
    g = draw(st.sampled_from([1, 2, 5, 62, 63, 70]))
    m = draw(st.sampled_from([1, 3, 20, 100]))
    patterns = draw(st.lists(st.integers(0, 2 ** g - 1), min_size=1, max_size=3))
    raw = draw(st.lists(st.tuples(st.integers(0, m), st.sampled_from(patterns)
                                  .map(lambda p: 1 | p << 1), st.integers(1, 100)),
                        min_size=1, max_size=12))
    # few distinct scores, so that cells merge
    levels = draw(st.lists(st.integers(0, m), min_size=1, max_size=3))
    scores = [draw(st.sampled_from(levels)) / m for _ in raw]
    spec = synth.SynthSpec(seed=0, n_cells=len(raw), n_groups=g, grid_m=m)
    names = tuple(["I"] + [f"g{i}" for i in range(1, g + 1)])
    return spec, raw, scores, names


@settings(max_examples=300, deadline=None)
@given(case=synth_inputs())
def test_synth_build_equals_dict_merge(case):
    assert_same(synth._build(*case), ref._build(*case))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("miscalibration", [0.0, 0.3])
def test_gen_instance_equals_dict_merge(monkeypatch, seed, miscalibration):
    spec = synth.SynthSpec(seed=seed, n_cells=40, n_groups=3, grid_m=20,
                           bias_profile="uniform", miscalibration=miscalibration)
    new = synth.gen_instance(spec)
    monkeypatch.setattr(synth, "_build", ref._build)
    for a, b in zip(new, synth.gen_instance(spec)):
        assert_same(a, b)


def _two_cells(masses=(0.25, 0.75), label_means=(0.5, 0.5), bits=((1,), (1,)), grid_m=4):
    return CellDistribution.from_arrays(grid_m, GroupSystem(("I",)),
                                        np.array([0.25, 0.75]), np.array(masses),
                                        None if label_means is None else np.array(label_means),
                                        np.array(bits))


@pytest.mark.parametrize("change, message", [
    ({"masses": (np.nan, 1.0)}, "cell masses must be nonnegative"),
    ({"masses": (1.5, -0.5)}, "cell masses must be nonnegative"),
    ({"label_means": (0.5, 2.0)}, r"label_mean must lie in \[0, 1\]"),
    ({"label_means": (np.nan, 0.5)}, r"label_mean must lie in \[0, 1\]"),
    ({"label_means": (-0.25, 0.5)}, r"label_mean must lie in \[0, 1\]"),
    ({"masses": (0.25, 0.25, 0.5)}, "one value per cell"),
    ({"bits": ((1, 0), (1, 1))}, r"bits must be an \(n_cells, n_groups\) membership matrix"),
    ({"bits": (1, 1)}, r"bits must be an \(n_cells, n_groups\) membership matrix"),
    ({"bits": ((1,), (2,))}, "group indicators must be 0 or 1"),
    ({"bits": ((1,), (0.5,))}, "group indicators must be 0 or 1"),
    ({"grid_m": 2.5}, "grid_m must be a positive integer, not 2.5"),
    ({"grid_m": True}, "grid_m must be a positive integer, not True"),
])
def test_from_arrays_rejects_what_no_distribution_holds(change, message):
    # NaN masses once passed the sum check, and negative ones summing to one
    # passed every check; grid_m 2.5 made a 1/2.5 grid
    assert _two_cells().n_cells == 2
    with pytest.raises(ValueError, match=message):
        _two_cells(**change)


def test_aggregate_cells_takes_only_an_integer_grid():
    # True once snapped every score to the grid of 1
    for grid_m in (True, 2.5, np.float64(4.0), 0):
        with pytest.raises(ValueError, match="grid_m must be a positive integer"):
            aggregate_cells([0.4, 0.8], np.ones((2, 1)), None, grid_m)
    assert aggregate_cells([0.4, 0.8], np.ones((2, 1)), None, np.int64(5)).grid_m == 5
