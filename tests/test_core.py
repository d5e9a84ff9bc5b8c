import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpost import (
    BaseRates,
    FairnessNotion,
    GroupSystem,
    MixtureClassifier,
    build_cells,
)
from fairpost.core import grid_indices

from conftest import make_dist
from reference_cells import Cell, cells_of, dist_from_cells, mask_from_bits, snap_to_grid
from reference_solver import decide


def test_snap_to_grid_half_rounds_up():
    assert snap_to_grid(0.37, 10) == 0.4
    assert snap_to_grid(0.05, 10) == 0.1
    assert snap_to_grid(0.0, 10) == 0.0
    assert snap_to_grid(1.0, 10) == 1.0


def test_build_cells_rounds_and_averages_labels():
    dist = build_cells([(0.37, (1, 0), 1), (0.37, (1, 0), 0)], grid_m=10)
    assert dist.n_cells == 1
    cell = cells_of(dist)[0]
    assert cell.score == 0.4
    assert cell.groups == mask_from_bits((1, 0))
    assert cell.mass == 1.0
    assert cell.label_mean == 0.5


def test_build_cells_two_cells_equal_mass():
    dist = build_cells([(0.0, (1,), None), (1.0, (0,), None)], grid_m=1)
    assert dist.n_cells == 2
    assert all(c.mass == 0.5 for c in cells_of(dist))
    assert dist.label_means is None


def test_build_cells_matches_independent_recount(rng):
    # independent aggregation pass over raw rows, dict-keyed by (score, mask)
    rows = []
    for _ in range(1000):
        score = rng.uniform()
        bits = tuple(int(b) for b in rng.integers(0, 2, size=3))
        rows.append((score, bits, int(rng.uniform() < 0.5)))
    dist = build_cells(rows, grid_m=10)

    recount = {}
    for score, bits, label in rows:
        key = (round(math.floor(score * 10 + 0.5)) / 10, bits)
        recount[key] = recount.get(key, 0) + 1
    assert dist.n_cells == len(recount)
    assert abs(sum(c.mass for c in cells_of(dist)) - 1.0) <= 1e-12
    for cell in cells_of(dist):
        bits = tuple((cell.groups >> i) & 1 for i in range(3))
        assert cell.mass == recount[(cell.score, bits)] / 1000


def test_build_cells_order_invariant(rng):
    rows = [(rng.uniform(), (int(rng.integers(2)),), None) for _ in range(200)]
    a = build_cells(rows, 20)
    b = build_cells(list(reversed(rows)), 20)
    assert [(c.score, c.groups, c.mass) for c in cells_of(a)] == \
           [(c.score, c.groups, c.mass) for c in cells_of(b)]


def test_build_cells_errors():
    with pytest.raises(ValueError, match="empty dataset"):
        build_cells([], 10)
    with pytest.raises(ValueError, match="inconsistent"):
        build_cells([(0.2, (1, 0), None), (0.3, (1,), None)], 10)
    with pytest.raises(ValueError, match="labels"):
        build_cells([(0.2, (1,), 1), (0.3, (1,), None)], 10)


def test_cell_distribution_invariants():
    system = GroupSystem(("I",))
    with pytest.raises(ValueError, match="sum"):
        dist_from_cells(10, system, [Cell(0.5, 1, 0.7)])
    with pytest.raises(ValueError, match="duplicate"):
        dist_from_cells(10, system, [Cell(0.5, 1, 0.5), Cell(0.5, 1, 0.5)])
    with pytest.raises(ValueError, match="grid"):
        dist_from_cells(10, system, [Cell(0.55, 1, 1.0)])


def _fp_base(n_groups):
    return BaseRates(FairnessNotion.FP, np.full(n_groups, 0.5))


def test_positive_prob_counts_rules():
    base = _fp_base(1)
    # lambda values picked so exactly three of four rules fire on f=0.55
    lams = [[0.0], [0.0], [0.0], [5.0]]
    mix = MixtureClassifier(np.array(lams), base)
    cell = Cell(0.55, 1, 1.0)
    decisions = [decide(lam, FairnessNotion.FP, base, cell.score, cell.groups)
                 for lam in mix.lambdas]
    assert sum(decisions) == 3
    assert mix.positive_prob_points([cell.score], [[1]])[0] == 0.75


def test_positive_prob_identical_rules_is_binary():
    base = _fp_base(1)
    mix = MixtureClassifier(np.zeros((5, 1)), base)
    for score in (0.2, 0.5, 0.8):
        assert mix.positive_prob_points([score], [[1]])[0] in (0.0, 1.0)


def test_positive_prob_matches_per_rule_enumeration(rng):
    dist, _ = make_dist(21, n_cells=12, n_groups=2)
    base = _fp_base(dist.n_groups)
    lams = rng.standard_normal((40, dist.n_groups))
    mix = MixtureClassifier(lams, base)
    p = mix.positive_prob_vector(dist)
    for j, cell in enumerate(cells_of(dist)):
        manual = sum(decide(lam, FairnessNotion.FP, base, cell.score, cell.groups)
                     for lam in mix.lambdas) / len(mix)
        assert p[j] == manual


def test_positive_prob_affine_in_concatenation(rng):
    dist, _ = make_dist(22, n_cells=6, n_groups=1)
    base = _fp_base(dist.n_groups)
    lam1 = rng.standard_normal((3, dist.n_groups))
    lam2 = rng.standard_normal((7, dist.n_groups))
    m1 = MixtureClassifier(lam1, base)
    m2 = MixtureClassifier(lam2, base)
    both = MixtureClassifier(np.vstack([lam1, lam2]), base)
    points = (dist.scores, dist.group_matrix.T)
    p1, p2, p = (m.positive_prob_points(*points) for m in (m1, m2, both))
    for j in range(dist.n_cells):
        expect = (3 * p1[j] + 7 * p2[j]) / 10
        assert abs(p[j] - expect) <= 1e-15


def test_rule_is_function_of_score_and_mask(rng):
    base = _fp_base(2)
    rule = MixtureClassifier(np.array([[0.8, -0.3]]), base)
    # two cells of one (score, mask) with other masses and label means
    a = dist_from_cells(10, GroupSystem(("I", "g")), [Cell(0.6, 3, 0.25, label_mean=0.1),
                                                       Cell(0.2, 1, 0.75, label_mean=0.2)])
    b = dist_from_cells(10, GroupSystem(("I", "g")), [Cell(0.6, 3, 0.75, label_mean=0.9),
                                                       Cell(0.2, 1, 0.25, label_mean=0.4)])
    assert rule.positive_prob_vector(a)[0] == rule.positive_prob_vector(b)[0]


def test_group_system_validation():
    with pytest.raises(ValueError, match="unique"):
        GroupSystem(("a", "a"))
    with pytest.raises(ValueError, match="at least one group"):
        GroupSystem(())


@st.composite
def _snap_inputs(draw):
    # m, then values in and outside [0, 1]: grid points, half-grid points
    # (ties, which round up) and their neighbouring doubles
    m = draw(st.integers(min_value=1, max_value=5000))
    k = st.integers(min_value=-3, max_value=m + 3)
    half = k.map(lambda i: (2 * i + 1) / (2 * m))
    point = st.one_of(
        st.floats(min_value=-4.0, max_value=5.0),
        k.map(lambda i: i / m),
        half,
        half.map(lambda x: math.nextafter(x, math.inf)),
        half.map(lambda x: math.nextafter(x, -math.inf)),
        st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, -5e-324]),
    )
    return m, draw(st.lists(point, min_size=1, max_size=40))


@settings(max_examples=400, deadline=None)
@given(_snap_inputs())
def test_grid_indices_snap_like_scalar_bitwise(case):
    m, xs = case
    k = grid_indices(np.array(xs), m)
    want = np.array([snap_to_grid(x, m) for x in xs])
    assert k.dtype == np.int64
    assert (k / m).tobytes() == want.tobytes()


def test_grid_indices_reject_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            grid_indices(np.array([0.5, bad]), 10)
