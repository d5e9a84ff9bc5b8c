import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpost import (
    BaseRates,
    Cell,
    CellDistribution,
    CheckFunction,
    FairnessNotion,
    GroupSystem,
    SolverConfig,
    ThresholdRule,
    audit,
    base_rates,
    best_response,
    brier,
    build_cells,
    calibrate,
    default_checks,
    run,
    snap_to_grid,
    threshold_eval,
)
from fairpost.core import decide_batch, decision_thresholds
from fairpost.multical import (
    CalibrationResult,
    PatchRecord,
    _d_tables,
    apply_patches,
    assignment_from_scores,
)

from conftest import make_dist, rand_lambda

NOTIONS = ["fp", "fn", "err", "sp"]


def _table(notion, v):
    """(s, d) of the check family at one level: it fires on s*S <= d."""
    s, d = decision_thresholds(np.array([v]), FairnessNotion.coerce(notion))
    return float(s[0]), float(d[0])


def test_d_of_v_values():
    # the rounded best response holds up to an ulp past the exact
    # threshold, so d = 0 reads as 1.1e-16 (FP) and 5.6e-17 (SP)
    assert _table("fp", 0.5) == (1.0, pytest.approx(0.0, abs=1e-15))
    assert _table("sp", 0.5) == (1.0, pytest.approx(0.0, abs=1e-15))
    assert _table("fp", 2 / 3) == (1.0, pytest.approx(1.0))
    assert _table("fn", 0.25) == (-1.0, pytest.approx(-2.0))
    assert _table("err", 0.25) == (1.0, -1.0)


def test_d_of_v_singularities():
    assert _table("fp", 1.0)[1] == math.inf
    assert _table("fn", 0.0)[1] == -math.inf
    assert _table("err", 0.5)[1] == math.inf


def _base(dist, notion):
    return base_rates(dist, notion, "from_labels")


def test_threshold_eval_zero_dual_tracks_bayes_rule():
    # at lambda = 0 the check must agree with thresholding the score at 1/2
    dist, _ = make_dist(40, n_cells=6, n_groups=1)
    base = _base(dist, "fp")
    lam = np.zeros(dist.n_groups)
    assert threshold_eval(lam, base, 1, 0.6, "fp") == 1
    assert threshold_eval(lam, base, 1, 0.4, "fp") == 0
    assert threshold_eval(lam, base, 1, 0.5, "fp") == 1  # tie goes positive


def test_threshold_eval_equals_best_response_fp(rng):
    # the identity of the check family with the rule, positive denominators
    for trial in range(50):
        dist, _ = make_dist(500 + trial, n_cells=10, n_groups=2, grid_m=30)
        base = _base(dist, "fp")
        lam = rand_lambda(rng, dist.n_groups, 5.0)
        for cell in dist.cells:
            bits = np.array([(cell.groups >> i) & 1 for i in range(dist.n_groups)])
            S = float(lam @ (bits - base.beta))
            if 2.0 + S <= 0:
                continue
            assert threshold_eval(lam, base, cell.groups, cell.score, "fp") == \
                best_response(lam, cell, "fp", base)


def test_threshold_eval_equals_best_response_fn_and_sp(rng):
    for trial in range(20):
        dist, _ = make_dist(600 + trial, n_cells=10, n_groups=2, grid_m=30)
        lam = rand_lambda(rng, dist.n_groups, 5.0)
        base_fn = _base(dist, "fn")
        base_sp = _base(dist, "sp")
        for cell in dist.cells:
            bits = np.array([(cell.groups >> i) & 1 for i in range(dist.n_groups)])
            if 2.0 + float(lam @ (bits - base_fn.beta)) > 0:
                assert threshold_eval(lam, base_fn, cell.groups, cell.score, "fn") == \
                    best_response(lam, cell, "fn", base_fn)
            assert threshold_eval(lam, base_sp, cell.groups, cell.score, "sp") == \
                best_response(lam, cell, "sp", base_sp)


def test_threshold_eval_monotone_in_v(rng):
    # the acceptance region in v: once the check fires it stays on (FP/FN/SP)
    dist, _ = make_dist(41, n_cells=6, n_groups=2)
    grid = np.linspace(0, 1, 21)
    for notion in ["fp", "fn", "sp"]:
        base = _base(dist, notion)
        for _ in range(20):
            lam = rand_lambda(rng, dist.n_groups, 4.0)
            mask = int(dist.cells[rng.integers(dist.n_cells)].groups)
            vals = [threshold_eval(lam, base, mask, v, notion) for v in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_audit_zero_when_scores_are_label_means():
    dist, _ = make_dist(42, n_cells=12, n_groups=2)
    base = _base(dist, "fp")
    checks = default_checks(dist, base, n_random=16, C=5.0, seed=0)
    assignment = assignment_from_scores(dist, dist.grid_m)
    per_check, max_violation = audit(assignment, checks, dist)
    assert max_violation <= 1e-12


def test_audit_constant_check_calibrated_levels():
    system = GroupSystem(("I",), includes_all_group=True)
    # the assignment pools the first two cells into one level whose
    # conditional mean equals the level value
    dist = CellDistribution(10, system, [
        Cell(0.2, 1, 0.3, 0.2), Cell(0.4, 1, 0.2, 0.45),
        Cell(0.7, 1, 0.5, 0.7),
    ])
    assignment = np.array([0.3, 0.3, 0.7])
    # level 0.3: mean = (0.3*0.2 + 0.2*0.45)/0.5 = 0.3
    _, max_violation = audit(assignment, [CheckFunction("group", 0)], dist)
    assert max_violation <= 1e-12


def test_audit_matches_per_sample_brute_force(rng):
    # build the distribution from raw labeled rows, then recompute every
    # check's violation by direct row-level summation
    rows = []
    for _ in range(3000):
        score = round(int(rng.integers(0, 11)) / 10, 10)
        bits = (1, int(rng.integers(2)), int(rng.integers(2)))
        rows.append((score, bits, int(rng.uniform() < 0.3 + 0.5 * score)))
    dist = build_cells(rows, 10)
    base = _base(dist, "fp")
    checks = default_checks(dist, base, n_random=8, C=5.0, seed=3)
    assignment = assignment_from_scores(dist, dist.grid_m)
    per_check, _ = audit(assignment, checks, dist)

    level_of = {c.key(): a for c, a in zip(dist.cells, assignment)}
    n = len(rows)
    for check, got in zip(checks, per_check):
        sums = {}
        for score, bits, y in rows:
            mask = sum(b << i for i, b in enumerate(bits))
            v = level_of[(score, mask)]
            if check.eval_point(score, mask, v):
                sums[v] = sums.get(v, 0.0) + (v - y) / n
        total = sum(abs(acc) for acc in sums.values())
        assert got == pytest.approx(total, abs=1e-12)


def test_audit_invariant_under_cell_permutation(rng):
    dist, _ = make_dist(43, n_cells=15, n_groups=2, miscalibration=0.3)
    base = _base(dist, "fp")
    checks = default_checks(dist, base, n_random=4, C=3.0, seed=1)
    assignment = assignment_from_scores(dist, dist.grid_m)
    per, _ = audit(assignment, checks, dist)

    order = rng.permutation(dist.n_cells)
    shuffled = CellDistribution(dist.grid_m, dist.groups,
                                [dist.cells[i] for i in order])
    per2, _ = audit(assignment[order], checks, shuffled)
    assert np.allclose(per, per2, atol=1e-15)


def test_brier_values():
    system = GroupSystem(("I",), includes_all_group=True)
    dist = CellDistribution(2, system, [Cell(0.0, 1, 0.5, 0.0), Cell(1.0, 1, 0.5, 1.0)])
    assert brier(np.array([0.0, 1.0]), dist) == 0.0
    assert brier(np.array([0.5, 0.5]), dist) == 0.25

    dist2, _ = make_dist(44, n_cells=8, n_groups=1)
    assert brier(np.full(dist2.n_cells, 0.5), dist2) == pytest.approx(0.25)


def test_brier_matches_monte_carlo(rng):
    dist, _ = make_dist(45, n_cells=9, n_groups=1)
    a = rng.uniform(size=dist.n_cells)
    want = brier(a, dist)
    n = 1_000_000
    cells = rng.choice(dist.n_cells, size=n, p=dist.masses / dist.masses.sum())
    y = (rng.uniform(size=n) < dist.label_means[cells]).astype(float)
    mc = float(np.mean((y - a[cells]) ** 2))
    assert abs(mc - want) <= 3 * 0.5 / math.sqrt(n) + 1e-12


def test_calibrate_identity_when_already_calibrated():
    dist, _ = make_dist(46, n_cells=10, n_groups=2, grid_m=100)
    base = _base(dist, "fp")
    checks = default_checks(dist, base, n_random=8, C=5.0, seed=2)
    result = calibrate(dist.scores, checks, dist, alpha=0.01)
    assert result.rounds == 0
    assert np.array_equal(result.assignment, result.initial_assignment)


def test_calibrate_single_patch_closed_form():
    # one level set, one constant check, f=0.9 against true mean 0.1
    system = GroupSystem(("I",), includes_all_group=True)
    dist = CellDistribution(100, system, [Cell(0.9, 1, 1.0, 0.1)])
    result = calibrate(np.array([0.9]), [CheckFunction("group", 0)], dist, alpha=0.01)
    assert result.rounds == 1
    assert result.assignment[0] == pytest.approx(0.1)
    drop = brier(result.initial_assignment, dist) - result.final_potential
    assert drop == pytest.approx(0.64, abs=1e-12)


def test_calibrate_guarantees_on_miscalibrated_fixture():
    exact, pert = make_dist(9, n_cells=60, n_groups=3, grid_m=20, miscalibration=0.5)
    base = _base(pert, "fp")
    cfg = SolverConfig(notion="fp", gamma=0.01, C=10.0, T=200, record_every=50)
    traj = run(pert, cfg).mixture.lambdas[::20][:10]
    checks = default_checks(pert, base, n_random=16, C=10.0, seed=9,
                            trajectory_lambdas=traj)
    alpha = 0.01
    result = calibrate(pert.scores, checks, pert, alpha)
    assert 0 < result.rounds <= 4 / alpha ** 2

    # replay the patch history and recompute the potential independently
    assign = result.initial_assignment.copy()
    prev = brier(assign, pert)
    for rec in result.history:
        comp = checks[rec.check_index].compile(pert)
        sel = comp.evaluate(assign) & (assign == rec.level)
        assign = assign.copy()
        assign[sel] = rec.v_prime
        pot = brier(assign, pert)
        assert pot <= prev - alpha ** 2 / 4
        assert pot == pytest.approx(rec.potential, abs=1e-15)
        prev = pot
    assert np.array_equal(assign, result.assignment)

    _, max_violation = audit(result.assignment, checks, pert)
    assert max_violation <= math.sqrt(alpha)


def test_calibrate_patch_ties_pick_lowest_level():
    # two offending levels with exactly equal squared-violation mass
    # (0.25 and 0.75 against a 0.5 mean are exact in binary): the patch
    # must repair the lower level first
    system = GroupSystem(("I",), includes_all_group=True)
    dist = CellDistribution(4, system, [
        Cell(0.25, 1, 0.5, 0.5), Cell(0.75, 1, 0.5, 0.5),
    ])
    result = calibrate(dist.scores, [CheckFunction("group", 0)], dist, alpha=0.05)
    assert result.history[0].level == 0.25


def test_threshold_eval_err_steps_at_half():
    # the ERR check fires on S <= -1 below 1/2, everywhere at 1/2 (a tie of
    # the best response) and on S >= -1 above, whatever else v is
    dist, _ = make_dist(48, n_cells=6, n_groups=2)
    base = _base(dist, "err")
    sums = []
    for lam in ([0.5, -0.25, 0.1], [0.0, -8.0, 0.5], [0.0, 8.0, -6.0], [0.0, 0.0, 0.0]):
        lam = np.array(lam)
        for cell in dist.cells:
            bits = np.array([(cell.groups >> i) & 1 for i in range(dist.n_groups)])
            S = float(lam @ (bits - base.beta))
            sums.append(S)
            for v in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                want = S <= -1.0 if v < 0.5 else S >= -1.0 or v == 0.5
                assert threshold_eval(lam, base, cell.groups, v, "err") == want
    assert min(sums) < -1.0 < max(sums)


def test_err_check_is_the_best_response(rng):
    # 3,000 group sums per level, and the tie S = -1
    S = np.concatenate([rng.normal(-1.0, 2.0, size=3000), [-1.0]])
    v = np.arange(21) / 20
    s, d = decision_thresholds(v, FairnessNotion.ERR)
    for k in range(len(v)):
        check = s[k] * S <= d[k]
        best = decide_batch(S, np.full(len(S), v[k]), FairnessNotion.ERR)
        assert np.array_equal(check, best)
        assert best[S == -1.0].all()


def test_err_best_response_sets_audited_by_check_and_all_ones_group(rng):
    # the threshold check is the best response, so the two audit the same
    # sets; the all-ones group is audited beside them
    dist, _ = make_dist(49, n_cells=40, n_groups=3, grid_m=20, miscalibration=0.3)
    assert (dist.group_matrix[0] == 1.0).all()
    base = _base(dist, "err")
    assignment = assignment_from_scores(dist, dist.grid_m)  # level v = cell score
    assert 0.5 in assignment and (assignment < 0.5).any() and (assignment > 0.5).any()
    for _ in range(20):
        lam = rand_lambda(rng, dist.n_groups, 4.0)
        checks = [CheckFunction("group", 0), CheckFunction("threshold", (lam, "err", base)),
                  CheckFunction("hypothesis", ThresholdRule(tuple(lam), "err", base))]
        (ones, check, best), _ = audit(assignment, checks, dist)
        assert best == pytest.approx(check, abs=1e-12)


def test_calibrate_alpha_validation():
    dist, _ = make_dist(47, n_cells=5, n_groups=1)
    with pytest.raises(ValueError, match="alpha"):
        calibrate(dist.scores, [], dist, alpha=0.0)


def test_apply_patches_replays_training_assignment():
    _, pert = make_dist(9, n_cells=30, n_groups=2, grid_m=20, miscalibration=0.5)
    base = _base(pert, "fp")
    checks = default_checks(pert, base, n_random=8, C=5.0, seed=4)
    result = calibrate(pert.scores, checks, pert, alpha=0.02)
    replayed = np.array([
        apply_patches(cell.score, cell.groups, result, checks)
        for cell in pert.cells
    ])
    assert np.array_equal(replayed, result.assignment)


# ------------------------------------------------ reference: per-round rescan
#
# calibrate and audit as they were before the level tables and the term
# cache: every round evaluates every check on every cell as the best
# response at f = the cell's level and re-reduces every (check, level) set.
# The optimized functions must reproduce them bit for bit.

def _reference_evaluate(comp, levels):
    if comp.fixed is not None:
        return comp.fixed
    return decide_batch(comp.S, levels, comp.notion)


def _reference_audit(assignment, checks, dist):
    a = np.asarray(assignment, dtype=float)
    q = dist.require_labels()
    m = dist.masses
    per_check = []
    for check in checks:
        cval = _reference_evaluate(check.compile(dist), a)
        total = 0.0
        for v in np.unique(a[cval]):
            sel = cval & (a == v)
            total += abs(float(np.sum(m[sel] * (v - q[sel]))))
        per_check.append(total)
    max_violation = max(per_check) if per_check else 0.0
    return per_check, max_violation


def _reference_calibrate(f_initial, checks, dist, alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    m_grid = math.ceil(1.0 / alpha)
    q = dist.require_labels()
    masses = dist.masses
    if f_initial is None:
        f_initial = dist.scores
    f_initial = np.asarray(f_initial, dtype=float)
    assign = np.array([snap_to_grid(float(v), m_grid) for v in f_initial])
    initial = assign.copy()

    compiled = [c.compile(dist) for c in checks]
    max_rounds = math.floor(4.0 / (alpha * alpha)) + 1
    history = []
    t = 0
    while True:
        best = None  # (term, v, check_idx, sel)
        worst_sum = 0.0
        for ci, comp in enumerate(compiled):
            cval = _reference_evaluate(comp, assign)
            check_sum = 0.0
            for v in np.unique(assign[cval]):
                sel = cval & (assign == v)
                mass = float(masses[sel].sum())
                if mass <= 0.0:
                    continue
                mu = float((masses[sel] @ q[sel]) / mass)
                term = mass * (v - mu) ** 2
                check_sum += term
                cand = (term, v, ci)
                if best is None or term > best[0] or (
                        term == best[0] and (v, ci) < (best[1], best[2])):
                    best = cand
                    best_sel = sel
                    best_mu = mu
            worst_sum = max(worst_sum, check_sum)
        if worst_sum < alpha or best is None:
            break
        t += 1
        if t > max_rounds:
            raise RuntimeError(
                "calibration failed to terminate within 4/alpha^2 rounds")
        _, v, ci = best
        v_prime = snap_to_grid(best_mu, m_grid)
        assign = assign.copy()
        assign[best_sel] = v_prime
        history.append(PatchRecord(
            round=t, check_index=ci, level=float(v), v_tilde=best_mu,
            v_prime=v_prime, potential=brier(assign, dist),
            mass=float(masses[best_sel].sum())))

    return CalibrationResult(
        grid_m=m_grid,
        initial_assignment=initial,
        assignment=assign,
        history=history,
        rounds=t,
        final_potential=brier(assign, dist),
    )


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_same_audit(assignment, checks, dist):
    got, got_max = audit(assignment, checks, dist)
    want, want_max = _reference_audit(assignment, checks, dist)
    assert _bits(got) == _bits(want)
    assert _bits(got_max) == _bits(want_max)


def _assert_same_calibration(checks, dist, alpha, f_initial=None):
    f_initial = dist.scores if f_initial is None else f_initial
    got = calibrate(f_initial, checks, dist, alpha)
    want = _reference_calibrate(f_initial, checks, dist, alpha)
    assert got.rounds == want.rounds
    assert [vars(r) for r in got.history] == [vars(r) for r in want.history]
    for a, b in zip(got.history, want.history):
        assert _bits([a.level, a.v_tilde, a.v_prime, a.potential, a.mass]) == \
            _bits([b.level, b.v_tilde, b.v_prime, b.potential, b.mass])
    assert _bits(got.initial_assignment) == _bits(want.initial_assignment)
    assert _bits(got.assignment) == _bits(want.assignment)
    assert _bits(got.final_potential) == _bits(want.final_potential)
    assert got.grid_m == want.grid_m
    for assignment in (got.initial_assignment, got.assignment):
        _assert_same_audit(assignment, checks, dist)
    return got


def test_calibrate_matches_reference_on_miscalibrated_fixture():
    _, pert = make_dist(9, n_cells=60, n_groups=3, grid_m=20, miscalibration=0.5)
    base = _base(pert, "fp")
    cfg = SolverConfig(notion="fp", gamma=0.01, C=10.0, T=200, record_every=50)
    traj = run(pert, cfg).mixture.lambdas[::20][:10]
    checks = default_checks(pert, base, n_random=16, C=10.0, seed=9,
                            trajectory_lambdas=traj)
    got = _assert_same_calibration(checks, pert, 0.01)
    assert got.rounds > 0
    assert got.counters["levels"] == 101
    assert got.counters["term_updates"] >= len(checks) * (1 + got.rounds)


def test_calibrate_matches_reference_on_adversarial_overlap():
    _, pert = make_dist(3, n_cells=50, n_groups=3, grid_m=50,
                        profile="adversarial_overlap", miscalibration=0.4)
    checks = default_checks(pert, _base(pert, "fp"), n_random=24, C=10.0, seed=0)
    got = _assert_same_calibration(checks, pert, 0.004)
    assert got.rounds > 5


def test_calibrate_matches_reference_with_ties_and_repeated_levels():
    # equal masses and label means that are exact binary fractions: many
    # (level, check) terms tie exactly, duplicate checks tie across check
    # indices, and a patch can move a set onto an occupied level
    system = GroupSystem(("I", "a", "b"), includes_all_group=True)
    cells = []
    for j, (score, mask) in enumerate(itertools.product(
            (0.0, 0.25, 0.5, 0.75, 1.0), (1, 3, 5, 7))):
        cells.append(Cell(score, mask, 1 / 32 if j % 2 else 1 / 64,
                          (0.25, 0.5, 0.75, 0.5)[j % 4]))
    total = sum(c.mass for c in cells)
    cells = [Cell(c.score, c.groups, c.mass / total, c.label_mean) for c in cells]
    dist = CellDistribution(4, system, cells)
    checks = [CheckFunction("group", g) for g in (0, 1, 2, 0, 1)]
    checks.append(CheckFunction("product", (1, ThresholdRule(
        (0.0, 0.0, 0.0), FairnessNotion.SP, _base(dist, "sp")))))
    for alpha in (0.3, 0.05, 0.01):
        _assert_same_calibration(checks, dist, alpha)


def _singular_level_dist():
    # levels 0, 1/2 and 1 all occupied: d(v) is infinite there for FN, ERR
    # and FP respectively
    system = GroupSystem(("I", "a", "b"), includes_all_group=True)
    scores = (0.0, 0.1, 0.3, 0.5, 0.6, 0.9, 1.0)
    cells = []
    for j, (score, mask) in enumerate(itertools.product(scores, (1, 3, 5, 7))):
        cells.append(Cell(score, mask, 1.0, ((j * 7) % 11) / 10))
    return CellDistribution(10, system, [
        Cell(c.score, c.groups, 1 / len(cells), c.label_mean) for c in cells])


def test_calibrate_matches_reference_for_every_notion_at_singular_levels():
    dist = _singular_level_dist()
    rng = np.random.Generator(np.random.PCG64(5))
    checks = []
    for notion in NOTIONS:
        base = _base(dist, notion)
        for k in range(6):
            lam = rand_lambda(rng, dist.n_groups, 4.0)
            checks.append(CheckFunction("threshold", (lam, notion, base)))
        checks.append(CheckFunction("threshold", (np.zeros(dist.n_groups), notion, base)))
    for alpha in (0.1, 0.02):  # grids of 10 and 50: 0, 1/2 and 1 are levels
        got = _assert_same_calibration(checks, dist, alpha)
        assert {0.0, 0.5, 1.0} <= set(got.initial_assignment)
    _assert_same_audit(dist.scores, checks, dist)


def test_calibrate_matches_reference_with_hypothesis_and_product_checks():
    _, pert = make_dist(12, n_cells=40, n_groups=2, grid_m=25, miscalibration=0.4)
    base = _base(pert, "fp")
    rules = [ThresholdRule((0.8, -0.5, 0.3), FairnessNotion.FP, base),
             ThresholdRule((0.0, 0.0, 0.0), FairnessNotion.FP, base, False)]
    checks = default_checks(pert, base, hypotheses=rules, n_random=8, C=5.0, seed=1)
    assert {"hypothesis", "product"} <= {c.kind for c in checks}
    _assert_same_calibration(checks, pert, 0.01)


def test_audit_matches_reference_off_the_grid(rng):
    # audit takes any assignment in [0, 1], not only grid levels
    dist, _ = make_dist(13, n_cells=30, n_groups=2, grid_m=20, miscalibration=0.3)
    checks = default_checks(dist, _base(dist, "fp"), n_random=8, C=5.0, seed=2)
    levels = rng.uniform(size=7)
    assignment = levels[rng.integers(len(levels), size=dist.n_cells)]
    _assert_same_audit(assignment, checks, dist)
    _assert_same_audit(rng.uniform(size=dist.n_cells), checks, dist)


def test_audit_rejects_levels_outside_unit_interval():
    dist, _ = make_dist(14, n_cells=8, n_groups=1)
    checks = default_checks(dist, _base(dist, "fp"), n_random=2, seed=0)
    with pytest.raises(ValueError, match="v must lie"):
        audit(np.full(dist.n_cells, 1.5), checks, dist)
    with pytest.raises(ValueError, match="v must lie"):
        audit(np.full(dist.n_cells, np.nan), checks, dist)
    with pytest.raises(ValueError, match="v must lie"):
        threshold_eval(np.zeros(dist.n_groups), _base(dist, "fp"), 1, 1.5, "fp")
    with pytest.raises(ValueError, match="v must lie"):
        threshold_eval(np.zeros(dist.n_groups), _base(dist, "fp"), 1, math.nan, "fp")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NOTIONS), st.integers(min_value=1, max_value=2000),
       st.floats(min_value=0.0, max_value=1.0))
def test_level_table_equals_d_of_v_at_snapped_value(notion, m, x):
    dist, _ = make_dist(15, n_cells=4, n_groups=1)
    comp = CheckFunction("threshold", (np.zeros(dist.n_groups), notion,
                                       _base(dist, "fp"))).compile(dist)
    s, d = _d_tables([comp], np.arange(m + 1) / m)[comp.notion]
    v = snap_to_grid(x, m)
    k = round(v * m)
    want_s, want_d = decision_thresholds(np.array([v]), comp.notion)
    assert _bits([s[k], d[k]]) == _bits([want_s[0], want_d[0]])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NOTIONS), st.integers(min_value=1, max_value=2000), st.data())
def test_threshold_check_is_the_best_response_bit_for_bit(notion, m, data):
    # every path of a threshold check (the per-cell evaluate, the per-level
    # fires of audit and calibrate, and the per-point eval_point of
    # apply_patches) is decide_batch at f = the level, ties and 0, 1/2, 1
    # included
    dist, _ = make_dist(16, n_cells=12, n_groups=2)
    unit = st.floats(min_value=0.0, max_value=1.0)
    lam = np.array(data.draw(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                                      min_size=dist.n_groups, max_size=dist.n_groups)))
    beta = np.array(data.draw(st.lists(unit, min_size=dist.n_groups,
                                       max_size=dist.n_groups)))
    base = BaseRates(FairnessNotion.coerce(notion), beta, np.ones(dist.n_groups))
    ks = data.draw(st.lists(st.integers(min_value=0, max_value=m),
                            min_size=dist.n_cells - 3, max_size=dist.n_cells - 3))
    levels = np.concatenate([[0.0, 0.5, 1.0], np.array(ks) / m])
    check = CheckFunction("threshold", (lam, notion, base))
    comp = check.compile(dist)
    want = decide_batch(comp.S, levels, comp.notion)
    assert _bits(comp.evaluate(levels)) == _bits(want)

    values, k = np.unique(levels, return_inverse=True)
    tables = _d_tables([comp], values)
    for level in range(len(values)):
        idx = np.flatnonzero(k == level)
        assert _bits(comp.fires(idx, tables, level)) == _bits(want[idx])
    for cell, v, w in zip(dist.cells, levels, want):
        assert check.eval_point(cell.score, cell.groups, v) == w
