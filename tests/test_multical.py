import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpost import (
    BaseRates,
    CheckFunction,
    FairnessNotion,
    GroupSystem,
    JointMulticalibrator,
    SolverConfig,
    audit,
    base_rates,
    brier,
    build_cells,
    calibrate,
    default_checks,
)
from fairpost import multical
from fairpost.core import decide_batch, decision_thresholds
from fairpost.multical import (
    CalibrationResult,
    PatchRecord,
    _CheckFamily,
    assignment_from_scores,
    replay,
)

from conftest import make_dist, rand_lambda
from reference_cells import Cell, bits_from_mask, cells_of, dist_from_cells, snap_to_grid
from reference_checks import Compiled, apply_patches, eval_point
from reference_solver import decide, group_sum, reference_run_loop

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


def _fires_at_levels(checks, dist, levels):
    """The check family's (checks x cells) indicator, each cell at its level."""
    values, k = np.unique(levels, return_inverse=True)
    family = _CheckFamily(checks, dist.group_matrix, values)
    fires = np.empty((len(checks), dist.n_cells), dtype=bool)
    for level in range(len(values)):
        idx = np.flatnonzero(k == level)
        fires[:, idx] = family.fires(idx, level)
    return fires


def _point_fires(check, mask, v, n_groups) -> int:
    """The check family's indicator of one check at the point (v, mask),
    at level v."""
    G = np.array(bits_from_mask(mask, n_groups), dtype=float)[:, None]
    family = _CheckFamily([check], G, np.array([float(v)]))
    return int(family.fires(np.array([0]), 0)[0, 0])


def test_threshold_eval_zero_dual_tracks_bayes_rule():
    # at lambda = 0 the check must agree with thresholding the score at 1/2
    dist, _ = make_dist(40, n_cells=6, n_groups=1)
    check = CheckFunction("threshold", (np.zeros(dist.n_groups), _base(dist, "fp")))
    for v, want in ((0.6, 1), (0.4, 0), (0.5, 1)):  # the tie goes positive
        assert _point_fires(check, 1, v, dist.n_groups) == want
        assert eval_point(check, v, bits_from_mask(1, dist.n_groups), v) == want


def test_threshold_eval_equals_best_response_fp(rng):
    # the identity of the check family with the rule, positive denominators
    for trial in range(50):
        dist, _ = make_dist(500 + trial, n_cells=10, n_groups=2, grid_m=30)
        base = _base(dist, "fp")
        lam = rand_lambda(rng, dist.n_groups, 5.0)
        fires = _fires_at_levels([CheckFunction("threshold", (lam, base))], dist,
                                 dist.scores)[0]
        for cell, got in zip(cells_of(dist), fires):
            bits = np.array([(cell.groups >> i) & 1 for i in range(dist.n_groups)])
            S = float(lam @ (bits - base.beta))
            if 2.0 + S <= 0:
                continue
            assert got == decide(lam, "fp", base, cell.score, cell.groups)


def test_threshold_eval_equals_best_response_fn_and_sp(rng):
    for trial in range(20):
        dist, _ = make_dist(600 + trial, n_cells=10, n_groups=2, grid_m=30)
        lam = rand_lambda(rng, dist.n_groups, 5.0)
        base_fn = _base(dist, "fn")
        base_sp = _base(dist, "sp")
        fires_fn, fires_sp = _fires_at_levels(
            [CheckFunction("threshold", (lam, base_fn)),
             CheckFunction("threshold", (lam, base_sp))], dist, dist.scores)
        for cell, got_fn, got_sp in zip(cells_of(dist), fires_fn, fires_sp):
            bits = np.array([(cell.groups >> i) & 1 for i in range(dist.n_groups)])
            if 2.0 + float(lam @ (bits - base_fn.beta)) > 0:
                assert got_fn == decide(lam, "fn", base_fn, cell.score, cell.groups)
            assert got_sp == decide(lam, "sp", base_sp, cell.score, cell.groups)


def test_threshold_eval_monotone_in_v(rng):
    # the acceptance region in v: once the check fires it stays on (FP/FN/SP)
    dist, _ = make_dist(41, n_cells=6, n_groups=2)
    grid = np.linspace(0, 1, 21)
    for notion in ["fp", "fn", "sp"]:
        base = _base(dist, notion)
        for _ in range(20):
            lam = rand_lambda(rng, dist.n_groups, 4.0)
            mask = cells_of(dist)[rng.integers(dist.n_cells)].groups
            check = CheckFunction("threshold", (lam, base))
            vals = [_point_fires(check, mask, v, dist.n_groups) for v in grid]
            bits = bits_from_mask(mask, dist.n_groups)
            assert vals == [eval_point(check, v, bits, v) for v in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_audit_zero_when_scores_are_label_means():
    dist, _ = make_dist(42, n_cells=12, n_groups=2)
    base = _base(dist, "fp")
    checks = default_checks(dist, base, n_random=16, C=5.0, seed=0)
    assignment = assignment_from_scores(dist, dist.grid_m)
    per_check, max_violation = audit(assignment, checks, dist)
    assert max_violation <= 1e-12


def test_audit_constant_check_calibrated_levels():
    system = GroupSystem(("I",))
    # the assignment pools the first two cells into one level whose
    # conditional mean equals the level value
    dist = dist_from_cells(10, system, [
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

    level_of = {c.key(): a for c, a in zip(cells_of(dist), assignment)}
    n = len(rows)
    for check, got in zip(checks, per_check):
        sums = {}
        for score, bits, y in rows:
            mask = sum(b << i for i, b in enumerate(bits))
            v = level_of[(score, mask)]
            if eval_point(check, score, bits, v):
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
    cells = cells_of(dist)
    shuffled = dist_from_cells(dist.grid_m, dist.groups, [cells[i] for i in order])
    per2, _ = audit(assignment[order], checks, shuffled)
    assert np.allclose(per, per2, atol=1e-15)


def test_brier_values():
    system = GroupSystem(("I",))
    dist = dist_from_cells(2, system, [Cell(0.0, 1, 0.5, 0.0), Cell(1.0, 1, 0.5, 1.0)])
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
    system = GroupSystem(("I",))
    dist = dist_from_cells(100, system, [Cell(0.9, 1, 1.0, 0.1)])
    result = calibrate(np.array([0.9]), [CheckFunction("group", 0)], dist, alpha=0.01)
    assert result.rounds == 1
    assert result.assignment[0] == pytest.approx(0.1)
    drop = brier(result.initial_assignment, dist) - result.final_potential
    assert drop == pytest.approx(0.64, abs=1e-12)


def test_default_checks_refuses_an_audit_set_past_the_cap(monkeypatch):
    # (groups + random checks) x cells against MAX_CHECK_CELLS, refused
    # before a check is built; the estimator's fit refuses it too
    _, pert = make_dist(9, n_cells=60, n_groups=3, grid_m=20, miscalibration=0.5)
    size = (pert.n_groups + 16) * pert.n_cells
    monkeypatch.setattr(multical, "MAX_CHECK_CELLS", size)
    assert len(default_checks(pert, _base(pert, "fp"), n_random=16)) == pert.n_groups + 16
    monkeypatch.setattr(multical, "MAX_CHECK_CELLS", size - 1)
    monkeypatch.setattr(multical, "CheckFunction", None)    # building one would fail
    with pytest.raises(ValueError, match=f"audit set too large: {pert.n_groups + 16} "
                                         f"checks x {pert.n_cells} cells > {size - 1}"):
        default_checks(pert, _base(pert, "fp"), n_random=16)
    scores = np.repeat(pert.scores, 2)
    groups = np.repeat(pert.group_matrix.T[:, 1:], 2, axis=0).astype(int)
    y = np.tile([0, 1], pert.n_cells)
    monkeypatch.setattr(multical, "MAX_CHECK_CELLS", 16)    # the random checks alone pass it
    with pytest.raises(ValueError, match="audit set too large"):
        JointMulticalibrator(n_random_checks=16, grid_m=20).fit(scores, groups, y)


def test_calibrate_guarantees_on_miscalibrated_fixture():
    exact, pert = make_dist(9, n_cells=60, n_groups=3, grid_m=20, miscalibration=0.5)
    base = _base(pert, "fp")
    cfg = SolverConfig(notion="fp", gamma=0.01, C=10.0, T=200, record_every=50)
    traj = reference_run_loop(pert, cfg).lambdas[::20][:10]
    checks = default_checks(pert, base, n_random=16, C=10.0, seed=9)
    checks += [CheckFunction("threshold", (lam.copy(), base), name=f"traj[{k}]")
               for k, lam in enumerate(traj)]
    alpha = 0.01
    result = calibrate(pert.scores, checks, pert, alpha)
    assert 0 < result.rounds <= 4 / alpha ** 2

    # replay the patch history and recompute the potential independently
    assign = result.initial_assignment.copy()
    prev = brier(assign, pert)
    for rec in result.history:
        comp = Compiled(checks[rec.check_index], pert)
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
    system = GroupSystem(("I",))
    dist = dist_from_cells(4, system, [
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
        check = CheckFunction("threshold", (lam, base))
        for cell in cells_of(dist):
            S = group_sum(lam, base.beta, cell.groups)
            sums.append(S)
            for v in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                want = S <= -1.0 if v < 0.5 else S >= -1.0 or v == 0.5
                assert _point_fires(check, cell.groups, v, dist.n_groups) == want
                bits = bits_from_mask(cell.groups, dist.n_groups)
                assert eval_point(check, cell.score, bits, v) == want
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
    # the threshold check is the best response, so it audits the sets of the
    # reference's per-point best response; the all-ones group is audited
    # beside it
    dist, _ = make_dist(49, n_cells=40, n_groups=3, grid_m=20, miscalibration=0.3)
    assert (dist.group_matrix[0] == 1.0).all()
    base = _base(dist, "err")
    assignment = assignment_from_scores(dist, dist.grid_m)  # level v = cell score
    assert 0.5 in assignment and (assignment < 0.5).any() and (assignment > 0.5).any()
    for _ in range(20):
        lam = rand_lambda(rng, dist.n_groups, 4.0)
        checks = [CheckFunction("group", 0), CheckFunction("threshold", (lam, base))]
        got, _ = audit(assignment, checks, dist)
        want, _ = _reference_audit(assignment, checks, dist)
        assert got == pytest.approx(want, abs=1e-12)


def test_calibrate_alpha_validation():
    dist, _ = make_dist(47, n_cells=5, n_groups=1)
    with pytest.raises(ValueError, match="alpha"):
        calibrate(dist.scores, [], dist, alpha=0.0)


def test_apply_patches_replays_training_assignment():
    _, pert = make_dist(9, n_cells=30, n_groups=2, grid_m=20, miscalibration=0.5)
    base = _base(pert, "fp")
    checks = default_checks(pert, base, n_random=8, C=5.0, seed=4)
    result = calibrate(pert.scores, checks, pert, alpha=0.02)
    replayed = replay(result, checks, pert.scores, pert.group_matrix)
    assert _bits(replayed) == _bits(result.assignment)
    per_point = np.array([
        apply_patches(cell.score, bits_from_mask(cell.groups, pert.n_groups), result, checks)
        for cell in cells_of(pert)
    ])
    assert _bits(per_point) == _bits(result.assignment)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_replay_is_batch_independent_with_tie_aimed_checks(data):
    # threshold checks scaled so that a cell's group sum lands on its
    # level's threshold up to rounding, where a BLAS product and the
    # ordered sum disagree: replaying the history on the cells gives
    # calibrate's assignment, and on any subset or permutation of the
    # points the entries of the full replay
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    _, dist = make_dist(seed, n_cells=data.draw(st.integers(min_value=4, max_value=30)),
                        n_groups=data.draw(st.integers(1, 3)), grid_m=20, miscalibration=0.4)
    notion = FairnessNotion.coerce(data.draw(st.sampled_from(NOTIONS)))
    alpha = data.draw(st.sampled_from([0.1, 0.05, 0.02]))
    m = math.ceil(1.0 / alpha)
    base = _base(dist, notion)
    rng = np.random.Generator(np.random.PCG64(seed))
    checks = [CheckFunction("group", g) for g in range(dist.n_groups)]
    cells = cells_of(dist)
    for j in rng.integers(dist.n_cells, size=6):
        lam = rand_lambda(rng, dist.n_groups, 4.0)
        s, d = decision_thresholds(np.array([snap_to_grid(dist.scores[j], m)]), notion)
        S = group_sum(lam, base.beta, cells[j].groups)
        if np.isfinite(d[0]) and S != 0.0:
            lam = lam * (s[0] * d[0] / S)  # s*S = d, up to rounding
        checks.append(CheckFunction("threshold", (lam, base)))
    result = calibrate(dist.scores, checks, dist, alpha)

    # the cells, then points of any grid score and membership row
    n = dist.n_cells + 20
    scores = np.concatenate([dist.scores, rng.integers(0, 21, size=20) / 20])
    G = np.concatenate([dist.group_matrix,
                        rng.integers(0, 2, size=(dist.n_groups, 20)).astype(float)], axis=1)
    full = replay(result, checks, scores, G)
    assert _bits(full[:dist.n_cells]) == _bits(result.assignment)
    for pick in (data.draw(st.permutations(range(n))),
                 data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))):
        pick = np.array(pick)
        assert _bits(replay(result, checks, scores[pick], G[:, pick])) == _bits(full[pick])


# ------------------------------------------------ reference: per-round rescan
#
# calibrate and audit as they were before the level tables and the term
# cache: every round evaluates every check on every cell as the best
# response at f = the cell's level and re-reduces every (check, level) set.
# The optimized functions must reproduce them bit for bit.

def _reference_audit(assignment, checks, dist):
    a = np.asarray(assignment, dtype=float)
    q = dist.require_labels()
    m = dist.masses
    per_check = []
    for check in checks:
        cval = Compiled(check, dist).evaluate(a)
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

    compiled = [Compiled(c, dist) for c in checks]
    max_rounds = math.floor(4.0 / (alpha * alpha)) + 1
    history = []
    t = 0
    while True:
        best = None  # (term, v, check_idx, sel)
        worst_sum = 0.0
        for ci, comp in enumerate(compiled):
            cval = comp.evaluate(assign)
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
    traj = reference_run_loop(pert, cfg).lambdas[::20][:10]
    checks = default_checks(pert, base, n_random=16, C=10.0, seed=9)
    checks += [CheckFunction("threshold", (lam.copy(), base), name=f"traj[{k}]")
               for k, lam in enumerate(traj)]
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
    system = GroupSystem(("I", "a", "b"))
    cells = []
    for j, (score, mask) in enumerate(itertools.product(
            (0.0, 0.25, 0.5, 0.75, 1.0), (1, 3, 5, 7))):
        cells.append(Cell(score, mask, 1 / 32 if j % 2 else 1 / 64,
                          (0.25, 0.5, 0.75, 0.5)[j % 4]))
    total = sum(c.mass for c in cells)
    cells = [Cell(c.score, c.groups, c.mass / total, c.label_mean) for c in cells]
    dist = dist_from_cells(4, system, cells)
    checks = [CheckFunction("group", g) for g in (0, 1, 2, 0, 1)]
    checks.append(CheckFunction("threshold", (np.zeros(3), _base(dist, "sp"))))
    for alpha in (0.3, 0.05, 0.01):
        _assert_same_calibration(checks, dist, alpha)


def _singular_level_dist():
    # levels 0, 1/2 and 1 all occupied: d(v) is infinite there for FN, ERR
    # and FP respectively
    system = GroupSystem(("I", "a", "b"))
    scores = (0.0, 0.1, 0.3, 0.5, 0.6, 0.9, 1.0)
    cells = []
    for j, (score, mask) in enumerate(itertools.product(scores, (1, 3, 5, 7))):
        cells.append(Cell(score, mask, 1.0, ((j * 7) % 11) / 10))
    return dist_from_cells(10, system, [
        Cell(c.score, c.groups, 1 / len(cells), c.label_mean) for c in cells])


def test_calibrate_matches_reference_for_every_notion_at_singular_levels():
    dist = _singular_level_dist()
    rng = np.random.Generator(np.random.PCG64(5))
    checks = []
    for notion in NOTIONS:
        base = _base(dist, notion)
        for k in range(6):
            lam = rand_lambda(rng, dist.n_groups, 4.0)
            checks.append(CheckFunction("threshold", (lam, base)))
        checks.append(CheckFunction("threshold", (np.zeros(dist.n_groups), base)))
    for alpha in (0.1, 0.02):  # grids of 10 and 50: 0, 1/2 and 1 are levels
        got = _assert_same_calibration(checks, dist, alpha)
        assert {0.0, 0.5, 1.0} <= set(got.initial_assignment)
    _assert_same_audit(dist.scores, checks, dist)


def test_audit_matches_reference_off_the_grid(rng):
    # audit takes any assignment in [0, 1], not only grid levels
    dist, _ = make_dist(13, n_cells=30, n_groups=2, grid_m=20, miscalibration=0.3)
    checks = default_checks(dist, _base(dist, "fp"), n_random=8, C=5.0, seed=2)
    levels = rng.uniform(size=7)
    assignment = levels[rng.integers(len(levels), size=dist.n_cells)]
    _assert_same_audit(assignment, checks, dist)
    _assert_same_audit(rng.uniform(size=dist.n_cells), checks, dist)


@pytest.mark.parametrize("n", [21, 31])
def test_audit_and_calibrate_reject_one_value_per_cell_mismatch(n):
    # a short assignment once audited only the cells it covered
    dist, _ = make_dist(17, n_cells=26, n_groups=2, miscalibration=0.3)
    assert dist.n_cells == 26
    checks = default_checks(dist, _base(dist, "fp"), n_random=4, seed=0)
    values = np.resize(assignment_from_scores(dist, dist.grid_m), n)
    with pytest.raises(ValueError, match=f"assignment holds {n} values for 26 cells"):
        audit(values, checks, dist)
    with pytest.raises(ValueError, match=f"f_initial holds {n} values for 26 cells"):
        calibrate(values, checks, dist, alpha=0.05)


def test_audit_rejects_levels_outside_unit_interval():
    dist, _ = make_dist(14, n_cells=8, n_groups=1)
    checks = default_checks(dist, _base(dist, "fp"), n_random=2, seed=0)
    with pytest.raises(ValueError, match="v must lie"):
        audit(np.full(dist.n_cells, 1.5), checks, dist)
    with pytest.raises(ValueError, match="v must lie"):
        audit(np.full(dist.n_cells, np.nan), checks, dist)
    zero = [CheckFunction("threshold", (np.zeros(dist.n_groups), _base(dist, "fp")))]
    with pytest.raises(ValueError, match="v must lie"):
        audit(np.full(dist.n_cells, 1.5), zero, dist)
    with pytest.raises(ValueError, match="v must lie"):
        audit(np.full(dist.n_cells, math.nan), zero, dist)


def test_threshold_check_lambdas_must_match_the_group_count():
    # the ordered group sum takes lambda entry i with group row i, so a
    # longer lambda would otherwise lose its last entries without a word
    dist, _ = make_dist(3, n_cells=8, n_groups=2)
    for width in (dist.n_groups - 1, dist.n_groups + 1):
        check = CheckFunction("threshold", (np.ones(width), _base(dist, "fp")))
        with pytest.raises(ValueError, match="lambdas width must match the group count"):
            audit(dist.scores, [check], dist)


@pytest.mark.parametrize("level", [1.5, -0.25, math.nan])
def test_audit_rejects_levels_outside_unit_interval_with_group_checks_alone(level):
    # the levels are checked on entry, not only where a threshold check
    # builds its (s, d) table
    dist, _ = make_dist(14, n_cells=8, n_groups=1)
    with pytest.raises(ValueError, match=r"v must lie in \[0, 1\]"):
        audit(np.full(dist.n_cells, level), [CheckFunction("group", 0)], dist)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NOTIONS), st.integers(min_value=1, max_value=2000),
       st.floats(min_value=0.0, max_value=1.0))
def test_level_table_equals_d_of_v_at_snapped_value(notion, m, x):
    dist, _ = make_dist(15, n_cells=4, n_groups=1)
    notion = FairnessNotion.coerce(notion)
    check = CheckFunction("threshold", (np.zeros(dist.n_groups), _base(dist, notion)))
    family = _CheckFamily([check], dist.group_matrix, np.arange(m + 1) / m)
    s, d = family.tables[notion]
    v = snap_to_grid(x, m)
    k = round(v * m)
    want_s, want_d = decision_thresholds(np.array([v]), notion)
    assert _bits([s[k], d[k]]) == _bits([want_s[0], want_d[0]])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NOTIONS), st.integers(min_value=1, max_value=2000), st.data())
def test_threshold_check_is_the_best_response_bit_for_bit(notion, m, data):
    # the check family's indicator and per-level sets (which audit,
    # calibrate and replay share) are decide_batch at f = the level, ties
    # and 0, 1/2, 1 included, as are the reference's per-cell and per-point
    # forms
    dist, _ = make_dist(16, n_cells=12, n_groups=2)
    unit = st.floats(min_value=0.0, max_value=1.0)
    lam = np.array(data.draw(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                                      min_size=dist.n_groups, max_size=dist.n_groups)))
    beta = np.array(data.draw(st.lists(unit, min_size=dist.n_groups,
                                       max_size=dist.n_groups)))
    base = BaseRates(FairnessNotion.coerce(notion), beta)
    ks = data.draw(st.lists(st.integers(min_value=0, max_value=m),
                            min_size=dist.n_cells - 3, max_size=dist.n_cells - 3))
    levels = np.concatenate([[0.0, 0.5, 1.0], np.array(ks) / m])
    check = CheckFunction("threshold", (lam, base))
    comp = Compiled(check, dist)
    want = decide_batch(comp.S, levels, comp.notion)
    assert _bits(comp.evaluate(levels)) == _bits(want)
    assert _bits(_fires_at_levels([check], dist, levels)[0]) == _bits(want)

    values, k = np.unique(levels, return_inverse=True)
    family = _CheckFamily([check], dist.group_matrix, values)
    for level in range(len(values)):
        idx = np.flatnonzero(k == level)
        sets, which = family.level_sets(idx, level)
        assert np.array_equal(sets[which[0]], idx[want[idx]])
    for cell, v, w in zip(cells_of(dist), levels, want):
        assert eval_point(check, cell.score, bits_from_mask(cell.groups, dist.n_groups), v) == w


def _reference_distinct_sets(assignment, checks, dist):
    """The nonempty (level, selected cell set) pairs of an audit."""
    seen = set()
    for check in checks:
        cval = Compiled(check, dist).evaluate(assignment)
        for v in np.unique(assignment[cval]):
            seen.add((v, tuple(np.flatnonzero(cval & (assignment == v)))))
    return len(seen)


def _check_pool(dist):
    """Both check kinds, threshold checks for all four notions and a
    duplicate of each group check."""
    rng = np.random.Generator(np.random.PCG64(dist.n_cells))
    pool = [CheckFunction("group", g) for g in range(dist.n_groups)] * 2
    for notion in NOTIONS:
        base = _base(dist, notion)
        pool += [CheckFunction("threshold", (rand_lambda(rng, dist.n_groups, 6.0), base))
                 for _ in range(2)]
    return pool


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_level_sets_equal_reference_bit_for_bit(data):
    # level sets of 8 cells and more, where np.sum no longer adds left to
    # right; families with duplicated checks, of every kind, or of one check
    n_levels = data.draw(st.integers(min_value=1, max_value=10))
    n_cells = data.draw(st.integers(min_value=8 * n_levels, max_value=8 * n_levels + 12))
    dist, _ = make_dist(data.draw(st.integers(min_value=0, max_value=10**6)),
                        n_cells=n_cells, n_groups=data.draw(st.integers(1, 3)),
                        grid_m=50, miscalibration=0.4)
    pool = _check_pool(dist)
    family = data.draw(st.sampled_from(["pool", "one", "drawn"]))
    picks = st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    checks = {"pool": pool, "one": [data.draw(st.sampled_from(pool))],
              "drawn": data.draw(picks) if family == "drawn" else None}[family]
    levels = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        min_size=n_levels, max_size=n_levels, unique=True)))
    order = np.random.Generator(np.random.PCG64(n_cells)).permutation(n_cells)
    assignment = levels[order % n_levels]

    counters = {}
    got, got_max = audit(assignment, checks, dist, counters)
    want, want_max = _reference_audit(assignment, checks, dist)
    assert _bits(got) == _bits(want) and _bits(got_max) == _bits(want_max)
    assert counters["distinct_sets"] == _reference_distinct_sets(assignment, checks, dist)

    alpha = data.draw(st.sampled_from([0.1, 0.05, 0.02]))
    got = _assert_same_calibration(checks, dist, alpha, f_initial=assignment)
    assert got.counters["distinct_sets"] <= got.counters["term_updates"]
