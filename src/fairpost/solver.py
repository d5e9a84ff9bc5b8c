"""Primal best-response / dual projected-gradient dynamics over the L1 ball.

The dual player runs additive gradient steps on one nonnegative vector
(lambda+, lambda-) of length 2|G| projected onto the ball of radius C; the
primal player best-responds with a closed-form threshold rule.  The returned
randomized classifier holds one rule per distinct decision pattern on the
cells, weighted by its rounds: there, the uniform mixture over all rounds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from .core import (
    CellDistribution,
    FairnessNotion,
    MixtureClassifier,
    decide_batch,
    decision_thresholds,
    group_sums,
)
from .metrics import (
    _constraint,
    base_rates,
    error_rate,
    rate_terms,
)

__all__ = [
    "SolverConfig",
    "TrajectoryRecord",
    "SolveResult",
    "BudgetExceededError",
    "iteration_budget",
    "sample_size",
    "project_l1",
    "duality_gap",
    "run",
    "run_sampled",
]


class BudgetExceededError(RuntimeError):
    """Raised when T * n_cells would exceed the configured work cap, or the
    auto budget T or a sample size would pass the float range."""


# iteration_budget refuses C below the least C whose square is not 0 (0 rounds), SolverConfig
# below the least C whose theorem slack 1/C + 2/C^2 is finite, so no report holds inf.
C_MIN, C_SLACK_MIN = 1.5717277847026288e-162, 1.0547686614863001e-154


# Speculative blocks of exact runs: the predictor's suffix lengths and lag, the block
# widths and their cap on rows x distinct columns, and the backoff (README "Speculative blocks").
BLOCK_CONTEXT, BLOCK_MAX_LAG, BLOCK_WIDTH, BLOCK_CELLS = (16, 1024), 8192, (32, 4096), 1 << 17
BLOCK_MIN_KEPT, BLOCK_MAX_WAIT = 16, 4096


def _number(name: str, value, whole: bool = False, auto: bool = False):
    """value as a float, or an int when whole; numeric strings are read."""
    if auto and isinstance(value, str) and value == "auto":
        return value
    wanted = ('"auto" or ' if auto else "") + ("a whole number" if whole else "a number")
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
        raise TypeError(f"{name} must be {wanted}, not {value!r}")
    try:
        number = float(value)
    except (ValueError, OverflowError):    # not numeric, or an int past the float range
        number = None
    if number is None or whole and not number.is_integer():
        raise ValueError(f"{name} must be {wanted}, not {value!r}")
    return int(number) if whole else number


@dataclass(frozen=True)
class SolverConfig:
    """The solver's options, every one a CLI config key and an estimator
    parameter: the one statement of their names, defaults and checks.
    __post_init__ reads numeric strings as numbers; eta is "auto" (C /
    sqrt(2|G|T)) or a real, T "auto" (iteration_budget) or a whole number.
    A value of the wrong type raises TypeError and one out of range
    ValueError, naming the field.  The config is frozen, so the checks hold
    for its life; replace() makes a checked copy.
    """

    notion: Union[str, FairnessNotion] = FairnessNotion.FP
    gamma: float = 0.05
    C: float = 10.0
    eta: Union[str, float] = "auto"
    T: Union[str, int] = "auto"
    record_every: int = 100
    work_cap: float = 5e9

    def __post_init__(self):
        try:
            notion = FairnessNotion.coerce(self.notion)
        except ValueError:
            raise ValueError(f"unknown notion {self.notion!r}") from None
        for name, value in (
                ("notion", notion), ("gamma", _number("gamma", self.gamma)),
                ("C", _number("C", self.C)), ("eta", _number("eta", self.eta, auto=True)),
                ("T", _number("T", self.T, whole=True, auto=True)),
                ("record_every", _number("record_every", self.record_every, whole=True)),
                ("work_cap", _number("work_cap", self.work_cap))):
            object.__setattr__(self, name, value)
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be a finite nonnegative number")
        if not C_SLACK_MIN <= self.C < math.inf:
            raise ValueError(f"C must be positive and finite, in [{C_SLACK_MIN!r}, inf)")
        if self.eta != "auto" and not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if self.T != "auto" and self.T < 1:
            raise ValueError("T must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if not self.work_cap > 0:    # NaN too; inf lifts the cap
            raise ValueError("work_cap must be positive")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Round t's err and max |constraint| at its rates, and the dual's L1 norm after it."""
    t: int
    err_hat: float
    max_violation_hat: float
    lambda_l1: float


@dataclass
class SolveResult:
    """One run: the mixture over its distinct rules (its BaseRates are the run's),
    the dual (lambda+, lambda-), (2|G|,), after the last round, and eta."""

    mixture: MixtureClassifier
    final_dual: np.ndarray
    trajectory: List[TrajectoryRecord]
    theorem_bounds: dict
    T: int
    eta: float
    # rounds run, rounds whose step left the L1 ball (project_l1 ran), and
    # distinct decision patterns, the mixture's rules
    counters: dict = field(default_factory=dict)
    # speculative blocks attempted and the rounds they kept
    speculation: dict = field(default_factory=dict)


def iteration_budget(C: float, group_count: int) -> int:
    """Round budget T = ceil(C^2 (C^2 + 4|G|)^2 / 4), and at least 1.  C must
    be at least C_MIN, and a T past the float range raises
    BudgetExceededError."""
    if not C >= C_MIN or group_count < 1:    # NaN too
        raise ValueError(f"C must lie in [{C_MIN!r}, inf) and group_count be >= 1")
    try:
        return max(1, math.ceil(0.25 * C * C * (C * C + 4.0 * group_count) ** 2))
    except OverflowError:
        raise BudgetExceededError(
            f"budget exceeded: T = C^2 (C^2 + 4|G|)^2 / 4 at C = {C!r} passes the float "
            "range; lower C or set T") from None


def sample_size(T: int, group_count: int, epsilon: float, delta: float) -> int:
    """Per-round i.i.d. sample size for epsilon-accurate rate estimates.

    Hoeffding plus a union bound over T rounds and the per-group
    estimates: m = ceil(ln(2 |G| T / delta) / (2 eps^2)).  An m past the
    float range raises BudgetExceededError.
    """
    if T < 1 or group_count < 1:
        raise ValueError("T and group_count must be positive")
    if not (0 < epsilon <= 1 and 0 < delta <= 1):
        raise ValueError("epsilon and delta must lie in (0, 1]")
    try:
        return math.ceil(math.log(2.0 * group_count * T / delta) / (2.0 * epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):    # 2 eps^2 underflows, or m overflows
        raise BudgetExceededError(
            f"budget exceeded: sample size ln(2|G|T/delta) / (2 eps^2) at epsilon = "
            f"{epsilon!r} passes the float range; raise epsilon") from None


def project_l1(v: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection of the dual v = (lambda+, lambda-), (2|G|,),
    onto the L1 ball {x >= 0, sum x <= C}, as the no-regret bound of
    projected gradient steps requires: a new array, equal to v inside the
    ball.  C <= 0 or a negative entry raises ValueError."""
    v = np.array(v, dtype=float)
    if C <= 0:
        raise ValueError("C must be positive")
    if np.any(v < 0):
        raise ValueError("dual variables must be nonnegative")
    if v.sum() > C:
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        # index 0 passes the test in exact arithmetic; an entry past C by
        # about 2**53 can round css - C to css and fail it
        passed = np.nonzero(u * np.arange(1, len(u) + 1) > (css - C))[0]
        rho = passed[-1] if passed.size else 0
        v = np.maximum(v - (css[rho] - C) / (rho + 1.0), 0.0)
    return v


def _resolve_schedule(config: SolverConfig, n_groups: int, n_cells: int):
    T = iteration_budget(config.C, n_groups) if config.T == "auto" else config.T
    if T * n_cells > config.work_cap:
        raise BudgetExceededError(
            f"budget exceeded: T*cells = {T * n_cells:.3g} > work cap "
            f"{config.work_cap:.3g}; lower C or raise work_cap")
    eta = config.C / math.sqrt(2.0 * n_groups * T) if config.eta == "auto" else config.eta
    return T, eta


def _theorem_bounds(C: float, epsilon: float = 0.0) -> dict:
    v = 1.0 / C
    return {
        "err_slack": 2.0 / C + 8.0 * epsilon,
        "violation_slack": 1.0 / C + 2.0 / (C * C) + 8.0 * epsilon / C,
        # equilibrium form (1 + 2v)/C at v = 1/C; coincides with the above
        "violation_slack_equilibrium": (1.0 + 2.0 * v) / C + 8.0 * epsilon / C,
    }


def _run_loop(dist: CellDistribution, config: SolverConfig, sampler=None) -> SolveResult:
    """Primal/dual rounds of one config.  The dual is one array (lambda+,
    lambda-), (2|G|,), stepped, clipped at 0 and, off the ball, projected in
    place; lam_p and lam_m view its halves, and round t plays lam_p - lam_m.
    The best response is the per-cell threshold form of decide_batch: one
    gemv and one compare per round.  The dual step depends only on the 0/1
    decision pattern, so exact-rate runs compute it once per distinct
    pattern and replay recurring patterns in speculative blocks (block);
    sampled rounds recompute it every round.  The mixture holds one rule per
    pattern, weighted by its rounds: the mean of their duals, summed in round
    order (flush), or the first one's where the mean decides otherwise."""
    notion = config.notion
    base = base_rates(dist, notion)
    f = dist.scores
    masses = dist.masses
    G = dist.group_matrix
    n_groups, n_cells = G.shape
    T, eta = _resolve_schedule(config, n_groups, n_cells)

    beta = base.beta
    row = rate_terms(notion, f)
    memb = G - beta[:, None]
    C, gamma = config.C, config.gamma
    sign, thresh = decision_thresholds(f, notion)
    smemb = memb * sign
    # the P distinct membership columns, cell j's S in column inv[j] (ravel: numpy 1.x, 2.x)
    cols, inv = np.unique(memb, axis=1, return_inverse=True)
    inv, P, up, below = inv.ravel(), cols.shape[1], sign > 0, np.nextafter(-thresh, -np.inf)

    def round_terms(h, eval_masses):
        # (dual step for the concatenated (lambda+, lambda-), err_hat, max
        # violation) of one decision pattern; for 0/1 h the rate table gives
        # the reference loop's bits
        h = h.astype(float)
        cons = _constraint(row, h, eval_masses, G, beta)
        step = np.concatenate((eta * (cons - gamma), eta * (-cons - gamma)))
        return step, error_rate(h, f, eval_masses), float(np.abs(cons).max())

    dual = np.zeros(2 * n_groups)    # lambda+ then lambda-, updated in place
    lam_p, lam_m = dual[:n_groups], dual[n_groups:]
    cache = {}    # decision pattern -> terms, pattern id, caps on S and first dual
    # the duals and pattern ids of the rounds since the last flush in buf[:k] and buf_ids[:k]
    buf = np.empty((min(T, 4 * BLOCK_WIDTH[1]), n_groups))
    buf_ids, k = np.empty(len(buf), np.intp), 0
    sums, counts = np.zeros((0, n_groups)), np.zeros(0, np.int64)    # per pattern id
    record_every = config.record_every
    trajectory: List[TrajectoryRecord] = []
    projections = 0
    # every order of summing the 2|G| nonnegative entries lands within a
    # relative (2|G| - 1) eps of their exact sum, so a quick sum at or below
    # l1_safe proves that lam_p.sum() + lam_m.sum() does not exceed C
    l1_safe = C * (1.0 - 16.0 * n_groups * np.finfo(float).eps)

    def miss(key):
        # the terms of a decision pattern not met before, and the caps on (-S, S) per column
        # that its decisions imply: s*S <= d, or -s*S <= nextafter(-d, -inf) where not decided
        nonlocal speculate, next_try
        h, bound = np.frombuffer(key, dtype=bool), np.full((2, P), np.inf)
        np.minimum.at(bound.ravel(), inv + P * (h == up), np.where(h, thresh, below))
        terms = cache[key] = round_terms(h, masses) + (len(cache), bound, lam_p - lam_m)
        if terms[3] > 255:
            speculate, next_try = False, T + 1
        return terms

    def by_id():    # per pattern id: the dual steps, caps on S and (err_hat, max violation)
        return tuple(np.array([v[i] for v in cache.values()]) for i in (0, 4, slice(1, 3)))

    def flush():
        # one 1-D np.add.at per group adds in index order, as np.bincount(ids, weights) does
        nonlocal sums, counts, k
        grow = len(cache) - len(counts)
        sums, counts = np.pad(sums, ((0, grow), (0, 0))), np.pad(counts, (0, grow))
        for g in range(n_groups):
            np.add.at(sums[:, g], buf_ids[:k], buf[:k, g])
        counts += np.bincount(buf_ids[:k], minlength=len(counts))
        k = 0

    def bring_back():
        # the exact L1 test, and the projection, once the quick sum exceeds
        # l1_safe
        nonlocal projections
        if lam_p.sum() + lam_m.sum() > C:
            dual[:] = project_l1(dual, C)
            projections += 1

    # speculative blocks (exact runs): the pattern id of every round (the
    # fourth term of the cached terms; ids past a byte end speculation), the
    # duals after the rounds since the last attempt, and a rolling window
    # with the duals after round t in row t % len(window)
    speculate = sampler is None
    ids, recent, window = bytearray(), [], np.zeros((min(BLOCK_MAX_LAG, T + 1), 2 * n_groups))
    next_try = BLOCK_CONTEXT[0] + 1 if speculate else T + 1
    width, wait, tables, blocks, kept_rounds = BLOCK_WIDTH[0], 1, ([],), 0, 0
    # (round, guessed id) of a block's first failing row whose update held; the loop runs it
    recheck, margin_stops = (0, -1), 0

    def block(n):
        # guess that rounds n + 1.. replay the ids that followed the latest
        # earlier occurrence of the longest recurring suffix of the ids, keep
        # the prefix that the loop's own arithmetic confirms and skip it
        nonlocal next_try, width, wait, tables, blocks, kept_rounds, recheck, k
        window[np.arange(n + 1 - len(recent), n + 1) % len(window)] = recent
        recent.clear()
        lag, size = 0, BLOCK_CONTEXT[0]
        while size <= min(BLOCK_CONTEXT[1], n - 1):
            # a suffix recurring at a shorter one's lag recurs there latest, else further back
            suffix = ids[n - size:]
            if not (lag and suffix == ids[n - size - lag:n - lag]):
                at = ids.rfind(suffix, max(0, n - size - BLOCK_MAX_LAG), n - lag - 1)
                if at < 0:
                    break
                lag = n - size - at
            size *= 2
        w, kept = min(width, BLOCK_WIDTH[1], BLOCK_CELLS // P, T - n), 0
        if lag and w:
            if len(tables[0]) != len(cache):
                tables = by_id()
            pattern = (ids[n - lag:] * (w // lag + 1))[:w]
            guess = np.frombuffer(pattern, np.uint8).astype(np.intp)
            steps = np.take(tables[0], guess, axis=0)
            # duals after rounds n.. n + w: the sequential sums clipped at 0,
            # right where a column stays positive or at 0; where they fail the
            # loop's update, the duals lag rounds back, as a column bouncing
            # off 0 repeats with the ids
            V = np.maximum(np.cumsum(np.concatenate((dual[None], steps)), axis=0), 0.0)
            held = np.maximum(0.0, V[:-1] + steps) == V[1:]
            if not held.all():
                np.copyto(V[1:], window[(n - lag + 1 + np.arange(w) % lag) % len(window)],
                          where=~held.all(axis=0))
                held = np.maximum(0.0, V[:-1] + steps) == V[1:]
            if k + w > len(buf):
                flush()
            lams = np.subtract(V[:-1, :n_groups], V[:-1, n_groups:], out=buf[k:k + w])
            # the rows before the first whose update failed or whose M -+ S passed a cap
            (S, M), caps = _certify(lams, cols), np.take(tables[1], guess, axis=0)
            ok = np.concatenate((held, M - S <= caps[:, 0], M + S <= caps[:, 1]), axis=1)
            miss_at = int(ok.argmin())
            kept = miss_at // ok.shape[1] if not ok.flat[miss_at] else w
            over = np.flatnonzero(V[1:kept + 1].sum(axis=1) > l1_safe)
            if kept < w and not over.size and held[kept].all():
                recheck = (n + kept + 1, int(guess[kept]))
            kept = int(over[0]) + 1 if over.size else kept
        if kept:
            dual[:] = V[kept]
            if over.size:    # the last kept round left the safe line
                bring_back()
                V[kept] = dual
            ids.extend(pattern[:kept])
            buf_ids[k:k + kept], k = guess[:kept], k + kept
            window[np.arange(n + 1, n + kept + 1) % len(window)] = V[1:kept + 1]
            # records of rounds n + 1 + rec: one gather, L1 norms summed as the loop sums them
            rec = np.arange((-n) % record_every, kept, record_every)
            if rec.size:
                halves = V[rec + 1].reshape(len(rec), 2, n_groups).sum(axis=2)
                trajectory.extend(map(TrajectoryRecord, (n + 1 + rec).tolist(),
                                      *tables[2][guess[rec]].T.tolist(),
                                      (halves[:, 0] + halves[:, 1]).tolist()))
        blocks, kept_rounds = blocks + 1, kept_rounds + kept
        width = max(BLOCK_WIDTH[0], 2 * kept)
        wait = 1 if kept >= BLOCK_MIN_KEPT else min(2 * wait, BLOCK_MAX_WAIT)
        next_try = n + kept + wait
        return kept

    zeros, t = np.zeros(2 * n_groups), 0
    while t < T:
        t += 1
        if k == len(buf):
            flush()
        lam = np.subtract(lam_p, lam_m, out=buf[k])
        h = lam @ smemb <= thresh

        key = h.tobytes()
        row_terms = cache.get(key) or miss(key)
        buf_ids[k], k = row_terms[3], k + 1
        margin_stops += t == recheck[0] and row_terms[3] == recheck[1]
        if sampler is not None:
            row_terms = round_terms(h, sampler(t))

        # max(0, dual + step); an array of zeros skips converting the
        # scalar 0.0 each call and gives the same bits
        np.maximum(zeros, dual + row_terms[0], out=dual)
        values = dual.tolist()
        if sum(values) > l1_safe:
            bring_back()
            values = dual.tolist()
        if speculate:
            ids.append(row_terms[3])
            recent.append(values)

        if (t - 1) % record_every == 0:
            trajectory.append(TrajectoryRecord(
                t, row_terms[1], row_terms[2], float(lam_p.sum() + lam_m.sum())))

        if t >= next_try:
            t += block(t)

    flush()
    rules = sums / counts[:, None]
    # one pass over the K candidates, through the mixture's own ordered sum
    patterns = np.frombuffer(b"".join(cache), bool).reshape(len(cache), n_cells)
    off = (decide_batch(group_sums(rules, beta, G), f, notion) != patterns).any(axis=1)
    if off.any():
        rules[off] = np.array([v[5] for v in cache.values()])[off]
    return SolveResult(
        mixture=MixtureClassifier(rules, base, counts),
        final_dual=dual,
        trajectory=trajectory,
        theorem_bounds=_theorem_bounds(C),
        T=T,
        eta=eta,
        counters={"rounds": T, "projections": projections, "distinct_decisions": len(cache)},
        speculation={"blocks": blocks, "speculated_rounds": kept_rounds, "columns": P,
                     "margin_stops": margin_stops},
    )


def _certify(lams, cols):
    """S = lams @ cols and M >= |the loop's gemv - s*S| on a column's cells, 0 on a zero row: any
    order of summing |G| products is within gamma_|G| sum |lam_g m_g| of exact (Higham 3.1)."""
    X = np.abs(lams) @ np.abs(cols)
    return lams @ cols, X * (2 * len(cols) * np.finfo(float).eps) + (X > 0) * np.finfo(float).tiny


def duality_gap(mixture: MixtureClassifier, dist: CellDistribution,
                gamma: float, C: float) -> float:
    """Upper minus lower bound on the value of the C-bounded Lagrangian game
    on dist (f = its scores), from the mixture's rules alone (the uniform
    mixture over the first t rounds' duals gives round t's); it bounds
    err(mixture) - OPT from above.  Upper: the mixture's positive
    probabilities p against the best vertex of the dual ball, err(p) +
    C max(0, max|c(p)| - gamma).  Lower: the dual function at the weighted
    mean dual lam, err(h) + lam . c(h) - gamma |lam|_1 at its best response h."""
    base, f, masses, G = mixture.base, dist.scores, dist.masses, dist.group_matrix
    row = rate_terms(base.notion, f)
    p = mixture.positive_prob_vector(dist)
    cons = _constraint(row, p, masses, G, base.beta)
    upper = error_rate(p, f, masses) + C * max(0.0, float(np.abs(cons).max()) - gamma)
    lam = np.average(mixture.lambdas, axis=0, weights=mixture.weights)
    h = decide_batch(lam @ (G - base.beta[:, None]), f, base.notion).astype(float)
    cons_h = _constraint(row, h, masses, G, base.beta)
    lower = error_rate(h, f, masses) + float(lam @ cons_h) - gamma * float(np.abs(lam).sum())
    return upper - lower


def run(dist: CellDistribution, config: SolverConfig) -> SolveResult:
    """Run the full deterministic dynamics over exact cell expectations, with
    f = the cell scores (dist.with_scores_from_labels() puts the labels there)."""
    return _run_loop(dist, config)


def run_sampled(population: CellDistribution, sampler_seed: int,
                config: SolverConfig, epsilon: float, delta: float) -> SolveResult:
    """Dynamics with each round's rates estimated from a fresh i.i.d. sample,
    round by round: round t's sample is the t-th multinomial(m, masses) draw
    of PCG64(sampler_seed), m = sample_size(T, |G|, epsilon, delta), so a
    replay of that stream, with the rounds' duals, recovers each round's rates.
    An m past the int64 range raises BudgetExceededError before any round.
    The theorem slacks widen by the 8*epsilon terms.
    """
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    n_groups, n_cells = population.group_matrix.shape
    T, _ = _resolve_schedule(config, n_groups, n_cells)
    m = sample_size(T, n_groups, epsilon, delta)
    if m > np.iinfo(np.int64).max:    # the most one multinomial draw takes
        raise BudgetExceededError(f"budget exceeded: sample size {m:.3g} at epsilon = "
                                  f"{epsilon!r} passes the int64 range; raise epsilon")
    rng = np.random.Generator(np.random.PCG64(sampler_seed))
    masses = population.masses / population.masses.sum()

    def sampler(_t: int) -> np.ndarray:
        counts = rng.multinomial(m, masses)
        return counts / m

    result = _run_loop(population, config, sampler=sampler)
    result.theorem_bounds = _theorem_bounds(config.C, epsilon)
    return result
