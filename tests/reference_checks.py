"""Checks evaluated one point at a time, as `fairpost.multical` evaluated
them before its check family took arrays.

`eval_point` is a check's indicator at one (score, bits, level) point, bits
the point's 0/1 memberships with group 0 first; a threshold check there is
`reference_solver.decide` at f = the level, whose group sum S is the
left-to-right Python sum.  `Compiled` is a check over a
distribution's cells, evaluated at per-cell levels, and `apply_patches` a
calibration history replayed on one point.  The tests require
`multical._CheckFamily` and `multical.replay` to agree with them bit for bit.
"""

import numpy as np

from fairpost.core import CellDistribution, decide_batch
from fairpost.multical import CalibrationResult, CheckFunction

from reference_cells import bits_from_mask, cells_of, mask_from_bits, snap_to_grid
from reference_solver import decide, group_sum


def eval_point(check: CheckFunction, score: float, bits: tuple, v: float) -> int:
    if check.kind == "group":
        return bits[check.payload]
    lam, base = check.payload
    return decide(lam, base.notion, base, v, mask_from_bits(bits))


class Compiled:
    """A check bound to a distribution: a group check's indicator per cell,
    or a threshold check's group sum per cell."""

    def __init__(self, check: CheckFunction, dist: CellDistribution):
        self.fixed = self.S = self.notion = None
        cells = cells_of(dist)
        if check.kind == "threshold":
            lam, base = check.payload
            self.notion = base.notion
            self.S = np.array([group_sum(lam, base.beta, c.groups) for c in cells])
        else:
            self.fixed = np.array([
                eval_point(check, c.score, bits_from_mask(c.groups, dist.n_groups), c.score)
                for c in cells], dtype=bool)

    def evaluate(self, levels: np.ndarray) -> np.ndarray:
        """Indicator per cell, with v set to the cell's level: decide_batch
        at f = v for a threshold check."""
        if self.fixed is not None:
            return self.fixed
        return decide_batch(self.S, levels, self.notion)


def apply_patches(score: float, bits: tuple, result: CalibrationResult, checks) -> float:
    """Replay a calibration history on one (score, bits) point."""
    v = snap_to_grid(float(score), result.grid_m)
    for patch in result.history:
        if v == patch.level and eval_point(checks[patch.check_index], score, bits, v):
            v = patch.v_prime
    return v
