"""Cell distributions as they stood before the array representation, and
the cell objects the tests build distributions from.

`CellDistribution` (its `__init__`, accessors and `with_scores_from_labels`)
is verbatim from the per-cell code that `fairpost.core.CellDistribution`
replaced, and `_build` verbatim from the dict merge of `fairpost.synth._build`.
The tests require the array code to give bit-equal `scores`, `masses`,
`label_means` and `group_matrix`, equal cells, and the same rejections.

`Cell` is one (score, group-mask) cell, bit i of the mask set iff the cell
is in group i; `dist_from_cells` builds fairpost's distribution of such
cells through `CellDistribution.from_arrays`, and `cells_of` reads a
distribution's cells back in its order.

`snap_to_grid` is the scalar grid rounding that `fairpost.core.grid_indices`
is tested against: ``grid_indices(x, m) / m`` must equal it bit for bit.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

import fairpost
from fairpost.core import MASS_TOL, GroupSystem
from fairpost.synth import SynthSpec


def snap_to_grid(x: float, m: int) -> float:
    """Round x in [0,1] to the nearest grid point k/m; half values round up."""
    k = math.floor(x * m + 0.5)
    k = min(max(k, 0), m)
    return k / m


@dataclass(frozen=True)
class Cell:
    """One (score, group-mask) atom of probability mass."""

    score: float
    groups: int
    mass: float
    label_mean: Optional[float] = None

    def key(self):
        return (self.score, self.groups)


def mask_from_bits(bits) -> int:
    """Pack a 0/1 membership vector (group 0 first) into an int mask."""
    return sum(int(b) << i for i, b in enumerate(bits))


def bits_from_mask(mask: int, count: int) -> tuple:
    return tuple((mask >> i) & 1 for i in range(count))


def dist_from_cells(grid_m: int, groups: GroupSystem,
                    cells: Sequence[Cell]) -> fairpost.CellDistribution:
    """fairpost's distribution of the cells, in their order; label_means is
    None unless every cell has a label mean."""
    cells = tuple(cells)
    labels = [c.label_mean for c in cells]
    bits = np.array([bits_from_mask(c.groups, groups.count) for c in cells], dtype=np.uint8)
    return fairpost.CellDistribution.from_arrays(
        grid_m, groups, np.array([c.score for c in cells], dtype=float),
        np.array([c.mass for c in cells], dtype=float),
        None if None in labels else np.array(labels, dtype=float),
        bits.reshape(len(cells), groups.count))


def cells_of(dist) -> tuple:
    """A distribution's cells as Cell objects, in its order."""
    masks = [mask_from_bits(b) for b in dist.group_matrix.T.astype(int).tolist()]
    labels = [None] * dist.n_cells if dist.label_means is None else dist.label_means.tolist()
    return tuple(Cell(score, mask, mass, label)
                 for score, mask, mass, label in zip(dist.scores.tolist(), masks,
                                                      dist.masses.tolist(), labels))


class CellDistribution:
    """A probability distribution over (score, group-mask) cells.

    Scores live on the grid {0, 1/m, ..., 1}; cell keys are unique and
    masses sum to one.  Arrays derived from the cells (scores, masses,
    group membership matrix) are precomputed for vectorized consumers.
    """

    def __init__(self, grid_m: int, groups: GroupSystem, cells: Sequence[Cell]):
        if grid_m < 1:
            raise ValueError("grid_m must be a positive integer")
        cells = tuple(cells)
        if not cells:
            raise ValueError("empty dataset")
        keys = [c.key() for c in cells]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (score, groups) cell keys")
        total = math.fsum(c.mass for c in cells)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"cell masses sum to {total!r}, expected 1")
        for c in cells:
            if abs(c.score - snap_to_grid(c.score, grid_m)) > 1e-12:
                raise ValueError(f"score {c.score!r} is not on the 1/{grid_m} grid")
        self.grid_m = grid_m
        self.groups = groups
        self.cells = cells

        self.scores = np.array([c.score for c in cells], dtype=float)
        self.masses = np.array([c.mass for c in cells], dtype=float)
        if all(c.label_mean is not None for c in cells):
            self.label_means = np.array([c.label_mean for c in cells], dtype=float)
        else:
            self.label_means = None
        g = groups.count
        self.group_matrix = np.zeros((g, len(cells)), dtype=float)
        for j, c in enumerate(cells):
            for i in range(g):
                if (c.groups >> i) & 1:
                    self.group_matrix[i, j] = 1.0

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_groups(self) -> int:
        return self.groups.count

    def has_labels(self) -> bool:
        return self.label_means is not None

    def require_labels(self) -> np.ndarray:
        if self.label_means is None:
            raise ValueError("operation requires label_mean on every cell")
        return self.label_means

    def with_scores_from_labels(self) -> "CellDistribution":
        """Replace every cell score by its label_mean snapped to the grid.

        Cells whose new keys collide are merged mass-weightedly.
        """
        q = self.require_labels()
        rows = {}
        for c, qi in zip(self.cells, q):
            key = (snap_to_grid(float(qi), self.grid_m), c.groups)
            mass, wq = rows.get(key, (0.0, 0.0))
            rows[key] = (mass + c.mass, wq + c.mass * qi)
        cells = [
            Cell(score=s, groups=g, mass=mass, label_mean=(wq / mass if mass > 0 else 0.0))
            for (s, g), (mass, wq) in sorted(rows.items())
        ]
        return CellDistribution(self.grid_m, self.groups, cells)



def _build(spec: SynthSpec, raw: List[Tuple[int, int, int]], scores: List[float],
           names: Tuple[str, ...]) -> CellDistribution:
    total = sum(w for _, _, w in raw)
    merged = {}
    for (k, mask, weight), s in zip(raw, scores):
        merged.setdefault((s, mask), []).append((weight / total, k / spec.grid_m))
    cells = []
    for (s, mask), parts in sorted(merged.items()):
        mass = sum(m for m, _ in parts)
        if len(parts) == 1:
            label_mean = parts[0][1]
        else:
            label_mean = sum(m * v for m, v in parts) / mass
        cells.append(Cell(score=s, groups=mask, mass=mass, label_mean=label_mean))
    system = GroupSystem(names)
    return CellDistribution(spec.grid_m, system, cells)

