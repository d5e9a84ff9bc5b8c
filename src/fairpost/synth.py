"""Seeded synthetic cell distributions with known conditional label means.

Instances come with exact label means on the score grid, optionally
perturbed scores (controlled miscalibration), intersecting groups, and a
bias profile that makes the unconstrained threshold rule measurably unfair.
Randomness is SplitMix64 so fixtures reproduce bit-for-bit anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .core import (CellDistribution, FairnessNotion, GroupSystem, _group_rows, decide_batch,
                   grid_indices)
from .metrics import true_rates
import numpy as np

__all__ = ["SynthSpec", "SplitMix64", "gen_instance"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_PROFILES = ("uniform", "two_group_bias", "adversarial_overlap")


class SplitMix64:
    """Tiny portable 64-bit generator (SplitMix64, Steele et al. 2014)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def uniforms(self, count: int) -> np.ndarray:
        """The next count uniform() values as one array.

        The generator is counter-based: after k draws the state is
        seed + k * gamma mod 2**64 (Steele, Lea & Flood 2014), so the states
        are one wrapping uint64 multiply-add and the mix runs on the array.
        """
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        self.state = (self.state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(float) / float(1 << 53)

    def randint(self, n: int) -> int:
        return self.next_u64() % n


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    n_cells: int = 8
    n_groups: int = 2            # excluding the all-ones group, always index 0
    grid_m: int = 20
    bias_profile: str = "two_group_bias"
    miscalibration: float = 0.0

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError("n_cells must be at least 1")
        if self.n_groups < 1:
            raise ValueError("n_groups must be at least 1")
        if self.grid_m < 1:
            raise ValueError("grid_m must be at least 1")
        if self.bias_profile not in _PROFILES:
            raise ValueError(f"bias_profile must be one of {_PROFILES}")
        if self.miscalibration < 0:
            raise ValueError("miscalibration must be nonnegative")


def _draw_cells(rng: SplitMix64, spec: SynthSpec) -> List[Tuple[int, int, int]]:
    """(grid index of f*, group mask, integer mass weight) per cell."""
    m = spec.grid_m
    cells = []
    seen = set()
    attempts = 0
    while len(cells) < spec.n_cells:
        attempts += 1
        if attempts > 1000 * spec.n_cells:
            raise RuntimeError("could not draw enough distinct cells")
        mask = 1  # bit 0 is the all-ones group
        if spec.bias_profile == "two_group_bias" and spec.n_groups >= 2:
            # heavy overlap keeps all group masses large
            pattern = rng.randint(3)
            if pattern == 0:
                mask |= 1 << 1
            elif pattern == 1:
                mask |= 1 << 2
            else:
                mask |= (1 << 1) | (1 << 2)
            for g in range(3, spec.n_groups + 1):
                if rng.uniform() < 0.5:
                    mask |= 1 << g
        elif spec.bias_profile == "adversarial_overlap":
            for g in range(1, spec.n_groups + 1):
                if rng.uniform() < 0.7:
                    mask |= 1 << g
        else:
            for g in range(1, spec.n_groups + 1):
                if rng.uniform() < 0.5:
                    mask |= 1 << g

        if spec.bias_profile == "two_group_bias" and spec.n_groups >= 2:
            if mask & 2:  # member of the favored group: higher label mean
                lo, hi = 0.42, 0.95
            else:
                lo, hi = 0.05, 0.58
        elif spec.bias_profile == "adversarial_overlap":
            popcount = bin(mask >> 1).count("1")
            if popcount % 2 == 1:
                lo, hi = 0.5, 0.95
            else:
                lo, hi = 0.05, 0.5
        else:
            lo, hi = 0.05, 0.95
        k_lo, k_hi = round(lo * m), round(hi * m)
        k = k_lo + rng.randint(max(1, k_hi - k_lo + 1))

        if (k, mask) in seen:
            continue
        seen.add((k, mask))
        weight = 1 + rng.randint(100)
        cells.append((k, mask, weight))
    return cells


def _build(spec: SynthSpec, raw: List[Tuple[int, int, int]], scores: List[float],
           names: Tuple[str, ...]) -> CellDistribution:
    """Cells of the drawn rows at the given scores.  Rows with one (score, mask)
    merge, and a cell of one row keeps its label mean k/m exactly."""
    k, masks, weights = zip(*raw)
    weights = np.array(weights)
    mass = weights / weights.sum()
    value = np.array(k) / spec.grid_m
    scores = np.array(scores, dtype=float)
    bits = np.array([[(mask >> i) & 1 for i in range(len(names))] for mask in masks],
                    dtype=np.uint8)
    row, cell_of = _group_rows(grid_indices(scores, spec.grid_m), bits)
    cell_mass = np.bincount(cell_of, weights=mass)
    merged = np.bincount(cell_of, weights=mass * value) / cell_mass
    label_means = np.where(np.bincount(cell_of) == 1, value[row], merged)
    return CellDistribution.from_arrays(spec.grid_m, GroupSystem(names), scores[row],
                                        cell_mass, label_means, bits[row])


def _bayes_fp_violation(dist: CellDistribution) -> float:
    """The false-positive parity violation of the unconstrained rule, lambda = 0."""
    bayes = decide_batch(np.zeros(dist.n_cells), dist.scores, FairnessNotion.FP)
    return true_rates(bayes, dist, FairnessNotion.FP).max_violation


def gen_instance(spec: SynthSpec) -> Tuple[CellDistribution, CellDistribution]:
    """Deterministically generate (exact distribution, perturbed-score twin).

    The exact distribution has scores equal to the label means; the twin
    shifts each score by a uniform perturbation of magnitude
    ``miscalibration`` before snapping back to the grid.  two_group_bias
    retries derived seeds until the unconstrained rule's false-positive
    parity violation exceeds 0.02.
    """
    names = tuple(["I"] + [f"g{i}" for i in range(1, spec.n_groups + 1)])
    for attempt in range(32):
        rng = SplitMix64(spec.seed * 0x9E3779B97F4A7C15 + attempt)
        raw = _draw_cells(rng, spec)
        exact_scores = [k / spec.grid_m for k, _, _ in raw]
        exact = _build(spec, raw, exact_scores, names)
        if spec.miscalibration == 0.0:
            perturbed = exact
        else:
            shift = spec.miscalibration * (2.0 * rng.uniforms(len(raw)) - 1.0)
            x = np.clip(np.array([k for k, _, _ in raw]) / spec.grid_m + shift, 0.0, 1.0)
            noisy = grid_indices(x, spec.grid_m) / spec.grid_m
            perturbed = _build(spec, raw, noisy, names)
        if spec.bias_profile != "two_group_bias":
            return exact, perturbed
        if _bayes_fp_violation(exact) > 0.02:
            return exact, perturbed
    raise RuntimeError(
        "two_group_bias generator could not reach the violation floor in 32 tries")
