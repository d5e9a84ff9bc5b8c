"""Dataset ingest and synth sampling as they stood before the array data path.

`read_dataset`, `build_cells` and `_write_dataset` are verbatim from the
row-by-row code that `fairpost.cli.read_dataset`, `fairpost.core.aggregate_cells`
and the vectorized `fairpost.cli.cmd_synth` replaced; `synth_csv` is the old
per-sample `cmd_synth` loop, taking its flags as keyword arguments.  The
tests require the new path to give the same distribution, the same
`InputError` text and the same CSV bytes.
"""

import csv
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from fairpost.cli import InputError, _fmt
from fairpost.core import CellDistribution, GroupSystem
from fairpost.synth import SplitMix64, SynthSpec, gen_instance

from reference_cells import Cell, cells_of, dist_from_cells, mask_from_bits, snap_to_grid


def build_cells(rows: Iterable, grid_m: int,
                group_names: Optional[Sequence[str]] = None) -> CellDistribution:
    """Aggregate raw (score, group bits, optional label) rows into cells.

    Scores are snapped to the nearest 1/grid_m grid point (half up), masses
    are empirical frequencies, and label_mean is the within-cell mean label
    when every row carries one.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("empty dataset")
    if grid_m < 1:
        raise ValueError("grid_m must be a positive integer")

    width = None
    agg = {}
    n_labels = 0
    for idx, row in enumerate(rows):
        score, bits, label = row
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"row {idx}: score {score!r} outside [0, 1]")
        bits = tuple(bits)
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise ValueError(f"row {idx}: inconsistent group vector length")
        key = (snap_to_grid(float(score), grid_m), mask_from_bits(bits))
        cnt, lab_sum, lab_cnt = agg.get(key, (0, 0.0, 0))
        if label is not None:
            if label not in (0, 1):
                raise ValueError(f"row {idx}: label must be 0 or 1")
            lab_sum += label
            lab_cnt += 1
            n_labels += 1
        agg[key] = (cnt + 1, lab_sum, lab_cnt)

    if 0 < n_labels < len(rows):
        raise ValueError("labels must be present on all rows or none")

    n = len(rows)
    cells = []
    for (score, mask), (cnt, lab_sum, lab_cnt) in sorted(agg.items()):
        label_mean = (lab_sum / lab_cnt) if lab_cnt else None
        cells.append(Cell(score=score, groups=mask, mass=cnt / n, label_mean=label_mean))

    if group_names is None:
        group_names = tuple(f"g{i}" for i in range(width))
    return dist_from_cells(grid_m, GroupSystem(tuple(group_names)), cells)


def read_dataset(path: str, grid_m: int) -> Tuple[CellDistribution, bool]:
    """Parse a dataset CSV into a cell distribution.

    Returns (distribution, has_labels).  A synthetic all-ones group I is
    prepended when no column covers every row.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputError(f"cannot open dataset {path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("empty dataset: missing header")
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "id" or header[1] != "score":
            raise InputError("header must start with 'id,score'")
        has_y = len(header) > 2 and header[2] == "y"
        group_cols = list(range(3 if has_y else 2, len(header)))
        group_names = []
        for i in group_cols:
            if not header[i].startswith("g_"):
                raise InputError(f"column {header[i]!r} is not a group column (g_<name>)")
            group_names.append(header[i][2:])
        if not group_cols:
            raise InputError("dataset has no group columns")

        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise InputError(f"row {lineno}: expected {len(header)} fields, got {len(rec)}")
            try:
                score = float(rec[1])
            except ValueError:
                raise InputError(f"row {lineno}: score {rec[1]!r} is not a number")
            if not 0.0 <= score <= 1.0:
                raise InputError(f"row {lineno}: score {score!r} outside [0, 1]")
            label = None
            if has_y:
                if rec[2] not in ("0", "1"):
                    raise InputError(f"row {lineno}: y must be 0 or 1, got {rec[2]!r}")
                label = int(rec[2])
            bits = []
            for i in group_cols:
                if rec[i] not in ("0", "1"):
                    raise InputError(
                        f"row {lineno}: group {header[i]!r} must be 0 or 1, got {rec[i]!r}")
                bits.append(int(rec[i]))
            rows.append((score, tuple(bits), label))

    if not rows:
        raise InputError("empty dataset: no data rows")
    if not any(all(r[1][i] for r in rows) for i in range(len(group_names))):
        all_name = "I" if "I" not in group_names else "_all"
        group_names = [all_name] + group_names
        rows = [(s, (1,) + b, y) for s, b, y in rows]
    try:
        dist = build_cells(rows, grid_m, group_names=tuple(group_names))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return dist, has_y


def _write_dataset(path: Path, rows: List[tuple], group_names: Sequence[str],
                   with_labels: bool) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ["id", "score"] + (["y"] if with_labels else []) + [f"g_{n}" for n in group_names]
        fh.write(",".join(cols) + "\n")
        for i, (score, bits, y) in enumerate(rows):
            rec = [str(i), _fmt(score)]
            if with_labels:
                rec.append(str(y))
            rec.extend(str(b) for b in bits)
            fh.write(",".join(rec) + "\n")


def synth_csv(out, seed, n_cells=8, n_groups=2, grid_m=20, profile="two_group_bias",
              miscalibration=0.0, samples=20000, no_labels=False, exact_scores=False):
    args = SimpleNamespace(seed=seed, n_cells=n_cells, n_groups=n_groups, grid_m=grid_m,
                           profile=profile, miscalibration=miscalibration, samples=samples,
                           no_labels=no_labels, exact_scores=exact_scores)
    out = Path(out)
    spec = SynthSpec(seed=args.seed, n_cells=args.n_cells, n_groups=args.n_groups,
                     grid_m=args.grid_m, bias_profile=args.profile,
                     miscalibration=args.miscalibration)
    exact, perturbed = gen_instance(spec)
    dist = exact if args.exact_scores else perturbed
    rng = SplitMix64((args.seed << 1) ^ 0xD1B54A32D192ED03)
    cum = np.cumsum(dist.masses)
    rows = []
    names = dist.groups.names
    cells = cells_of(dist)
    for _ in range(args.samples):
        u = rng.uniform()
        idx = int(np.searchsorted(cum, u, side="right"))
        idx = min(idx, dist.n_cells - 1)
        cell = cells[idx]
        y = int(rng.uniform() < cell.label_mean)
        bits = tuple((cell.groups >> i) & 1 for i in range(len(names)))
        rows.append((cell.score, bits, y))
    _write_dataset(out, rows, names, with_labels=not args.no_labels)
