"""Command-line surface: dataset ingestion, solve/sweep/audit/calibrate/synth/eval.

Datasets are CSV files with header ``id,score[,y],g_<name>...`` (UTF-8,
comma-separated, dot decimal, LF or CRLF).  Exit codes: 0 success, 1 input
error, 2 guarantee miss, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import array
import csv
import gc
import hashlib
import io
import json
import resource
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core import (
    CellDistribution,
    FairnessNotion,
    MixtureClassifier,
    BaseRates,
    _check_grid,
    aggregate_cells,
    build_cells,  # noqa: F401  (bench/spans.py traces it by this name)
)
from .metrics import base_rates, constraint_vector, surrogate_error, true_rates
from .multical import (assignment_from_scores, audit, brier, calibrate, default_checks,
                       round_cap)
from .oracle import InfeasibleError, enumerate_optimum
from .solver import BudgetExceededError, SolverConfig, run
from .synth import SplitMix64, SynthSpec, gen_instance

__all__ = ["main"]

TRAJECTORY_SCHEMA = "# schema: fairpost.trajectory.v1"
PARETO_SCHEMA = "# schema: fairpost.pareto.v1"
HISTORY_SCHEMA = "# schema: fairpost.calibration-history.v1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARANTEE = 2
EXIT_BUDGET = 3

# solve's exit code 2 fires when the reported violation exceeds gamma plus
# the theorem's slack by more than this
GUARANTEE_TOL = 0.01


class InputError(ValueError):
    pass


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


# ---------------------------------------------------------------- datasets

# Bytes per read of the array parser; each chunk is cut after its last newline.
_CHUNK = 1 << 20
# Longest score token the array parser gathers; longer ones take the row loop.
_MAX_SCORE_TOKEN = 32


class _Decline(Exception):
    """The array parser leaves this input to the row loop."""


def _columns(header: Sequence[str]) -> Tuple[bool, List[str]]:
    """(has_y, group names) of a dataset header."""
    header = [h.strip() for h in header]
    if len(header) < 2 or header[0] != "id" or header[1] != "score":
        raise InputError("header must start with 'id,score'")
    has_y = len(header) > 2 and header[2] == "y"
    group_names = []
    for name in header[3 if has_y else 2:]:
        if not name.startswith("g_"):
            raise InputError(f"column {name!r} is not a group column (g_<name>)")
        group_names.append(name[2:])
    if not group_names:
        raise InputError("dataset has no group columns")
    return has_y, group_names


def _parse_chunk(data: bytes, n_cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """(scores, flags) of the rows in data, which ends with a newline; flags
    holds the y and group columns as uint8 0/1.  Raises _Decline on anything
    the row loop must judge, errors included."""
    buf = np.frombuffer(data + bytes(_MAX_SCORE_TOKEN), np.uint8)
    ends = np.flatnonzero((buf == 44) | (buf == 10))  # each field's "," or "\n"
    n = data.count(b"\n")
    if len(ends) != n * n_cols:
        raise _Decline
    ends = ends.reshape(n, n_cols)
    if not (buf[ends[:, -1]] == 10).all():
        raise _Decline
    # y and group tokens: one byte each, "0" or "1"
    flags = buf[ends[:, 2:] - 1] - np.uint8(48)
    if not ((np.diff(ends[:, 1:], axis=1) == 2).all() and (flags <= 1).all()):
        raise _Decline
    # scores: each distinct token goes through float(), as in the row loop
    start = ends[:, 0] + 1
    length = ends[:, 1] - start
    width = int(length.max())
    if not 0 < width <= _MAX_SCORE_TOKEN:
        raise _Decline
    width = -(-width // 8) * 8  # NUL-padded to whole words; 8 bytes sort as one uint64
    tokens = np.lib.stride_tricks.sliding_window_view(buf, width)[start]
    tokens[np.arange(width) >= length[:, None]] = 0
    words = tokens.view(np.uint64 if width == 8 else f"S{width}").reshape(-1)
    distinct, inverse = np.unique(words, return_inverse=True)
    try:
        values = np.array([float(t.decode()) for t in distinct.view(f"S{width}").tolist()])
    except ValueError:
        raise _Decline from None
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise _Decline
    return values[inverse], flags


def _read_arrays(fh, digest) -> tuple:
    """(scores, bits, labels or None, group names) by the array parser.

    Reads _CHUNK bytes at a time and keeps a float score and one byte per
    y/group column for each row.  Declines (raises _Decline) on non-ASCII
    bytes (a BOM included), a quote, CR, NUL, a blank line, a score token
    longer than _MAX_SCORE_TOKEN, and any row the row loop would reject.
    """
    header, carry = None, b""
    scores, flags = [], []
    while True:
        block = fh.read(_CHUNK)
        digest.update(block)
        data = carry + block
        if block:
            cut = data.rfind(b"\n") + 1
            data, carry = data[:cut], data[cut:]
        elif data:
            data, carry = data + b"\n", b""  # a last row without its newline
        if data:
            if (not data.isascii() or b'"' in data or b"\r" in data or b"\0" in data
                    or data.startswith(b"\n") or b"\n\n" in data):
                raise _Decline
            if header is None:
                line, _, data = data.partition(b"\n")
                header = line.decode("ascii").split(",")
                has_y, group_names = _columns(header)
        if data:
            chunk_scores, chunk_flags = _parse_chunk(data, len(header))
            scores.append(chunk_scores)
            flags.append(chunk_flags)
        if not block:
            break
    if not scores:
        raise _Decline
    flags = np.concatenate(flags)
    return (np.concatenate(scores), flags[:, 1:] if has_y else flags,
            flags[:, 0] if has_y else None, group_names)


def _read_rows(fh, digest) -> tuple:
    """(scores, bits, labels or None, group names) by the csv row loop.

    The path for inputs the array parser declines; every bad input fails
    here with its row number.
    """
    data = fh.read()
    digest.update(data)
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                            errors="surrogateescape", newline="")

    def records():
        # bytes that are not UTF-8 arrive as lone surrogates
        for row, rec in enumerate(csv.reader(text), start=1):
            try:
                ",".join(rec).encode("utf-8")
            except UnicodeEncodeError as exc:
                bad = exc.object[exc.start:exc.end].encode("utf-8", "surrogateescape")
                raise InputError(f"row {row}: bytes {bad!r} are not valid UTF-8") from None
            yield rec

    reader = records()
    lineno = 0
    scores, bits, labels = array.array("d"), array.array("B"), array.array("B")
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("empty dataset: missing header")
        lineno = 1
        has_y, group_names = _columns(header)
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
            if has_y:
                if rec[2] not in ("0", "1"):
                    raise InputError(f"row {lineno}: y must be 0 or 1, got {rec[2]!r}")
                labels.append(int(rec[2]))
            flags = rec[3 if has_y else 2:]
            for name, flag in zip(group_names, flags):
                if flag not in ("0", "1"):
                    raise InputError(
                        f"row {lineno}: group {'g_' + name!r} must be 0 or 1, got {flag!r}")
            scores.append(score)
            bits.extend(map(int, flags))
    except csv.Error as exc:
        raise InputError(f"row {lineno + 1}: {exc}") from None
    if not scores:
        raise InputError("empty dataset: no data rows")
    return (np.frombuffer(scores), np.frombuffer(bits, np.uint8).reshape(len(scores), -1),
            np.frombuffer(labels, np.uint8) if has_y else None, group_names)


def read_dataset(path: str, grid_m: int, source: Optional[dict] = None) -> CellDistribution:
    """Parse a dataset CSV into a cell distribution, whose label_means is
    None when the file has no y column.

    A synthetic all-ones group I is prepended when no column covers every
    row.  The array parser reads the file; what it declines, the csv row
    loop reads again from the start.  source, if given, receives the input
    summary: "sha256" of the bytes parsed, "rows", "cells" and "parser"
    ("array" or "rows").
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot open dataset {path!r}: {exc}") from exc
    with fh:
        digest = hashlib.sha256()
        try:
            parsed, parser = _read_arrays(fh, digest), "array"
        except _Decline:
            fh.seek(0)
            digest = hashlib.sha256()
            parsed, parser = _read_rows(fh, digest), "rows"
    scores, bits, labels, group_names = parsed
    if not bits.all(axis=0).any():
        group_names = ["I" if "I" not in group_names else "_all"] + group_names
        bits = np.column_stack([np.ones(len(bits), dtype=bits.dtype), bits])
    try:
        dist = aggregate_cells(scores, bits, labels, grid_m, group_names)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if source is not None:
        source.update(sha256=digest.hexdigest(), rows=len(scores), cells=dist.n_cells,
                      parser=parser)
    return dist


# ---------------------------------------------------------------- manifests

def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, schema: str, header: str, rows) -> None:
    """A CSV output: its schema comment line, its header, then one line per
    row string."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{schema}\n{header}\n")
        fh.writelines(f"{row}\n" for row in rows)


class _Run:
    """One command's run: its output directory, its stage clock and its input
    summary.  Stages run back to back from construction, so the timings add
    up to the command's wall time.  The directory is made with the first
    output, so a refused command leaves none behind."""

    def __init__(self, out_dir: str):
        self._last = time.perf_counter()
        self.timings, self.source = {}, {}
        self.dir = Path(out_dir)

    def file(self, name: str) -> Path:
        """The path of output name, in the directory, which this makes."""
        self.dir.mkdir(parents=True, exist_ok=True)
        return self.dir / name

    def stage(self, name: str) -> None:
        """Record the time since the previous stage as stage name."""
        now = time.perf_counter()
        self.timings[name] = now - self._last
        self._last = now

    def read(self, path: str, grid_m: int) -> CellDistribution:
        dist = read_dataset(path, grid_m, self.source)
        self.stage("parse")
        return dist

    def finish(self, command: str, config: dict, outputs: List[str], **extra) -> None:
        """Write manifest.json, after the stage "write"; extra adds keys.
        peak_rss_mb is the process's peak RSS so far."""
        for name in outputs:
            if not (self.dir / name).exists():
                raise RuntimeError(f"manifest names missing output {name!r}")
        gc.collect(0)    # here, so no collection pauses the unstaged manifest write
        self.stage("write")
        _write_json(self.file("manifest.json"), {
            "command": command,
            "config": config,
            "input_sha256": self.source["sha256"],
            "input": {key: self.source[key] for key in ("rows", "cells", "parser")},
            "version": __version__,
            "timings_seconds": self.timings,
            "outputs": outputs,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **extra,
        })


# ---------------------------------------------------------------- config

# The config-file keys and defaults: the solver's options and the score grid.
_CONFIG_DEFAULTS = {**{f.name: f.default for f in fields(SolverConfig)}, "grid_m": 100}


def _load_config(args) -> dict:
    """The defaults, overridden by the --config file, overridden by flags."""
    config = dict(_CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InputError(f"config must be a JSON object, not {type(loaded).__name__}")
        for key in loaded:
            if key not in config:
                raise InputError(f"unknown config key {key!r}")
        config.update(loaded)
    config.update({key: flag for key in config if (flag := getattr(args, key, None)) is not None})
    try:    # refused here, before any input is read
        _check_grid(config["grid_m"])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return config


def _solver_config(config: dict) -> SolverConfig:
    try:
        return SolverConfig(**{key: value for key, value in config.items() if key != "grid_m"})
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


# ---------------------------------------------------------------- solve

MIXTURE_SCHEMA = "fairpost.mixture.v3"


def _mixture_payload(mixture: MixtureClassifier, dist: CellDistribution,
                     gamma: float) -> dict:
    """The mixture.json document: the mixture's K rules, each a list of
    n_groups lambdas, and their K integer weights, as plain JSON numbers
    (exact ties always decide 1)."""
    return {
        "schema": MIXTURE_SCHEMA,
        "notion": mixture.notion.value,
        "gamma": gamma,
        "grid_m": dist.grid_m,
        "group_names": list(dist.groups.names),
        "beta": [float(b) for b in mixture.base.beta],
        "rules": mixture.lambdas.tolist(),
        "weights": mixture.weights.tolist(),
    }


def _numbers(values, name: str) -> np.ndarray:
    """A JSON list as a float array; its entries must be ints or floats, so
    strings and true/false are refused rather than parsed."""
    if isinstance(values, list) and not set(map(type, values)) <= {int, float}:
        raise ValueError(f"{name} must be numbers")
    return np.array(values, dtype=float)


def _rules(rules, width: int) -> np.ndarray:
    """The (K, width) lambdas of a JSON list of K rules of width numbers."""
    if not (isinstance(rules, list) and all(isinstance(r, list) and len(r) == width
                                            for r in rules)):
        raise ValueError(f"rules must be a list of rules, each one number per group ({width})")
    return _numbers([x for rule in rules for x in rule], "rules").reshape(len(rules), width)


def load_mixture(path: str) -> Tuple[MixtureClassifier, dict]:
    """Load a mixture.json of schema v3, and return it with its document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read mixture {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"bad mixture: bytes {exc.object[exc.start:exc.end]!r} at offset "
                         f"{exc.start} are not valid UTF-8") from None
    if not isinstance(payload, dict):
        raise InputError("bad mixture: the document must be a JSON object")
    schema = payload.get("schema")
    if schema != MIXTURE_SCHEMA:
        raise InputError(f"bad mixture: schema {schema!r} is not {MIXTURE_SCHEMA}; "
                         "re-run solve to write one")
    for key in ("notion", "beta", "grid_m", "group_names", "rules", "weights"):
        if key not in payload:
            raise InputError(f"bad mixture: missing field {key!r}")
    grid_m, names, weights = payload["grid_m"], payload["group_names"], payload["weights"]
    gamma = payload.get("gamma", 0.0)
    if type(grid_m) is not int or grid_m < 1:
        raise InputError("bad mixture: grid_m must be a positive integer")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise InputError("bad mixture: group_names must be a list of strings")
    if type(gamma) not in (int, float) or not 0.0 <= gamma <= sys.float_info.max:
        raise InputError("bad mixture: gamma must be a nonnegative number")
    if not isinstance(weights, list) or not all(type(w) is int for w in weights):
        raise InputError("bad mixture: weights must be a list of integers")
    try:
        base = BaseRates(payload["notion"], _numbers(payload["beta"], "beta"))
        mixture = MixtureClassifier(_rules(payload["rules"], len(base.beta)), base, weights)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad mixture: {exc}") from exc
    if len(names) != len(base.beta):
        raise InputError("bad mixture: group_names and beta differ in length")
    return mixture, payload


def _evaluate(mixture: MixtureClassifier, dist: CellDistribution):
    """(err_hat, per-group constraint values, true RateReport or None) of a
    mixture: error and constraints at f = the scores, true rates on labels."""
    p = mixture.positive_prob_vector(dist)
    cons = constraint_vector(p, dist, mixture.notion, mixture.base)
    true = None if dist.label_means is None else true_rates(p, dist, mixture.notion)
    return surrogate_error(p, dist), cons, true


def _solve_report(result, dist: CellDistribution, gamma: float) -> Tuple[dict, int]:
    err_hat, cons, rep = _evaluate(result.mixture, dist)
    bounds = result.theorem_bounds
    threshold = gamma + bounds["violation_slack"] + GUARANTEE_TOL
    max_viol = float(np.abs(cons).max())
    report = {
        "notion": result.mixture.notion.value,
        "gamma": gamma,
        "err_hat": err_hat,
        "per_group_constraint_abs": {
            name: abs(float(v)) for name, v in zip(dist.groups.names, cons)},
        "max_violation_hat": max_viol,
        "theorem_bounds": bounds,
        "iterations": result.T,
        "eta": result.eta,
        "guarantee_threshold": threshold,
    }
    if rep is not None:
        report["true"] = {"err": rep.err, "max_violation": rep.max_violation,
                          "violation_by_group": dict(zip(dist.groups.names,
                                                         rep.violation_by_group.tolist()))}
    # the gate watches the surrogate constraint report; true-rate transfer
    # additionally needs a calibrated score function
    report["guarantee_ok"] = max_viol <= threshold
    return report, EXIT_OK if report["guarantee_ok"] else EXIT_GUARANTEE


def _solve(dist: CellDistribution, config: SolverConfig):
    try:
        return run(dist, config)    # main reports BudgetExceededError
    except ValueError as exc:    # degenerate base rates
        raise InputError(str(exc)) from exc


def cmd_solve(args) -> int:
    frame = _Run(args.out_dir)
    config = _load_config(args)
    solver_config = _solver_config(config)
    dist = frame.read(args.dataset, config["grid_m"])
    result = _solve(dist, solver_config)
    frame.stage("solve")
    report, code = _solve_report(result, dist, solver_config.gamma)
    report["exit_code"] = code
    frame.stage("report")
    mixture_path = frame.file("mixture.json")
    _write_json(mixture_path, _mixture_payload(result.mixture, dist, solver_config.gamma))
    frame.stage("write_mixture")
    # the last column stays empty: the solver keeps no per-round gap
    _write_csv(frame.file("trajectory.csv"), TRAJECTORY_SCHEMA,
               "t,err_hat,max_violation_hat,lambda_l1,duality_gap_estimate",
               (f"{rec.t},{_fmt(rec.err_hat)},{_fmt(rec.max_violation_hat)},"
                f"{_fmt(rec.lambda_l1)}," for rec in result.trajectory))
    _write_json(frame.file("report.json"), report)
    frame.finish("solve", config, ["mixture.json", "trajectory.csv", "report.json"],
                 theorem_bounds=result.theorem_bounds, counters=result.counters,
                 speculation=result.speculation,
                 mixture_bytes=mixture_path.stat().st_size)
    return code


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    frame = _Run(args.out_dir)
    config = _load_config(args)
    try:
        gammas = sorted(float(g) for g in args.gammas.split(","))
    except ValueError:
        raise InputError("--gammas must be a comma-separated list of numbers") from None
    configs = [_solver_config({**config, "gamma": g}) for g in gammas]
    dist = frame.read(args.dataset, config["grid_m"])
    # one run per gamma, failing as solve fails
    rows, counters = [], []
    for solver_config in configs:
        gamma, result = solver_config.gamma, _solve(dist, solver_config)
        counters.append({"gamma": gamma, **result.counters, "speculation": result.speculation})
        err_hat, cons, rep = _evaluate(result.mixture, dist)
        if rep is None:
            rows.append((gamma, err_hat, None, float(np.abs(cons).max())))
        else:
            rows.append((gamma, err_hat, rep.err, rep.max_violation))
    frame.stage("sweep")
    # status is always "ok": a failed run fails the sweep
    _write_csv(frame.file("pareto.csv"), PARETO_SCHEMA,
               "gamma,err_hat,true_err,max_violation,status",
               (",".join(map(_fmt, row)) + ",ok" for row in rows))
    outputs = ["pareto.csv"]
    if args.svg:
        _write_pareto_svg(frame.file("pareto.svg"), [row[:2] for row in rows])
        outputs.append("pareto.svg")
    frame.finish("sweep", config, outputs, counters=counters)
    return EXIT_OK


def _write_pareto_svg(path: Path, pts) -> None:
    """The (gamma, err_hat) points as a polyline."""
    width, height, pad = 480, 320, 40
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(ys), max(ys)
    xs_span = (x1 - x0) or 1.0
    ys_span = (y1 - y0) or 1.0
    coords = [
        (pad + (x - x0) / xs_span * (width - 2 * pad),
         height - pad - (y - y0) / ys_span * (height - 2 * pad))
        for x, y in pts
    ]
    polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    circles = "".join(
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="steelblue"/>' for x, y in coords)
    legend = f"gamma in [{min(xs):g}, {max(xs):g}]"
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<polyline fill="none" stroke="steelblue" points="{polyline}"/>{circles}'
        f'<text x="{width//2}" y="{height-8}" text-anchor="middle" font-size="12">gamma</text>'
        f'<text x="12" y="{height//2}" font-size="12" transform="rotate(-90 12 {height//2})">error</text>'
        f'<text x="{width-pad}" y="{pad}" text-anchor="end" font-size="12">{legend}</text>'
        "</svg>\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


# ---------------------------------------------------------------- audit / calibrate

def _audit_set(frame: _Run, args) -> tuple:
    """(dist, checks, manifest config) of audit and calibrate: the labeled
    dataset and its audit set, which are refused on unlabeled data."""
    dist = frame.read(args.dataset, args.grid_m)
    if dist.label_means is None:
        raise InputError(f"{args.command} requires labeled data (y column)")
    try:
        base = base_rates(dist, FairnessNotion.FP, "from_labels")
        checks = default_checks(dist, base, n_random=args.n_random_checks, C=args.check_C,
                                seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    frame.stage("checks")
    return dist, checks, {"grid_m": args.grid_m, "n_random_checks": args.n_random_checks,
                          "check_C": args.check_C, "seed": args.seed}


def cmd_audit(args) -> int:
    frame = _Run(args.out_dir)
    dist, checks, config = _audit_set(frame, args)
    counters = {}
    per_check, max_violation = audit(assignment_from_scores(dist, args.grid_m), checks, dist,
                                     counters)
    frame.stage("audit")
    frame.timings["calibrate"] = 0.0    # the scores are audited as they are
    _write_json(frame.file("audit.json"), {
        "max_violation": max_violation,
        "per_check": [{"name": c.name or c.kind, "kind": c.kind, "violation": v}
                      for c, v in zip(checks, per_check)],
    })
    counters.update(checks=len(checks), patch_rounds=0)
    frame.finish("audit", config, ["audit.json"], counters=counters)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    try:
        cap = round_cap(args.alpha)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    frame = _Run(args.out_dir)
    dist, checks, config = _audit_set(frame, args)
    try:
        result = calibrate(dist.scores, checks, dist, args.alpha)
    except ValueError as exc:    # a level table past its cap
        raise InputError(str(exc)) from exc
    frame.stage("calibrate")
    post = {}
    per_check, max_violation = audit(result.assignment, checks, dist, post)
    frame.stage("audit")
    _write_csv(frame.file("calibration_history.csv"), HISTORY_SCHEMA,
               "round,check,level,v_tilde,v_prime,potential,mass",
               (f"{rec.round},{checks[rec.check_index].name or checks[rec.check_index].kind},"
                f"{_fmt(rec.level)},{_fmt(rec.v_tilde)},{_fmt(rec.v_prime)},"
                f"{_fmt(rec.potential)},{_fmt(rec.mass)}" for rec in result.history))
    _write_json(frame.file("calibration.json"), {
        "alpha": args.alpha,
        "rounds": result.rounds,
        "round_cap": cap,
        "initial_potential": brier(result.initial_assignment, dist),
        "final_potential": result.final_potential,
        "post_audit_max_violation": max_violation,
    })
    # term_updates and distinct_sets: the calibration's plus the post-audit's
    counters = {"checks": len(checks), "levels": result.counters["levels"],
                "patch_rounds": result.rounds,
                "term_updates": result.counters["term_updates"] + post["term_updates"],
                "distinct_sets": result.counters["distinct_sets"] + post["distinct_sets"]}
    frame.finish("calibrate", {"alpha": args.alpha, **config},
                 ["calibration_history.csv", "calibration.json"], counters=counters)
    return EXIT_OK


# ---------------------------------------------------------------- synth / eval

# Rows per write of the synth CSV.
_WRITE_ROWS = 1 << 16


def cmd_synth(args) -> int:
    if args.samples < 0:
        raise InputError("samples must be nonnegative")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        spec = SynthSpec(seed=args.seed, n_cells=args.n_cells, n_groups=args.n_groups,
                         grid_m=args.grid_m, bias_profile=args.profile,
                         miscalibration=args.miscalibration)
        exact, perturbed = gen_instance(spec)
    except (ValueError, RuntimeError) as exc:
        raise InputError(str(exc)) from exc
    dist = exact if args.exact_scores else perturbed
    cum_mass = np.cumsum(dist.masses)
    # sample i draws its cell, then its label: uniforms 2i and 2i + 1 of one stream
    stream = SplitMix64((args.seed << 1) ^ 0xD1B54A32D192ED03)
    # a row is "id," plus a tail that depends only on its (cell, y)
    names = dist.groups.names
    with_labels = not args.no_labels
    members = dist.group_matrix.T.astype(int).tolist()
    tails = [",".join([_fmt(score)] + ([str(y)] if with_labels else []) + list(map(str, bits)))
             for score, bits in zip(dist.scores.tolist(), members) for y in (0, 1)]
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["id", "score"] + (["y"] if with_labels else [])
                          + [f"g_{n}" for n in names]) + "\n")
        for start in range(0, args.samples, _WRITE_ROWS):
            u = stream.uniforms(2 * min(_WRITE_ROWS, args.samples - start))
            cells = np.minimum(np.searchsorted(cum_mass, u[0::2], "right"), dist.n_cells - 1)
            codes = 2 * cells + (u[1::2] < dist.label_means[cells])
            fh.write("".join(f"{i},{tails[code]}\n"
                             for i, code in enumerate(codes.tolist(), start)))
    return EXIT_OK


def cmd_eval(args) -> int:
    frame = _Run(args.out_dir)
    mixture, payload = load_mixture(args.mixture)
    frame.stage("load_mixture")
    dist = frame.read(args.dataset, payload["grid_m"])
    if list(dist.groups.names) != payload["group_names"]:
        raise InputError(
            f"dataset groups {list(dist.groups.names)} do not match mixture "
            f"groups {payload['group_names']}")
    err_hat, cons, rep = _evaluate(mixture, dist)
    report = {"err_hat": err_hat, "max_violation_hat": float(np.abs(cons).max())}
    if rep is not None:
        report["true"] = {"err": rep.err, "max_violation": rep.max_violation}
    if args.oracle:
        gamma = args.gamma if args.gamma is not None else payload.get("gamma", 0.0)
        try:
            # the solver's own program: the mixture's notion and beta, f = scores
            sol = enumerate_optimum(dist, mixture.base, gamma)
            report["oracle"] = {
                "gamma": gamma,
                "opt_value": sol.opt_value,
                "err_gap": report["err_hat"] - sol.opt_value,
                "support_size": len(sol.support),
            }
            if rep is not None:
                true_opt = enumerate_optimum(
                    dist, base_rates(dist, mixture.notion, "from_labels"), gamma,
                    scores_as_f=False).opt_value
                report["oracle"].update(true_opt_value=true_opt,
                                        true_err_gap=report["true"]["err"] - true_opt)
        except (ValueError, InfeasibleError) as exc:
            raise InputError(f"oracle: {exc}") from exc
    frame.stage("eval")
    _write_json(frame.file("evaluation.json"), report)
    frame.finish("eval", {"mixture": args.mixture, "oracle": args.oracle}, ["evaluation.json"],
                 mixture_bytes=Path(args.mixture).stat().st_size)
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--notion", choices=["fp", "fn", "err", "sp"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--C", type=float, dest="C")
    p.add_argument("--eta")
    p.add_argument("--T", dest="T")
    p.add_argument("--grid-m", dest="grid_m", type=int)
    p.add_argument("--record-every", dest="record_every", type=int)
    p.add_argument("--work-cap", dest="work_cap", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairpost",
        description="Post-process regression scores into fairness-constrained "
                    "randomized classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="fit a constrained mixture on a dataset")
    p.add_argument("dataset")
    _add_config_flags(p)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="pareto sweep over gamma values")
    p.add_argument("dataset")
    _add_config_flags(p)
    p.add_argument("--gammas", required=True, help="comma-separated gamma list")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_sweep)

    for name, help_text, func in (
            ("audit", "multicalibration audit of the scores", cmd_audit),
            ("calibrate", "patch scores toward joint multicalibration", cmd_calibrate)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dataset")
        if name == "calibrate":
            p.add_argument("--alpha", type=float, default=0.01)
        p.add_argument("--grid-m", dest="grid_m", type=int, default=100)
        p.add_argument("--n-random-checks", type=int, default=64)
        p.add_argument("--check-C", type=float, default=10.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default="out")
        p.set_defaults(func=func)

    p = sub.add_parser("synth", help="emit a sampled synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-cells", type=int, default=8)
    p.add_argument("--n-groups", type=int, default=2)
    p.add_argument("--grid-m", type=int, default=20)
    p.add_argument("--profile", choices=["uniform", "two_group_bias", "adversarial_overlap"],
                   default="two_group_bias")
    p.add_argument("--miscalibration", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--exact-scores", action="store_true",
                   help="emit the exact scores instead of the perturbed twin")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="evaluate a saved mixture, optionally vs the oracle")
    p.add_argument("dataset")
    p.add_argument("--mixture", required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--gamma", type=float)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:    # argparse has printed its message; --help exits 0
        if exc.code != 2:
            raise
        return EXIT_INPUT
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
