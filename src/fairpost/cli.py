"""Command-line surface: dataset ingestion, solve/sweep/audit/calibrate/synth/eval.

Datasets are CSV files with header ``id,score[,y],g_<name>...`` (UTF-8,
comma-separated, dot decimal, LF or CRLF).  Exit codes: 0 success, 1 input
error, 2 guarantee miss, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import array
import csv
import hashlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core import (
    CellDistribution,
    FairnessNotion,
    MixtureClassifier,
    BaseRates,
    aggregate_cells,
    build_cells,  # noqa: F401  (bench/spans.py traces it by this name)
)
from .metrics import base_rates, constraint_vector, surrogate_error, true_rates
from .multical import assignment_from_scores, audit, brier, calibrate, default_checks
from .oracle import enumerate_optimum
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


class InputError(ValueError):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


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


def read_dataset(path: str, grid_m: int,
                 source: Optional[dict] = None) -> Tuple[CellDistribution, bool]:
    """Parse a dataset CSV into a cell distribution.

    Returns (distribution, has_labels).  A synthetic all-ones group I is
    prepended when no column covers every row.  The array parser reads the
    file; what it declines, the csv row loop reads again from the start.
    source, if given, receives the input summary: "sha256" of the bytes
    parsed, "rows", "cells" and "parser" ("array" or "rows").
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
    return dist, labels is not None


# ---------------------------------------------------------------- manifests

def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _write_manifest(out_dir: Path, command: str, config: dict, source: dict,
                    timings: dict, outputs: List[str], extra: Optional[dict] = None,
                    write_start: Optional[float] = None) -> None:
    """Write manifest.json; source is read_dataset's input summary.  With
    write_start, timings["write"] runs from it to just before the manifest
    itself is written."""
    manifest = {
        "command": command,
        "config": config,
        "input_sha256": source["sha256"],
        "input": {key: source[key] for key in ("rows", "cells", "parser")},
        "version": __version__,
        "timings_seconds": timings,
        "outputs": outputs,
    }
    if extra:
        manifest.update(extra)
    for name in outputs:
        if not (out_dir / name).exists():
            raise RuntimeError(f"manifest names missing output {name!r}")
    if write_start is not None:
        timings["write"] = time.perf_counter() - write_start
    _write_json(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------- config

_CONFIG_KEYS = ("notion", "gamma", "C", "eta", "T", "projection", "beta_mode",
                "grid_m", "record_every", "seed", "work_cap")


def _load_config(args) -> dict:
    config = {
        "notion": "fp", "gamma": 0.05, "C": 10.0, "eta": "auto", "T": "auto",
        "projection": "euclidean", "beta_mode": "from_scores", "grid_m": 100,
        "record_every": 100, "seed": 0, "work_cap": 5e9,
    }
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {args.config!r}: {exc}") from exc
        for key, value in loaded.items():
            if key not in _CONFIG_KEYS:
                raise InputError(f"unknown config key {key!r}")
            config[key] = value
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _solver_config(config: dict) -> SolverConfig:
    projection = {"euclidean": "euclidean_l1", "euclidean_l1": "euclidean_l1",
                  "rescale": "rescale"}.get(config["projection"])
    if projection is None:
        raise InputError(f"unknown projection {config['projection']!r}")
    eta = config["eta"]
    T = config["T"]
    try:
        return SolverConfig(
            notion=config["notion"], gamma=float(config["gamma"]), C=float(config["C"]),
            eta=eta if eta == "auto" else float(eta),
            T=T if T == "auto" else int(T),
            projection_mode=projection, beta_mode=config["beta_mode"],
            record_every=int(config["record_every"]), work_cap=float(config["work_cap"]))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


# ---------------------------------------------------------------- solve

def _write_trajectory(path: Path, trajectory) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRAJECTORY_SCHEMA + "\n")
        fh.write("t,err_hat,max_violation_hat,lambda_l1,duality_gap_estimate\n")
        for rec in trajectory:
            fh.write(f"{rec.t},{_fmt(rec.err_hat)},{_fmt(rec.max_violation_hat)},"
                     f"{_fmt(rec.lambda_l1)},{_fmt(rec.duality_gap_estimate)}\n")


def _mixture_header(mixture: MixtureClassifier, dist: CellDistribution,
                    gamma: float) -> dict:
    """Every field of mixture.json except the "lambdas" rows."""
    return {
        "schema": "fairpost.mixture.v1",
        "notion": mixture.notion.value,
        "gamma": gamma,
        "grid_m": dist.grid_m,
        "group_names": list(dist.groups.names),
        "beta": [float(b) for b in mixture.base.beta],
        "w": [float(w) for w in mixture.base.w],
        "tiebreak_positive": mixture.tiebreak_positive,
    }


def _write_mixture(path: Path, mixture: MixtureClassifier, dist: CellDistribution,
                   gamma: float) -> None:
    """The bytes of _write_json with the header plus "lambdas": rows.tolist(),
    written 4096 rows at a time.

    json.dump with indent runs the pure-Python encoder over every float and
    needs the whole list of lists in memory.  Each chunk here goes through
    the C encoder without indent, "[[a, b], [c, d]]"; its numbers contain
    no "[", "]", "," or " ", so two replaces give the indented form.
    """
    head, tail = json.dumps({**_mixture_header(mixture, dist, gamma), "lambdas": []},
                            indent=2, sort_keys=True).split('"lambdas": []')
    lambdas = mixture.lambdas  # at least one row
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"lambdas": [')
        sep = "\n    [\n      "
        for start in range(0, len(lambdas), 4096):
            rows = json.dumps(lambdas[start:start + 4096].tolist())[2:-2]
            fh.write(sep + rows.replace("], [", "\n    ],\n    [\n      ")
                     .replace(", ", ",\n      ") + "\n    ]")
            sep = ",\n    [\n      "
        fh.write("\n  ]" + tail + "\n")


_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_JSON_COMMA = re.compile(r"[ \t\n\r]*,[ \t\n\r]*")


def _parse_mixture(text: str) -> Tuple[dict, Optional[np.ndarray]]:
    """json.loads of a mixture document, except that the top-level "lambdas"
    rows are decoded one at a time into a (T, n_groups) float array.

    The plain parse holds a Python list and n_groups float objects per rule,
    about 170 bytes against the array's 8 per group: 50 MB more at the
    fixture's T = 313,600.  Every value still goes through the json module's
    decoder, so the doubles are the ones json.load returns.
    """
    decoder = json.JSONDecoder()
    decode = decoder.raw_decode

    def expect(char, i):
        i = _JSON_SPACE.match(text, i).end()
        if not text.startswith(char, i):
            raise json.JSONDecodeError(f"Expecting {char!r}", text, i)
        return _JSON_SPACE.match(text, i + 1).end()

    def rows(i):
        # the C scanner straight, without raw_decode's Python frame: this
        # loop runs once per rule and is most of the load time
        scan, comma_at, values = decoder.scan_once, _JSON_COMMA.match, array.array("d")
        width = count = 0
        if not text.startswith("]", i):
            try:
                row, i = scan(text, i)
                width = len(row) if isinstance(row, list) else -1
                while True:
                    if type(row) is not list or len(row) != width:
                        raise InputError("mixture lambdas must be a list of equal-length rows")
                    values.extend(row)
                    count += 1
                    comma = comma_at(text, i)
                    if comma is None:
                        break
                    row, i = scan(text, comma.end())
            except StopIteration as err:
                raise json.JSONDecodeError("Expecting value", text, err.value) from None
            except TypeError:
                raise InputError("mixture lambdas must be numbers") from None
        return np.frombuffer(values).reshape(count, width), expect("]", i)

    payload, lambdas = {}, None
    i = expect("{", 0)
    if not text.startswith("}", i):
        while True:
            key, i = decode(text, i)
            if not isinstance(key, str):
                raise json.JSONDecodeError("Expecting property name", text, i)
            i = expect(":", i)
            if key == "lambdas" and text.startswith("[", i):
                lambdas, i = rows(expect("[", i))
            else:
                payload[key], i = decode(text, i)
            comma = _JSON_COMMA.match(text, i)
            if comma is None:
                break
            i = comma.end()
    i = expect("}", i)
    if i != len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    return payload, lambdas


def load_mixture(path: str) -> Tuple[MixtureClassifier, dict]:
    """Load a mixture.json; the returned payload holds every field but "lambdas"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload, lambdas = _parse_mixture(fh.read())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read mixture {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"bad mixture: bytes {exc.object[exc.start:exc.end]!r} at offset "
                         f"{exc.start} are not valid UTF-8") from None
    if payload.get("schema") != "fairpost.mixture.v1":
        raise InputError("unrecognized mixture schema")
    if lambdas is None:
        raise InputError("mixture has no lambdas rows")
    try:
        notion = FairnessNotion.coerce(payload["notion"])
        base = BaseRates(notion, np.array(payload["beta"]), np.array(payload["w"]))
        mixture = MixtureClassifier(lambdas, notion, base,
                                    payload.get("tiebreak_positive", True))
    except ValueError as exc:
        raise InputError(f"bad mixture: {exc}") from exc
    return mixture, payload


def _solve_report(result, dist: CellDistribution, has_labels: bool, gamma: float,
                  guarantee_tol: float) -> Tuple[dict, int]:
    p = result.mixture.positive_prob_vector(dist)
    notion = result.mixture.notion
    cons = constraint_vector(p, dist, notion, result.base)
    err_hat = surrogate_error(p, dist)
    bounds = result.theorem_bounds
    threshold = gamma + bounds["violation_slack"] + guarantee_tol
    max_viol = float(np.abs(cons).max())
    report = {
        "notion": notion.value,
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
    if has_labels:
        rep = true_rates(p, dist, notion)
        report["true"] = {
            "err": rep.err,
            "max_violation": rep.max_violation,
            "violation_by_group": {
                name: float(v) for name, v in zip(dist.groups.names, rep.violation_by_group)},
        }
    # the gate watches the surrogate constraint report; true-rate transfer
    # additionally needs a calibrated score function
    report["guarantee_ok"] = max_viol <= threshold
    return report, EXIT_OK if report["guarantee_ok"] else EXIT_GUARANTEE


def cmd_solve(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _load_config(args)
    solver_config = _solver_config(config)
    t0 = time.perf_counter()
    source = {}
    dist, has_labels = read_dataset(args.dataset, int(config["grid_m"]), source)
    t1 = time.perf_counter()
    try:
        result = run(dist, solver_config)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    t2 = time.perf_counter()
    report, code = _solve_report(result, dist, has_labels, solver_config.gamma,
                                 args.guarantee_tol)
    report["exit_code"] = code
    t3 = time.perf_counter()

    _write_trajectory(out_dir / "trajectory.csv", result.trajectory)
    _write_mixture(out_dir / "mixture.json", result.mixture, dist, solver_config.gamma)
    _write_json(out_dir / "report.json", report)
    timings = {"parse": t1 - t0, "solve": t2 - t1, "report": t3 - t2}
    _write_manifest(
        out_dir, "solve", config, source, timings,
        ["mixture.json", "trajectory.csv", "report.json"],
        extra={"theorem_bounds": result.theorem_bounds, "counters": result.counters,
               "peak_rss_mb": _peak_rss_mb()}, write_start=t3)
    return code


# ---------------------------------------------------------------- sweep

def _sweep_one(dist, has_labels, config, gamma):
    cfg = dict(config)
    cfg["gamma"] = gamma
    solver_config = _solver_config(cfg)
    result = run(dist, solver_config)
    p = result.mixture.positive_prob_vector(dist)
    err_hat = surrogate_error(p, dist)
    if has_labels:
        rep = true_rates(p, dist, solver_config.notion)
        return gamma, err_hat, rep.err, rep.max_violation, "ok"
    cons = constraint_vector(p, dist, solver_config.notion, result.base)
    return gamma, err_hat, None, float(np.abs(cons).max()), "ok"


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _load_config(args)
    try:
        gammas = sorted(float(g) for g in args.gammas.split(","))
    except ValueError:
        print("error: --gammas must be a comma-separated list of numbers", file=sys.stderr)
        return EXIT_INPUT
    if any(g < 0 for g in gammas):
        print("error: gamma values must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    source = {}
    dist, has_labels = read_dataset(args.dataset, int(config["grid_m"]), source)
    t1 = time.perf_counter()
    rows = []
    failures = 0
    for g in gammas:
        try:
            rows.append(_sweep_one(dist, has_labels, config, g))
        except BudgetExceededError as exc:
            message = str(exc).replace(",", ";")
            rows.append((g, None, None, None, f"error: {message}"))
            failures += 1
        except Exception as exc:  # per-row failure, reported in the csv
            message = str(exc).replace(",", ";").replace("\n", " ")
            rows.append((g, None, None, None, f"error: {message}"))
            failures += 1
    t2 = time.perf_counter()

    with open(out_dir / "pareto.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PARETO_SCHEMA + "\n")
        fh.write("gamma,err_hat,true_err,max_violation,status\n")
        for g, err_hat, true_err, viol, status in rows:
            fh.write(f"{_fmt(g)},{_fmt(err_hat)},{_fmt(true_err)},{_fmt(viol)},{status}\n")
    outputs = ["pareto.csv"]
    if args.svg:
        _write_pareto_svg(out_dir / "pareto.svg", rows)
        outputs.append("pareto.svg")
    _write_manifest(out_dir, "sweep", config, source,
                    {"parse": t1 - t0, "sweep": t2 - t1}, outputs,
                    extra={"peak_rss_mb": _peak_rss_mb()}, write_start=t2)
    return EXIT_OK if failures == 0 else EXIT_INPUT


def _write_pareto_svg(path: Path, rows) -> None:
    pts = [(r[0], r[1]) for r in rows if r[1] is not None]
    width, height, pad = 480, 320, 40
    if pts:
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
    else:
        polyline, circles, legend = "", "", "no data"
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

def _build_checks(dist, args, trajectory_lambdas=None):
    base = base_rates(dist, FairnessNotion.FP,
                      "from_labels" if dist.has_labels() else "from_scores")
    return default_checks(dist, base, n_random=args.n_random_checks, C=args.check_C,
                          seed=args.seed, trajectory_lambdas=trajectory_lambdas)


def _check_config(args) -> dict:
    return {"grid_m": args.grid_m, "n_random_checks": args.n_random_checks,
            "check_C": args.check_C, "seed": args.seed}


def cmd_audit(args) -> int:
    t0 = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = {}
    dist, has_labels = read_dataset(args.dataset, args.grid_m, source)
    if not has_labels:
        print("error: audit requires labeled data (y column)", file=sys.stderr)
        return EXIT_INPUT
    t1 = time.perf_counter()
    checks = _build_checks(dist, args)
    assignment = assignment_from_scores(dist, args.grid_m)
    t2 = time.perf_counter()
    per_check, max_violation = audit(assignment, checks, dist)
    t3 = time.perf_counter()
    _write_json(out_dir / "audit.json", {
        "max_violation": max_violation,
        "per_check": [{"name": c.name or c.kind, "kind": c.kind, "violation": v}
                      for c, v in zip(checks, per_check)],
    })
    # audit computes one term per (check, distinct level)
    levels = len(set(assignment.tolist()))
    counters = {"checks": len(checks), "levels": levels, "patch_rounds": 0,
                "term_updates": len(checks) * levels}
    _write_manifest(out_dir, "audit", _check_config(args), source,
                    {"parse": t1 - t0, "checks": t2 - t1, "calibrate": 0.0,
                     "audit": t3 - t2},
                    ["audit.json"],
                    extra={"counters": counters, "peak_rss_mb": _peak_rss_mb()},
                    write_start=t3)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    t0 = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = {}
    dist, has_labels = read_dataset(args.dataset, args.grid_m, source)
    if not has_labels:
        print("error: calibrate requires labeled data (y column)", file=sys.stderr)
        return EXIT_INPUT
    t1 = time.perf_counter()
    checks = _build_checks(dist, args)
    t2 = time.perf_counter()
    result = calibrate(dist.scores, checks, dist, args.alpha)
    t3 = time.perf_counter()
    per_check, max_violation = audit(result.assignment, checks, dist)
    t4 = time.perf_counter()
    with open(out_dir / "calibration_history.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HISTORY_SCHEMA + "\n")
        fh.write("round,check,level,v_tilde,v_prime,potential,mass\n")
        for rec in result.history:
            name = checks[rec.check_index].name or checks[rec.check_index].kind
            fh.write(f"{rec.round},{name},{_fmt(rec.level)},{_fmt(rec.v_tilde)},"
                     f"{_fmt(rec.v_prime)},{_fmt(rec.potential)},{_fmt(rec.mass)}\n")
    _write_json(out_dir / "calibration.json", {
        "alpha": args.alpha,
        "rounds": result.rounds,
        "round_cap": int(4.0 / args.alpha ** 2),
        "initial_potential": brier(result.initial_assignment, dist),
        "final_potential": result.final_potential,
        "post_audit_max_violation": max_violation,
    })
    # term_updates: the calibration's cached terms plus the post-audit's
    counters = {"checks": len(checks), "levels": result.counters["levels"],
                "patch_rounds": result.rounds,
                "term_updates": result.counters["term_updates"]
                + len(checks) * len(set(result.assignment.tolist()))}
    _write_manifest(out_dir, "calibrate", {"alpha": args.alpha, **_check_config(args)},
                    source,
                    {"parse": t1 - t0, "checks": t2 - t1, "calibrate": t3 - t2,
                     "audit": t4 - t3},
                    ["calibration_history.csv", "calibration.json"],
                    extra={"counters": counters, "peak_rss_mb": _peak_rss_mb()},
                    write_start=t4)
    return EXIT_OK


# ---------------------------------------------------------------- synth / eval

# Rows per write of the synth CSV.
_WRITE_ROWS = 1 << 16


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    spec = SynthSpec(seed=args.seed, n_cells=args.n_cells, n_groups=args.n_groups,
                     grid_m=args.grid_m, bias_profile=args.profile,
                     miscalibration=args.miscalibration)
    exact, perturbed = gen_instance(spec)
    dist = exact if args.exact_scores else perturbed
    # each sample draws its cell, then its label: uniforms 2i and 2i + 1
    u = SplitMix64((args.seed << 1) ^ 0xD1B54A32D192ED03).uniforms(2 * max(args.samples, 0))
    cells = np.minimum(np.searchsorted(np.cumsum(dist.masses), u[0::2], "right"),
                       dist.n_cells - 1)
    codes = 2 * cells + (u[1::2] < dist.label_means[cells])
    # a row is "id," plus a tail that depends only on its (cell, y)
    names = dist.groups.names
    with_labels = not args.no_labels
    tails = [",".join([_fmt(c.score)] + ([str(y)] if with_labels else [])
                      + [str((c.groups >> i) & 1) for i in range(len(names))])
             for c in dist.cells for y in (0, 1)]
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["id", "score"] + (["y"] if with_labels else [])
                          + [f"g_{n}" for n in names]) + "\n")
        for start in range(0, len(codes), _WRITE_ROWS):
            fh.write("".join(f"{i},{tails[code]}\n" for i, code in
                             enumerate(codes[start:start + _WRITE_ROWS].tolist(), start)))
    return EXIT_OK


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mixture, payload = load_mixture(args.mixture)
    source = {}
    dist, has_labels = read_dataset(args.dataset, payload["grid_m"], source)
    if list(dist.groups.names) != payload["group_names"]:
        raise InputError(
            f"dataset groups {list(dist.groups.names)} do not match mixture "
            f"groups {payload['group_names']}")
    t1 = time.perf_counter()
    p = mixture.positive_prob_vector(dist)
    report = {
        "err_hat": surrogate_error(p, dist),
        "max_violation_hat": float(np.abs(
            constraint_vector(p, dist, mixture.notion, mixture.base)).max()),
    }
    if has_labels:
        rep = true_rates(p, dist, mixture.notion)
        report["true"] = {"err": rep.err, "max_violation": rep.max_violation}
    if args.oracle:
        if dist.n_cells > args.max_cells:
            print(f"error: oracle guard: {dist.n_cells} cells > --max-cells "
                  f"{args.max_cells}", file=sys.stderr)
            return EXIT_INPUT
        gamma = args.gamma if args.gamma is not None else payload.get("gamma", 0.0)
        base = base_rates(dist, mixture.notion,
                          "from_labels" if has_labels else "from_scores")
        sol = enumerate_optimum(dist, mixture.notion, base, gamma,
                                max_cells=args.max_cells)
        report["oracle"] = {
            "gamma": gamma,
            "opt_value": sol.opt_value,
            "err_gap": report["err_hat"] - sol.opt_value,
            "support_size": len(sol.support),
        }
    t2 = time.perf_counter()
    _write_json(out_dir / "evaluation.json", report)
    _write_manifest(out_dir, "eval", {"mixture": args.mixture, "oracle": args.oracle},
                    source, {"parse": t1 - t0, "eval": t2 - t1},
                    ["evaluation.json"], extra={"peak_rss_mb": _peak_rss_mb()},
                    write_start=t2)
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--notion", choices=["fp", "fn", "err", "sp"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--C", type=float, dest="C")
    p.add_argument("--eta")
    p.add_argument("--T", dest="T")
    p.add_argument("--projection", choices=["euclidean", "rescale"])
    p.add_argument("--beta-mode", dest="beta_mode", choices=["from_scores", "from_labels"])
    p.add_argument("--grid-m", dest="grid_m", type=int)
    p.add_argument("--record-every", dest="record_every", type=int)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--guarantee-tol", type=float, default=0.01)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="pareto sweep over gamma values")
    p.add_argument("dataset")
    _add_config_flags(p)
    p.add_argument("--gammas", required=True, help="comma-separated gamma list")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="multicalibration audit of the scores")
    p.add_argument("dataset")
    p.add_argument("--grid-m", dest="grid_m", type=int, default=100)
    p.add_argument("--n-random-checks", type=int, default=64)
    p.add_argument("--check-C", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("calibrate", help="patch scores toward joint multicalibration")
    p.add_argument("dataset")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--grid-m", dest="grid_m", type=int, default=100)
    p.add_argument("--n-random-checks", type=int, default=64)
    p.add_argument("--check-C", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_calibrate)

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
    p.add_argument("--max-cells", type=int, default=16)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
