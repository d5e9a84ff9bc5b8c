"""Outside-in tracing: spans around calls into fairpost's layers.

The wrappers are installed on the module and class attributes that
fairpost's own callers look up at call time (``fairpost.cli.read_dataset``,
``fairpost.solver.decide_batch``, ``MixtureClassifier.positive_prob_vector``
and so on), so no file of the package changes and removing the wrappers
restores the original objects exactly.

A span records its name, start, end, the span that caused it and the run
id.  Spans are kept in memory and written out once the run ends.  A span's
self time is its duration minus the part of its interval that its child
spans cover; children may overlap when ``sweep`` runs gammas on a thread
pool, so the covered part is the union of the child intervals.
"""

from __future__ import annotations

import csv
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Span", "Tracer", "traced", "patch_table", "instrument", "covered_ns",
           "self_times", "layer_metrics", "PER_LAYER"]


# A closed span.  The tracer stores plain tuples in this field order, which
# keeps the per-call cost of ~3e5 solver-round spans low; analysis code
# reads them through this name.
Span = namedtuple("Span", "id parent name start end attrs")


class Tracer:
    """Collects spans and call counts for one traced run.

    Each thread keeps its own stack of open span ids.  A span opened on a
    thread whose stack is empty (a ``sweep`` pool worker) takes the current
    root span as its parent; a ``root=True`` span is that root while open.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self.root = None
        self.ids = itertools.count()
        self._local = threading.local()
        self._mem_lock = threading.Lock()
        self._mem_users = 0

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def closed(self, name: str) -> list:
        return [Span(*s) for s in self.spans if s[2] == name]

    # tracemalloc is process-wide: the first of any overlapping mixture
    # evaluations starts it and the last stops it, so overlapping calls on
    # the sweep pool report their combined peak.
    def mem_enter(self) -> None:
        with self._mem_lock:
            if self._mem_users == 0:
                tracemalloc.start()
            self._mem_users += 1

    def mem_exit(self) -> float:
        with self._mem_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._mem_users -= 1
            if self._mem_users == 0:
                tracemalloc.stop()
        return peak / 2 ** 20

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["run_id", "span_id", "parent_id", "name", "start_ns", "end_ns"])
            for sid, parent, name, start, end, _ in sorted(self.spans):
                out.writerow([self.run_id, sid, "" if parent is None else parent,
                              name, start, end])


def traced(tracer: Tracer, name: str, fn, note=None, root: bool = False,
           memory: bool = False):
    """Wrap fn in a span.  note(args, result) returns a dict of per-call
    sizes kept with the span; memory=True adds the tracemalloc peak."""
    ids, spans, clock = tracer.ids, tracer.spans, time.perf_counter_ns

    def wrapper(*args, **kwargs):
        stack = tracer.stack()
        sid = next(ids)
        parent = stack[-1] if stack else tracer.root
        if root:
            prev_root, tracer.root = tracer.root, sid
        attrs = {} if note or memory else None
        if memory:
            tracer.mem_enter()
        stack.append(sid)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            if root:
                tracer.root = prev_root
            if memory:
                attrs["peak_mb"] = tracer.mem_exit()
            spans.append((sid, parent, name, start, end, attrs))
        if note is not None:
            attrs.update(note(args, result))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def counted(tracer: Tracer, name: str, fn):
    """Count calls without a span, for functions called ~10^6 times per run
    whose own cost is below a span's."""
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def installed(patches):
    """Replace owner.attr by make(original) for each (owner, attr, make);
    the originals are put back on exit, also when the body raises."""
    saved = []
    try:
        for owner, attr, make in patches:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _note_command(args, result):
    argv = list(args[0])
    note = {"command": argv[0]}
    if argv[0] == "synth":
        note["samples"] = int(argv[argv.index("--samples") + 1])
    return note


def patch_table(tracer: Tracer) -> list:
    """(owner, attribute, make-wrapper) for every traced layer boundary."""
    from fairpost import cli, core, estimators, multical, oracle, solver

    def t(name, note=None, **kw):
        return lambda fn: traced(tracer, name, fn, note=note, **kw)

    rows_cells = t("core.build_cells", lambda a, r: {"rows": len(a[0]), "cells": r.n_cells})
    rounds = t("solver.run", lambda a, r: {"rounds": r.T})
    base = t("metrics.base_rates")
    report = t("metrics.report")
    return [
        (cli, "main", t("cli.main", _note_command, root=True)),
        (cli, "read_dataset", t("cli.read_dataset", lambda a, r: {"path": a[0]})),
        (cli, "load_mixture", t("cli.load_mixture")),
        (cli, "gen_instance", t("synth.gen_instance")),
        (cli, "build_cells", rows_cells),
        (cli, "run", rounds),
        (cli, "base_rates", base),
        (cli, "constraint_vector", report),
        (cli, "surrogate_error", report),
        (cli, "true_rates", report),
        (cli, "default_checks", t("multical.default_checks",
                                  lambda a, r: {"checks": len(r)})),
        (cli, "audit", t("multical.audit")),
        (cli, "calibrate", t("multical.calibrate",
                             lambda a, r: {"patch_rounds": r.rounds})),
        (cli, "enumerate_optimum", t("oracle.enumerate_optimum",
                                     lambda a, r: {"labelings": 2 ** a[0].n_cells})),
        (solver, "decide_batch", t("core.decide_batch")),
        (solver, "project_l1", t("solver.project_l1")),
        (solver, "base_rates", base),
        (oracle, "simplex_solve", t("oracle.simplex_solve")),
        (multical, "d_of_v", lambda fn: counted(tracer, "multical.d_of_v", fn)),
        (core.MixtureClassifier, "positive_prob_vector", t(
            "core.positive_prob_vector",
            lambda a, r: {"rule_cells": len(a[0]) * a[1].n_cells}, memory=True)),
        (core.MixtureClassifier, "positive_prob_points", t(
            "core.positive_prob_points", lambda a, r: {"points": len(r)}, memory=True)),
        (estimators, "build_cells", rows_cells),
        (estimators, "run", rounds),
        (estimators, "base_rates", base),
        (estimators.FairThresholdPostprocessor, "fit", t("estimators.fit")),
        (estimators.FairThresholdPostprocessor, "predict_proba", t(
            "estimators.predict_proba", lambda a, r: {"points": len(r)})),
    ]


def instrument(tracer: Tracer):
    """Context manager: fairpost's layer boundaries traced into tracer."""
    return installed(patch_table(tracer))


# ---------------------------------------------------------------- self time

def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part covered by its direct children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_ns(children.get(s.id, ()), s.start, s.end)
            for s in spans}


# ---------------------------------------------------------------- layer metrics

# (name, unit); every per-layer metric reads "lower is better".
PER_LAYER = [
    ("cli.read_dataset_s", "s"), ("cli.read_dataset_us_per_row", "us"),
    ("cli.load_mixture_s", "s"), ("cli.output_bytes", "bytes"), ("cli.self_s", "s"),
    ("cli.synth_us_per_sample", "us"), ("synth.gen_instance_s", "s"),
    ("core.build_cells_s", "s"), ("core.build_cells_us_per_row", "us"),
    ("core.cells", "count"),
    ("core.decide_batch_calls", "count"), ("core.decide_batch_s", "s"),
    ("core.positive_prob_vector_s", "s"), ("core.positive_prob_vector_calls", "count"),
    ("core.positive_prob_vector_ns_per_rule_cell", "ns"),
    ("core.positive_prob_vector_peak_mb", "MB"),
    ("core.positive_prob_points_s", "s"), ("core.positive_prob_points_us_per_point", "us"),
    ("core.positive_prob_points_peak_mb", "MB"),
    ("metrics.base_rates_s", "s"), ("metrics.report_s", "s"),
    ("solver.run_s", "s"), ("solver.rounds", "count"), ("solver.us_per_round", "us"),
    ("solver.self_us_per_round", "us"), ("solver.project_l1_calls", "count"),
    ("solver.projection_active_frac", "frac"), ("solver.project_l1_us_per_call", "us"),
    ("multical.default_checks_s", "s"), ("multical.checks", "count"),
    ("multical.audit_s", "s"), ("multical.calibrate_s", "s"),
    ("multical.patch_rounds", "count"), ("multical.ms_per_patch_round", "ms"),
    ("multical.d_of_v_calls", "count"),
    ("oracle.enumerate_optimum_s", "s"), ("oracle.labelings", "count"),
    ("oracle.simplex_solve_s", "s"),
    ("estimators.fit_s", "s"), ("estimators.predict_proba_s", "s"),
    ("estimators.predict_proba_self_us_per_point", "us"),
    ("trace.overhead_frac", "frac"),
]


def _ratio(num: float, den: float) -> float:
    """num/den; a layer the workload never reaches (den 0) reads 0."""
    return num / den if den else 0.0


def _data_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def layer_metrics(tracer: Tracer, timed_root: int, overhead_frac: float,
                  output_bytes: int) -> dict:
    """Per-layer metrics over every span of the traced run.

    Totals cover the traced set-up and the traced timed iteration;
    cli.self_s covers only the commands timed in the iteration (spans whose
    parent is timed_root), and output_bytes is what those commands wrote.
    """
    spans = [Span(*s) for s in tracer.spans]
    self_ns = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total_s(name):
        return sum(s.end - s.start for s in by_name[name]) * 1e-9

    def self_s(name):
        return sum(self_ns[s.id] for s in by_name[name]) * 1e-9

    def calls(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name] if s.attrs and key in s.attrs)

    def attr_max(name, key):
        return max((s.attrs[key] for s in by_name[name] if s.attrs and key in s.attrs),
                   default=0.0)

    read_rows = sum(_data_rows(s.attrs["path"]) for s in by_name["cli.read_dataset"])
    synth = [s for s in by_name["cli.main"] if s.attrs.get("command") == "synth"]
    synth_samples = sum(s.attrs["samples"] for s in synth)
    synth_s = sum(s.end - s.start for s in synth) * 1e-9
    timed_cli_self = sum(self_ns[s.id] for s in by_name["cli.main"]
                         if s.parent == timed_root) * 1e-9
    rounds = attr_sum("solver.run", "rounds")
    build_rows = attr_sum("core.build_cells", "rows")
    patch_rounds = attr_sum("multical.calibrate", "patch_rounds")
    points = attr_sum("core.positive_prob_points", "points")
    predict_points = attr_sum("estimators.predict_proba", "points")

    values = {
        "cli.read_dataset_s": total_s("cli.read_dataset"),
        "cli.read_dataset_us_per_row": _ratio(total_s("cli.read_dataset") * 1e6, read_rows),
        "cli.load_mixture_s": total_s("cli.load_mixture"),
        "cli.output_bytes": output_bytes,
        "cli.self_s": timed_cli_self,
        "cli.synth_us_per_sample": _ratio(synth_s * 1e6, synth_samples),
        "synth.gen_instance_s": total_s("synth.gen_instance"),
        "core.build_cells_s": total_s("core.build_cells"),
        "core.build_cells_us_per_row": _ratio(total_s("core.build_cells") * 1e6, build_rows),
        "core.cells": attr_max("core.build_cells", "cells"),
        "core.decide_batch_calls": calls("core.decide_batch"),
        "core.decide_batch_s": total_s("core.decide_batch"),
        "core.positive_prob_vector_s": total_s("core.positive_prob_vector"),
        "core.positive_prob_vector_calls": calls("core.positive_prob_vector"),
        "core.positive_prob_vector_ns_per_rule_cell": _ratio(
            total_s("core.positive_prob_vector") * 1e9,
            attr_sum("core.positive_prob_vector", "rule_cells")),
        "core.positive_prob_vector_peak_mb": attr_max("core.positive_prob_vector", "peak_mb"),
        "core.positive_prob_points_s": total_s("core.positive_prob_points"),
        "core.positive_prob_points_us_per_point": _ratio(
            total_s("core.positive_prob_points") * 1e6, points),
        "core.positive_prob_points_peak_mb": attr_max("core.positive_prob_points", "peak_mb"),
        "metrics.base_rates_s": total_s("metrics.base_rates"),
        "metrics.report_s": total_s("metrics.report"),
        "solver.run_s": total_s("solver.run"),
        "solver.rounds": rounds,
        "solver.us_per_round": _ratio(total_s("solver.run") * 1e6, rounds),
        "solver.self_us_per_round": _ratio(self_s("solver.run") * 1e6, rounds),
        "solver.project_l1_calls": calls("solver.project_l1"),
        "solver.projection_active_frac": _ratio(calls("solver.project_l1"), rounds),
        "solver.project_l1_us_per_call": _ratio(
            total_s("solver.project_l1") * 1e6, calls("solver.project_l1")),
        "multical.default_checks_s": total_s("multical.default_checks"),
        "multical.checks": attr_sum("multical.default_checks", "checks"),
        "multical.audit_s": total_s("multical.audit"),
        "multical.calibrate_s": total_s("multical.calibrate"),
        "multical.patch_rounds": patch_rounds,
        "multical.ms_per_patch_round": _ratio(total_s("multical.calibrate") * 1e3,
                                              patch_rounds),
        "multical.d_of_v_calls": tracer.counts["multical.d_of_v"],
        "oracle.enumerate_optimum_s": total_s("oracle.enumerate_optimum"),
        "oracle.labelings": attr_sum("oracle.enumerate_optimum", "labelings"),
        "oracle.simplex_solve_s": total_s("oracle.simplex_solve"),
        "estimators.fit_s": total_s("estimators.fit"),
        "estimators.predict_proba_s": total_s("estimators.predict_proba"),
        "estimators.predict_proba_self_us_per_point": _ratio(
            self_s("estimators.predict_proba") * 1e6, predict_points),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
