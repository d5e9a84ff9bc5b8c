"""The benchmark's four workloads: input generation, timed work and output checks.

Every workload runs in this process through ``fairpost.cli.main(argv)`` or
the estimator API, looked up at call time so the traced run sees its
wrappers.  Inputs come only from ``fairpost synth``; the synth seed is
``seed_base + 4 * seed``, so benchmark seed 0 gives the instances the
workloads were designed on and any other seed gives fresh ones.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fairpost import cli
from fairpost.estimators import FairThresholdPostprocessor
from fairpost.metrics import constraint_vector, surrogate_error

__all__ = ["Spec", "SPECS", "tiny", "Checks", "make"]


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    seed_base: int
    synth: tuple          # fairpost synth flags, without --seed and --out
    params: dict = field(default_factory=dict)

    def synth_seed(self, seed: int) -> int:
        return self.seed_base + 4 * seed

    def describe(self, seed: int) -> dict:
        return {"why": self.why, "synth_seed": self.synth_seed(seed),
                "synth": list(self.synth), "params": self.params}


def _flags(**kw) -> tuple:
    out = []
    for key, value in kw.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return tuple(out)


SPECS = {s.name: s for s in [
    Spec("solve_fixture",
         "acceptance fixture: per-round solver overhead over T=313,600 rounds plus a "
         "20 MB mixture.json round trip; the single-gamma control",
         1, _flags(n_cells=8, n_groups=2, profile="two_group_bias", grid_m=20,
                   samples=20000),
         {"notion": "fp", "gamma": 0.01, "C": 10, "grid_m": 20, "min_iterations": 1}),
    Spec("sweep_wide",
         "four gammas on 400 cells: the sweep thread pool and per-cell mixture "
         "evaluation over a 28k x 400 rule matrix, which sets peak RSS",
         2, _flags(n_cells=400, n_groups=4, profile="two_group_bias", grid_m=100,
                   samples=50000),
         {"notion": "sp", "gammas": "0.005,0.01,0.02,0.05", "C": 6, "grid_m": 100,
          "min_iterations": 3}),
    Spec("calibrate_large",
         "2 x 200k-row ingest and multicalibration; the solver never runs, so it is "
         "the no-change control for solver and mixture work",
         3, _flags(n_cells=240, n_groups=4, profile="adversarial_overlap", grid_m=100,
                   miscalibration=0.4, samples=200000),
         {"alpha": 0.001, "grid_m": 100, "min_iterations": 2}),
    Spec("predict_batches",
         "closed loop, one client: predict_proba on 500-point batches, the only "
         "per-point mixture evaluation; fit is set-up",
         4, _flags(n_cells=60, n_groups=2, profile="uniform", miscalibration=0.05,
                   samples=60000),
         {"notion": "fn", "gamma": 0.02, "C": 5, "grid_m": 50, "fit_rows": 40000,
          "batch": 500, "min_iterations": 3}),
]}


def tiny(name: str) -> Spec:
    """A seconds-long variant of a workload, for the benchmark's self-tests."""
    spec = SPECS[name]
    small = {
        "solve_fixture": (_flags(n_cells=6, n_groups=2, profile="two_group_bias",
                                 grid_m=20, samples=2000), {"C": 2}),
        "sweep_wide": (_flags(n_cells=30, n_groups=2, profile="two_group_bias",
                              grid_m=20, samples=3000), {"C": 2, "grid_m": 20}),
        "calibrate_large": (_flags(n_cells=20, n_groups=2, profile="adversarial_overlap",
                                   grid_m=20, miscalibration=0.4, samples=4000),
                            {"alpha": 0.05, "grid_m": 20}),
        "predict_batches": (_flags(n_cells=10, n_groups=2, profile="uniform",
                                   miscalibration=0.05, samples=3000),
                            {"C": 2, "grid_m": 20, "fit_rows": 2000, "batch": 100}),
    }[name]
    return replace(spec, synth=small[0], params={**spec.params, **small[1]})


class Checks:
    """Output checks: attempted count and the descriptions of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class _Workload:
    """Set-up generates the input; iterate() is the timed work; check()
    inspects its outputs, untimed."""

    def __init__(self, spec: Spec, seed: int, work_dir: Path):
        self.spec = spec
        self.p = spec.params
        self.seed = seed
        self.data = work_dir / "data.csv"
        self.out = work_dir / "out"
        self.quality = {}

    def synth(self) -> None:
        argv = ["synth", "--seed", str(self.spec.synth_seed(self.seed)),
                *self.spec.synth, "--out", str(self.data)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"fairpost {' '.join(argv)} failed")

    def setup(self) -> None:
        self.synth()

    def check_setup(self, checks: Checks) -> None:
        pass

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def output_bytes(self) -> int:
        if not self.out.exists():
            return 0
        return sum(f.stat().st_size for f in self.out.rglob("*") if f.is_file())

    def _cli(self, *argv) -> int:
        return cli.main([str(a) for a in argv])


class SolveFixture(_Workload):
    def iterate(self) -> None:
        p = self.p
        solve_dir, eval_dir = self.out / "solve", self.out / "eval"
        self.codes = (
            self._cli("solve", self.data, "--notion", p["notion"], "--gamma", p["gamma"],
                      "--C", p["C"], "--grid-m", p["grid_m"], "--out-dir", solve_dir),
            self._cli("eval", self.data, "--mixture", solve_dir / "mixture.json",
                      "--oracle", "--out-dir", eval_dir),
        )

    def check(self, checks: Checks) -> None:
        report = _read_json(self.out / "solve" / "report.json")
        checks.expect(self.codes[0] == 0 and report["guarantee_ok"] is True,
                      "solve exits 0 with guarantee_ok")
        evaluation = _read_json(self.out / "eval" / "evaluation.json")
        gap_bound = 2.0 / self.p["C"] + 0.01
        checks.expect(self.codes[1] == 0 and evaluation["oracle"]["err_gap"] <= gap_bound,
                      f"eval --oracle error gap within 2/C + 0.01 = {gap_bound}")
        self.quality = {"err_hat": report["err_hat"],
                        "max_violation": report["max_violation_hat"]}


class SweepWide(_Workload):
    def iterate(self) -> None:
        p = self.p
        self.codes = (self._cli("sweep", self.data, "--notion", p["notion"],
                                "--gammas", p["gammas"], "--C", p["C"],
                                "--grid-m", p["grid_m"], "--svg", "--out-dir", self.out),)

    def check(self, checks: Checks) -> None:
        with open(self.out / "pareto.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        gammas = [float(g) for g in self.p["gammas"].split(",")]
        checks.expect(self.codes[0] == 0 and len(rows) == len(gammas)
                      and all(r["status"] == "ok" for r in rows),
                      "sweep exits 0 and every pareto.csv row is ok")
        errs = [float(r["err_hat"]) for r in rows]
        checks.expect(all(b <= a for a, b in zip(errs, errs[1:])),
                      "pareto.csv err_hat does not increase with gamma")
        self.quality = {"err_hat": float(np.mean(errs)),
                        "max_violation": float(np.mean([float(r["max_violation"])
                                                        for r in rows]))}


class CalibrateLarge(_Workload):
    def iterate(self) -> None:
        p = self.p
        self.codes = (
            self._cli("audit", self.data, "--grid-m", p["grid_m"],
                      "--out-dir", self.out / "audit"),
            self._cli("calibrate", self.data, "--alpha", p["alpha"],
                      "--grid-m", p["grid_m"], "--out-dir", self.out / "calibrate"),
        )

    def check(self, checks: Checks) -> None:
        alpha = self.p["alpha"]
        checks.expect(self.codes[0] == 0, "audit exits 0")
        cal = _read_json(self.out / "calibrate" / "calibration.json")
        violation = cal["post_audit_max_violation"]
        checks.expect(self.codes[1] == 0 and violation < math.sqrt(alpha),
                      "post-calibration audit below sqrt(alpha)")
        checks.expect(cal["rounds"] <= 4.0 / alpha ** 2,
                      "calibrate patch rounds at most 4/alpha^2")
        # calibrate's own error measure is the Brier score it drives down
        self.quality = {"err_hat": cal["final_potential"], "audit_violation": violation}


class PredictBatches(_Workload):
    def setup(self) -> None:
        p = self.p
        self.synth()
        with open(self.data, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(self.data, delimiter=",", skiprows=1, ndmin=2)
        scores, y = table[:, header.index("score")], table[:, header.index("y")]
        groups = table[:, [i for i, h in enumerate(header) if h.startswith("g_")]]
        groups = groups.astype(int)
        n = p["fit_rows"]
        self.est = FairThresholdPostprocessor(
            notion=p["notion"], gamma=p["gamma"], C=p["C"], grid_m=p["grid_m"])
        self.est.fit(scores[:n], groups[:n], y[:n])
        b = p["batch"]
        self.batches = [(scores[i:i + b], groups[i:i + b])
                        for i in range(n, len(scores) - b + 1, b)]
        self.latencies = []

    def check_setup(self, checks: Checks) -> None:
        est = self.est
        dist = est.distribution_
        cell_p = est.mixture_.positive_prob_vector(dist)
        bits = dist.group_matrix.T.astype(int)
        checks.expect(np.array_equal(est.predict_proba(dist.scores, bits), cell_p),
                      "predict_proba equals positive_prob_vector on the fit cells")
        cons = constraint_vector(cell_p, dist, est.mixture_.notion, est.base_)
        self.quality = {"err_hat": surrogate_error(cell_p, dist),
                        "max_violation": float(np.abs(cons).max())}

    def iterate(self) -> None:
        self.outputs = []
        for scores, groups in self.batches:
            t0 = time.perf_counter()
            proba = self.est.predict_proba(scores, groups)
            self.latencies.append(time.perf_counter() - t0)
            self.outputs.append(proba)

    def check(self, checks: Checks) -> None:
        for (scores, _), proba in zip(self.batches, self.outputs):
            checks.expect(proba.shape == scores.shape
                          and bool(np.all((proba >= 0.0) & (proba <= 1.0))),
                          "predict_proba lies in [0, 1]")


_CLASSES = {"solve_fixture": SolveFixture, "sweep_wide": SweepWide,
            "calibrate_large": CalibrateLarge, "predict_batches": PredictBatches}


def make(spec: Spec, seed: int, work_dir: Path) -> _Workload:
    return _CLASSES[spec.name](spec, seed, work_dir)
