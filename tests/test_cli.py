import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fairpost import BaseRates, FairnessNotion, MixtureClassifier, build_cells, surrogate_error
from fairpost.cli import load_mixture, main, read_dataset


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "fairpost.cli", *map(str, args)],
                          capture_output=True, text=True)
    return proc


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data.csv"
    code = main(["synth", "--seed", "1", "--n-cells", "8", "--n-groups", "2",
                 "--grid-m", "20", "--profile", "two_group_bias",
                 "--samples", "4000", "--out", str(out)])
    assert code == 0
    return out


def test_synth_writes_schema(dataset):
    header = dataset.read_text().splitlines()[0]
    assert header == "id,score,y,g_I,g_g1,g_g2"


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["synth", "--seed", "7", "--samples", "500", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_vacuous_gamma(dataset, tmp_path):
    out = tmp_path / "run"
    code = main(["solve", str(dataset), "--gamma", "1.0", "--C", "4", "--T", "200",
                 "--grid-m", "20", "--record-every", "50", "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_violation_hat"] <= 1.0
    dist, _ = read_dataset(str(dataset), 20)
    bayes = float(dist.masses @ np.minimum(dist.scores, 1 - dist.scores))
    assert report["err_hat"] == pytest.approx(bayes, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists()


def test_solve_manifest_counters_and_timings(dataset, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", str(dataset), "--gamma", "0.0", "--C", "1", "--eta", "0.5",
                 "--T", "300", "--grid-m", "20", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert set(manifest["timings_seconds"]) == {"parse", "solve", "report", "write"}
    assert all(v >= 0.0 for v in manifest["timings_seconds"].values())
    counters = manifest["counters"]
    assert set(counters) == {"rounds", "projections", "distinct_decisions"}
    assert counters["rounds"] == report["iterations"] == 300
    assert 0 < counters["projections"] <= counters["rounds"]
    assert 1 <= counters["distinct_decisions"] <= counters["rounds"]
    assert manifest["peak_rss_mb"] > 0.0


def test_solve_trajectory_rows(dataset, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", str(dataset), "--gamma", "0.05", "--C", "4", "--T", "103",
                 "--grid-m", "20", "--record-every", "10", "--out-dir", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# schema:")
    assert lines[1] == "t,err_hat,max_violation_hat,lambda_l1,duality_gap_estimate"
    assert len(lines) - 2 == math.ceil(103 / 10)


def test_mixture_roundtrip(dataset, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", str(dataset), "--gamma", "0.02", "--C", "4", "--T", "150",
                 "--grid-m", "20", "--out-dir", str(out)]) == 0
    mixture, payload = load_mixture(str(out / "mixture.json"))
    dist, _ = read_dataset(str(dataset), 20)
    p = mixture.positive_prob_vector(dist)
    for j, cell in enumerate(dist.cells):
        assert mixture.positive_prob(cell) == p[j]
    report = json.loads((out / "report.json").read_text())
    assert surrogate_error(p, dist) == report["err_hat"]


def test_mixture_load_matches_json(dataset, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", str(dataset), "--gamma", "0.02", "--C", "4", "--T", "150",
                 "--grid-m", "20", "--out-dir", str(out)]) == 0
    mixture, payload = load_mixture(str(out / "mixture.json"))
    plain = json.loads((out / "mixture.json").read_text())
    want = np.array(plain.pop("lambdas"), dtype=float)
    assert payload == plain
    assert mixture.lambdas.shape == want.shape
    assert np.array_equal(mixture.lambdas.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("lambdas, message", [
    ("[[0.1, 0.2], [0.3]]", "equal-length rows"),
    ("[0.1, 0.2]", "equal-length rows"),
    ('[["x"]]', "must be numbers"),
    ("[[0.1],]", "cannot read mixture"),
    ("[]", "at least one rule"),
    ("null", "no lambdas rows"),
])
def test_mixture_load_rejects_bad_lambdas(tmp_path, capsys, lambdas, message):
    path = tmp_path / "mixture.json"
    path.write_text('{"schema": "fairpost.mixture.v1", "notion": "fp", "beta": [1.0],'
                    f' "w": [1.0], "grid_m": 20, "group_names": ["I"], "lambdas": {lambdas}}}')
    code = main(["eval", str(path), "--mixture", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("beta, lambdas, message", [
    ("[1.0]", "[[0.1], [NaN]]", "lambdas must be finite"),
    ("[1.0]", "[[Infinity]]", "lambdas must be finite"),
    ("[1.0]", "[[-Infinity], [0.2]]", "lambdas must be finite"),
    ("[NaN]", "[[0.1]]", "beta entries must lie in [0, 1]"),
    ("[1.0, 1.0]", "[[0.1]]", "lambdas width must match the group count"),
    ("[0.0, 0.0]", "[[0.1, 0.2], [1e308, 1e308]]",
     "lambdas too large: a group sum would overflow"),
])
def test_mixture_load_rejects_bad_values(tmp_path, capsys, beta, lambdas, message):
    path = tmp_path / "mixture.json"
    path.write_text('{"schema": "fairpost.mixture.v1", "notion": "fp", "beta": '
                    f'{beta}, "w": [1.0], "grid_m": 20, "group_names": ["I"], '
                    f'"lambdas": {lambdas}}}')
    code = main(["eval", str(path), "--mixture", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"error: bad mixture: {message}" in capsys.readouterr().err


def test_malformed_row_names_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,score,y,g_I\n0,0.5,1,1\n1,oops,0,1\n")
    proc = run_cli("solve", str(bad), "--T", "5", "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "row 3" in proc.stderr


def test_crlf_dataset_accepted(tmp_path):
    data = tmp_path / "crlf.csv"
    data.write_bytes(b"id,score,y,g_a\r\n0,0.2,0,1\r\n1,0.8,1,0\r\n")
    dist, has_labels = read_dataset(str(data), 10)
    assert has_labels
    # no column covers every row: the all-ones group I is synthesized first
    assert dist.groups.names == ("I", "a")
    assert np.all(dist.group_matrix[0] == 1.0)


def test_config_file_with_flag_override(tmp_path, dataset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 0.5, "C": 4, "T": 80, "grid_m": 20,
                               "record_every": 40}))
    out = tmp_path / "run"
    assert main(["solve", str(dataset), "--config", str(cfg), "--gamma", "0.25",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gamma"] == 0.25          # flag wins
    assert report["iterations"] == 80       # file value kept
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["C"] == 4


def test_unknown_config_key_rejected(tmp_path, dataset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamm": 0.5}))
    proc = run_cli("solve", str(dataset), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "unknown config key" in proc.stderr


def test_missing_group_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,score\n0,0.5\n")
    proc = run_cli("solve", str(bad), "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 1


def test_budget_exit_code(dataset, tmp_path):
    proc = run_cli("solve", str(dataset), "--C", "10", "--grid-m", "20",
                   "--work-cap", "100", "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 3
    assert "budget" in proc.stderr


def test_lambda_history_cap_exit_code(tmp_path):
    # 4 cells keep T*cells under the work cap at C=40; the 33 GB lambda
    # history does not fit under the history cap
    data = tmp_path / "four.csv"
    data.write_text("id,score,g_I,g_a,g_b,g_c\n0,0.2,1,0,1,0\n1,0.4,1,1,0,0\n"
                    "2,0.6,1,0,0,1\n3,0.8,1,1,1,1\n")
    proc = run_cli("solve", str(data), "--C", "40", "--grid-m", "10",
                   "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 3
    assert "lambda history" in proc.stderr
    assert "3.34e+10 bytes > cap 1.07e+09 bytes" in proc.stderr


def test_non_utf8_dataset_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"id,score,y,g_a\n0,0.5,1,1\n1,\xff\xfe,0,1\n")
    proc = run_cli("solve", str(bad), "--T", "5", "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: row 3: ")
    assert "not valid UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_utf8_mixture_is_a_bad_mixture(dataset, tmp_path):
    path = tmp_path / "mixture.json"
    path.write_bytes(b'{"schema": "fairpost.mixture.v1", "notion": "f\xff"}')
    proc = run_cli("eval", str(dataset), "--mixture", str(path),
                   "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: bad mixture: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("crlf", [False, True])
def test_manifest_input_summary(dataset, tmp_path, crlf):
    data = dataset
    if crlf:
        data = tmp_path / "crlf.csv"
        data.write_bytes(dataset.read_bytes().replace(b"\n", b"\r\n"))
    out = tmp_path / "run"
    assert main(["solve", str(data), "--gamma", "0.05", "--C", "2", "--T", "20",
                 "--grid-m", "20", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    dist, _ = read_dataset(str(data), 20)
    assert manifest["input"] == {"rows": 4000, "cells": dist.n_cells,
                                 "parser": "rows" if crlf else "array"}
    assert manifest["input_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()


def test_guarantee_miss_exit_code(dataset, tmp_path):
    # a single round at gamma=0 leaves the unconstrained rule's violation in
    # place, far above the C=100 slack
    out = tmp_path / "run"
    code = main(["solve", str(dataset), "--gamma", "0.0", "--C", "100", "--T", "1",
                 "--grid-m", "20", "--out-dir", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert not report["guarantee_ok"]


def test_sweep_single_gamma(dataset, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", str(dataset), "--gammas", "0.05", "--C", "4", "--T", "150",
                 "--grid-m", "20", "--out-dir", str(out)]) == 0
    lines = (out / "pareto.csv").read_text().splitlines()
    assert len(lines) == 3  # schema + header + one row
    assert lines[2].startswith("0.05,")


def test_sweep_deterministic_and_sorted(dataset, tmp_path):
    args = ["sweep", str(dataset), "--gammas", "0.25,0.05,1.0", "--C", "4",
            "--T", "200", "--grid-m", "20", "--svg"]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "pareto.csv").read_bytes() == (out2 / "pareto.csv").read_bytes()
    gammas = [float(l.split(",")[0])
              for l in (out1 / "pareto.csv").read_text().splitlines()[2:]]
    assert gammas == sorted(gammas)
    assert (out1 / "pareto.svg").exists()


def test_audit_on_exact_scores(tmp_path):
    data = tmp_path / "exact.csv"
    assert main(["synth", "--seed", "3", "--profile", "uniform", "--samples", "6000",
                 "--exact-scores", "--out", str(data)]) == 0
    out = tmp_path / "audit"
    assert main(["audit", str(data), "--grid-m", "20", "--n-random-checks", "8",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "audit.json").read_text())
    # scores equal conditional means up to sampling noise of the labels
    assert report["max_violation"] <= 0.05


def test_calibrate_history_capped(tmp_path):
    data = tmp_path / "mis.csv"
    assert main(["synth", "--seed", "9", "--n-cells", "60", "--n-groups", "3",
                 "--profile", "uniform", "--miscalibration", "0.5",
                 "--samples", "8000", "--out", str(data)]) == 0
    out = tmp_path / "cal"
    alpha = 0.02
    assert main(["calibrate", str(data), "--alpha", str(alpha), "--grid-m", "20",
                 "--n-random-checks", "8", "--out-dir", str(out)]) == 0
    lines = (out / "calibration_history.csv").read_text().splitlines()
    assert len(lines) - 2 <= 4 / alpha ** 2
    report = json.loads((out / "calibration.json").read_text())
    assert report["rounds"] == len(lines) - 2
    assert report["post_audit_max_violation"] <= math.sqrt(alpha)


def test_eval_with_oracle(dataset, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["solve", str(dataset), "--gamma", "0.05", "--C", "4", "--T", "300",
                 "--grid-m", "20", "--out-dir", str(run_dir)]) == 0
    out = tmp_path / "eval"
    assert main(["eval", str(dataset), "--mixture", str(run_dir / "mixture.json"),
                 "--oracle", "--out-dir", str(out)]) == 0
    report = json.loads((out / "evaluation.json").read_text())
    assert "opt_value" in report["oracle"]
    # the mixture can undercut the strictly-feasible optimum only within
    # its own constraint slack
    assert report["err_hat"] >= report["oracle"]["opt_value"] - 0.5


def test_eval_oracle_guard(dataset, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["solve", str(dataset), "--gamma", "0.05", "--C", "4", "--T", "50",
                 "--grid-m", "20", "--out-dir", str(run_dir)]) == 0
    proc = run_cli("eval", str(dataset), "--mixture", str(run_dir / "mixture.json"),
                   "--oracle", "--max-cells", "2", "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "guard" in proc.stderr


def _mixture_bytes_both_ways(tmp_path, lambdas):
    """mixture.json bytes from the streaming writer and from one json.dump."""
    from fairpost.cli import _mixture_header, _write_json, _write_mixture
    data = tmp_path / "tiny.csv"
    data.write_text("id,score,y,g_I,g_a,g_b\n0,0.25,1,1,0,1\n1,0.75,0,1,1,0\n")
    dist, _ = read_dataset(str(data), 4)
    base = BaseRates(FairnessNotion.FP, np.full(3, 0.25), np.full(3, 0.5))
    mix = MixtureClassifier(np.asarray(lambdas, dtype=float), FairnessNotion.FP, base)
    streamed, whole = tmp_path / "streamed.json", tmp_path / "whole.json"
    _write_mixture(streamed, mix, dist, 0.05)
    _write_json(whole, {**_mixture_header(mix, dist, 0.05), "lambdas": mix.lambdas.tolist()})
    return streamed.read_bytes(), whole.read_bytes()


@pytest.mark.parametrize("T", [1, 2, 4095, 4096, 4097, 8193])
def test_streamed_mixture_bytes_equal_json_dump(tmp_path, T):
    # row counts around the writer's 4096-row chunks; magnitudes from
    # subnormal to near overflow, with signed zeros
    rng = np.random.Generator(np.random.PCG64(T))
    lam = rng.standard_normal((T, 3)) * 10.0 ** rng.integers(-320, 300, size=(T, 3))
    specials = [-0.0, 5e-324, 0.0, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1.5]
    lam.flat[:len(specials)] = specials[:lam.size]
    streamed, whole = _mixture_bytes_both_ways(tmp_path, lam)
    assert streamed == whole
    assert json.loads(streamed)["lambdas"] == lam.tolist()


def test_streamed_mixture_round_trips_through_load(tmp_path):
    lam = [[-0.0, 5e-324, 1.0], [0.1, -2.5e-310, 3.0]]
    streamed, whole = _mixture_bytes_both_ways(tmp_path, lam)
    assert streamed == whole
    mixture, _ = load_mixture(str(tmp_path / "streamed.json"))
    assert mixture.lambdas.tobytes() == np.array(lam).tobytes()


@pytest.fixture(scope="module")
def calibration_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cal") / "data.csv"
    assert main(["synth", "--seed", "2", "--n-cells", "40", "--n-groups", "3",
                 "--grid-m", "50", "--profile", "adversarial_overlap",
                 "--miscalibration", "0.4", "--samples", "20000", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", ["sweep", "eval"])
def test_sweep_eval_manifest_stages(calibration_dataset, tmp_path, command):
    from fairpost.cli import build_parser
    data = str(calibration_dataset)
    if command == "sweep":
        argv = ["sweep", data, "--gammas", "0.25,0.05,1.0", "--C", "4", "--T", "2000",
                "--grid-m", "50", "--svg"]
    else:
        run_dir = tmp_path / "run"
        assert main(["solve", data, "--gamma", "0.05", "--C", "4", "--T", "2000",
                     "--grid-m", "50", "--out-dir", str(run_dir)]) == 0
        argv = ["eval", data, "--mixture", str(run_dir / "mixture.json")]
    out = tmp_path / command
    args = build_parser().parse_args(argv + ["--out-dir", str(out)])
    t0 = time.perf_counter()
    assert args.func(args) == 0
    wall = time.perf_counter() - t0
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings_seconds"]
    assert set(timings) == {"parse", command, "write"}
    assert all(v >= 0.0 for v in timings.values())
    assert abs(sum(timings.values()) - wall) <= 0.05 * wall
    assert manifest["peak_rss_mb"] > 0.0


@pytest.mark.parametrize("command", ["audit", "calibrate"])
def test_multical_manifest_stages_and_counters(calibration_dataset, tmp_path, command):
    from fairpost.cli import build_parser
    out = tmp_path / command
    extra = ["--alpha", "0.01"] if command == "calibrate" else []
    args = build_parser().parse_args([command, str(calibration_dataset), "--grid-m", "50",
                                      *extra, "--out-dir", str(out)])
    t0 = time.perf_counter()
    assert args.func(args) == 0
    wall = time.perf_counter() - t0
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings_seconds"]
    assert set(timings) == {"parse", "checks", "calibrate", "audit", "write"}
    assert all(v >= 0.0 for v in timings.values())
    assert abs(sum(timings.values()) - wall) <= 0.05 * wall
    counters = manifest["counters"]
    assert set(counters) == {"checks", "levels", "patch_rounds", "term_updates"}
    assert counters["checks"] == 4 + 64  # I and three groups, 64 random thresholds
    assert manifest["peak_rss_mb"] > 0.0
    if command == "audit":
        assert timings["calibrate"] == 0.0 and counters["patch_rounds"] == 0
        assert 1 <= counters["levels"] <= 51
        assert counters["term_updates"] == counters["checks"] * counters["levels"]
    else:
        calibration = json.loads((out / "calibration.json").read_text())
        assert counters["patch_rounds"] == calibration["rounds"] > 0
        assert counters["levels"] == 101
        assert counters["term_updates"] >= counters["checks"] * (1 + counters["patch_rounds"])
