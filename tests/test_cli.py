import base64
import hashlib
import itertools
import json
import math
import subprocess
import sys
import time

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fairpost import BaseRates, FairnessNotion, MixtureClassifier, surrogate_error
from fairpost import cli, multical, oracle
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
    dist = read_dataset(str(dataset), 20)
    bayes = float(dist.masses @ np.minimum(dist.scores, 1 - dist.scores))
    assert report["err_hat"] == pytest.approx(bayes, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists()


def test_solve_manifest_counters_and_timings(dataset, tmp_path):
    from fairpost.cli import build_parser
    out = tmp_path / "run"
    args = build_parser().parse_args(["solve", str(dataset), "--gamma", "0.0", "--C", "1",
                                      "--eta", "0.5", "--T", "300", "--grid-m", "20",
                                      "--out-dir", str(out)])
    t0 = time.perf_counter()
    assert args.func(args) == 0
    wall = time.perf_counter() - t0
    manifest = json.loads((out / "manifest.json").read_text())
    report = json.loads((out / "report.json").read_text())
    timings = manifest["timings_seconds"]
    assert set(timings) == {"parse", "solve", "report", "write_mixture", "write"}
    assert all(v >= 0.0 for v in timings.values())
    assert abs(sum(timings.values()) - wall) <= 0.05 * wall
    assert manifest["mixture_bytes"] == (out / "mixture.json").stat().st_size
    counters = manifest["counters"]
    assert set(counters) == {"rounds", "projections", "distinct_decisions"}
    assert counters["rounds"] == report["iterations"] == 300
    assert 0 < counters["projections"] <= counters["rounds"]
    assert 1 <= counters["distinct_decisions"] <= counters["rounds"]
    speculation = manifest["speculation"]
    assert set(speculation) == {"blocks", "speculated_rounds", "columns", "margin_stops"}
    assert speculation["blocks"] >= 1 and 0 <= speculation["speculated_rounds"] < 300
    assert 1 <= speculation["columns"] <= 2 ** len(read_dataset(str(dataset), 20).group_matrix)
    assert 0 <= speculation["margin_stops"] <= speculation["blocks"]
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
    dist = read_dataset(str(dataset), 20)
    p = mixture.positive_prob_vector(dist)
    for j, (score, bits) in enumerate(zip(dist.scores, dist.group_matrix.T)):
        assert mixture.positive_prob_points([score], [bits])[0] == p[j]
    report = json.loads((out / "report.json").read_text())
    assert surrogate_error(p, dist) == report["err_hat"]


SOLVE_ARGS = ["--gamma", "0.02", "--C", "4", "--T", "150", "--grid-m", "20"]


@pytest.fixture
def solved_mixture(dataset, tmp_path):
    """The mixture.json of one short solve."""
    out = tmp_path / "run"
    assert main(["solve", str(dataset), *SOLVE_ARGS, "--out-dir", str(out)]) == 0
    return out / "mixture.json"


def _v1_document(path, payload):
    """A fairpost.mixture.v1 file: the header as text and the rows as nested
    JSON lists, as the v1 writer laid them out."""
    v1 = {key: value for key, value in payload.items() if key != "weights"}
    v1.update(schema="fairpost.mixture.v1", lambdas=v1.pop("rules"))
    cli._write_json(path, v1)


def test_mixture_v3_load_matches_json(solved_mixture):
    mixture, payload = load_mixture(str(solved_mixture))
    plain = json.loads(solved_mixture.read_text())
    assert plain["schema"] == "fairpost.mixture.v3"
    assert payload == plain
    assert mixture.lambdas.shape == (len(plain["weights"]), 3)
    assert np.array_equal(mixture.lambdas, np.array(plain["rules"]))
    assert mixture.weights.tolist() == plain["weights"] and sum(plain["weights"]) == 150


def test_mixture_load_matches_json(tmp_path):
    # a v3 document the writer did not lay out: other key order, indented,
    # extra fields (among them the "w" that earlier writers added), and rules
    # from subnormal to near overflow with signed zeros
    rows = np.array([[-0.0, 5e-324, 1e308], [0.0, -2.5e-310, -1.5]])
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps({
        "weights": [3, 2 ** 40], "rules": rows.tolist(),
        "group_names": ["I", "a", "b"], "grid_m": 20, "w": [0.5, 0.5, 0.5],
        "beta": [0.5, 0.5, 0.5], "notion": "fp", "gamma": 0.05, "note": [1, "x"],
        "schema": "fairpost.mixture.v3"}, indent=2))
    mixture, payload = load_mixture(str(path))
    assert payload == json.loads(path.read_text())
    assert mixture.lambdas.shape == rows.shape
    assert np.array_equal(mixture.lambdas.view(np.uint64), rows.view(np.uint64))
    assert mixture.weights.tolist() == [3, 2 ** 40]


def test_v1_and_v2_mixtures_evaluate_alike(dataset, solved_mixture, tmp_path):
    # eval refuses a v1 and a v2 file alike and asks for a re-run of solve;
    # the re-run writes the first v3 file byte for byte, and evaluates as it
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    _v1_document(v1, json.loads(solved_mixture.read_text()))
    v2.write_text(solved_mixture.read_text().replace("mixture.v3", "mixture.v2"))
    for name, path in (("e1", v1), ("e0", v2)):
        assert main(["eval", str(dataset), "--mixture", str(path),
                     "--out-dir", str(tmp_path / name)]) == 1
        assert not (tmp_path / name).exists()
    rerun = tmp_path / "rerun"
    assert main(["solve", str(dataset), *SOLVE_ARGS, "--out-dir", str(rerun)]) == 0
    assert (rerun / "mixture.json").read_bytes() == solved_mixture.read_bytes()
    for name, path in (("e2", solved_mixture), ("e3", rerun / "mixture.json")):
        assert main(["eval", str(dataset), "--mixture", str(path), "--oracle",
                     "--out-dir", str(tmp_path / name)]) == 0
    assert ((tmp_path / "e2" / "evaluation.json").read_bytes()
            == (tmp_path / "e3" / "evaluation.json").read_bytes())


def test_a_mixture_carrying_w_evaluates_alike(dataset, solved_mixture, tmp_path):
    # v3 files written while BaseRates kept w carry each group's conditioning
    # weight G @ (masses * c) as "w"; eval ignores it like any unknown key
    doc = json.loads(solved_mixture.read_text())
    assert "w" not in doc and doc["notion"] == "fp"
    dist = read_dataset(str(dataset), doc["grid_m"])
    doc["w"] = (dist.group_matrix @ (dist.masses * (1.0 - dist.scores))).tolist()
    with_w = tmp_path / "with_w.json"
    with_w.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, path in (("plain", solved_mixture), ("with_w", with_w)):
        assert main(["eval", str(dataset), "--mixture", str(path), "--oracle",
                     "--out-dir", str(tmp_path / name)]) == 0
    assert ((tmp_path / "plain" / "evaluation.json").read_bytes()
            == (tmp_path / "with_w" / "evaluation.json").read_bytes())


def test_v1_mixture_is_refused(dataset, solved_mixture, tmp_path):
    # the v1 schema held the rows as nested JSON lists; eval reads v3 alone
    v1 = tmp_path / "v1.json"
    _v1_document(v1, json.loads(solved_mixture.read_text()))
    proc = run_cli("eval", str(dataset), "--mixture", str(v1),
                   "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr == ("error: bad mixture: schema 'fairpost.mixture.v1' is not "
                           "fairpost.mixture.v3; re-run solve to write one\n")
    assert not (tmp_path / "o").exists()


# each id names a malformed v1 row list and the refusal v1 gave it; the case
# is its v3 counterpart in "rules", which holds the rows as v1 did: rows of
# unequal length, a list of numbers, a row of strings, a document that is
# not JSON, no rule, and no rows
@pytest.mark.parametrize("lambdas, message", [
    pytest.param("[[0.1, 0.2], [0.3]]", "rules must be a list of rules",
                 id="[[0.1, 0.2], [0.3]]-equal-length rows"),
    pytest.param("[0.1, 0.2]", "rules must be a list of rules",
                 id="[0.1, 0.2]-equal-length rows"),
    pytest.param('[["x"]]', "rules must be numbers", id='[["x"]]-must be numbers'),
    ("[[0.1],]", "cannot read mixture"),
    pytest.param("[]", "mixture must contain at least one rule", id="[]-at least one rule"),
    pytest.param("null", "rules must be a list of rules", id="null-no lambdas rows"),
])
def test_mixture_load_rejects_bad_lambdas(tmp_path, capsys, lambdas, message):
    path = tmp_path / "mixture.json"
    path.write_text('{"schema": "fairpost.mixture.v3", "notion": "fp", "beta": [1.0],'
                    f' "grid_m": 20, "group_names": ["I"], "rules": {lambdas},'
                    ' "weights": [1]}')
    code = main(["eval", str(path), "--mixture", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err


def _b64(*values):
    """JSON text of a v2 "lambdas" string holding the given doubles."""
    return json.dumps(base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode())


# a v2 document is refused by its schema whatever its base64 "lambdas" hold,
# so none reaches a decoder: the cases that refused v2 documents, by id
V2_LAMBDAS = {
    "list": "[[0.1]]", "no-lambdas": None, "bad-char": '"AAAA$AAAAAAA="',
    "unpadded": '"AAAAAAAAAAA"', "padding-inside": '"' + "A" * ((4 << 16) - 1) + '=AA=="',
    "empty": '""', "ragged": json.dumps(base64.b64encode(bytes(12)).decode()),
    "width": _b64(0.1, 0.2, 0.3), "nan": _b64(0.1, math.nan), "infinite": _b64(-math.inf),
    "overflow": _b64(0.1, 0.2, 1e308, 1e308)}
V2 = {"schema": '"fairpost.mixture.v2"', "rules": None, "weights": None}
V2_REFUSED = "schema 'fairpost.mixture.v2' is not fairpost.mixture.v3"


@pytest.mark.parametrize("beta, lambdas, message", [
    ("[1.0]", "[[0.1], [NaN]]", "lambdas must be finite"),
    ("[1.0]", "[[Infinity]]", "lambdas must be finite"),
    ("[1.0]", "[[-Infinity], [0.2]]", "lambdas must be finite"),
    ("[NaN]", "[[0.1]]", "beta entries must lie in [0, 1]"),
    ("[1.0, 1.0]", "[[0.1]]", "rules must be a list of rules, each one number per group (2)"),
    ("[0.0, 0.0]", "[[0.1, 0.2], [1e308, 1e308]]",
     "lambdas too large: a group sum would overflow"),
    *(pytest.param({key: None}, "[[0.1]]", f"missing field {key!r}", id=f"no-{key}")
      for key in ("notion", "beta", "grid_m", "group_names", "rules", "weights")),
    pytest.param({"grid_m": '"100"'}, "[[0.1]]", "grid_m must be a positive integer",
                 id="grid_m-string"),
    pytest.param({"grid_m": "0"}, "[[0.1]]", "grid_m must be a positive integer",
                 id="grid_m-zero"),
    pytest.param({"grid_m": "true"}, "[[0.1]]", "grid_m must be a positive integer",
                 id="grid_m-bool"),
    pytest.param({"group_names": '"I"'}, "[[0.1]]", "group_names must be a list of strings",
                 id="group_names-string"),
    pytest.param({"group_names": '["I", "a"]'}, "[[0.1]]",
                 "group_names and beta differ in length", id="group_names-length"),
    pytest.param({"beta": '{"I": 1.0}'}, "[[0.1]]", "float() argument", id="beta-object"),
    pytest.param({"beta": "[]", "group_names": "[]"}, "[[]]",
                 "lambdas must have at least one group column", id="no-groups"),
    *(pytest.param({"gamma": text}, "[[0.1]]", "gamma must be a nonnegative number",
                   id=f"gamma-{name}")
      for name, text in (("string", '"x"'), ("negative", "-0.5"), ("bool", "true"),
                         ("nan", "NaN"), ("infinite", "Infinity"), ("null", "null"),
                         ("list", "[0.1]"), ("huge", "1" + "0" * 399))),
    *(pytest.param(V2, text, V2_REFUSED, id=f"v2-{name}") for name, text in V2_LAMBDAS.items()),
    *(pytest.param({"weights": text}, "[[0.1]]", "weights must be a list of integers",
                   id=f"weights-{name}")
      for name, text in (("float", "[1.0]"), ("bool", "[true]"), ("string", '["1"]'),
                         ("number", "1"), ("null", "null"))),
    pytest.param({"weights": "[0]"}, "[[0.1]]", "weights must be positive", id="weights-zero"),
    pytest.param({"weights": "[-2]"}, "[[0.1]]", "weights must be positive",
                 id="weights-negative"),
    pytest.param({"weights": "[1, 1]"}, "[[0.1]]", "weights must hold one integer per rule",
                 id="weights-count"),
    pytest.param({"weights": "[1" + "0" * 30 + "]"}, "[[0.1]]",
                 "weights must hold one integer per rule", id="weights-huge-int"),
    pytest.param({}, "[[0.1, 0.2]]", "rules must be a list of rules", id="rules-width"),
    pytest.param({}, "[[true]]", "rules must be numbers", id="rules-bools"),
    pytest.param({}, '"[[0.1]]"', "rules must be a list of rules", id="rules-string"),
    pytest.param({"beta": "[" + "1" + "0" * 399 + "]"}, "[[0.1]]",
                 "int too large to convert to float", id="beta-huge-int"),
    # a number, even one too large for a double, is not a list of rules
    pytest.param({}, "1" + "0" * 399, "rules must be a list of rules", id="lambdas-huge-int"),
    pytest.param({"document": "[1]"}, None, "the document must be a JSON object",
                 id="top-level-list"),
    pytest.param({"beta": '["1.0"]'}, "[[0.1]]", "beta must be numbers", id="beta-strings"),
    pytest.param({"beta": "[true]"}, "[[0.1]]", "beta must be numbers", id="beta-bools"),
])
def test_mixture_load_rejects_bad_values(tmp_path, capsys, beta, lambdas, message):
    """beta is the JSON text of the beta field, or a dict of field
    texts to set (None drops the field; "document" is the whole file);
    lambdas is the text of "rules" (or of a v2 "lambdas"), each rule of
    weight 1."""
    fields = {"schema": '"fairpost.mixture.v3"', "notion": '"fp"', "beta": "[1.0]",
              "grid_m": "20", "group_names": '["I"]', "rules": lambdas}
    rules = json.loads(lambdas) if lambdas is not None else None
    fields["weights"] = json.dumps([1] * len(rules) if isinstance(rules, list) else [1])
    fields.update(beta if isinstance(beta, dict) else {"beta": beta})
    if beta == V2:
        fields["lambdas"] = lambdas
    document = fields.pop("document", None)
    path = tmp_path / "mixture.json"
    path.write_text(document or "{" + ", ".join(f'"{key}": {text}' for key, text in
                                                fields.items() if text is not None) + "}")
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
    dist = read_dataset(str(data), 10)
    assert dist.label_means is not None
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
    path.write_bytes(b'{"schema": "fairpost.mixture.v2", "notion": "f\xff"}')
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
    dist = read_dataset(str(data), 20)
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


@pytest.mark.parametrize("argv, message", [
    (["solve", "--gamma", "inf"], "gamma must be a finite nonnegative number"),
    (["solve", "--gamma", "nan"], "gamma must be a finite nonnegative number"),
    (["solve", "--C", "nan"], "C must be positive and finite"),
    (["solve", "--C", "inf"], "C must be positive and finite"),
    (["solve", "--eta", "nan"], "eta must be positive and finite"),
    (["solve", "--eta", "inf"], "eta must be positive and finite"),
    (["solve", "--work-cap", "nan"], "work_cap must be positive"),
    (["sweep", "--gammas", "0.01,inf"], "gamma must be a finite nonnegative number"),
    (["sweep", "--gammas", "nan,0.01"], "gamma must be a finite nonnegative number"),
    (["solve", "--config", '{"gamma": null}'], "gamma must be a number, not None"),
    (["solve", "--config", '{"C": [1]}'], "C must be a number, not [1]"),
    (["solve", "--config", '{"record_every": null}'],
     "record_every must be a whole number, not None"),
    (["solve", "--config", '{"eta": null}'], 'eta must be "auto" or a number, not None'),
    (["solve", "--config", "[1, 2]"], "config must be a JSON object, not list"),
    (["solve", "--config", '{"grid_m": "x"}'], "grid_m must be a positive integer, not 'x'"),
    (["solve", "--config", '{"beta_mode": "from_scores"}'], "unknown config key 'beta_mode'"),
    (["solve", "--config", '{"T": 2.5}'], 'T must be "auto" or a whole number, not 2.5'),
    # C*C underflows to 0: no auto round, and the theorem slack divides by 0
    (["solve", "--C", "1e-170"],
     "C must be positive and finite, in [1.0547686614863001e-154, inf)"),
    (["solve", "--C", "1e-170", "--T", "5"],
     "C must be positive and finite, in [1.0547686614863001e-154, inf)"),
    # C*C is subnormal: the slack 2/C^2 is inf, which report.json cannot hold
    (["solve", "--C", "2e-162", "--T", "5"],
     "C must be positive and finite, in [1.0547686614863001e-154, inf)"),
])
def test_non_finite_settings_are_input_errors(dataset, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    grid_m = ["--grid-m", "20"]
    if argv[1] == "--config":    # the row holds the file's text, which no flag overrides
        cfg = tmp_path / "cfg.json"
        cfg.write_text(argv[2])
        argv, grid_m = [argv[0], "--config", str(cfg), *argv[3:]], []
    if argv[0] == "sweep":
        argv = argv + ["--C", "4", "--T", "50"]
    assert main([argv[0], str(dataset), *argv[1:], *grid_m,
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--gammas", "0.01,0.05"]])
def test_an_auto_budget_past_the_float_range_is_a_budget_miss(dataset, tmp_path, capsys,
                                                              command):
    out = tmp_path / "out"
    assert main([command[0], str(dataset), *command[1:], "--C", "1e160", "--grid-m", "20",
                 "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("error: budget exceeded: T = C^2 (C^2 + 4|G|)^2 / 4 at C = 1e+160 passes "
                   "the float range; lower C or set T\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--T", "50", "--eta", "1e20"],    # a step past C by more than 2**53
    ["--T", "50", "--eta", "1e17"],
    ["--C", "1e300", "--T", "5"],
    ["--C", "1.0547686614863001e-154", "--T", "5"],    # the least C whose slack is finite
])
def test_extreme_steps_and_balls_run(dataset, tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["solve", str(dataset), *flags, "--grid-m", "20",
                 "--out-dir", str(out)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
    T = int(flags[flags.index("--T") + 1])
    assert json.loads((out / "report.json").read_text())["iterations"] == T


def test_sweep_splits_gammas_to_fit_the_history_cap(dataset, tmp_path, monkeypatch, capsys):
    from fairpost import solver
    args = ["sweep", str(dataset), "--gammas", "0.2,0.01,0.05,0.0,0.1", "--C", "2",
            "--T", "300", "--grid-m", "20", "--svg"]
    # no room for even one gamma: the sweep fails as solve does, with run's
    # message and the budget exit code, and writes no pareto.csv
    monkeypatch.setattr(solver, "LAMBDA_HISTORY_CAP", 300 * 3 * 8 - 1)
    over = tmp_path / "over"
    assert main(args + ["--out-dir", str(over)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: budget exceeded: lambda history T*groups*8 = 7.2e+03 bytes > cap")
    assert not (over / "pareto.csv").exists() and not (over / "manifest.json").exists()


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
    # the reported cap is the one calibrate enforces: a run needing exactly
    # `rounds` patches passes at that cap and fails one below it
    assert report["round_cap"] == multical.round_cap(alpha) == math.floor(4 / alpha ** 2) + 1

    def calibrate_with_cap(cap):
        with mock.patch.object(multical, "round_cap", return_value=cap) as patched, \
                mock.patch.object(cli, "round_cap", patched):
            return main(["calibrate", str(data), "--alpha", str(alpha), "--grid-m", "20",
                         "--n-random-checks", "8", "--out-dir", str(out)])

    rounds = report["rounds"]
    assert calibrate_with_cap(rounds) == 0
    assert json.loads((out / "calibration.json").read_text())["round_cap"] == rounds
    with pytest.raises(RuntimeError, match="failed to terminate"):
        calibrate_with_cap(rounds - 1)


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


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """An 8-cell and a 24-cell dataset, each with a short solve's mixture.json."""
    root = tmp_path_factory.mktemp("solved")
    paths = {}
    for cells in (8, 24):
        data, run_dir = root / f"data{cells}.csv", root / f"run{cells}"
        assert main(["synth", "--seed", "1", "--n-cells", str(cells), "--grid-m", "20",
                     "--samples", "20000", "--out", str(data)]) == 0
        assert read_dataset(str(data), 20).n_cells == cells
        assert main(["solve", str(data), "--gamma", "0.05", "--C", "4", "--T", "50",
                     "--grid-m", "20", "--out-dir", str(run_dir)]) == 0
        paths[cells] = (str(data), str(run_dir / "mixture.json"))
    return paths


@pytest.mark.parametrize("command, message", [
    (["eval", 24, "--oracle"], "oracle: 24 cells x 3 groups = 72 exceed LP guard 71"),
    (["eval", 8, "--oracle", "--gamma", "-1"], "oracle: gamma must be nonnegative"),
    (["calibrate", 8, "--alpha", "1.5"], "alpha must lie in (0, 1)"),
    (["synth", "--seed", "1", "--n-cells", "0"], "n_cells must be at least 1"),
    (["eval", 8, "--oracle", "--gamma", "inf"], "oracle: gamma must be finite"),
    (["eval", 8, "--oracle", "--gamma", "nan"], "oracle: gamma must be finite"),
    (["audit", 8, "--check-C", "nan"], "C must be positive and finite"),
    (["audit", 8, "--check-C", "inf"], "C must be positive and finite"),
    (["audit", 8, "--check-C", "-3"], "C must be positive and finite"),
    (["calibrate", 8, "--check-C", "nan"], "C must be positive and finite"),
    (["calibrate", 8, "--check-C", "inf"], "C must be positive and finite"),
    (["calibrate", 8, "--n-random-checks", "-2"], "n_random must be nonnegative"),
    (["audit", 8, "--seed", "-1"], "seed must be nonnegative"),
    (["calibrate", 8, "--seed", "-1"], "seed must be nonnegative"),
    (["audit", 8, "--n-random-checks", "100000000"],
     "audit set too large: 100000003 checks x 8 cells > 16777216; lower n_random"),
    (["calibrate", 8, "--n-random-checks", "100000000"],
     "audit set too large: 100000003 checks x 8 cells > 16777216; lower n_random"),
    (["synth", "--seed", "1", "--samples", "-1"], "samples must be nonnegative"),
    (["calibrate", 8, "--alpha", "1e-300"],
     "alpha 1e-300 too small: 4/alpha^2 passes the float range"),
    # (ceil(1/alpha) + 1) levels x (3 groups + 64 random) checks
    (["calibrate", 8, "--alpha", "1e-9"],
     "level table too large: 1000000001 levels x 67 checks > 16777216; raise alpha"),
    (["calibrate", 8, "--alpha", "1e-6"],
     "level table too large: 1000001 levels x 67 checks > 16777216; raise alpha"),
])
def test_bad_arguments_are_input_errors(solved, tmp_path, capsys, monkeypatch, command,
                                        message):
    # a cap just under the 24-cell data's 72 cells x groups; the 8-cell data
    # holds 24
    monkeypatch.setattr(oracle, "MAX_CELL_GROUPS", 71)
    argv = [command[0]]
    if isinstance(command[1], int):
        data, mixture = solved[command[1]]
        argv += [data] + (["--mixture", mixture] if command[0] == "eval" else [])
        out = tmp_path / "out"
        argv += command[2:] + ["--out-dir", str(out)]
    else:
        out = tmp_path / "out.csv"
        argv += command[1:] + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("score_y, command, message", [
    ("0.0,0", ["solve", "--notion", "fn"], "degenerate label marginal: Pr[y=1] = 0"),
    ("1.0,1", ["solve", "--notion", "fp"], "degenerate label marginal: Pr[y=0] = 0"),
    ("1.0,1", ["audit"], "degenerate label marginal: Pr[y=0] = 0"),
    ("1.0,1", ["calibrate"], "degenerate label marginal: Pr[y=0] = 0"),
])
def test_degenerate_data_is_an_input_error(tmp_path, capsys, score_y, command, message):
    # three rows whose scores, or labels, are all 0 or all 1: solve's rates
    # come from the scores, the audit set's from the labels
    data = tmp_path / "data.csv"
    data.write_text("id,score,y,g_a\n" + "".join(f"{i},{score_y},{i % 2}\n" for i in range(3)))
    argv = [command[0], str(data)] + command[1:] + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (["solve", "{data}", "--gamma", "abc"], 1, "argument --gamma: invalid float value: 'abc'"),
    (["solve", "{data}", "--notion", "xx"], 1, "argument --notion: invalid choice: 'xx'"),
    (["solve", "{data}", "--beta-mode", "from_labels"], 1,
     "unrecognized arguments: --beta-mode from_labels"),
    (["synth", "--seed", "1", "--n-cells", "x", "--out", "{out}"], 1,
     "argument --n-cells: invalid int value: 'x'"),
    (["--help"], 0, None),
    (["solve", "--help"], 0, None),
])
def test_usage_errors_exit_1_and_help_exits_0(dataset, tmp_path, capsys, argv, code, message):
    # exit code 2 is a guarantee miss alone; argparse's own message stays
    argv = [a.format(data=dataset, out=tmp_path / "out.csv") for a in argv]
    try:
        got = main(argv + (["--out-dir", str(tmp_path / "run")] if argv[0] == "solve" else []))
    except SystemExit as exc:
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    if message is not None:
        assert "usage: fairpost" in err and f"error: {message}" in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "out.csv").exists()


def test_eval_oracle_guard(tmp_path):
    """eval --oracle refuses an LP over MAX_CELL_GROUPS cells x groups with
    exit 1: 1,001 scores x 16 patterns of 4 group columns is 16,016 cells,
    and the synthesized group I makes 5 groups."""
    data, run_dir = tmp_path / "wide.csv", tmp_path / "run"
    rows = [f"{i},{k / 1000!r},{','.join(str(mask >> j & 1) for j in range(4))}\n"
            for i, (k, mask) in enumerate(itertools.product(range(1001), range(16)))]
    data.write_text("id,score,g_a,g_b,g_c,g_d\n" + "".join(rows))
    assert main(["solve", str(data), "--T", "1", "--grid-m", "1000",
                 "--out-dir", str(run_dir)]) == 0
    proc = run_cli("eval", str(data), "--mixture", str(run_dir / "mixture.json"),
                   "--oracle", "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "error: oracle: 16016 cells x 5 groups = 80080 exceed LP guard 50000" in proc.stderr


@pytest.fixture(scope="module")
def wide_eval(tmp_path_factory):
    """eval --oracle on a solved 400-cell, 4-group dataset (the sweep_wide
    shape): (exit code, evaluation.json, data, mixture)."""
    root = tmp_path_factory.mktemp("wide")
    data, run_dir, out = root / "data.csv", root / "run", root / "eval"
    assert main(["synth", "--seed", "2", "--n-cells", "400", "--n-groups", "4",
                 "--profile", "two_group_bias", "--grid-m", "100", "--samples", "50000",
                 "--out", str(data)]) == 0
    assert main(["solve", str(data), "--notion", "sp", "--gamma", "0.01", "--C", "2",
                 "--T", "50", "--grid-m", "100", "--out-dir", str(run_dir)]) == 0
    code = main(["eval", str(data), "--mixture", str(run_dir / "mixture.json"),
                 "--oracle", "--out-dir", str(out)])
    return code, json.loads((out / "evaluation.json").read_text()), data, run_dir / "mixture.json"


def test_eval_oracle_at_400_cells(wide_eval):
    code, report, data, _ = wide_eval
    assert code == 0
    assert read_dataset(str(data), 100).n_cells == 400
    oracle = report["oracle"]
    assert 1 <= oracle["support_size"] <= 401
    assert oracle["err_gap"] == report["err_hat"] - oracle["opt_value"]
    assert oracle["true_err_gap"] == report["true"]["err"] - oracle["true_opt_value"]


def test_eval_oracle_is_the_solvers_program(wide_eval):
    """opt_value is the LP over p with the mixture's own beta and f =
    scores; HiGHS agrees to 1e-9."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    from reference_oracle import highs_optimum

    _, report, data, mixture_path = wide_eval
    dist = read_dataset(str(data), 100)
    mixture = load_mixture(str(mixture_path))[0]
    highs = highs_optimum(scipy_opt.linprog, dist, mixture.base, report["oracle"]["gamma"])
    assert abs(report["oracle"]["opt_value"] - highs) <= 1e-9


def _mixture_file(tmp_path, lambdas, weights=None):
    """The mixture.json of one FP mixture over groups I, a, b, as solve
    writes it."""
    data = tmp_path / "tiny.csv"
    data.write_text("id,score,y,g_I,g_a,g_b\n0,0.25,1,1,0,1\n1,0.75,0,1,1,0\n")
    dist = read_dataset(str(data), 4)
    # beta = 1/2 keeps every group sum of rows within +-1e308 finite
    base = BaseRates(FairnessNotion.FP, np.full(3, 0.5))
    mix = MixtureClassifier(np.asarray(lambdas, dtype=float), base, weights)
    path = tmp_path / "mixture.json"
    cli._write_json(path, cli._mixture_payload(mix, dist, 0.05))
    return path


@pytest.mark.parametrize("T", [1, 2, 4095, 4096, 4097, 8193])
def test_mixture_loads_to_same_bits(tmp_path, T):
    # magnitudes from subnormal to near overflow, with signed zeros, and
    # weights up to 2**40
    rng = np.random.Generator(np.random.PCG64(T))
    lam = rng.standard_normal((T, 3)) * 10.0 ** rng.integers(-320, 300, size=(T, 3))
    specials = [-0.0, 5e-324, 0.0, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1.5]
    lam.flat[:len(specials)] = specials[:lam.size]
    weights = rng.integers(1, 2 ** 40, size=T)
    mixture, payload = load_mixture(str(_mixture_file(tmp_path, lam, weights)))
    assert payload["schema"] == "fairpost.mixture.v3"
    assert mixture.lambdas.tobytes() == lam.tobytes()
    assert mixture.weights.tobytes() == weights.tobytes()


_FINITE = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from([1, 2, 4097]).flatmap(
    lambda T: hnp.arrays(np.float64, (T, 3), elements=_FINITE)))
@example(rows=np.array([[-0.0, 5e-324, 1.0], [0.1, -2.5e-310, 3.0]]))
@example(rows=np.array([[1e308, -1e308, -0.0]]))
def test_mixture_round_trips_through_load(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("mix")
    path = _mixture_file(tmp_path, rows)
    text = json.loads(path.read_text())["rules"]
    assert np.array(text, dtype=float).tobytes() == rows.tobytes()
    assert load_mixture(str(path))[0].lambdas.tobytes() == rows.tobytes()


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
    if command == "sweep":
        assert set(timings) == {"parse", "sweep", "write"}
        assert [(c["gamma"], c["rounds"]) for c in manifest["counters"]] == [
            (0.05, 2000), (0.25, 2000), (1.0, 2000)]
        # each gamma's own run, with its speculative blocks as solve writes them
        for c in manifest["counters"]:
            assert set(c) == {"gamma", "rounds", "projections", "distinct_decisions",
                              "speculation"} and c["distinct_decisions"] >= 1
            assert set(c["speculation"]) == {"blocks", "speculated_rounds", "columns",
                                             "margin_stops"}
            assert 0 < c["speculation"]["speculated_rounds"] <= c["rounds"]
    else:
        assert set(timings) == {"load_mixture", "parse", "eval", "write"}
        assert manifest["mixture_bytes"] == (run_dir / "mixture.json").stat().st_size
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
    assert set(counters) == {"checks", "levels", "patch_rounds", "term_updates",
                             "distinct_sets"}
    assert 0 < counters["distinct_sets"] <= counters["term_updates"]
    assert counters["checks"] == 4 + 64  # I and three groups, 64 random thresholds
    assert manifest["peak_rss_mb"] > 0.0
    if command == "audit":
        assert timings["calibrate"] == 0.0 and counters["patch_rounds"] == 0
        assert 1 <= counters["levels"] <= 51
        assert counters["term_updates"] == counters["checks"] * counters["levels"]
        # the all-ones group selects a nonempty set at every level
        assert counters["distinct_sets"] >= counters["levels"]
    else:
        calibration = json.loads((out / "calibration.json").read_text())
        assert counters["patch_rounds"] == calibration["rounds"] > 0
        assert counters["levels"] == 101
        assert counters["term_updates"] >= counters["checks"] * (1 + counters["patch_rounds"])
