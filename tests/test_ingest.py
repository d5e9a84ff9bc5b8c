"""The array data path against the row-by-row code it replaced.

`reference_ingest` keeps the old `read_dataset`, `build_cells` and synth
loop verbatim.  Ingest must give the same distribution and `has_labels`, or
the same `InputError` text; synth must write the same bytes.  Scalar uint64
arithmetic that overflows warns, so these tests turn RuntimeWarning into an
error.
"""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_ingest as ref
from fairpost import (FairThresholdPostprocessor, JointMulticalibrator, SplitMix64,
                      aggregate_cells, build_cells, cli)
from fairpost.cli import InputError, main, read_dataset

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _cells(dist):
    """Everything a distribution holds, floats as bits."""
    return (dist.grid_m, dist.groups,
            [(c.score.hex(), c.groups, c.mass.hex(),
              None if c.label_mean is None else c.label_mean.hex()) for c in dist.cells])


def _ingest(read, path, grid_m):
    """(kind, value): ("ok", cells and has_labels), ("input", message) or
    ("other", exception type) for an error that is not an InputError."""
    try:
        dist, has_labels = read(str(path), grid_m)
    except InputError as exc:
        return "input", str(exc)
    except (UnicodeDecodeError, csv.Error) as exc:
        return "other", type(exc).__name__
    return "ok", (_cells(dist), has_labels)


def assert_same_ingest(path, grid_m):
    want = _ingest(ref.read_dataset, path, grid_m)
    got = _ingest(read_dataset, path, grid_m)
    if want[0] == "other":
        # the old loop let non-UTF-8 bytes and csv errors escape as tracebacks
        assert got[0] == "input"
    else:
        assert got == want


# ---------------------------------------------------------------- ingest

SCORES = ["0.5", "0.25", "0", "1", "1.0", "0.05", "0.95", "0.333", "1e-1", ".5", "0.", "1.",
          "+0.5", " 0.5", "0.5 ", "0.2_5", "-0.0", "01", "0.30000000000000004"]
BAD_SCORES = ["nan", "inf", "-inf", "", "5.", "1.5", "-0.1", "abc", "0x1", "1__0", '""',
              "0." + "1" * 40]
BAD_FLAGS = ["2", "", " 1", "1 ", "01", "1.0", "-0", "x", '""']


@st.composite
def datasets(draw):
    """CSV bytes: mostly well formed, with at most a few of the quirks the
    array parser declines or the row loop rejects."""
    n_groups = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["I", "a", "b", "c", "_all"]),
                          min_size=n_groups, max_size=n_groups, unique=True))
    has_y = draw(st.booleans())
    header = ["id", "score"] + (["y"] if has_y else []) + [f"g_{n}" for n in names]
    covered = draw(st.lists(st.booleans(), min_size=n_groups, max_size=n_groups))
    n_rows = draw(st.integers(0, 12) | st.integers(1, 60))
    rows = []
    for i in range(n_rows):
        rec = [str(i), draw(st.sampled_from(SCORES) | st.floats(0, 1).map(repr))]
        if has_y:
            rec.append(draw(st.sampled_from("01")))
        rec += ["1" if cov else draw(st.sampled_from("01")) for cov in covered]
        rows.append(rec)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):   # rejected tokens, field counts
        if not rows:
            break
        rec = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["score", "flag", "short", "long", "quoted"]))
        if kind == "score":
            rec[1] = draw(st.sampled_from(BAD_SCORES))
        elif kind == "flag" and len(rec) > 2:
            rec[draw(st.integers(2, len(rec) - 1))] = draw(st.sampled_from(BAD_FLAGS))
        elif kind == "short":
            rec.pop()
        elif kind == "long":
            rec.append("1")
        elif kind == "quoted":
            j = draw(st.integers(1, len(rec) - 1))
            rec[j] = f'"{rec[j]}"'
    lines = [",".join(header)] + [",".join(r) for r in rows]
    if draw(st.integers(0, 3)) == 0 and rows:        # a blank line
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) or not rows else "")
    data = text.encode("ascii")
    if draw(st.integers(0, 7)) == 0:
        data = b"\xef\xbb\xbf" + data                # BOM
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff\xfe", b"\xc3\xa9", b"\0"])) + data[at:]
    return data


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=datasets(), chunk=st.sampled_from([1, 2, 3, 7, 16, 64, 1 << 20]),
       grid_m=st.sampled_from([1, 4, 20, 100]))
def test_ingest_equals_row_loop(tmp_path, monkeypatch, data, chunk, grid_m):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert_same_ingest(path, grid_m)


@pytest.mark.parametrize("chunk", [5, 100, 4096, 1 << 20])
def test_synth_dataset_takes_array_path(tmp_path, monkeypatch, chunk):
    path = tmp_path / "data.csv"
    assert main(["synth", "--seed", "3", "--n-cells", "40", "--n-groups", "3",
                 "--profile", "adversarial_overlap", "--miscalibration", "0.4",
                 "--grid-m", "50", "--samples", "3000", "--out", str(path)]) == 0
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    source = {}
    dist, has_labels = read_dataset(str(path), 50, source)
    want, want_labels = ref.read_dataset(str(path), 50)
    assert (_cells(dist), has_labels) == (_cells(want), want_labels)
    assert source == {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                      "rows": 3000, "cells": dist.n_cells, "parser": "array"}


@pytest.mark.parametrize("data, parser", [
    (b"id,score,y,g_a\n0,0.2,0,1\n1,0.8,1,0\n", "array"),
    (b"id,score,y,g_a\n0,0.2,0,1\n1,0.8,1,0", "array"),          # no final newline
    (b"id,score,y,g_a\r\n0,0.2,0,1\r\n1,0.8,1,0\r\n", "rows"),    # CR
    (b"\xef\xbb\xbfid,score,y,g_a\n0,0.2,0,1\n", "rows"),         # BOM
    (b'id,score,y,g_a\n0,"0.2",0,1\n', "rows"),                   # quote
    (b"id,score,y,g_a\n0,0.2,0,1\n\n1,0.8,1,0\n", "rows"),        # blank line
    (b"id,score,y,g_a\n\xc3\xa9,0.2,0,1\n", "rows"),              # non-ASCII id
    (b"id,score,y,g_a\n0,0." + b"1" * 40 + b",0,1\n", "rows"),    # long score token
])
def test_parser_choice(tmp_path, data, parser):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    source = {}
    read_dataset(str(path), 10, source)
    assert source["parser"] == parser
    assert source["sha256"] == hashlib.sha256(data).hexdigest()
    assert_same_ingest(path, 10)


@pytest.mark.parametrize("row", ["1,0.5,2,1", "1,0.5,1,2", "1,0.5,1,x", "1,0.5,9,1",
                                 "1,nan,1,1", "1,1.5,0,1", "1,,0,1", "1,0.5,,1",
                                 "1,0.5,1", "1,0.5,1,1,1"])
def test_rejected_row_matches_row_loop(tmp_path, row):
    path = tmp_path / "data.csv"
    path.write_text(f"id,score,y,g_a\n0,0.2,0,1\n{row}\n2,0.8,1,1\n")
    with pytest.raises(InputError, match="^row 3: "):
        read_dataset(str(path), 10)
    assert_same_ingest(path, 10)


# ---------------------------------------------------------------- aggregation

def _random_rows(rng, n, width, labels=True):
    return [(float(rng.uniform()), tuple(int(b) for b in rng.integers(0, 2, size=width)),
             int(rng.integers(2)) if labels else None) for _ in range(n)]


@pytest.mark.parametrize("width, grid_m", [(1, 10), (3, 20), (60, 7), (61, 7), (130, 5),
                                           (2, 2 ** 40), (40, 2 ** 40)])
def test_aggregate_cells_equals_row_loop(width, grid_m):
    # a key past 62 bits ranks itself before the next shift: from 61 groups
    # on a 1/7 grid, from 23 groups on a 2**-40 grid
    rng = np.random.Generator(np.random.PCG64(width + grid_m))
    rows = _random_rows(rng, 500, width)
    rows += rows[:100]  # repeated rows share cells
    want = ref.build_cells(rows, grid_m)
    assert _cells(build_cells(rows, grid_m)) == _cells(want)
    scores, bits, labels = (np.array(col) for col in zip(*rows))
    assert _cells(aggregate_cells(scores, bits, labels, grid_m)) == _cells(want)
    assert aggregate_cells(scores, bits, None, grid_m).label_means is None


def test_aggregate_cells_rejects_bad_rows():
    with pytest.raises(ValueError, match="row 1: score 1.5 outside"):
        aggregate_cells([0.5, 1.5], [[1], [1]], None, 10)
    with pytest.raises(ValueError, match="row 0: group indicators must be 0 or 1"):
        aggregate_cells([0.5], [[2]], None, 10)
    with pytest.raises(ValueError, match="row 1: label must be 0 or 1"):
        aggregate_cells([0.5, 0.5], [[1], [1]], [1, 2], 10)
    with pytest.raises(ValueError, match="empty dataset"):
        aggregate_cells([], np.zeros((0, 1)), None, 10)


def test_estimator_fit_cells_equal_row_loop():
    rng = np.random.Generator(np.random.PCG64(5))
    rows = _random_rows(rng, 400, 3)
    rows = [(s, (1,) + b, y) for s, b, y in rows]
    scores, bits, labels = (np.array(col) for col in zip(*rows))
    want = _cells(ref.build_cells(rows, 20, group_names=("I", "a", "b", "c")))
    est = FairThresholdPostprocessor(T=20, grid_m=20).fit(scores, bits, labels,
                                                          group_names=("I", "a", "b", "c"))
    cal = JointMulticalibrator(grid_m=20, n_random_checks=2).fit(
        scores, bits, labels, group_names=("I", "a", "b", "c"))
    assert _cells(est.distribution_) == want
    assert _cells(cal.distribution_) == want


# ---------------------------------------------------------------- synth

@pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 63, 2 ** 64 - 1, 2 ** 64 - 3, -1, -7,
                                  (-3 << 1) ^ 0xD1B54A32D192ED03])
def test_uniforms_equal_scalar_stream(seed):
    scalar, vector = SplitMix64(seed), SplitMix64(seed)
    want = [scalar.uniform() for _ in range(257)]
    got = np.concatenate([vector.uniforms(100), vector.uniforms(0), vector.uniforms(157)])
    assert got.tolist() == want
    assert vector.state == scalar.state
    assert vector.uniform() == scalar.uniform()


# synth CSVs of the benchmark workloads' tiny shapes, and two more flag
# sets, hashed on the per-sample loop before the vectorized writer
GOLDEN = [
    ("38ed9a331ceb426ca3f80ba2f0b688cd635202958a6ddd44bd52ec5236fd532d",
     ["--seed", "1", "--n-cells", "6", "--n-groups", "2", "--profile", "two_group_bias",
      "--grid-m", "20", "--samples", "2000"]),
    ("2ac818bec849c3cf68f9b3788667d7fe28afe06c47ca022f5bc147f2141d0833",
     ["--seed", "2", "--n-cells", "30", "--n-groups", "2", "--profile", "two_group_bias",
      "--grid-m", "20", "--samples", "3000"]),
    ("6b78f6554580b56f21f6cf6091ed47a829d897561e96f970f80397a669533e54",
     ["--seed", "3", "--n-cells", "20", "--n-groups", "2", "--profile",
      "adversarial_overlap", "--grid-m", "20", "--miscalibration", "0.4",
      "--samples", "4000"]),
    ("0539bbee8ca57aa903a50da9e995735afe625499680cc993ddfa8627e535cbb2",
     ["--seed", "4", "--n-cells", "10", "--n-groups", "2", "--profile", "uniform",
      "--miscalibration", "0.05", "--samples", "3000"]),
    ("09ab2b8166025e694d1eabbc0cc5c450da8fa8674487e6c2b34adeef21c72375",
     ["--seed", "-5", "--n-cells", "12", "--n-groups", "3", "--profile", "uniform",
      "--samples", "1500", "--no-labels"]),
    ("ddaee6fdfd05907796e5df3ceb4cbbb78502e673aa3904dee324c5b0c0d7ceef",
     ["--seed", str(2 ** 63 + 12345), "--n-cells", "9", "--n-groups", "2",
      "--exact-scores", "--samples", "1000"]),
]


@pytest.mark.parametrize("digest, flags", GOLDEN)
def test_synth_csv_golden(tmp_path, digest, flags):
    path = tmp_path / "data.csv"
    assert main(["synth", *flags, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("kwargs", [
    dict(seed=7, samples=0),
    dict(seed=-2, samples=1, no_labels=True),
    dict(seed=11, n_cells=25, n_groups=3, profile="adversarial_overlap",
         miscalibration=0.3, samples=70000),
])
def test_synth_csv_equals_per_sample_loop(tmp_path, monkeypatch, kwargs):
    monkeypatch.setattr(cli, "_WRITE_ROWS", 1000)
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    ref.synth_csv(want, **kwargs)
    flags = []
    for key, value in kwargs.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    assert main(["synth", *flags, "--out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()
