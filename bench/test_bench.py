"""Self-tests of the benchmark: python3 -m pytest -q bench"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _metric_units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_metric_lists_match_benchmark_json():
    assert dict(run.END_TO_END) == _metric_units("end_to_end")
    assert dict(spans.PER_LAYER) == _metric_units("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SPECS)
    assert all(w["why"] == workloads.SPECS[w["name"]].why for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_tiny_workload_smoke(name):
    spec = workloads.tiny(name)
    plain = run.run_workload(spec, seed=0, seconds=0, traced=False)
    assert plain["checks"].failures == [] and plain["checks"].attempted >= 1
    assert set(plain["metrics"]) == set(dict(run.END_TO_END))
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run_workload(spec, seed=0, seconds=0, traced=True)
    assert traced["checks"].failures == []
    assert set(traced["metrics"]) == set(dict(spans.PER_LAYER))
    assert traced["extras"]["spans"][0] > 0


def test_seed_selects_the_input(tmp_path):
    spec = workloads.tiny("solve_fixture")
    texts = []
    for seed, sub in ((0, "a"), (0, "b"), (1, "c")):
        (tmp_path / sub).mkdir()
        wl = workloads.make(spec, seed, tmp_path / sub)
        wl.setup()
        texts.append(wl.data.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_wrappers_removed_after_traced_run():
    tracer = spans.Tracer("test")
    table = spans.patch_table(tracer)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in table]
    with pytest.raises(RuntimeError):
        with spans.instrument(tracer):
            assert all(vars(owner)[attr] is not orig for owner, attr, orig in originals)
            raise RuntimeError("body fails")
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)

    run.run_workload(workloads.tiny("predict_batches"), seed=0, seconds=0, traced=True)
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)


def test_covered_ns_merges_overlaps_and_clips():
    # [10,30] and [20,50] overlap -> [10,50]; [90,120] clips to [90,100]
    assert spans.covered_ns([(20, 50), (10, 30), (90, 120)], 0, 100) == 50
    assert spans.covered_ns([], 0, 100) == 0
    assert spans.covered_ns([(150, 200)], 0, 100) == 0


def test_self_time_of_nested_spans():
    S = spans.Span
    tree = [
        S(0, None, "root", 0, 100, None),
        S(1, 0, "child", 10, 60, None),
        S(2, 1, "grandchild", 20, 40, None),
        S(3, 0, "parallel child", 50, 80, None),
    ]
    self_ns = spans.self_times(tree)
    # root: 100 - union([10,60], [50,80]) = 100 - 70; the grandchild is not
    # subtracted from the root a second time
    assert self_ns == {0: 30, 1: 30, 2: 20, 3: 30}


def test_tracer_nests_spans_and_threads_under_root():
    import threading
    tracer = spans.Tracer("t")
    inner = spans.traced(tracer, "inner", lambda: None)
    in_worker = spans.traced(tracer, "worker", lambda: None)

    def top():
        inner()
        worker = threading.Thread(target=in_worker)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    spans.traced(tracer, "top", top, root=True)()
    (top_span,) = tracer.closed("top")
    parents = {s.name: s.parent for s in map(spans.Span._make, tracer.spans)}
    assert parents == {"inner": top_span.id, "worker": top_span.id, "top": None}
    assert tracer.root is None
