"""Smoke test of the benchmark itself, at a tiny panel size.

Every workload runs traced (which alternates traced and untraced
iterations) on a panel small enough to finish in seconds, so each
workload's code path, the output checks and the per-layer arithmetic are
exercised without measuring anything.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import child  # noqa: E402
import harness  # noqa: E402


@pytest.fixture(scope="module")
def traced_runs():
    return {name: harness.measure(name, seed=1, seconds=0, trace=True, tiny=True)
            for name in harness.WORKLOADS}


def test_every_workload_passes_its_checks(traced_runs):
    for name, outcome in traced_runs.items():
        assert outcome.correct, (name, outcome.lines)
        assert outcome.failed == 0
        assert outcome.attempted >= harness.MIN_ITERATIONS


def test_traced_run_reports_every_per_layer_metric(traced_runs):
    expected = [name for name, _, _ in harness.PER_LAYER]
    for outcome in traced_runs.values():
        assert list(outcome.metrics) == expected
        for name, unit, _ in harness.PER_LAYER:
            assert outcome.metrics[name]["unit"] == unit
            assert isinstance(outcome.metrics[name]["value"], (int, float))


def test_pool_thread_spans_are_parented_to_the_enclosing_span():
    tracer = child.Tracer(run_id=3)
    inner = tracer.wrap("inner", lambda x: x + 1)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(inner, i) for i in range(4)]]

    assert tracer.wrap("outer", outer)() == [1, 2, 3, 4]
    (outer_span,) = [s for s in tracer.spans if s["name"] == "outer"]
    inner_spans = [s for s in tracer.spans if s["name"] == "inner"]
    assert len(inner_spans) == 4
    assert all(s["parent"] == outer_span["id"] for s in inner_spans)
    assert all(s["run"] == 3 for s in tracer.spans)
    totals, self_time, _ = harness.span_totals(tracer.spans)
    assert 0 <= self_time["outer"] <= totals["outer"]


def test_untraced_run_reports_every_end_to_end_metric():
    outcome = harness.measure("search_heavy", seed=2, seconds=0, trace=False,
                              tiny=True)
    assert outcome.correct, outcome.lines
    assert list(outcome.metrics) == [name for name, _, _ in harness.END_TO_END]
    assert outcome.metrics["subset_ok_ratio"]["value"] == 1.0
    assert outcome.metrics["setup_s"]["value"] > 0


def test_benchmark_json_matches_harness():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == harness.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_heavy",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
