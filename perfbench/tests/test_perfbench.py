"""Self-tests of the benchmark, on a reduced size of each workload.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

NAMES = tuple(bench_workloads.WORKLOADS)


@pytest.fixture(scope="module")
def reduced() -> dict:
    """Each workload, reduced and set up once for the module."""
    return {name: worker.set_up(name, seed=5, reduced=True) for name in NAMES}


def traced_pass(workload) -> tuple[bench_trace.Tracer, list]:
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        outcomes = workload.run_pass()
    finally:
        tracer.uninstall()
    return tracer, outcomes


def engine_counters(tracer: bench_trace.Tracer) -> list[tuple]:
    return [
        (e.events_processed, e.cancelled_events, e.compactions, e.peak_pending)
        for e in tracer.engines
    ]


@pytest.mark.parametrize("name", NAMES)
def test_two_passes_identical(reduced, name):
    workload, _ = reduced[name]
    first_tracer, first = traced_pass(workload)
    second_tracer, second = traced_pass(workload)
    assert [o.outputs for o in first] == [o.outputs for o in second]
    assert all(o.error is None for o in first + second)
    assert first_tracer.calls == second_tracer.calls
    assert engine_counters(first_tracer) == engine_counters(second_tracer)
    assert [s[0] for s in first_tracer.spans] == [s[0] for s in second_tracer.spans]


@pytest.mark.parametrize("name", NAMES)
def test_traced_equals_untraced(reduced, name):
    workload, _ = reduced[name]
    untraced = workload.run_pass()
    _, traced = traced_pass(workload)
    assert [o.outputs for o in untraced] == [o.outputs for o in traced]


def test_tracer_restores_patched_methods():
    from repro.sim.engine import EventQueue

    original = EventQueue.__dict__["schedule"]
    tracer = bench_trace.Tracer()
    tracer.install()
    assert EventQueue.__dict__["schedule"] is not original
    tracer.uninstall()
    assert EventQueue.__dict__["schedule"] is original


def test_metric_names_match_benchmark_json(reduced, tmp_path):
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    for name in NAMES:
        workload, setup_metrics = reduced[name]
        timed = worker.timed_phase(workload, 0.0, worker.Checker(None))
        assert set(timed) - {"passes"} | {"setup_s"} == end_to_end
        layers = dict(setup_metrics)
        trace_path = tmp_path / f"{name}.json"
        layers.update(worker.traced_phase(workload, worker.Checker(None), trace_path))
        assert set(layers) == per_layer
        assert all(isinstance(v, (int, float)) for v in layers.values())


def test_trace_file_loads_as_nested_spans(reduced, tmp_path):
    workload, _ = reduced["paper-figs"]
    tracer, _ = traced_pass(workload)
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path, [label for label, _ in workload.ops])
    document = json.loads(path.read_text())
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == len(tracer.spans) > 0
    # Every frame nests inside an api.run span, so self times partition it.
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.span_seconds("api.run"), rel=1e-6)
    runs = [e for e in spans if e["name"] == "api.run"]
    assert [e["args"]["operation"] for e in runs] == [
        label for label, _ in workload.ops
    ]
    for event in spans:
        assert event["dur"] >= 0
        parent = event["args"]["parent"]
        if parent >= 0:
            outer = spans[parent]
            assert outer["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_reference_fails(reduced, name):
    workload, _ = reduced[name]
    outcomes = workload.run_pass()
    references = {o.label: bench_workloads.simulated(o.outputs) for o in outcomes}
    metrics = worker.timed_phase(workload, 0.0, worker.Checker(references))
    assert metrics["success_rate"] == 1.0

    corrupted = copy.deepcopy(references)
    label = outcomes[-1].label
    key = next(iter(corrupted[label]))
    corrupted[label][key] *= 1 + 1e-6
    checker = worker.Checker(corrupted)
    metrics = worker.timed_phase(workload, 0.0, checker)
    assert metrics["success_rate"] < 1.0
    assert checker.failed == metrics["passes"]
    assert all(failure.startswith(f"{label}: {key}") for failure in checker.failures)


def test_reference_tolerance():
    assert bench_workloads.reference_mismatch({"t": 1.0 + 1e-12}, {"t": 1.0}) == ""
    assert bench_workloads.reference_mismatch({"t": 1.0 + 1e-8}, {"t": 1.0})
    assert bench_workloads.reference_mismatch({"j": [1.0]}, {"j": [1.0, 2.0]})


def test_committed_paper_error():
    assert bench_workloads.reference_paper_error_pct() == pytest.approx(8.01, abs=0.01)


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    command = [*run.load_spec()["command"], "--workload", "paper-figs"]
    command[0] = sys.executable
    args = ["--seed", "1", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(
        [*command, *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
