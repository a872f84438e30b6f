"""Benchmark of the Themis simulator: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-figs --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics (and writes a
Chrome trace-event file under ``perfbench/out/``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md``.

This process never imports the simulator.  It starts ``worker.py`` in a
fresh interpreter several times: ``SETUP_SAMPLES - 1`` set-up-only runs and
one measured run, timing each from spawn to its ``READY`` line, so
``setup_s`` (the median) includes interpreter start and ``import repro``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 3
#: Every child must finish inside this many seconds from the start.
RUN_BUDGET_S = 170.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names and the metrics to print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up seconds and its result line."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), process.kill)
    watchdog.start()
    try:
        assert process.stdout is not None
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchmarkError(f"worker {' '.join(args)} failed (exit code {code})")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, _ = run_worker([*common, "--setup-only"], deadline)
            setups.append(setup_s)
    args = [*common, "--seconds", str(seconds), "--trace", str(int(trace))]
    setup_s, result = run_worker(args, deadline)
    if result is None:
        raise BenchmarkError("the measured worker printed no result")
    setups.append(setup_s)
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    metrics = {
        metric["name"]: {
            "value": result["metrics"][metric["name"]],
            "unit": metric["unit"],
        }
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {failed}/{attempted} operations")
    if not result["references"]:
        print("  (no committed reference for this seed: checked repeats only)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
