"""One benchmark process: set up a workload, then run its timed or traced passes.

``run.py`` starts this script in a fresh interpreter for every set-up
sample and for the measured run, so import and set-up costs are real.
Protocol on standard output: the line ``READY`` when set-up is done, then
(unless ``--setup-only``) one JSON line with the results.  Human-readable
progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import bench_workloads
from bench_trace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def set_up(name: str, seed: int, reduced: bool = False) -> tuple[Any, dict]:
    """Import the simulator, build the workload's specs and warm it up."""
    start = time.perf_counter()
    import repro.api  # noqa: F401  (timed: the import is part of set-up)

    imported = time.perf_counter()
    workload = bench_workloads.WORKLOADS[name](seed, reduced=reduced)
    built = time.perf_counter()
    metrics = {
        "api.import_s": imported - start,
        "api.spec_s": built - imported,
        "cluster.isolated_s": 0.0,
    }
    metrics.update(workload.warm_up())
    return workload, metrics


class Checker:
    """Counts operations and failures and checks each outcome.

    An outcome fails if its run raised, was truncated or left jobs
    unfinished, if it disagrees with the committed reference, or if it
    differs at all from the first pass of this process (repeats and
    traced passes must be bit-identical to it).
    """

    def __init__(self, references: dict | None) -> None:
        self.references = references
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, outcomes: list) -> None:
        for outcome in outcomes:
            self.attempted += 1
            problem = outcome.error or ""
            if not problem and self.references is not None:
                reference = self.references.get(outcome.label)
                if reference is None:
                    problem = "no reference output"
                else:
                    problem = bench_workloads.reference_mismatch(
                        bench_workloads.simulated(outcome.outputs), reference
                    )
            if not problem:
                first = self.first.setdefault(outcome.label, outcome.outputs)
                if outcome.outputs != first:
                    problem = f"differs from the first pass: {outcome.outputs}"
            if problem:
                self.failures.append(f"{outcome.label}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def paper_error(workload: Any, outcomes: list) -> float:
    """``paper_error_pct``: live from a clean pass of the full paper-figs
    grid, else the value of the committed paper-figs references."""
    if getattr(workload, "full", False) and not any(o.error for o in outcomes):
        values = {outcome.label: outcome.outputs for outcome in outcomes}
        return bench_workloads.paper_error_pct(bench_workloads.paper_ratios(values))
    return bench_workloads.reference_paper_error_pct()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_phase(workload: Any, seconds: float, checker: Checker) -> dict:
    """Run whole passes back to back for about ``seconds``, at least two.

    A new pass starts only if it should end within ``seconds``.  Host speed
    on a shared machine varies by several percent from one second to the
    next, so ``wall_s`` is the sum over operations of each operation's
    median time across the passes: a robust estimate of one pass.
    """
    op_walls: dict[str, list[float]] = {}
    passes: list[float] = []
    work = 0.0
    outcomes: list = []
    start = time.perf_counter()
    while len(passes) < 2 or (
        time.perf_counter() - start + statistics.median(passes) <= seconds
    ):
        pass_start = time.perf_counter()
        outcomes = workload.run_pass()
        passes.append(time.perf_counter() - pass_start)
        for outcome in outcomes:
            op_walls.setdefault(outcome.label, []).append(outcome.wall_s)
        work = workload.work(outcomes)
        checker.check(outcomes)
        log(f"pass {len(passes)}: {passes[-1]:.3f} s")
    wall = sum(statistics.median(walls) for walls in op_walls.values())
    return {
        "wall_s": wall,
        "work_per_s": work / wall,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - checker.failed / checker.attempted,
        "paper_error_pct": paper_error(workload, outcomes),
        "passes": len(passes),
    }


def _engine_totals(engines: list) -> dict[str, float]:
    return {
        "sim.engine.events": sum(e.events_processed for e in engines),
        "sim.engine.cancelled": sum(e.cancelled_events for e in engines),
        "sim.engine.compactions": sum(e.compactions for e in engines),
        "sim.engine.peak_pending": max((e.peak_pending for e in engines), default=0),
    }


def traced_phase(workload: Any, checker: Checker, trace_path: Path) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics."""
    start = time.perf_counter()
    untraced = workload.run_pass()
    untraced_wall = time.perf_counter() - start
    checker.check(untraced)

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = workload.run_pass()
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    checker.check(traced)
    tracer.write_chrome_trace(trace_path, [label for label, _ in workload.ops])
    log(f"trace written to {trace_path}")

    calls, self_s = tracer.calls, tracer.self_s
    engine = _engine_totals(tracer.engines)
    planned = calls["sim.network.submit"]
    walls = {outcome.label: outcome.wall_s for outcome in untraced}
    metrics: dict[str, float] = {
        "api.run.calls": calls["api.run"],
        "api.run.self_s": self_s["api.run"],
        "training.run.calls": calls["training.run"],
        "training.run.self_s": self_s["training.run"],
        "core.plan.calls": calls["core.plan"],
        "core.plan.self_s": self_s["core.plan"],
        "core.ideal.self_s": self_s["core.ideal"],
        "core.plan_cache.hit_ratio": (
            1.0 - calls["core.plan"] / planned if planned else 0.0
        ),
        "core.latency_model.calls": calls["core.latency_model"],
        "sim.network.submit.calls": planned + calls["sim.network.submit.ideal"],
        "sim.network.self_s": sum(
            seconds for key, seconds in self_s.items() if key.startswith("sim.network")
        ),
        "sim.network.result.self_s": self_s["sim.network.result"],
        "sim.executor.enqueue.calls": calls["sim.executor.enqueue"],
        "sim.executor.reweight.calls": calls["sim.executor.reweight"],
        "sim.executor.self_s": self_s["sim.executor"],
        "sim.engine.schedule.calls": calls["sim.engine.schedule"],
        "sim.engine.self_s": self_s["sim.engine"],
        "sim.engine.host_us_per_event": (
            1e6 * untraced_wall / engine["sim.engine.events"]
            if engine["sim.engine.events"]
            else 0.0
        ),
        "cluster.trace_s": tracer.span_seconds("cluster.trace"),
        "cluster.arrivals": calls["cluster.arrivals"],
        "cluster.peak_live_jobs": max(outcome.peak_live for outcome in traced),
        "cluster.jobs_finished": sum(outcome.finished for outcome in traced),
        "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    }
    metrics.update(engine)
    for policy in bench_workloads.FAIRNESS_POLICIES:
        metrics[f"cluster.run_s.{policy}"] = walls.get(policy, 0.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    workload, setup_metrics = set_up(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    references = bench_workloads.load_references(workload.reference_path())
    checker = Checker(references)
    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = dict(setup_metrics)
        metrics.update(traced_phase(workload, checker, trace_path))
    else:
        metrics = timed_phase(workload, args.seconds, checker)
    result = {
        "metrics": metrics,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "references": references is not None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
