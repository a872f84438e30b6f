"""Many-tenant cluster scaling benchmark (the perf-tracking harness).

Sweeps N concurrent training jobs x cluster fairness policies on one shared
network and measures, per cell:

* wall-clock time of the simulation,
* events fired and events/second (the engine's useful throughput),
* peak pending-event count and final physical heap size (bounded heap is
  the point of event cancellation + compaction),
* cancelled events and compaction sweeps,
* simulated makespan / mean JCT (sanity: the *simulated* outcome must not
  depend on how fast we computed it).

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py                # full matrix
    PYTHONPATH=src python benchmarks/bench_scaling.py --quick        # CI smoke
    PYTHONPATH=src python benchmarks/bench_scaling.py \
        --jobs 64 --policies weighted,ftf                            # headline
    PYTHONPATH=src python benchmarks/bench_scaling.py --json out.json

The JSON this emits (via ``run_all.py --json``) is the repo's tracked perf
trajectory: ``BENCH_scaling.json`` at the repo root is the baseline every
later PR compares against.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if True:  # allow running without PYTHONPATH=src
    _SRC = Path(__file__).resolve().parents[1] / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro import api
from repro.cluster import ClusterConfig, ClusterSimulator, JobSpec
from repro.sim import FaultSchedule, JobFaultPolicy, LinkFault
from repro.topology import Topology, dimension, topology_to_dict
from repro.training import TrainingConfig
from repro.units import MB
from repro.workloads import Layer, Workload

DEFAULT_JOB_COUNTS = (8, 16, 32, 64)
DEFAULT_POLICIES = ("fifo", "weighted", "ftf", "preempt")
#: Arrivals in the open-loop throughput row (the bounded-memory headline:
#: a single spec-driven run sustaining 10k arrivals with K live jobs).
DEFAULT_OPEN_LOOP_ARRIVALS = 10_000
#: Job counts of the fluid fast-path regime (open-loop arrivals per run).
#: This is the backend's target envelope: runs two orders of magnitude
#: larger than the fairness matrix above.  ``--quick`` keeps only the
#: first entry, so the CI row stays a subset of the committed baseline.
DEFAULT_FLUID_JOB_COUNTS = (512, 1024, 2048, 4096)
#: Chunk count of the fluid-regime rows: large enough that the hybrid
#: fluidizes the 2D bench plans ((ndims-1) <= tolerance x chunks).
FLUID_CHUNKS = 64


def bench_topology() -> Topology:
    """A small 2D platform: contention, not topology, is under test."""
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
        ],
        name="bench-4x4",
    )


def _workload(layers: int, param_mb: float, name: str) -> Workload:
    return Workload(
        name=name,
        layers=[
            Layer(
                name=f"l{i}",
                fwd_flops=1e8,
                bwd_flops=2e8,
                param_bytes=param_mb * MB,
            )
            for i in range(layers)
        ],
        batch_per_npu=1,
    )


#: A fixed pool of distinct communication profiles; jobs share these
#: instances so the isolated-JCT cache collapses N jobs to 4 solo runs.
_WORKLOAD_POOL = [
    _workload(12, 2, "elephant"),  # many small buckets
    _workload(2, 16, "mouse"),     # few large buckets
    _workload(6, 6, "medium"),
    _workload(3, 10, "bursty"),
]


def make_jobs(n_jobs: int, iterations: int) -> list[JobSpec]:
    """N jobs cycling through the workload pool with staggered arrivals."""
    jobs = []
    for i in range(n_jobs):
        jobs.append(
            JobSpec(
                name=f"job{i:03d}",
                workload=_WORKLOAD_POOL[i % len(_WORKLOAD_POOL)],
                iterations=iterations,
                arrival_time=i * 2e-5,
                weight=1.0 + (i % 3),
                priority=i % 4,
            )
        )
    return jobs


def run_cell(
    n_jobs: int,
    policy: str,
    *,
    iterations: int,
    chunks: int,
    isolated_cache: dict,
) -> dict:
    """Run one (job count, fairness policy) cell and collect metrics."""
    config = ClusterConfig(
        training=TrainingConfig(chunks_per_collective=chunks),
        isolated_baselines=False,
        fairness=policy,
    )
    jobs = make_jobs(n_jobs, iterations)
    sim = ClusterSimulator(
        bench_topology(), jobs, config, isolated_cache=isolated_cache
    )
    # Pre-warm the isolated-JCT cache outside the timed region: the FTF
    # policy computes isolated baselines in prepare(), which would otherwise
    # pollute the wall-time of its first cell.
    for spec in jobs:
        sim.isolated_time(spec)
    start = time.perf_counter()
    report = sim.run()
    wall = time.perf_counter() - start
    engine = sim.engine
    jcts = [job.jct for job in report.jobs]
    return {
        "jobs": n_jobs,
        "policy": policy,
        "wall_seconds": wall,
        "events": engine.events_processed,
        "events_per_second": engine.events_processed / wall if wall > 0 else 0.0,
        "peak_pending_events": engine.peak_pending,
        "final_heap_size": engine.heap_size,
        "cancelled_events": engine.cancelled_events,
        "compactions": engine.compactions,
        "makespan": report.makespan,
        "mean_jct": sum(jcts) / len(jcts),
    }


def run_open_loop(arrivals: int = DEFAULT_OPEN_LOOP_ARRIVALS) -> dict:
    """One spec-driven open-loop run: N arrivals, bounded live-job memory.

    Exercises the trace generator, admission control (K concurrency
    slots), slot recycling, and the outcome cap in one go; the row tracks
    generator+simulator throughput (arrivals/second of wall time) and the
    memory bounds (peak live jobs, retained payload rows) rather than a
    fairness matrix cell.  Lives under its own document key, so
    ``check_regression.py`` (which walks ``results``) ignores it.
    """
    spec = api.ClusterScenario(
        topology=topology_to_dict(bench_topology()),
        open_loop=api.OpenLoopTrace(
            rate=20_000.0,
            duration=None,
            max_jobs=arrivals,
            seed=3,
            mix={
                "elephant_fraction": 0.05,
                "elephant_layers": 2,
                "elephant_param_mb": 1.0,
                "mouse_layers": 1,
                "mouse_param_mb": 0.25,
                "max_iterations": 2,
            },
        ),
        max_concurrent=8,
        outcome_cap=100,
        isolated_baselines=False,
        chunks=1,
    )
    start = time.perf_counter()
    report = api.run(spec)
    wall = time.perf_counter() - start
    payload = report.payload
    row = {
        "arrivals": arrivals,
        "wall_seconds": wall,
        "arrivals_per_second": arrivals / wall if wall > 0 else 0.0,
        "events": report.events,
        "events_per_second": report.events / wall if wall > 0 else 0.0,
        "peak_live_jobs": payload["peak_live_jobs"],
        "max_concurrent": 8,
        "payload_job_rows": len(payload["jobs"]),
        "job_rows_omitted": payload["job_rows_omitted"],
        "makespan": report.makespan,
    }
    assert payload["peak_live_jobs"] <= 8, "admission cap violated"
    assert payload["total_jobs"] == arrivals
    print(
        f"open-loop {arrivals:6d} arrivals  wall={wall * 1000:8.1f}ms "
        f"arrivals/s={row['arrivals_per_second'] / 1000:6.1f}k "
        f"peak_live={row['peak_live_jobs']:2d} "
        f"rows_kept={row['payload_job_rows']}",
        flush=True,
    )
    return row


def _fluid_open_loop_cell(arrivals: int, backend: str) -> dict:
    """One open-loop cluster run at ``arrivals`` jobs under ``backend``."""
    spec = api.ClusterScenario(
        topology=topology_to_dict(bench_topology()),
        open_loop=api.OpenLoopTrace(
            rate=20_000.0,
            duration=None,
            max_jobs=arrivals,
            seed=7,
            mix={
                "elephant_fraction": 0.0,
                "mouse_layers": 1,
                "mouse_param_mb": 1.0,
                "max_iterations": 2,
            },
        ),
        max_concurrent=8,
        outcome_cap=100,
        isolated_baselines=False,
        chunks=FLUID_CHUNKS,
        backend=backend,
    )
    start = time.perf_counter()
    report = api.run(spec)
    wall = time.perf_counter() - start
    payload = report.payload
    engine = payload["engine"]
    assert payload["total_jobs"] == arrivals
    return {
        "jobs": arrivals,
        "backend": backend,
        "wall_seconds": wall,
        "events": engine["events"],
        "events_per_second": engine["events"] / wall if wall > 0 else 0.0,
        "peak_pending_events": engine["peak_pending_events"],
        "cancelled_events": engine["cancelled_events"],
        "compactions": engine["compactions"],
        "arrivals_per_second": arrivals / wall if wall > 0 else 0.0,
        "makespan": report.makespan,
        "mean_jct": payload["mean_jct"],
    }


def run_fluid_scaling(job_counts: tuple[int, ...]) -> dict:
    """The fluid fast-path regime: 512-4096-job open-loop runs.

    Each row is one open-loop cluster run under ``backend: "fluid"``; the
    smallest size is additionally re-run under ``analytical`` on the same
    trace to record the event-count ratio (the fast path's headline:
    events eliminated while rates are stable).  Counter fields are
    deterministic, so ``check_regression.py --counters-only`` gates these
    rows alongside the fairness matrix.
    """
    rows = []
    for arrivals in job_counts:
        row = _fluid_open_loop_cell(arrivals, "fluid")
        rows.append(row)
        print(
            f"fluid    {arrivals:5d} jobs  wall={row['wall_seconds'] * 1e3:8.1f}ms "
            f"events={row['events']:8d} "
            f"arrivals/s={row['arrivals_per_second'] / 1000:6.1f}k "
            f"mean_jct={row['mean_jct']:.6f}",
            flush=True,
        )
    ratio_jobs = job_counts[0]
    exact = _fluid_open_loop_cell(ratio_jobs, "analytical")
    fluid_row = rows[0]
    event_ratio = (
        exact["events"] / fluid_row["events"]
        if fluid_row["events"] > 0
        else 0.0
    )
    jct_ratio = (
        fluid_row["mean_jct"] / exact["mean_jct"]
        if exact["mean_jct"]
        else None
    )
    print(
        f"fluid-vs-exact {ratio_jobs:5d} jobs  "
        f"exact events={exact['events']:8d} fluid events={fluid_row['events']:8d} "
        f"({event_ratio:.1f}x fewer)  mean-JCT ratio="
        f"{jct_ratio if jct_ratio is None else round(jct_ratio, 4)}",
        flush=True,
    )
    return {
        "job_counts": list(job_counts),
        "chunks_per_collective": FLUID_CHUNKS,
        "rows": rows,
        "exact_reference": exact,
        "event_ratio": event_ratio,
        "mean_jct_ratio": jct_ratio,
    }


def run_degraded(n_jobs: int = 16) -> dict:
    """One faulted cluster run: link degradation + job crash/retry live.

    Tracks the wall-time cost of the fault machinery (capacity rescaling,
    crash/retry bookkeeping) on a contended matrix cell, plus the
    graceful-degradation outcome metrics.  Lives under its own document
    key, so ``check_regression.py`` (which walks ``results``) ignores it
    while the row still lands in the committed baseline for eyeballing.
    """
    link_faults = FaultSchedule(
        (
            LinkFault(dim_index=1, start=0.0, factor=0.5),
            LinkFault(dim_index=0, start=2e-4, factor=0.0, duration=5e-4),
        )
    )
    job_faults = JobFaultPolicy(
        crash_rate=200.0,
        max_retries=3,
        backoff_base=1e-4,
        checkpoint_iterations=1,
        seed=5,
    )
    config = ClusterConfig(
        training=TrainingConfig(chunks_per_collective=4),
        isolated_baselines=False,
        link_faults=link_faults,
        job_faults=job_faults,
    )
    jobs = make_jobs(n_jobs, iterations=2)
    sim = ClusterSimulator(bench_topology(), jobs, config)
    start = time.perf_counter()
    report = sim.run()
    wall = time.perf_counter() - start
    engine = sim.engine
    row = {
        "jobs": n_jobs,
        "wall_seconds": wall,
        "events": engine.events_processed,
        "events_per_second": engine.events_processed / wall if wall > 0 else 0.0,
        "makespan": report.makespan,
        "mean_jct": report.mean_jct,
        "failed_jobs": len(report.failed_jobs),
        "total_retries": report.total_retries,
        "lost_work_seconds": report.lost_work_seconds,
        "completion_rate": report.completion_rate,
    }
    assert report.completion_rate is not None
    assert len(report.finished_jobs) + len(report.failed_jobs) == n_jobs
    print(
        f"degraded {n_jobs:3d} jobs  wall={wall * 1000:8.1f}ms "
        f"ev/s={row['events_per_second'] / 1000:7.1f}k "
        f"retries={row['total_retries']:3d} failed={row['failed_jobs']:2d} "
        f"completion={row['completion_rate'] * 100:5.1f}%",
        flush=True,
    )
    return row


def run_backend_fidelity(n_jobs: int = 8) -> dict:
    """One contended cell at analytical vs packet fidelity.

    Tracks the packet backend's wall-time cost relative to the default
    analytical model on the same trace, plus the simulated-outcome
    divergence (the fidelity tax the docs quote).  Informational only:
    lives under its own document key, so ``check_regression.py`` (which
    walks ``results``) ignores it.
    """
    rows = {}
    for backend in ("analytical", "packet"):
        config = ClusterConfig(
            training=TrainingConfig(chunks_per_collective=8),
            isolated_baselines=False,
            backend=backend,
        )
        jobs = make_jobs(n_jobs, iterations=2)
        sim = ClusterSimulator(bench_topology(), jobs, config)
        start = time.perf_counter()
        report = sim.run()
        wall = time.perf_counter() - start
        engine = sim.engine
        rows[backend] = {
            "jobs": n_jobs,
            "wall_seconds": wall,
            "events": engine.events_processed,
            "events_per_second": (
                engine.events_processed / wall if wall > 0 else 0.0
            ),
            "makespan": report.makespan,
            "mean_jct": report.mean_jct,
        }
    assert rows["analytical"]["mean_jct"] is not None
    assert rows["packet"]["mean_jct"] is not None
    slowdown = (
        rows["packet"]["wall_seconds"] / rows["analytical"]["wall_seconds"]
        if rows["analytical"]["wall_seconds"] > 0
        else 0.0
    )
    divergence = rows["packet"]["mean_jct"] / rows["analytical"]["mean_jct"]
    print(
        f"backend_fidelity {n_jobs:3d} jobs  "
        f"analytical wall={rows['analytical']['wall_seconds'] * 1000:8.1f}ms "
        f"packet wall={rows['packet']['wall_seconds'] * 1000:8.1f}ms "
        f"({slowdown:.2f}x)  mean-JCT ratio={divergence:.3f}",
        flush=True,
    )
    return {
        "analytical": rows["analytical"],
        "packet": rows["packet"],
        "wall_slowdown": slowdown,
        "mean_jct_ratio": divergence,
    }


def run_matrix(
    job_counts: tuple[int, ...],
    policies: tuple[str, ...],
    *,
    iterations: int = 2,
    chunks: int = 8,
    open_loop_arrivals: "int | None" = DEFAULT_OPEN_LOOP_ARRIVALS,
    degraded_jobs: "int | None" = 16,
    backend_fidelity_jobs: "int | None" = 8,
    fluid_job_counts: "tuple[int, ...] | None" = DEFAULT_FLUID_JOB_COUNTS,
) -> dict:
    """Run the sweep; returns the JSON-ready result document."""
    isolated_cache: dict = {}
    cells = []
    for n_jobs in job_counts:
        for policy in policies:
            cell = run_cell(
                n_jobs,
                policy,
                iterations=iterations,
                chunks=chunks,
                isolated_cache=isolated_cache,
            )
            entry = {"jobs": n_jobs, "policy": policy, "optimized": cell}
            cells.append(entry)
            _print_cell(entry)
    return {
        "benchmark": "scaling",
        "config": {
            "job_counts": list(job_counts),
            "policies": list(policies),
            "iterations": iterations,
            "chunks_per_collective": chunks,
            "topology": bench_topology().name,
            "open_loop_arrivals": open_loop_arrivals,
            "degraded_jobs": degraded_jobs,
            "backend_fidelity_jobs": backend_fidelity_jobs,
            "fluid_job_counts": (
                list(fluid_job_counts) if fluid_job_counts else None
            ),
        },
        "results": cells,
        "open_loop": (
            run_open_loop(open_loop_arrivals)
            if open_loop_arrivals is not None
            else None
        ),
        "degraded": (
            run_degraded(degraded_jobs) if degraded_jobs is not None else None
        ),
        "backend_fidelity": (
            run_backend_fidelity(backend_fidelity_jobs)
            if backend_fidelity_jobs is not None
            else None
        ),
        "fluid_scaling": (
            run_fluid_scaling(fluid_job_counts) if fluid_job_counts else None
        ),
    }


def _print_cell(entry: dict) -> None:
    opt = entry["optimized"]
    print(
        f"{entry['jobs']:3d} jobs  {entry['policy']:9s} "
        f"wall={opt['wall_seconds'] * 1000:8.1f}ms "
        f"ev/s={opt['events_per_second'] / 1000:7.1f}k "
        f"peak_heap={opt['peak_pending_events']:6d} "
        f"compactions={opt['compactions']:3d}",
        flush=True,
    )


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        default=",".join(str(n) for n in DEFAULT_JOB_COUNTS),
        help="comma-separated job counts (default: %(default)s)",
    )
    parser.add_argument(
        "--policies",
        default=",".join(DEFAULT_POLICIES),
        help="comma-separated fairness policies (default: %(default)s)",
    )
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--chunks", type=int, default=8)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced matrix for CI smoke runs (8/16 jobs, all policies)",
    )
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--open-loop-arrivals",
        type=int,
        default=DEFAULT_OPEN_LOOP_ARRIVALS,
        help="arrivals in the open-loop throughput row; 0 skips it "
             "(default: %(default)s; --quick reduces it to 2000)",
    )
    parser.add_argument(
        "--degraded-jobs",
        type=int,
        default=16,
        help="job count of the faulted (link-degraded + crash/retry) row; "
             "0 skips it (default: %(default)s; --quick reduces it to 8)",
    )
    parser.add_argument(
        "--backend-fidelity-jobs",
        type=int,
        default=8,
        help="job count of the analytical-vs-packet fidelity row; 0 skips "
             "it (default: %(default)s)",
    )
    parser.add_argument(
        "--fluid-jobs",
        default=",".join(str(n) for n in DEFAULT_FLUID_JOB_COUNTS),
        help="comma-separated job counts of the fluid fast-path regime; "
             "empty string skips it (default: %(default)s; --quick keeps "
             "only the first entry so CI rows stay a baseline subset)",
    )
    args = parser.parse_args(argv)

    job_counts = tuple(int(n) for n in args.jobs.split(","))
    policies = tuple(p.strip() for p in args.policies.split(","))
    open_loop_arrivals = args.open_loop_arrivals or None
    degraded_jobs = args.degraded_jobs or None
    backend_fidelity_jobs = args.backend_fidelity_jobs or None
    fluid_job_counts = (
        tuple(int(n) for n in args.fluid_jobs.split(","))
        if args.fluid_jobs
        else None
    )
    if args.quick:
        job_counts = tuple(n for n in job_counts if n <= 16) or (8, 16)
        if open_loop_arrivals is not None:
            open_loop_arrivals = min(open_loop_arrivals, 2000)
        if degraded_jobs is not None:
            degraded_jobs = min(degraded_jobs, 8)
        if backend_fidelity_jobs is not None:
            backend_fidelity_jobs = min(backend_fidelity_jobs, 4)
        if fluid_job_counts:
            fluid_job_counts = fluid_job_counts[:1]
    document = run_matrix(
        job_counts,
        policies,
        iterations=args.iterations,
        chunks=args.chunks,
        open_loop_arrivals=open_loop_arrivals,
        degraded_jobs=degraded_jobs,
        backend_fidelity_jobs=backend_fidelity_jobs,
        fluid_job_counts=fluid_job_counts,
    )
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
        print(f"[written to {args.json}]")
    return document


if __name__ == "__main__":
    main()
