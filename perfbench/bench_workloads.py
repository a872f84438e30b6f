"""The benchmark's three workloads, their output check and the paper error.

Every grid is pinned here rather than read from ``repro.experiments`` at
run time, so a change to the experiment modules cannot silently change
what the benchmark measures.  The simulator is driven through
``repro.api.run`` on declarative specs only.

A workload object is built once per process (set-up) and then runs any
number of passes.  One *operation* is one ``api.run`` call; a pass returns
one :class:`Outcome` per operation.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: Seed whose outputs are committed under ``references/``.
DEFAULT_SEED = 1
#: Seed kept out of tuning, for confirming a claimed gain (see README.md).
HELD_OUT_SEED = 2718

#: Relative agreement demanded of every simulated value against the
#: references: the GPS agreement bound the ROADMAP states.
REFERENCE_RTOL = 1e-9

MB = 1024.0 * 1024.0  # ``repro.units.MB``

PAPER_TOPOLOGIES = (
    "2D-SW_SW",
    "3D-SW_SW_SW_homo",
    "3D-SW_SW_SW_hetero",
    "3D-FC_Ring_SW",
    "4D-Ring_SW_SW_SW",
    "4D-Ring_FC_Ring_SW",
)
FIG8_SIZES = (
    ("100MB", 100 * MB),
    ("250MB", 250 * MB),
    ("500MB", 500 * MB),
    ("1GB", 1024 * MB),
)
FIG8_CONFIGS = (("baseline", "FIFO"), ("themis", "FIFO"), ("themis", "SCF"))
FIG12_WORKLOADS = (
    ("resnet-152", {}),
    ("gnmt", {}),
    ("dlrm", {}),
    ("transformer-1t", {"num_layers": 8}),
)
FIG12_CONFIGS = ("baseline", "themis", "ideal")

#: The paper's headline ratios: Fig. 8 geo-mean speedups over baseline
#: (Themis+FIFO, Themis+SCF, Themis+SCF max) and the Fig. 12 Themis+SCF
#: mean training speedups per workload.
PAPER_HEADLINES = {
    "fig8.fifo_geomean": 1.58,
    "fig8.scf_geomean": 1.72,
    "fig8.scf_max": 2.70,
    "fig12.resnet-152": 1.49,
    "fig12.gnmt": 1.30,
    "fig12.dlrm": 1.30,
    "fig12.transformer-1t": 1.25,
}

FAIRNESS_POLICIES = ("fifo", "weighted", "ftf", "preempt")


@dataclass
class Outcome:
    """One ``api.run`` call: its simulated outputs or why it failed."""

    label: str
    outputs: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    #: Cluster runs only: jobs simulated, finished, and most live at once.
    jobs: int = 0
    finished: int = 0
    peak_live: int = 0
    error: str | None = None


def bench_topology() -> dict:
    """The 2D ``bench-4x4`` platform of ``BENCH_scaling.json``, inline."""
    from repro.topology import Topology, dimension, topology_to_dict

    return topology_to_dict(
        Topology(
            [
                dimension("sw", 4, 400.0, latency_ns=100),
                dimension("sw", 4, 200.0, latency_ns=500),
            ],
            name="bench-4x4",
        )
    )


def _pool_workload(layers: int, param_mb: float, name: str) -> dict:
    from repro.workloads import Layer, Workload, workload_to_dict

    return workload_to_dict(
        Workload(
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
    )


def fairness_pool() -> list[dict]:
    """Four distinct communication profiles, shared by every job."""
    return [
        _pool_workload(12, 2, "elephant"),  # many small buckets
        _pool_workload(2, 16, "mouse"),  # few large buckets
        _pool_workload(6, 6, "medium"),
        _pool_workload(3, 10, "bursty"),
    ]


def _check_report(report: Any) -> str | None:
    if report.truncated:
        return "truncated"
    unfinished = report.payload.get("unfinished_jobs")
    if unfinished:
        return f"{len(unfinished)} unfinished jobs"
    return None


class Workload:
    """Base class: a fixed list of ``(label, spec)`` operations."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.context: dict = {}
        self.ops: list[tuple[str, Any]] = []

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}-seed{self.seed}.json"

    def warm_up(self) -> dict[str, float]:
        """Run small scenarios so lazy imports and caches settle."""
        return {}

    def outputs(self, report: Any) -> dict[str, Any]:
        raise NotImplementedError

    def run_op(self, label: str, spec: Any) -> Outcome:
        from repro import api

        start = time.perf_counter()
        try:
            report = api.run(spec, context=self.context)
        except Exception as error:  # an operation that raises is a failure
            return Outcome(label, error=f"{type(error).__name__}: {error}")
        wall = time.perf_counter() - start
        payload = report.payload
        outcome = Outcome(label, self.outputs(report), wall)
        outcome.jobs = payload.get("total_jobs", 0)
        outcome.finished = outcome.jobs - len(payload.get("unfinished_jobs", ()))
        outcome.peak_live = payload.get("peak_live_jobs", 0)
        outcome.error = _check_report(report)
        return outcome

    def run_pass(self) -> list[Outcome]:
        return [self.run_op(label, spec) for label, spec in self.ops]

    def work(self, outcomes: list[Outcome]) -> float:
        """Units of work one pass completed: simulated jobs."""
        return float(sum(outcome.jobs for outcome in outcomes))


class PaperFigs(Workload):
    """Fig. 8 and the Fig. 12 quick grid: 144 independent short runs."""

    name = "paper-figs"

    def __init__(self, seed: int, reduced: bool = False) -> None:
        from repro import api

        super().__init__(seed)
        #: Only the full grid reproduces the paper's headline ratios.
        self.full = not reduced
        topologies = PAPER_TOPOLOGIES[:1] if reduced else PAPER_TOPOLOGIES
        sizes = FIG8_SIZES[:1] if reduced else FIG8_SIZES
        workloads = FIG12_WORKLOADS[2:3] if reduced else FIG12_WORKLOADS
        for topology in topologies:
            for size_label, size in sizes:
                for scheduler, policy in FIG8_CONFIGS:
                    label = f"fig8/{topology}/{size_label}/{scheduler}+{policy}"
                    spec = api.CollectiveScenario(
                        topology=topology,
                        collective="allreduce",
                        size=size,
                        chunks=64,
                        scheduler=scheduler,
                        policy=policy,
                    )
                    self.ops.append((label, spec))
        for topology in topologies:
            for workload, args in workloads:
                for config in FIG12_CONFIGS:
                    label = f"fig12/{workload}/{topology}/{config}"
                    fields: dict[str, Any] = {
                        "workload": workload,
                        "workload_args": args,
                        "topology": topology,
                        "iterations": 1,
                        "overlap_dp": False,
                        "dp_bucket_bytes": 100 * MB,
                    }
                    if config == "ideal":
                        fields["backend"] = "ideal"
                    else:
                        fields.update(scheduler=config, policy="SCF")
                    self.ops.append((label, api.TrainingScenario(**fields)))
        for topology in topologies:
            api.resolve_topology(topology)
        for workload, args in workloads:
            api.resolve_workload(workload, args)

    def reference_path(self) -> Path:
        # The grid has no randomness, so one reference serves every seed.
        return REFERENCE_DIR / f"{self.name}.json"

    def warm_up(self) -> dict[str, float]:
        from repro import api

        small = [
            api.CollectiveScenario(topology="2D-SW_SW", size=MB, chunks=4),
            api.TrainingScenario(
                workload="transformer-1t",
                workload_args={"num_layers": 1},
                topology="2D-SW_SW",
                chunks=4,
            ),
            api.TrainingScenario(
                workload="transformer-1t",
                workload_args={"num_layers": 1},
                topology="2D-SW_SW",
                backend="ideal",
            ),
        ]
        for spec in small:
            api.run(spec)
        return {}

    def outputs(self, report: Any) -> dict[str, Any]:
        key = "comm_time" if report.mode == "collective" else "total_time"
        return {key: report.payload[key], "events": report.events}

    def work(self, outcomes: list[Outcome]) -> float:
        """Units of work one pass completed: scenarios."""
        return float(len(outcomes))


class FairnessMatrix(Workload):
    """32 jobs on ``bench-4x4`` under each of the four fairness policies."""

    name = "fairness-matrix"

    def __init__(self, seed: int, reduced: bool = False) -> None:
        from repro import api

        super().__init__(seed)
        self.topology = bench_topology()
        self.pool = fairness_pool()
        rng = random.Random(seed)
        jobs = []
        arrival = 0.0
        for i in range(4 if reduced else 32):
            jobs.append(
                api.ScenarioJob(
                    name=f"job{i:03d}",
                    workload=self.pool[i % len(self.pool)],
                    iterations=2,
                    arrival_time=arrival,
                    weight=float(rng.randint(1, 3)),
                    priority=rng.randint(0, 3),
                )
            )
            arrival += rng.uniform(0.0, 4e-5)
        for policy in FAIRNESS_POLICIES:
            spec = api.ClusterScenario(
                topology=self.topology,
                jobs=tuple(jobs),
                fairness=policy,
                chunks=8,
            )
            self.ops.append((policy, spec))

    def warm_up(self) -> dict[str, float]:
        """One small cluster run that also fills the isolated-JCT cache.

        The cache lives in ``self.context``, which every timed ``api.run``
        shares, so the timed runs only look the solo baselines up.
        """
        from repro import api

        spec = api.ClusterScenario(
            topology=self.topology,
            jobs=tuple(
                api.ScenarioJob(name=f"solo{i}", workload=workload, iterations=2)
                for i, workload in enumerate(self.pool)
            ),
            fairness="fifo",
            chunks=8,
        )
        start = time.perf_counter()
        api.run(spec, context=self.context)
        return {"cluster.isolated_s": time.perf_counter() - start}

    def outputs(self, report: Any) -> dict[str, Any]:
        payload = report.payload
        return {
            "makespan": report.makespan,
            "mean_jct": payload["mean_jct"],
            "jcts": [job["jct"] for job in payload["jobs"]],
            "events": payload["engine"]["events"],
        }


class FluidOpenLoop(Workload):
    """4096 open-loop Poisson arrivals under the fluid backend."""

    name = "fluid-open-loop"

    def __init__(self, seed: int, reduced: bool = False) -> None:
        super().__init__(seed)
        self.topology = bench_topology()
        self.ops.append(("fluid", self._spec(64 if reduced else 4096, seed)))

    def _spec(self, arrivals: int, seed: int) -> Any:
        from repro import api

        return api.ClusterScenario(
            topology=self.topology,
            open_loop=api.OpenLoopTrace(
                rate=20_000.0,
                duration=None,
                max_jobs=arrivals,
                seed=seed,
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
            chunks=64,
            backend="fluid",
        )

    def warm_up(self) -> dict[str, float]:
        from repro import api

        # A different, small trace: same code paths, none of the timed work.
        api.run(self._spec(32, self.seed + 1))
        return {}

    def outputs(self, report: Any) -> dict[str, Any]:
        payload = report.payload
        return {
            "makespan": report.makespan,
            "mean_jct": payload["mean_jct"],
            "total_jobs": payload["total_jobs"],
            "events": payload["engine"]["events"],
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperFigs, FairnessMatrix, FluidOpenLoop)
}


# --- output check -----------------------------------------------------------
def simulated(outputs: dict[str, Any]) -> dict[str, Any]:
    """The outputs a reference pins: everything but host-side counters."""
    return {key: value for key, value in outputs.items() if key != "events"}


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (
            isinstance(a, list)
            and isinstance(b, list)
            and len(a) == len(b)
            and all(_close(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))
    return a == b


def reference_mismatch(outputs: dict[str, Any], reference: dict[str, Any]) -> str:
    """Names the first output that disagrees with its reference, or ''."""
    for key, expected in reference.items():
        if key not in outputs or not _close(outputs[key], expected):
            return f"{key} = {outputs.get(key)!r}, reference {expected!r}"
    return ""


def load_references(path: Path) -> dict[str, dict[str, Any]] | None:
    if not path.exists():
        return None
    return json.loads(path.read_text())


# --- paper error ------------------------------------------------------------
def paper_ratios(values: dict[str, dict[str, Any]]) -> dict[str, float]:
    """The seven headline ratios from per-scenario paper-figs outputs."""

    def comm(topology: str, size: str, config: str) -> float:
        return values[f"fig8/{topology}/{size}/{config}"]["comm_time"]

    ratios: dict[str, float] = {}
    for key, config in (("fifo", "themis+FIFO"), ("scf", "themis+SCF")):
        speedups = [
            comm(topology, size, "baseline+FIFO") / comm(topology, size, config)
            for topology in PAPER_TOPOLOGIES
            for size, _ in FIG8_SIZES
        ]
        ratios[f"fig8.{key}_geomean"] = math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        )
        if key == "scf":
            ratios["fig8.scf_max"] = max(speedups)
    for workload, _ in FIG12_WORKLOADS:
        speedups = [
            values[f"fig12/{workload}/{topology}/baseline"]["total_time"]
            / values[f"fig12/{workload}/{topology}/themis"]["total_time"]
            for topology in PAPER_TOPOLOGIES
        ]
        ratios[f"fig12.{workload}"] = sum(speedups) / len(speedups)
    return ratios


def paper_error_pct(ratios: dict[str, float]) -> float:
    """Mean absolute relative error of the headline ratios, in percent."""
    errors = [
        abs(ratios[key] - paper) / paper for key, paper in PAPER_HEADLINES.items()
    ]
    return 100.0 * sum(errors) / len(errors)


def reference_paper_error_pct() -> float:
    """The paper error of the committed paper-figs reference outputs."""
    references = load_references(REFERENCE_DIR / f"{PaperFigs.name}.json")
    if references is None:
        raise FileNotFoundError("paper-figs references are missing")
    return paper_error_pct(paper_ratios(references))
