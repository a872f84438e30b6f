"""Determinism property tests: the optimized hot path is bit-identical.

The indexed ready-queues, the plan/consistency caches, and event
cancellation+compaction are pure performance changes — the paper's Sec.
4.6.2 consistency mechanism depends on the simulation being deterministic,
so the optimized path must produce *exactly* the timeline the seed
implementation produced.  These tests run the same submissions twice —
once as shipped, once under :func:`reference_path`, which swaps in the
seed's flat-list ready queue (:class:`ListReadyQueue`) and plans every
collective afresh — and assert identical ``OpRecord`` timelines,
completion orders, and cluster reports — exact float equality, no
tolerances.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, JobSpec
from repro.collectives import CollectiveRequest, CollectiveType
from repro.core import ListReadyQueue, SchedulerFactory, Splitter
from repro.core.policies import IntraDimPolicy
from repro.sim import EventQueue, FusionConfig, NetworkSimulator
from repro.sim.network import CollectivePlanner
from repro.topology import Topology, dimension
from repro.training import TrainingConfig
from repro.units import MB
from repro.workloads import Layer, Workload

POLICIES = ("fifo", "scf", "lcf")

#: Peak pending events of the FTF cluster run below on the pre-indexing
#: engine, which left every superseded finish event in the heap to fire as
#: a stale no-op (measured before that engine mode was removed).
LEGACY_FTF_PEAK_PENDING = 112


@contextlib.contextmanager
def reference_path() -> Iterator[None]:
    """Run the seed reference: flat-list ready queues, no plan cache.

    Every channel built inside the block scans a :class:`ListReadyQueue`,
    and a ``None`` plan key makes the planner (and so the consistency-order
    cache and the fluid memo keyed on it) plan every collective afresh.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntraDimPolicy, "make_queue", lambda self: ListReadyQueue(self))
        patch.setattr(CollectivePlanner, "key", lambda self, request, factory: None)
        yield


def three_dim_topology() -> Topology:
    return Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
            dimension("sw", 2, 100.0, latency_ns=1000),
        ],
        name="equiv-3d",
    )


def _submit_mixed_workload(sim: NetworkSimulator) -> None:
    """Concurrent collectives: mixed sizes, dim subsets, priorities, tenants,
    and an exact repeat (exercises the plan cache on the optimized path)."""
    sim.submit(CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB, owner="a"))
    sim.submit(
        CollectiveRequest(CollectiveType.ALL_REDUCE, 16 * MB, owner="b"),
        at_time=1e-4,
    )
    sim.submit(
        CollectiveRequest(
            CollectiveType.REDUCE_SCATTER, 4 * MB, priority=2, owner="a"
        ),
        at_time=2e-4,
    )
    sim.submit(
        CollectiveRequest(
            CollectiveType.ALL_GATHER, 8 * MB, dim_indices=(0, 1), owner="b"
        ),
        at_time=5e-5,
    )
    sim.submit(
        CollectiveRequest(CollectiveType.ALL_REDUCE, 64 * MB, owner="a"),
        at_time=3e-4,
    )


def _timeline(sim: NetworkSimulator) -> tuple:
    """Normalized timeline: per-op times plus completion order/times.

    Request ids are globally monotonic, so they are rebased to the run's
    first id to make two separate runs comparable.
    """
    result = sim.run()
    base = result.collectives[0].request.request_id
    records = tuple(
        (
            r.collective_seq - base,
            r.chunk_id,
            r.stage_index,
            r.dim_index,
            r.ready_time,
            r.start_time,
            r.end_time,
        )
        for r in result.records
    )
    completions = tuple(
        (c.request.request_id - base, c.completion_time)
        for c in result.collectives
    )
    return records, completions


def _run_single(policy: str, fusion_on: bool, enforce: bool) -> tuple:
    sim = NetworkSimulator(
        three_dim_topology(),
        SchedulerFactory("themis", splitter=Splitter(8)),
        policy=policy,
        fusion=FusionConfig(enabled=fusion_on),
        enforce_consistency=enforce,
    )
    _submit_mixed_workload(sim)
    return _timeline(sim)


class TestSingleSimulatorEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("fusion_on", [True, False])
    @pytest.mark.parametrize("enforce", [True, False])
    def test_identical_timelines(self, policy, fusion_on, enforce):
        optimized = _run_single(policy, fusion_on, enforce)
        with reference_path():
            reference = _run_single(policy, fusion_on, enforce)
        assert optimized == reference

    @pytest.mark.parametrize("policy", POLICIES)
    def test_baseline_scheduler_identical(self, policy):
        def run() -> tuple:
            sim = NetworkSimulator(
                three_dim_topology(),
                SchedulerFactory("baseline", splitter=Splitter(8)),
                policy=policy,
            )
            _submit_mixed_workload(sim)
            return _timeline(sim)

        optimized = run()
        with reference_path():
            assert optimized == run()


def _comm_heavy(layers: int, param_mb: float, name: str) -> Workload:
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


def _cluster_jobs() -> list[JobSpec]:
    return [
        JobSpec(name="elephant", workload=_comm_heavy(10, 3, "e"), iterations=3),
        JobSpec(
            name="mouse",
            workload=_comm_heavy(2, 20, "m"),
            iterations=3,
            arrival_time=1e-4,
            weight=2.0,
        ),
        JobSpec(
            name="urgent",
            workload=_comm_heavy(2, 8, "u"),
            iterations=2,
            arrival_time=2e-4,
            priority=3,
        ),
    ]


def _cluster_report(fairness: str):
    config = ClusterConfig(
        training=TrainingConfig(chunks_per_collective=16),
        isolated_baselines=False,
        fairness=fairness,
    )
    sim = ClusterSimulator(three_dim_topology(), _cluster_jobs(), config)
    report = sim.run()
    return report, sim


class TestClusterEquivalence:
    """``enable_preemption``/``set_share_weights`` runs report identical
    stats on the optimized and reference paths — including the FTF policy,
    whose reweight storms exercise flow-event cancellation hardest."""

    @pytest.mark.parametrize("fairness", ["fifo", "weighted", "ftf", "preempt"])
    def test_identical_cluster_stats(self, fairness):
        optimized, opt_sim = _cluster_report(fairness)
        with reference_path():
            reference, ref_sim = _cluster_report(fairness)
        assert [j.jct for j in optimized.jobs] == [j.jct for j in reference.jobs]
        assert optimized.makespan == reference.makespan
        assert optimized.preemption_count == reference.preemption_count
        assert optimized.comm_active_seconds == reference.comm_active_seconds
        opt_result = opt_sim.network.result()
        ref_result = ref_sim.network.result()
        assert opt_result.dim_bytes == ref_result.dim_bytes
        assert opt_result.dim_transfer_seconds == ref_result.dim_transfer_seconds

    def test_reweight_storm_keeps_heap_bounded(self):
        """The legacy engine's heap grew with every reweight; cancelling
        superseded finish events keeps the peak pending count a small
        multiple of the in-flight work."""
        _, sim = _cluster_report("ftf")
        # 15 when the legacy figure was measured: a 7x smaller peak.
        assert sim.engine.peak_pending * 4 < LEGACY_FTF_PEAK_PENDING
        assert sim.engine.cancelled_events > 0


class TestAuditEquivalence:
    """The invariant auditor is observer-only: an audited run's timeline is
    bit-identical to an unaudited one (exact float equality), and the
    cluster reports match too.  This is the acceptance gate for every new
    auditor hook — a hook that schedules events or perturbs state breaks
    these immediately."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_identical_collective_timelines(self, policy):
        def run(audit: bool) -> tuple:
            sim = NetworkSimulator(
                three_dim_topology(),
                SchedulerFactory("themis", splitter=Splitter(8)),
                policy=policy,
                audit=audit,
            )
            _submit_mixed_workload(sim)
            return _timeline(sim)

        audited = run(True)
        unaudited = run(False)
        assert audited == unaudited

    @pytest.mark.parametrize("fairness", ["fifo", "weighted", "ftf", "preempt"])
    def test_identical_cluster_reports(self, fairness):
        def run(audit: bool):
            config = ClusterConfig(
                training=TrainingConfig(chunks_per_collective=16),
                isolated_baselines=False,
                fairness=fairness,
                audit=audit,
            )
            sim = ClusterSimulator(three_dim_topology(), _cluster_jobs(), config)
            report = sim.run()
            assert (sim.network.auditor is not None) == audit
            return report

        audited = run(True)
        unaudited = run(False)
        assert [j.jct for j in audited.jobs] == [j.jct for j in unaudited.jobs]
        assert audited.makespan == unaudited.makespan
        assert audited.preemption_count == unaudited.preemption_count
        assert audited.comm_active_seconds == unaudited.comm_active_seconds


class TestSharedEngineEquivalence:
    def test_two_simulators_on_one_engine(self):
        """The training/cluster layers share one engine across simulators;
        the optimized path must interleave identically."""

        def run() -> tuple:
            sim = NetworkSimulator(
                three_dim_topology(),
                SchedulerFactory("themis", splitter=Splitter(4)),
                policy="scf",
                engine=EventQueue(),
            )
            _submit_mixed_workload(sim)
            return _timeline(sim)

        optimized = run()
        with reference_path():
            assert optimized == run()
