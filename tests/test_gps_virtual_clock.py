"""The shared wire's virtual-clock GPS against a direct rate integrator.

``DimensionChannel`` runs weighted sharing on a per-channel virtual clock:
each draining flow holds a finish tag and only the head flow has an armed
engine event.  :class:`ReferenceWire` below is the direct formulation that
clock replaces: between rate-change points every flow drains at
``capacity * w / sum(w)`` (only the top priority level under strict-priority
sharing), and at every change each flow's progress is banked and its rate
recomputed.  Hypothesis drives both with one script of arrivals, reweights
and capacity changes, and every op's ``end_time`` and the preemption count
must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulator, JobSpec
from repro.collectives import PhaseOp
from repro.collectives.phases import Stage
from repro.core import get_policy
from repro.sim import DimensionChannel, EventQueue, FusionConfig, OpState
from repro.topology import Topology, dimension
from repro.training import TrainingConfig
from repro.units import MB
from repro.workloads import Layer, Workload

#: Agreement bound between the channel and the reference (relative).
RTOL = 1e-9
#: Scripts whose two earliest candidate events ever fall closer than this
#: are skipped: which one fires first then depends on float round-off, in
#: the channel as in any integrator, and the orders diverge legitimately.
TIE_GAP = 1e-7

OWNERS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Op:
    owner: str
    transfer: float
    priority: int
    fixed: float


@dataclass(frozen=True)
class Script:
    """Timed actions on one shared channel.

    Each action is ``(time, kind, payload)`` with kind ``"op"`` (an
    :class:`Op` becomes ready), ``"weights"`` (a ``set_share_weights``
    map) or ``"capacity"`` (a ``set_capacity_factor`` value).
    """

    weights: dict[str, float]
    priority_sharing: bool
    actions: list[tuple[float, str, object]] = field(default_factory=list)


def _weight(weights: dict[str, float], owner: str) -> float:
    return max(weights.get(owner, 1.0), 1e-9)


class _RefFlow:
    __slots__ = ("seq", "priority", "fixed", "remaining", "rate")

    def __init__(self, seq: int, op: Op) -> None:
        self.seq = seq
        self.priority = op.priority
        self.fixed = op.fixed
        self.remaining = op.transfer
        self.rate = 0.0


class ReferenceWire:
    """Bank every flow at its old rate, re-split, step to the next change."""

    def __init__(self, script: Script) -> None:
        self.script = script
        self.weights = dict(script.weights)
        self.capacity = 1.0
        self.now = 0.0
        self.flows: dict[str, _RefFlow] = {}
        #: ``(fifo key, seq, op)`` of ready ops not yet on the wire.
        self.waiting: list[tuple[tuple, int, Op]] = []
        self.end: dict[int, float] = {}
        self.preemptions = 0
        self.min_gap = math.inf

    def run(self) -> ReferenceWire:
        actions = sorted(enumerate(self.script.actions), key=lambda item: item[1][0])
        index = 0
        while True:
            finishes = sorted(
                (self.now + flow.remaining / flow.rate, order, owner)
                for order, (owner, flow) in enumerate(self.flows.items())
                if flow.rate > 0.0
            )
            times = [entry[0] for entry in finishes[:2]]
            if index < len(actions):
                times = sorted([*times, actions[index][1][0]])
            if not times:
                return self
            if len(times) > 1:
                self.min_gap = min(self.min_gap, times[1] - times[0])
            if finishes and (
                index == len(actions) or finishes[0][0] < actions[index][1][0]
            ):
                self._advance(finishes[0][0])
                self._finish(finishes[0][2])
            else:
                seq, (time, kind, payload) = actions[index]
                self._advance(time)
                self._apply(seq, kind, payload)
                index += 1

    def _advance(self, time: float) -> None:
        for flow in self.flows.values():
            if flow.rate > 0.0:
                flow.remaining = max(
                    0.0, flow.remaining - flow.rate * (time - self.now)
                )
        self.now = time

    def _apply(self, seq: int, kind: str, payload: object) -> None:
        if kind == "op":
            assert isinstance(payload, Op)
            key = (-payload.priority, self.now, seq)
            self.waiting.append((key, seq, payload))
        elif kind == "weights":
            assert isinstance(payload, dict)
            self.weights = dict(payload)
            self._reschedule()
        else:
            assert isinstance(payload, float)
            if payload == self.capacity:
                return
            self.capacity = payload
            self._reschedule()
        self._try_start()

    def _reschedule(self) -> None:
        if not self.flows:
            return
        top = max(flow.priority for flow in self.flows.values())
        sharing = self.script.priority_sharing
        total = sum(
            _weight(self.weights, owner)
            for owner, flow in self.flows.items()
            if not sharing or flow.priority == top
        )
        for owner, flow in self.flows.items():
            if sharing and flow.priority < top:
                if flow.rate > 0.0 and self.capacity > 0.0:
                    self.preemptions += 1
                flow.rate = 0.0
            else:
                flow.rate = self.capacity * _weight(self.weights, owner) / total

    def _try_start(self) -> None:
        if self.capacity <= 0.0:
            return
        while True:
            startable = [
                entry for entry in self.waiting if entry[2].owner not in self.flows
            ]
            if not startable:
                return
            entry = min(startable)
            self.waiting.remove(entry)
            _, seq, op = entry
            self.flows[op.owner] = _RefFlow(seq, op)
            self._reschedule()

    def _finish(self, owner: str) -> None:
        flow = self.flows.pop(owner)
        self.end[flow.seq] = self.now + flow.fixed
        self._reschedule()
        self._try_start()


def run_channel(script: Script) -> tuple[dict[int, float], int]:
    """Play ``script`` on a real shared-wire channel."""
    engine = EventQueue()
    channel = DimensionChannel(
        0,
        dimension("sw", 4, 400.0, latency_ns=100),
        get_policy("fifo"),
        FusionConfig(enabled=False),
        engine,
        on_batch_done=lambda _, batch: None,
    )
    channel.set_share_weights(script.weights)
    if script.priority_sharing:
        channel.enable_priority_sharing()
    ops: dict[int, OpState] = {}
    actions = sorted(enumerate(script.actions), key=lambda item: item[1][0])
    for seq, (time, kind, payload) in actions:
        if kind == "op":
            assert isinstance(payload, Op)
            ops[seq] = OpState(
                collective_seq=seq,
                chunk_id=0,
                stage_index=0,
                stage=Stage(dim_index=0, op=PhaseOp.RS, stage_size=1.0),
                parent_dim=0,
                bytes_sent=payload.transfer * 1e9,
                transfer_time=payload.transfer,
                fixed_time=payload.fixed,
                priority=payload.priority,
                owner=payload.owner,
            )
            engine.schedule(time, partial(channel.enqueue, ops[seq]))
        elif kind == "weights":
            engine.schedule(time, partial(channel.set_share_weights, payload))
        else:
            engine.schedule(time, partial(channel.set_capacity_factor, payload))
    engine.run()
    assert not channel.has_work
    return {seq: op.end_time for seq, op in ops.items()}, channel.preemption_count


def check(script: Script) -> None:
    reference = ReferenceWire(script).run()
    assume(reference.min_gap > TIE_GAP)
    ends, preemptions = run_channel(script)
    assert ends.keys() == reference.end.keys()
    for seq, expected in reference.end.items():
        assert math.isclose(ends[seq], expected, rel_tol=RTOL), (seq, ends[seq])
    assert preemptions == reference.preemptions


_times = st.floats(0.0, 4.0, allow_nan=False)
# Near-zero weights (clamped to 1e-9) stress the weight sum's cancellation.
_weights = st.dictionaries(
    st.sampled_from(OWNERS),
    st.one_of(st.floats(0.1, 10.0), st.sampled_from([1e-12, 1e-6])),
)
_op = st.builds(
    Op,
    owner=st.sampled_from(OWNERS),
    transfer=st.floats(0.05, 2.0),
    priority=st.integers(0, 2),
    fixed=st.sampled_from([0.0, 1e-3, 0.05]),
)


@st.composite
def scripts(draw: st.DrawFn) -> Script:
    actions: list[tuple[float, str, object]] = [
        (draw(_times), "op", op) for op in draw(st.lists(_op, min_size=1, max_size=8))
    ]
    for weights in draw(st.lists(_weights, max_size=3)):
        actions.append((draw(_times), "weights", weights))
    capacities = st.sampled_from([0.0, 0.0, 0.3, 0.5, 1.0])
    for capacity in draw(st.lists(capacities, max_size=3)):
        actions.append((draw(_times), "capacity", capacity))
    # Restore the link last so every script drains.
    actions.append((5.0, "capacity", 1.0))
    return Script(draw(_weights), draw(st.booleans()), actions)


_A = Op("a", 1.0, 0, 1e-3)
_B = Op("b", 0.6, 0, 0.0)
_C = Op("c", 0.35, 0, 0.05)
REWEIGHT = Script(
    {"a": 1.0, "b": 2.0},
    False,
    [
        (0.0, "op", _A),
        (0.1, "op", _B),
        (0.2, "op", _C),
        (0.3, "weights", {"a": 3.0, "c": 0.5}),
        (0.45, "op", Op("b", 0.25, 0, 0.0)),
        (0.7, "weights", {"b": 4.0}),
    ],
)
CAPACITY = Script(
    {"a": 1.5},
    False,
    [
        (0.0, "op", _A),
        (0.15, "op", _B),
        (0.4, "capacity", 0.5),
        (0.65, "capacity", 0.0),
        (0.7, "op", _C),
        (0.9, "capacity", 1.0),
        (1.1, "op", Op("d", 0.3, 0, 1e-3)),
    ],
)
# A heavy flow leaves a near-zero-weight one draining alone.
TINY_WEIGHT = Script(
    {"a": 1.0, "b": 1e-12},
    False,
    [
        (0.0, "op", Op("a", 1.0, 0, 0.0)),
        (0.1, "op", Op("b", 0.5, 0, 1e-3)),
    ],
)
# A near-zero weight drains alone, racing the clock far ahead of the
# short flow that then arrives.
CLOCK_AHEAD = Script(
    {"b": 1e-12},
    False,
    [
        (0.0, "op", Op("b", 2.0, 0, 0.0)),
        (1.3, "op", Op("a", 0.0123, 0, 1e-3)),
    ],
)
PRIORITY = Script(
    {"b": 2.0},
    True,
    [
        (0.0, "op", _A),
        (0.1, "op", _B),
        (0.25, "op", Op("c", 0.3, 2, 0.05)),
        (0.35, "op", Op("d", 0.2, 1, 0.0)),
        (0.4, "weights", {"a": 3.0, "d": 0.5}),
        (0.5, "capacity", 0.0),
        (0.6, "capacity", 0.75),
    ],
)


class TestVirtualClockAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(scripts())
    @example(REWEIGHT)
    @example(CAPACITY)
    @example(PRIORITY)
    @example(TINY_WEIGHT)
    @example(CLOCK_AHEAD)
    def test_end_times_and_preemptions_match(self, script: Script) -> None:
        check(script)

    def test_pinned_scripts_are_not_near_ties(self) -> None:
        # The pinned examples must exercise the comparison, not be skipped.
        for script in (REWEIGHT, CAPACITY, PRIORITY, TINY_WEIGHT, CLOCK_AHEAD):
            assert ReferenceWire(script).run().min_gap > TIE_GAP

    def test_priority_script_preempts(self) -> None:
        assert ReferenceWire(PRIORITY).run().preemptions > 0


def _workload(layers: int, param_mb: float, name: str) -> Workload:
    return Workload(
        name=name,
        layers=[
            Layer(f"l{i}", fwd_flops=1e8, bwd_flops=2e8, param_bytes=param_mb * MB)
            for i in range(layers)
        ],
        batch_per_npu=1,
    )


_POOL = (
    _workload(6, 2, "elephant"),
    _workload(2, 8, "mouse"),
    _workload(3, 4, "medium"),
)


def _cancelled_per_job(policy: str, n_jobs: int, isolated_cache: dict) -> float:
    """Cancelled engine events per job of one shared-wire cluster run."""
    topology = Topology(
        [
            dimension("sw", 4, 400.0, latency_ns=100),
            dimension("sw", 4, 200.0, latency_ns=500),
        ],
        name="cancel-2d",
    )
    jobs = [
        JobSpec(
            name=f"job{i:02d}",
            workload=_POOL[i % len(_POOL)],
            iterations=1,
            arrival_time=i * 2e-5,
            weight=1.0 + (i % 3),
        )
        for i in range(n_jobs)
    ]
    config = ClusterConfig(
        training=TrainingConfig(chunks_per_collective=4),
        isolated_baselines=False,
        fairness=policy,
    )
    sim = ClusterSimulator(topology, jobs, config, isolated_cache=isolated_cache)
    sim.run()
    return sim.engine.cancelled_events / n_jobs


class TestLinearCancellation:
    """One armed event per channel: cancellations grow with the number of
    rate changes, not with rate changes x in-flight tenants."""

    @pytest.mark.parametrize("policy", ["weighted", "ftf"])
    def test_cancellations_per_job_stay_flat(self, policy: str) -> None:
        cache: dict = {}
        small = _cancelled_per_job(policy, 8, cache)
        large = _cancelled_per_job(policy, 32, cache)
        assert small > 0
        assert large < 1.5 * small, (small, large)
