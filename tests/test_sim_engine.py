"""Event engine, timeline helpers, and dimension-channel mechanics."""

from __future__ import annotations

import pytest

from repro.collectives import PhaseOp
from repro.collectives.phases import Stage
from repro.core import get_policy
from repro.errors import SimulationError
from repro.sim import (
    EventQueue,
    FusionConfig,
    Interval,
    merge_intervals,
    total_length,
)
from repro.sim.executor import DimensionChannel, OpState
from repro.sim.timeline import OpRecord, render_gantt
from repro.topology import dimension


def _channel_op(seq: int, transfer: float, priority: int = 0, owner: str = ""):
    return OpState(
        collective_seq=seq,
        chunk_id=0,
        stage_index=0,
        stage=Stage(dim_index=0, op=PhaseOp.RS, stage_size=1.0),
        parent_dim=0,
        bytes_sent=transfer * 1e9,
        transfer_time=transfer,
        fixed_time=1e-3,
        priority=priority,
        owner=owner,
    )


def _reweight_storm(channel: DimensionChannel, engine: EventQueue) -> int:
    """Two weighted flows; five reweights while both are in flight."""
    channel.set_share_weights({"a": 1.0, "b": 1.0})
    channel.enqueue(_channel_op(0, 1.0, owner="a"))
    channel.enqueue(_channel_op(1, 1.0, owner="b"))
    for step in range(1, 6):
        weights = {"a": float(step + 1), "b": 1.0}
        engine.schedule(0.1 * step, lambda w=weights: channel.set_share_weights(w))
    # b's arrival re-arms a; each reweight re-arms both; a's finish re-arms b
    return 1 + 5 * 2 + 1


def _preempt_resume(channel: DimensionChannel, engine: EventQueue) -> int:
    """A low-priority batch on the serial wire, preempted twice."""
    channel.enable_preemption()
    channel.enqueue(_channel_op(0, 1.0))
    engine.schedule(0.2, lambda: channel.enqueue(_channel_op(1, 0.1, priority=1)))
    engine.schedule(0.6, lambda: channel.enqueue(_channel_op(2, 0.1, priority=1)))
    # each preemption retracts the segment's release and completion
    return 2 * 2


def _capacity_change(channel: DimensionChannel, engine: EventQueue) -> int:
    """A serial-wire batch degraded, failed, then restored mid-transfer."""
    channel.enqueue(_channel_op(0, 1.0))
    engine.schedule(0.25, lambda: channel.set_capacity_factor(0.5))
    engine.schedule(0.5, lambda: channel.set_capacity_factor(0.0))
    engine.schedule(0.75, lambda: channel.set_capacity_factor(1.0))
    # degrading and failing each retract a segment; the restore only resumes
    return 2 * 2


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        engine = EventQueue()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_ties_fire_in_scheduling_order(self):
        engine = EventQueue()
        fired = []
        for label in "abc":
            engine.schedule(1.0, lambda label=label: fired.append(label))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_callbacks_can_schedule_more(self):
        engine = EventQueue()
        fired = []

        def first():
            fired.append(1)
            engine.schedule_after(1.0, lambda: fired.append(2))

        engine.schedule(0.0, first)
        engine.run()
        assert fired == [1, 2]
        assert engine.now == 1.0

    def test_cannot_schedule_in_past(self):
        engine = EventQueue(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.schedule(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        engine = EventQueue()
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)

    def test_event_budget(self):
        engine = EventQueue()

        def rearm():
            engine.schedule_after(1.0, rearm)

        engine.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_budget_exact_finish_is_not_an_error(self):
        """A simulation that finishes in exactly ``max_events`` events
        completes normally — the budget only trips with work pending."""
        engine = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda t=t: fired.append(t))
        engine.run(max_events=3)
        assert fired == [1.0, 2.0, 3.0]
        assert engine.pending == 0

    def test_budget_with_pending_events_raises(self):
        engine = EventQueue()
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: None)
        with pytest.raises(SimulationError, match="pending"):
            engine.run(max_events=2)

    def test_run_until_includes_boundary_events(self):
        """``run_until(t)`` fires events scheduled exactly at ``t``."""
        engine = EventQueue()
        fired = []
        engine.schedule(2.0, lambda: fired.append("boundary"))
        engine.schedule(3.0, lambda: fired.append("later"))
        engine.run_until(2.0)
        assert fired == ["boundary"]
        assert engine.now == 2.0

    def test_run_until(self):
        engine = EventQueue()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run_until(2.0)
        assert fired == [1]
        assert engine.now == 2.0
        engine.run()
        assert fired == [1, 5]

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_counters(self):
        engine = EventQueue()
        engine.schedule(1.0, lambda: None)
        assert engine.pending == 1
        engine.run()
        assert engine.events_processed == 1
        assert engine.pending == 0


class TestPastTimeTolerance:
    """The past-time guard must be relative: at large ``now`` an absolute
    1e-15 epsilon is far below one ulp, so ordinary float round-off in
    long steady-state cluster runs would be rejected as 'in the past'."""

    def test_float_roundoff_at_large_time_is_accepted(self):
        engine = EventQueue(start_time=1e7)
        fired = []
        # One ulp below now — representable, and exactly the kind of value
        # `now + a - a` round-off produces.  The seed's absolute epsilon
        # (1e-15) rejected this.
        engine.schedule(1e7 - 2e-9, lambda: fired.append(True))
        engine.run()
        assert fired == [True]
        assert engine.now == 1e7  # clamped: time never runs backwards

    def test_genuinely_past_time_still_rejected(self):
        engine = EventQueue(start_time=1e7)
        with pytest.raises(SimulationError, match="before current time"):
            engine.schedule(1e7 - 1.0, lambda: None)

    def test_small_time_tolerance_unchanged(self):
        engine = EventQueue()
        with pytest.raises(SimulationError):
            engine.schedule(-1e-6, lambda: None)

    def test_within_tolerance_clamps_not_reverses(self):
        engine = EventQueue(start_time=5.0)
        times = []
        engine.schedule(5.0 - 1e-13, lambda: times.append(engine.now))
        engine.run()
        assert times == [5.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = EventQueue()
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"))
        handle = engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(3.0, lambda: fired.append("c"))
        assert handle.cancel() is True
        engine.run()
        assert fired == ["a", "c"]
        assert engine.cancelled_events == 1

    def test_pending_excludes_cancelled(self):
        engine = EventQueue()
        handles = [engine.schedule(float(t), lambda: None) for t in range(1, 6)]
        for handle in handles[:3]:
            handle.cancel()
        assert engine.pending == 2

    def test_cancel_is_idempotent_and_false_after_fire(self):
        engine = EventQueue()
        handle = engine.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        fired_handle = engine.schedule(2.0, lambda: None)
        engine.run()
        assert fired_handle.fired
        assert fired_handle.cancel() is False

    def test_budget_ignores_cancelled_events(self):
        """A budget-exact finish with cancelled stragglers is not an error."""
        engine = EventQueue()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        for t in (3.0, 4.0, 5.0):
            engine.schedule(t, lambda: None).cancel()
        engine.run(max_events=2)
        assert engine.pending == 0

    def test_run_until_skips_cancelled_boundary_event(self):
        engine = EventQueue()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1)).cancel()
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run_until(2.0)
        assert fired == []
        assert engine.now == 2.0
        engine.run()
        assert fired == [5]

    @pytest.mark.parametrize(
        "scenario", [_reweight_storm, _preempt_resume, _capacity_change]
    )
    def test_superseded_channel_events_never_fire(self, scenario):
        """Every batch completes exactly once: each re-armed wire event
        cancels the one it supersedes, which then never fires."""
        engine = EventQueue()
        completed: list[tuple[int, int, int]] = []
        channel = DimensionChannel(
            0,
            dimension("sw", 4, 400.0, latency_ns=100),
            get_policy("fifo"),
            FusionConfig(enabled=False),
            engine,
            on_batch_done=lambda _, batch: completed.extend(op.key for op in batch),
        )
        superseded = scenario(channel, engine)
        engine.run()
        assert completed
        assert sorted(completed) == sorted(set(completed))
        assert len(completed) == channel.stats.op_count
        assert engine.cancelled_events == superseded
        assert not channel.has_work


class TestCompaction:
    def test_heap_compacts_when_mostly_dead(self):
        engine = EventQueue(compaction_min_dead=64)
        handles = [
            engine.schedule(float(t), lambda: None) for t in range(1, 201)
        ]
        for handle in handles[:150]:
            handle.cancel()
        # >=64 dead and dead/total >= 1/2: the sweep must have fired, so the
        # physical heap is strictly smaller than the 200 events scheduled.
        assert engine.compactions >= 1
        assert engine.heap_size < 200
        assert engine.pending == 50
        engine.run()
        assert engine.events_processed == 50

    def test_no_compaction_below_min_dead(self):
        engine = EventQueue(compaction_min_dead=64)
        handles = [engine.schedule(float(t), lambda: None) for t in range(1, 11)]
        for handle in handles:
            handle.cancel()
        assert engine.compactions == 0
        assert engine.pending == 0

    def test_peak_pending_tracks_live_events_only(self):
        engine = EventQueue(compaction_min_dead=1000)
        for t in range(1, 11):
            engine.schedule(float(t), lambda: None)
        assert engine.peak_pending == 10
        engine.run()
        assert engine.peak_pending == 10


class TestIntervals:
    def test_merge_overlapping(self):
        merged = merge_intervals(
            [Interval(0, 2), Interval(1, 3), Interval(5, 6)]
        )
        assert merged == [Interval(0, 3), Interval(5, 6)]

    def test_merge_adjacent(self):
        merged = merge_intervals([Interval(0, 1), Interval(1, 2)])
        assert merged == [Interval(0, 2)]

    def test_merge_empty(self):
        assert merge_intervals([]) == []

    def test_total_length_deduplicates(self):
        assert total_length([Interval(0, 2), Interval(1, 3)]) == pytest.approx(3.0)

    def test_interval_length(self):
        assert Interval(1.0, 3.5).length == pytest.approx(2.5)


def _record(dim, chunk, stage, start, end, op=PhaseOp.RS, size=1.0):
    return OpRecord(
        collective_seq=0,
        chunk_id=chunk,
        stage_index=stage,
        dim_index=dim,
        op=op,
        stage_size=size,
        bytes_sent=size,
        transfer_time=end - start,
        fixed_time=0.0,
        ready_time=start,
        start_time=start,
        end_time=end,
    )


class TestOpRecord:
    def test_duration_and_queueing(self):
        record = OpRecord(
            collective_seq=0,
            chunk_id=1,
            stage_index=2,
            dim_index=0,
            op=PhaseOp.AG,
            stage_size=8.0,
            bytes_sent=6.0,
            transfer_time=1.0,
            fixed_time=0.5,
            ready_time=1.0,
            start_time=2.0,
            end_time=3.5,
        )
        assert record.duration == pytest.approx(1.5)
        assert record.queueing_delay == pytest.approx(1.0)
        assert record.label() == "AG C2.3"


class TestGantt:
    def test_render_contains_labels(self):
        records = [
            _record(0, 0, 0, 0.0, 1.0),
            _record(1, 0, 1, 1.0, 2.0),
        ]
        art = render_gantt(records, ndims=2, width=40)
        assert "dim1" in art and "dim2" in art
        assert "C1.1" in art

    def test_render_empty(self):
        assert "empty" in render_gantt([], ndims=2)

    def test_render_scales_to_width(self):
        records = [_record(0, 0, 0, 0.0, 10.0)]
        art = render_gantt(records, ndims=1, width=30)
        line = next(l for l in art.splitlines() if l.startswith("dim1"))
        assert len(line) <= len("dim1: ") + 30 + 1
