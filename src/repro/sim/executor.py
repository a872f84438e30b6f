"""Per-dimension execution machinery: op states, fusion, dimension channels.

The simulator models each network dimension as a *channel* whose wire
serializes chunk transfers at the dimension's aggregate bandwidth, while
the fixed per-op delay ``A_K = steps x step_latency`` is a **pipeline
shadow**: consecutive chunk ops follow each other at transfer-rate spacing
and each op's output becomes available ``A_K`` after its transfer ends.
This realizes exactly the paper's per-dimension cost (Sec. 4.4)::

    Latency(dimK) = A_K + N_K x B_K + idle_K

where ``A_K`` is paid once (by the last op's exposed tail), not once per
chunk — hierarchical collectives stream chunks through their step pipeline.

Two provisions from Sec. 4.3 are implemented here:

* the **intra-dimension policy** picks which ready op runs next (FIFO/SCF),
* **fusion** executes several small ops as one batch when a single op's
  transfer time cannot amortize the fixed latency (the paper's "multiple
  chunks per dimension ... similar to the collective fusion concept in
  NCCL"): a fused batch shares one fixed-delay shadow and coalesces
  scheduling events.

For multi-tenant cluster simulations the wire additionally supports two
fairness disciplines beyond the default serial (first-come) service
(``repro.cluster.fairness`` selects them):

* **weighted sharing** (:meth:`DimensionChannel.set_share_weights`): each
  tenant may have one batch in flight concurrently and the wire's bandwidth
  is split between the in-flight batches in proportion to per-tenant
  weights (GPS-style fluid sharing, recomputed whenever the active set or
  the weights change);
* **preemption** (:meth:`DimensionChannel.enable_preemption`): a ready op
  whose priority strictly exceeds the running batch's pauses that batch;
  the remainder of its transfer is re-run later, with statistics adjusted
  so no byte or wire-second is lost or double-counted.

Fault injection reuses the same machinery: the wire carries a live
``capacity_factor`` (fraction of nominal bandwidth, see
:mod:`repro.sim.faults`), :meth:`DimensionChannel.set_capacity_factor`
re-segments in-flight work at the new rate through the cancel-and-re-arm
rescheduling path, and a factor of zero parks everything in flight — a
failed link loses no bytes, it just stops draining until restored.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..collectives.phases import Stage
from ..core.policies import IntraDimPolicy
from ..core.ready_queue import ReadyQueue
from ..errors import ConfigError, SimulationError
from ..topology import DimensionSpec
from .engine import EventHandle, EventQueue
from .faults import MIN_CAPACITY_FACTOR
from .timeline import Interval, OpRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .audit import InvariantAuditor


@dataclass(frozen=True)
class FusionConfig:
    """Chunk-op fusion parameters (Sec. 4.3, second provision).

    An op is *small* when ``transfer_time < saturation_factor x fixed_time``
    — it finishes its bytes before the pipeline latency is amortized, so
    running it alone underutilizes the dimension.  Up to ``max_ops`` small
    ops are fused into one batch.
    """

    enabled: bool = True
    saturation_factor: float = 1.0
    max_ops: int = 8

    def __post_init__(self) -> None:
        if self.saturation_factor < 0:
            raise ConfigError(
                f"saturation factor must be >= 0, got {self.saturation_factor}"
            )
        if self.max_ops < 1:
            raise ConfigError(f"max fused ops must be >= 1, got {self.max_ops}")

    def is_small(self, op: "OpState") -> bool:
        return op.transfer_time < self.saturation_factor * op.fixed_time


class OpState:
    """Mutable runtime state of one chunk operation on one dimension."""

    __slots__ = (
        "collective_seq",
        "priority",
        "owner",
        "chunk_id",
        "stage_index",
        "stage",
        "parent_dim",
        "bytes_sent",
        "transfer_time",
        "fixed_time",
        "ready_time",
        "start_time",
        "end_time",
        "queued",
    )

    def __init__(
        self,
        collective_seq: int,
        chunk_id: int,
        stage_index: int,
        stage: Stage,
        parent_dim: int,
        bytes_sent: float,
        transfer_time: float,
        fixed_time: float,
        priority: int = 0,
        owner: str = "",
    ) -> None:
        self.collective_seq = collective_seq
        self.priority = priority
        self.owner = owner
        self.chunk_id = chunk_id
        self.stage_index = stage_index
        self.stage = stage
        self.parent_dim = parent_dim
        self.bytes_sent = bytes_sent
        self.transfer_time = transfer_time
        self.fixed_time = fixed_time
        self.ready_time = float("inf")
        self.start_time = float("nan")
        self.end_time = float("nan")
        #: Ready-queue liveness flag (lazy deletion in the indexed queues).
        self.queued = False

    @property
    def key(self) -> tuple[int, int, int]:
        """Identity used by enforced intra-dimension orders."""
        return (self.collective_seq, self.chunk_id, self.stage_index)

    def to_record(self) -> OpRecord:
        return OpRecord(
            collective_seq=self.collective_seq,
            chunk_id=self.chunk_id,
            stage_index=self.stage_index,
            dim_index=self.parent_dim,
            op=self.stage.op,
            stage_size=self.stage.stage_size,
            bytes_sent=self.bytes_sent,
            transfer_time=self.transfer_time,
            fixed_time=self.fixed_time,
            ready_time=self.ready_time,
            start_time=self.start_time,
            end_time=self.end_time,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpState(c{self.collective_seq} chunk{self.chunk_id} "
            f"stage{self.stage_index} dim{self.parent_dim} {self.stage.op.value})"
        )


@dataclass
class ChannelStats:
    """Aggregated per-dimension statistics (feeds utilization and Fig. 9)."""

    busy_seconds: float = 0.0
    transfer_seconds: float = 0.0
    fixed_seconds: float = 0.0
    bytes_sent: float = 0.0
    op_count: int = 0
    batch_count: int = 0
    activity_intervals: list[Interval] = field(default_factory=list)


class _RunningBatch:
    """Serial-wire bookkeeping for the batch currently (or lately) on the wire.

    ``remaining`` is the transfer time still owed; preemption decrements it
    by the elapsed segment and *cancels* the segment's pending release and
    completion events, so a superseded segment never fires.
    """

    __slots__ = (
        "batch",
        "fixed",
        "transfer_total",
        "bytes_total",
        "priority",
        "remaining",
        "segment_start",
        "release_handle",
        "complete_handle",
    )

    def __init__(self, batch: list[OpState], fixed: float, transfer: float) -> None:
        self.batch = batch
        self.fixed = fixed
        self.transfer_total = transfer
        self.bytes_total = sum(op.bytes_sent for op in batch)
        self.priority = max(op.priority for op in batch)
        self.remaining = transfer
        self.segment_start = 0.0
        self.release_handle: EventHandle | None = None
        self.complete_handle: EventHandle | None = None


class _FlowState:
    """One tenant's in-flight batch under weighted bandwidth sharing.

    ``remaining`` is transfer work measured in seconds at *full* wire rate;
    the flow drains at ``rate`` (its weight share), so its finish event is
    recomputed — and the old one cancelled — every time the active set or
    the weights change.
    """

    __slots__ = (
        "batch",
        "owner",
        "fixed",
        "priority",
        "remaining",
        "rate",
        "last_update",
        "finish_handle",
    )

    def __init__(
        self, batch: list[OpState], owner: str, fixed: float, transfer: float
    ) -> None:
        self.batch = batch
        self.owner = owner
        self.fixed = fixed
        self.priority = max(op.priority for op in batch)
        self.remaining = transfer
        self.rate = 0.0
        self.last_update = 0.0
        self.finish_handle: EventHandle | None = None


#: Weights below this are clamped up so a zero-weight tenant still drains
#: (otherwise its flow would never finish and the simulation would deadlock).
_MIN_WEIGHT = 1e-9


class DimensionChannel:
    """Executor for one network dimension.

    Owns a ready queue, applies the intra-dimension policy (optionally
    overridden by enforced per-collective orders, Sec. 4.6.2), performs
    fusion, and tracks activity intervals — a dimension "has activity if
    there is at least one chunk in that dimension for processing" (Fig. 9).

    By default the wire is *serial*: one batch at a time at full bandwidth.
    The cluster fairness layer may switch it to weighted per-tenant sharing
    (:meth:`set_share_weights`) or arm priority preemption
    (:meth:`enable_preemption`); see the module docstring.
    """

    def __init__(
        self,
        dim_index: int,
        dim: DimensionSpec,
        policy: IntraDimPolicy,
        fusion: FusionConfig,
        engine: EventQueue,
        on_batch_done: Callable[["DimensionChannel", list[OpState]], None],
    ) -> None:
        self.dim_index = dim_index
        self.dim = dim
        self.policy = policy
        self.fusion = fusion
        self.engine = engine
        self.on_batch_done = on_batch_done
        self.queue: ReadyQueue = policy.make_queue()
        self.queue.bind(self._op_is_eligible)
        self.busy = False
        self.stats = ChannelStats()
        # Live outstanding load (enqueued but not yet completed work) — read
        # at job-arrival time by the cluster placement policies.  Bytes are
        # credited on enqueue and debited when the op's batch completes, so
        # preempted/paused work correctly stays outstanding.
        self._outstanding_bytes = 0.0
        self._outstanding_owner_ops: dict[str, int] = {}
        # collective_seq -> remaining enforced op-key order for this channel.
        self.enforced_orders: dict[int, list[tuple[int, int, int]]] = {}
        self._active_since: float | None = None
        # --- fairness machinery (off by default) --------------------------
        #: ``None`` = serial wire; a dict = weighted per-tenant sharing.
        self.share_weights: dict[str, float] | None = None
        self.default_weight = 1.0
        self.preemption_enabled = False
        self.preemption_count = 0
        #: Strict-priority variant of the shared wire (fluid backend's
        #: preemption model): only the highest-priority in-flight flows get
        #: rate; lower-priority flows park at rate zero with progress banked.
        self.priority_sharing = False
        #: Optional cross-channel coalescer (:class:`FlowCoalescer`): when
        #: set, same-instant ``_reschedule_flows`` calls collapse into one
        #: recomputation per channel per instant.
        self.flow_coalescer: "FlowCoalescer | None" = None
        self._coalesce_marked = False
        self._flows: dict[str, _FlowState] = {}
        self._running: _RunningBatch | None = None
        self._paused: list[_RunningBatch] = []
        # --- fault machinery (capacity always nominal by default) ---------
        #: Live capacity as a fraction of nominal: transfer work drains at
        #: ``capacity_factor`` nominal-seconds per wall-second.  ``0.0`` is
        #: a failed link — in-flight work parks (never lost) until restored.
        #: Statistics stay in nominal seconds regardless of the factor.
        self.capacity_factor = 1.0
        #: Optional runtime invariant auditor (see :mod:`repro.sim.audit`).
        #: Observer-only; attached by ``NetworkSimulator(audit=True)``.
        self.auditor: "InvariantAuditor | None" = None

    # --- fairness configuration -------------------------------------------
    def set_share_weights(
        self, weights: dict[str, float], default: float = 1.0
    ) -> None:
        """Enable (or re-tune) weighted per-tenant bandwidth sharing.

        ``weights`` maps tenant (``OpState.owner``) to a positive share;
        tenants absent from the map get ``default``.  Safe to call mid-run:
        in-flight flows keep their progress and drain at the new rates.
        """
        for owner, weight in weights.items():
            if weight <= 0:
                raise ConfigError(
                    f"tenant {owner!r}: share weight must be positive, "
                    f"got {weight}"
                )
        if default <= 0:
            raise ConfigError(f"default share weight must be positive, got {default}")
        if self.share_weights is None and (self.busy or self._paused):
            raise ConfigError(
                f"dim{self.dim_index}: cannot switch to weighted sharing "
                "while the serial wire has a batch in flight"
            )
        self.share_weights = dict(weights)
        self.default_weight = default
        if self._flows:
            self._reschedule_flows()
        self.try_start()

    def enable_preemption(self) -> None:
        """Let strictly higher-priority arrivals pause the running batch."""
        self.preemption_enabled = True

    def enable_priority_sharing(self) -> None:
        """Strict-priority rates on the shared wire (fluid preemption).

        Only in-flight flows at the current maximum priority split the
        wire; lower-priority flows are parked at rate zero with their
        progress banked — the fluid-model analogue of serial preemption,
        with each running→parked transition counted as a preemption.
        """
        if self.share_weights is None:
            raise ConfigError(
                f"dim{self.dim_index}: priority sharing requires the shared "
                "wire; call set_share_weights first"
            )
        self.priority_sharing = True

    # --- fault injection ---------------------------------------------------
    def set_capacity_factor(self, factor: float) -> None:
        """Change the wire's live capacity mid-run (fault inject/restore).

        ``factor`` is the fraction of nominal bandwidth the dimension now
        carries (``1.0`` = healthy, ``0.0`` = failed).  In-flight work is
        re-segmented at the new rate through the same cancel-and-re-arm
        path preemption uses, so byte/seconds accounting is conserved
        across the change: the done part of the current segment stays
        credited, the leftover is debited and re-credited when its new
        segment (or its park/resume cycle) runs.  At ``0.0`` the in-flight
        batch parks (serial wire) or every flow's rate drops to zero with
        progress banked (shared wire); nothing is lost and nothing drains
        until a later call restores capacity.
        """
        if factor < 0.0:
            raise ConfigError(
                f"dim{self.dim_index}: capacity factor must be >= 0, "
                f"got {factor}"
            )
        if factor > 1.0:
            raise ConfigError(
                f"dim{self.dim_index}: capacity factor must be <= 1 "
                f"(degradation cannot exceed nominal), got {factor}"
            )
        if factor != 0.0 and factor < MIN_CAPACITY_FACTOR:
            factor = 0.0  # near-zero capacity behaves as a failure
        old = self.capacity_factor
        if factor == old:
            return
        if self.share_weights is not None:
            self.capacity_factor = factor
            # Fault transitions are precision points (the fluid backend's
            # hybrid contract): recompute immediately, never coalesced.
            self._reschedule_flows(immediate=True)
            if self.auditor is not None:
                self.auditor.on_capacity_change(self, old, factor)
            self.try_start()
            return
        # Serial wire: close the running segment at the old rate, then
        # either restart the leftover at the new rate or park it.
        running = self._running
        if running is not None and self.busy:
            now = self.engine.now
            done = (now - running.segment_start) * old
            remaining = running.remaining - done
            if remaining > 1e-18:
                self.engine.cancel(running.complete_handle)
                self.engine.cancel(running.release_handle)
                frac = remaining / running.transfer_total
                self.stats.busy_seconds -= remaining
                self.stats.transfer_seconds -= remaining
                self.stats.fixed_seconds -= running.fixed
                self.stats.bytes_sent -= running.bytes_total * frac
                running.remaining = remaining
                self.busy = False
                self._running = None
                self.capacity_factor = factor
                if factor > 0.0:
                    self._start_segment(running)
                else:
                    self._paused.append(running)
                    self._update_activity()
                if self.auditor is not None:
                    self.auditor.on_capacity_change(self, old, factor)
                self.try_start()
                return
            # else: segment effectively done — let its pending events fire.
        self.capacity_factor = factor
        if self.auditor is not None:
            self.auditor.on_capacity_change(self, old, factor)
        self.try_start()

    def _weight(self, owner: str) -> float:
        assert self.share_weights is not None
        return max(self.share_weights.get(owner, self.default_weight), _MIN_WEIGHT)

    # --- outstanding load (placement signals) ------------------------------
    @property
    def outstanding_bytes(self) -> float:
        """Bytes of enqueued-but-uncompleted work currently on this dimension.

        Counts ready, running, and paused/preempted ops (their bytes are
        still owed to the wire).  Ops of *later* stages of an in-flight
        chunk are not included until their predecessor completes and they
        are enqueued here.
        """
        return max(0.0, self._outstanding_bytes)

    @property
    def active_tenant_count(self) -> int:
        """Distinct owners with outstanding (uncompleted) ops here."""
        return len(self._outstanding_owner_ops)

    def _track_enqueued(self, op: OpState) -> None:
        self._outstanding_bytes += op.bytes_sent
        self._outstanding_owner_ops[op.owner] = (
            self._outstanding_owner_ops.get(op.owner, 0) + 1
        )

    def _track_completed(self, batch: list[OpState]) -> None:
        for op in batch:
            self._outstanding_bytes -= op.bytes_sent
            count = self._outstanding_owner_ops.get(op.owner, 0) - 1
            if count > 0:
                self._outstanding_owner_ops[op.owner] = count
            else:
                self._outstanding_owner_ops.pop(op.owner, None)

    # --- activity tracking ------------------------------------------------
    @property
    def has_work(self) -> bool:
        return (
            self.busy
            or bool(self.queue)
            or bool(self._flows)
            or bool(self._paused)
        )

    def _update_activity(self) -> None:
        now = self.engine.now
        if self.has_work and self._active_since is None:
            self._active_since = now
        elif not self.has_work and self._active_since is not None:
            if now > self._active_since:
                self.stats.activity_intervals.append(
                    Interval(self._active_since, now)
                )
            self._active_since = None

    def snapshot_activity(self) -> list[Interval]:
        """Closed activity intervals plus any still-open one up to ``now``.

        Non-destructive: the open interval (a dimension mid-transfer) is
        closed *in the returned copy only*, so ``NetworkSimulator.result()``
        can snapshot a live simulation without corrupting the accounting of
        the remainder of the run.
        """
        intervals = list(self.stats.activity_intervals)
        if self._active_since is not None and self.engine.now > self._active_since:
            intervals.append(Interval(self._active_since, self.engine.now))
        return intervals

    # --- enforced orders (schedule consistency, Sec. 4.6.2) ---------------
    def set_enforced_order(
        self, collective_seq: int, op_keys: list[tuple[int, int, int]]
    ) -> None:
        """Lock this channel's op order for one collective."""
        self.enforced_orders[collective_seq] = list(op_keys)

    # --- execution ----------------------------------------------------------
    def enqueue(self, op: OpState) -> None:
        """An op's previous stage finished: it is now ready on this channel."""
        op.ready_time = self.engine.now
        eligible = self._op_is_eligible(op)
        self.queue.push(op, eligible)
        self._track_enqueued(op)
        if self.auditor is not None:
            self.auditor.on_enqueue(self, op)
        self._update_activity()
        if (
            self.preemption_enabled
            and self.share_weights is None
            and self.busy
            and self._running is not None
            and op.priority > self._running.priority
            and eligible
        ):
            self._preempt_running()
        self.try_start()

    def _op_is_eligible(self, op: OpState) -> bool:
        """Whether ``op`` may start now under enforced per-collective orders.

        Preemption checks this before pausing the wire: an order-blocked op
        cannot start, so preempting for it would be immediately undone (and
        would inflate the reported preemption count).
        """
        order = self.enforced_orders.get(op.collective_seq)
        return order is None or bool(order and order[0] == op.key)

    def try_start(self) -> None:
        """Start the next batch/flow if the wire discipline allows one."""
        if self.capacity_factor <= 0.0:
            return  # failed link: ready/parked work waits for restoration
        if self.share_weights is not None:
            self._try_start_shared()
            return
        if self.busy:
            return
        best = self.queue.select()
        paused = self._best_paused()
        if paused is not None and (
            best is None or paused.priority >= self.queue.max_priority()
        ):
            self._paused.remove(paused)
            self._start_segment(paused)
            return
        if best is None:
            return
        self._execute(self._pick_batch(best))

    def _take(self, op: OpState) -> OpState:
        """Remove a selected op from the ready structure and advance orders.

        Popping an enforced order's head makes the next op in that order
        eligible; the indexed queue unparks it immediately, so fusion and
        subsequent selections see it without any rescan (this is the
        incremental equivalent of the seed's sliding ``taken`` offsets).
        """
        self.queue.discard(op)
        order = self.enforced_orders.get(op.collective_seq)
        if order and order[0] == op.key:
            order.pop(0)
            if order:
                self.queue.promote(order[0])
        return op

    def _pick_batch(
        self, first: OpState, fusion_owner: str | None = None
    ) -> list[OpState]:
        batch = [self._take(first)]
        if not self.fusion.enabled or not self.fusion.is_small(first):
            return batch
        # Fusing preserves relative start order: each accepted op advances
        # its enforced order, so eligibility slides forward with the batch.
        while len(batch) < self.fusion.max_ops:
            candidate = self.queue.select(owner=fusion_owner)
            if candidate is None or not self.fusion.is_small(candidate):
                break
            batch.append(self._take(candidate))
        return batch

    # --- serial wire (default, with optional preemption) -------------------
    def _execute(self, batch: list[OpState]) -> None:
        """Run a batch with pipelined fixed latency (paper Sec. 4.4).

        The dimension's wire is occupied for the batch's *transfer* time
        only; the fixed delay ``A_K = steps x step_latency`` is a pipeline
        shadow — the results become available ``fixed`` later, but the next
        batch may start injecting as soon as the wire frees.  This realizes
        the paper's per-dimension total ``A_K + N_K x B_K + idle_K``, where
        A_K is paid once (by the exposed tail), not per chunk.
        """
        now = self.engine.now
        fixed = max(op.fixed_time for op in batch)
        transfer = sum(op.transfer_time for op in batch)
        for op in batch:
            op.start_time = now
        self.stats.op_count += len(batch)
        self.stats.batch_count += 1
        if self.auditor is not None:
            self.auditor.on_batch_start(self, batch)
        self._start_segment(_RunningBatch(batch, fixed, transfer))

    def _start_segment(self, running: _RunningBatch) -> None:
        """(Re)occupy the wire for the batch's remaining transfer work.

        A fresh batch runs one segment covering its whole transfer; a batch
        resumed after preemption runs a segment for the leftover work.
        Statistics are credited per segment (and debited on preemption), so
        across all segments each batch contributes exactly its transfer
        seconds and bytes once.  The fixed-latency shadow is paid at the end
        of the final segment.

        ``remaining`` is nominal transfer work; a degraded wire drains it at
        ``capacity_factor`` work-seconds per wall-second, so the segment's
        wall time is ``remaining / capacity_factor`` (exactly ``remaining``
        at nominal capacity — division by 1.0 is lossless).  Statistics stay
        in nominal seconds.
        """
        assert self.capacity_factor > 0.0  # failed links park, never start
        now = self.engine.now
        running.segment_start = now
        remaining = running.remaining
        frac = (
            remaining / running.transfer_total
            if running.transfer_total > 0
            else 1.0
        )
        self.busy = True
        self._running = running
        self.stats.busy_seconds += remaining
        self.stats.transfer_seconds += remaining
        self.stats.fixed_seconds += running.fixed
        self.stats.bytes_sent += running.bytes_total * frac
        wall = remaining / self.capacity_factor
        end = now + running.fixed + wall
        for op in running.batch:
            op.end_time = end
        self._update_activity()
        # Completion is scheduled before the wire release so that when the
        # fixed delay is zero (same-instant tie) the finished batch's
        # successor ops are enqueued before the channel picks its next batch.
        running.complete_handle = self.engine.schedule(
            end, lambda: self._complete(running)
        )
        running.release_handle = self.engine.schedule(
            now + wall, lambda: self._release_wire(running)
        )

    def _preempt_running(self) -> None:
        """Pause the running batch; its leftover transfer re-runs later.

        The segment's pending release/completion events are cancelled
        outright, and the statistics credited at segment
        start are debited by exactly the un-done part, so preemption never
        loses or double-counts work.
        """
        running = self._running
        assert running is not None
        now = self.engine.now
        done = (now - running.segment_start) * self.capacity_factor
        remaining = running.remaining - done
        if remaining <= 1e-18:
            return  # the segment is done; the wire releases this instant
        self.engine.cancel(running.complete_handle)
        self.engine.cancel(running.release_handle)
        frac = remaining / running.transfer_total
        self.stats.busy_seconds -= remaining
        self.stats.transfer_seconds -= remaining
        self.stats.fixed_seconds -= running.fixed
        self.stats.bytes_sent -= running.bytes_total * frac
        running.remaining = remaining
        self.busy = False
        self._running = None
        self._paused.append(running)
        self.preemption_count += 1
        if self.auditor is not None:
            self.auditor.on_preempt(self, running)
        self._update_activity()

    def _best_paused(self) -> _RunningBatch | None:
        """Highest-priority paused batch (ties: most recently preempted).

        On equal priority the *last* batch pushed to ``_paused`` wins — the
        most recently preempted work resumes first (LIFO), which keeps a
        preemption storm from starving the batch it displaced last.
        """
        best = None
        for running in self._paused:
            if best is None or running.priority >= best.priority:
                best = running
        return best

    def _release_wire(self, running: _RunningBatch) -> None:
        if not self.busy:  # pragma: no cover - defensive
            raise SimulationError(
                f"dim{self.dim_index} released its wire while not busy"
            )
        running.remaining = 0.0
        self.busy = False
        self._running = None
        self._update_activity()
        self.try_start()

    def _complete(self, running: _RunningBatch) -> None:
        self._track_completed(running.batch)
        if self.auditor is not None:
            self.auditor.on_batch_complete(self, running.batch)
        self.on_batch_done(self, running.batch)
        self._update_activity()
        self.try_start()

    # --- weighted-sharing wire (cluster fairness) ---------------------------
    def _try_start_shared(self) -> None:
        """Admit one flow per tenant that has eligible work and none in flight."""
        while True:
            first = self.queue.select(exclude_owners=self._flows)
            if first is None:
                return
            batch = self._pick_batch(first, fusion_owner=first.owner)
            self._start_flow(batch)

    def _start_flow(self, batch: list[OpState]) -> None:
        now = self.engine.now
        fixed = max(op.fixed_time for op in batch)
        transfer = sum(op.transfer_time for op in batch)
        for op in batch:
            op.start_time = now
        self.stats.busy_seconds += transfer
        self.stats.transfer_seconds += transfer
        self.stats.fixed_seconds += fixed
        self.stats.bytes_sent += sum(op.bytes_sent for op in batch)
        self.stats.op_count += len(batch)
        self.stats.batch_count += 1
        if self.auditor is not None:
            self.auditor.on_batch_start(self, batch)
        flow = _FlowState(batch, batch[0].owner, fixed, transfer)
        flow.last_update = now
        self._flows[flow.owner] = flow
        self.queue.set_owner_active(flow.owner, True)
        self._update_activity()
        self._reschedule_flows()

    def _reschedule_flows(self, immediate: bool = False) -> None:
        """Re-split the wire among active flows and re-arm their finishes.

        Called whenever the active set or the weights change.  Each flow's
        progress since its last update is banked at its old rate, then every
        flow gets rate ``w_i / sum(active w)`` and a fresh finish event; the
        superseded finish event is cancelled so reweight storms cannot grow
        the heap.

        With a :class:`FlowCoalescer` attached, non-``immediate`` calls are
        deferred to one same-instant flush per channel: no simulated time
        passes between the request and the flush, so banking is unaffected
        and a burst of arrivals/finishes at one instant costs one
        recomputation instead of one per trigger.
        """
        if not self._flows:
            return
        if (
            not immediate
            and self.flow_coalescer is not None
            and self.flow_coalescer.defer(self)
        ):
            return
        now = self.engine.now
        active = self._flows
        parked_priority: int | None = None
        if self.priority_sharing:
            top = max(flow.priority for flow in self._flows.values())
            active = {
                owner: flow
                for owner, flow in self._flows.items()
                if flow.priority == top
            }
            if len(active) < len(self._flows):
                parked_priority = top
        total = sum(self._weight(owner) for owner in active)
        for flow in self._flows.values():
            if now > flow.last_update and flow.rate > 0:
                flow.remaining = max(
                    0.0, flow.remaining - flow.rate * (now - flow.last_update)
                )
            flow.last_update = now
            if parked_priority is not None and flow.priority < parked_priority:
                # Strict-priority sharing: a lower-priority flow parks at
                # rate zero with its progress banked; every running→parked
                # transition is one preemption.
                if flow.rate > 0.0 and self.capacity_factor > 0.0:
                    self.preemption_count += 1
                flow.rate = 0.0
            else:
                # A degraded wire splits its *live* capacity by weight; at
                # nominal capacity the multiplication by 1.0 is lossless, so
                # fault-free timelines are bit-identical to the pre-fault
                # code.
                flow.rate = (
                    self.capacity_factor * self._weight(flow.owner) / total
                )
            self.engine.cancel(flow.finish_handle)
            if flow.rate <= 0.0:
                # Failed link (or priority-parked flow): parks with its
                # progress banked.  No finish event is armed (there is no
                # finite finish time); a capacity restore or a priority
                # departure reschedules every parked flow here.
                flow.finish_handle = None
                continue
            finish = now + flow.remaining / flow.rate
            flow.finish_handle = self.engine.schedule(
                finish, lambda flow=flow: self._finish_flow(flow)
            )
        if self.auditor is not None:
            self.auditor.on_flows_rescheduled(self, self._flows)

    def _finish_flow(self, flow: _FlowState) -> None:
        flow.remaining = 0.0
        del self._flows[flow.owner]
        self.queue.set_owner_active(flow.owner, False)
        now = self.engine.now
        end = now + flow.fixed
        for op in flow.batch:
            op.end_time = end
        self.engine.schedule(end, lambda: self._complete_flow(flow))
        self._update_activity()
        self._reschedule_flows()
        self.try_start()

    def _complete_flow(self, flow: _FlowState) -> None:
        self._track_completed(flow.batch)
        if self.auditor is not None:
            self.auditor.on_batch_complete(self, flow.batch)
        self.on_batch_done(self, flow.batch)
        self._update_activity()
        self.try_start()


class FlowCoalescer:
    """Cross-channel coalescing of simultaneous rate-change events.

    A burst of flow arrivals/finishes at one simulated instant — a
    collective fanning out over every dimension, a weight retune touching
    all channels, a finish cascading into the next stage — triggers one
    ``_reschedule_flows`` per cause per channel, and each recomputation
    cancels and re-arms every in-flight finish event.  The coalescer defers
    those recomputations to a single *flush* event scheduled at the same
    instant: the event engine fires same-time events in scheduling order,
    so the flush runs after every same-instant cause, recomputing each
    dirty channel exactly once.

    Zero simulated time passes between a deferred request and its flush, so
    progress banking (which integrates over elapsed time) is unaffected —
    timelines are identical, only the event count drops.  Channels are
    flushed in the order they were first marked (deterministic; no set
    iteration).  Precision points (fault transitions) bypass the coalescer
    via ``_reschedule_flows(immediate=True)``.
    """

    __slots__ = ("engine", "_marked", "flushes", "deferrals")

    def __init__(self, engine: EventQueue) -> None:
        self.engine = engine
        self._marked: list[DimensionChannel] = []
        #: Diagnostics: flush events fired / reschedules absorbed.
        self.flushes = 0
        self.deferrals = 0

    def defer(self, channel: DimensionChannel) -> bool:
        """Mark ``channel`` dirty; returns True (the call is absorbed)."""
        self.deferrals += 1
        if channel._coalesce_marked:
            return True
        if not self._marked:
            self.engine.schedule(self.engine.now, self._flush)
        channel._coalesce_marked = True
        self._marked.append(channel)
        return True

    def _flush(self) -> None:
        marked, self._marked = self._marked, []
        self.flushes += 1
        for channel in marked:
            channel._coalesce_marked = False
            channel._reschedule_flows(immediate=True)
