"""Minimal deterministic discrete-event engine.

The network executor, the schedule-consistency pre-simulation, and the
training-loop simulator all share this engine.  Events are ``(time, seq,
handle)`` triples; ``seq`` is a monotonically increasing tie-breaker so
simultaneous events fire in scheduling order, which keeps every simulation
fully deterministic — the property the paper's intra-dimension consistency
mechanism relies on ("the simulation is deterministic, so all NPUs produce
the same intra-dimension ordering", Sec. 4.6.2).

Hot-path provisions (see ``docs/performance.md``):

* :meth:`EventQueue.schedule` returns an :class:`EventHandle` that the
  caller may :meth:`~EventHandle.cancel` before it fires.  The executor
  uses this to retract finish events that a preemption or a weighted-share
  reweight made obsolete, instead of letting them fire later as stale
  no-ops.
* Cancelled events are removed lazily; when more than half of the heap is
  dead (and at least ``compaction_min_dead`` entries are), the heap is
  compacted in one O(n) sweep, so reweight storms in many-tenant cluster
  runs cannot grow the heap monotonically.
* The past-time guard uses a tolerance *relative* to the current time: an
  absolute epsilon below one ulp would spuriously reject events computed
  with ordinary float round-off once ``now`` is large (long steady-state
  cluster runs).  Times inside the tolerance are clamped to ``now`` so the
  clock never runs backwards.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from typing import TYPE_CHECKING

from ..errors import EventBudgetError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .audit import InvariantAuditor

#: Relative past-time tolerance: ~5000 ulps at any magnitude, which absorbs
#: accumulated float round-off in long event chains without masking real
#: scheduling-in-the-past bugs (those are off by whole transfer times).
_PAST_RTOL = 1e-12


def times_close(a: float, b: float, rtol: float = _PAST_RTOL) -> bool:
    """Whether two simulated timestamps coincide up to float round-off.

    The sanctioned way to compare timestamps for equality: simulated times
    are sums of float transfer/latency terms, so two events "at the same
    instant" may differ by accumulated round-off.  Uses the same relative
    tolerance as the engine's past-time guard (replint rule RPL005 points
    here).
    """
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class EventHandle:
    """A scheduled event; may be cancelled until the moment it fires."""

    __slots__ = ("time", "callback", "cancelled", "fired", "_queue")

    def __init__(
        self, time: float, callback: Callable[[], None], queue: "EventQueue"
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._queue = queue

    @property
    def active(self) -> bool:
        """Still pending: neither fired nor cancelled."""
        return not (self.cancelled or self.fired)

    def cancel(self) -> bool:
        """Retract the event; returns True if it was still pending."""
        return self._queue.cancel(self)


class EventQueue:
    """A deterministic priority queue of timed callbacks.

    Parameters
    ----------
    start_time:
        Initial simulation time.
    compaction_min_dead:
        Minimum number of cancelled entries before a compaction sweep is
        considered (avoids churn on tiny heaps).
    """

    def __init__(
        self,
        start_time: float = 0.0,
        compaction_min_dead: int = 64,
    ) -> None:
        self.now = start_time
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._compaction_min_dead = compaction_min_dead
        self._dead = 0
        #: Diagnostics for the perf harness.
        self.peak_pending = 0
        self.cancelled_events = 0
        self.compactions = 0
        #: Optional runtime invariant auditor (see :mod:`repro.sim.audit`).
        #: A pure observer, consulted behind ``is not None`` guards, so the
        #: timeline is bit-identical whether or not one is attached.
        self.auditor: "InvariantAuditor | None" = None

    @property
    def events_processed(self) -> int:
        """Number of callbacks fired so far (diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still scheduled."""
        return len(self._heap) - self._dead

    @property
    def heap_size(self) -> int:
        """Physical heap length, including not-yet-swept cancelled entries."""
        return len(self._heap)

    def past_tolerance(self) -> float:
        """How far before ``now`` a scheduled time may fall (float slack)."""
        return _PAST_RTOL * max(1.0, abs(self.now))

    def schedule(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire at absolute ``time``.

        Scheduling in the past is an error: it would silently reorder
        history and mask bugs in the callers.  Times within float round-off
        of ``now`` (see :meth:`past_tolerance`) are clamped to ``now``.
        """
        if self.auditor is not None:
            self.auditor.on_event_scheduled(self, time)
        if time < self.now - self.past_tolerance():
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}"
            )
        if time < self.now:
            time = self.now
        handle = EventHandle(time, callback, self)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        live = len(self._heap) - self._dead
        if live > self.peak_pending:
            self.peak_pending = live
        return handle

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback)

    def cancel(self, handle: EventHandle | None) -> bool:
        """Retract a pending event; returns True if it was still pending."""
        if handle is None or handle.cancelled or handle.fired:
            return False
        handle.cancelled = True
        self._dead += 1
        self.cancelled_events += 1
        if (
            self._dead >= self._compaction_min_dead
            and self._dead * 2 >= len(self._heap)
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Sweep cancelled entries out of the heap in one O(n) pass."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1

    def _prune(self) -> None:
        """Drop cancelled entries from the heap top."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1

    def step(self) -> bool:
        """Fire the next live event; returns ``False`` when none remain."""
        self._prune()
        if not self._heap:
            return False
        time, _seq, handle = heapq.heappop(self._heap)
        if self.auditor is not None:
            self.auditor.on_event_fire(self, time, handle)
        self.now = time
        self._events_processed += 1
        handle.fired = True
        handle.callback()
        return True

    def run(self, max_events: int | None = None) -> None:
        """Run until no events remain (or ``max_events`` fired).

        ``max_events`` guards against accidental infinite self-rescheduling
        loops in experiments; production callers leave it ``None``.  The
        budget is only *exhausted* when live events are still pending after
        ``max_events`` callbacks fired — a simulation that legitimately
        finishes in exactly ``max_events`` events completes normally.
        """
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                if self.pending:
                    raise EventBudgetError(
                        f"event budget exhausted: {self.pending} event(s) "
                        f"still pending after {max_events} fired"
                    )
                return

    def run_until(self, time: float, max_events: int | None = None) -> None:
        """Fire all events up to and including ``time``, then advance ``now``.

        Events scheduled exactly at ``time`` do fire (the comparison is
        ``<=``): callers use this to advance a compute clock while letting
        network completions at the boundary instant land first.

        ``max_events`` bounds the callbacks fired, with the same exhausted-
        only-if-work-remains contract as :meth:`run` — the budget errors
        only when another live event at or before ``time`` is still
        pending.
        """
        fired = 0
        while True:
            self._prune()
            if not self._heap or self._heap[0][0] > time:
                break
            if max_events is not None and fired >= max_events:
                raise EventBudgetError(
                    f"event budget exhausted: event(s) still pending at or "
                    f"before t={time:g} after {max_events} fired"
                )
            self.step()
            fired += 1
        if time > self.now:
            self.now = time
