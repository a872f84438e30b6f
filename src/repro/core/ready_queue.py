"""Ready-queue structures for the dimension channels (hot path).

The seed executor kept each dimension's ready ops in a flat list and
re-scanned it — ``policy.select(list)`` plus ``list.remove`` per dequeued
op — which is O(n) per decision and O(n · max_ops) per fused batch.  Under
many concurrent tenants that dominates the whole simulation.  This module
replaces the list with *policy-indexed* structures so every hot-path
decision is O(log n):

* :class:`IndexedReadyQueue` — the production structure.  One lazy-deletion
  heap ordered by the policy's ``sort_key`` (FIFO's key is arrival order,
  SCF/LCF's their size order, so each policy's heap *is* its natural
  structure), one per-owner bucket heap for the weighted-sharing wire's
  per-tenant admission, and a parking map for ops blocked by an enforced
  per-collective order (Sec. 4.6.2) — a blocked op is unparked the moment
  it becomes its order's head, so eligibility never requires a scan.
* :class:`ListReadyQueue` — the seed semantics, kept as the reference the
  determinism property tests (``tests/test_perf_equivalence.py``) compare
  the indexed structure against.

Both present the same interface; ``IntraDimPolicy.make_queue`` builds the
indexed one, and channels select through ``ReadyQueue.select``.  Identical
op sets yield identical selections in either implementation: the sort
keys are total orders (they end in the unique ``(collective_seq,
chunk_id, stage_index)`` identity), so a heap minimum equals a
linear-scan minimum.
"""

from __future__ import annotations

import abc
import heapq
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..sim.executor import OpState
    from .policies import IntraDimPolicy

OpKey = tuple[int, int, int]


class ReadyQueue(abc.ABC):
    """Ready-op container a :class:`DimensionChannel` draws batches from.

    The channel owns eligibility (enforced per-collective orders): it binds
    its predicate via :meth:`bind`, tells :meth:`push` whether the op may
    start now, and calls :meth:`promote` when an enforced order advances.
    """

    _is_eligible: Callable[["OpState"], bool]

    def bind(self, is_eligible: Callable[["OpState"], bool]) -> None:
        """Attach the channel's eligibility predicate."""
        self._is_eligible = is_eligible

    @abc.abstractmethod
    def push(self, op: "OpState", eligible: bool) -> None:
        """Add a newly ready op (``eligible`` per the channel's orders)."""

    @abc.abstractmethod
    def discard(self, op: "OpState") -> None:
        """Remove an op selected into a batch (or parked and superseded)."""

    @abc.abstractmethod
    def select(
        self,
        owner: str | None = None,
        exclude_owners: Iterable[str] | None = None,
    ) -> "OpState | None":
        """Best eligible op under the policy order, or ``None``.

        ``owner`` restricts to one tenant (fusion within a weighted-share
        flow); ``exclude_owners`` skips tenants that already have a flow in
        flight (weighted-share admission).  At most one filter is passed.
        """

    @abc.abstractmethod
    def max_priority(self) -> int | None:
        """Highest priority among eligible ops (``None`` when none)."""

    def promote(self, op_key: OpKey) -> bool:
        """An enforced order advanced: unpark its new head if waiting."""
        return False

    def set_owner_active(self, owner: str, active: bool) -> None:
        """Track whether ``owner`` has a flow in flight (weighted sharing).

        The shared-wire channel mirrors its in-flight flow set here so the
        queue can answer ``select(exclude_owners=<in-flight set>)`` without
        scanning every owner (see :class:`IndexedReadyQueue`'s heads heap).
        The default is a no-op: the flat reference queue scans anyway.
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Live ops held (eligible + order-blocked)."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator["OpState"]:
        """Iterate live ops in unspecified order (diagnostics/tests)."""

    def __bool__(self) -> bool:
        return len(self) > 0


class _LazyHeap:
    """A min-heap of ``(key, op)`` with lazy deletion.

    Deletion marks the op (``op.queued = False``); dead entries are dropped
    when they surface at the top, and the whole heap is rebuilt in one O(n)
    sweep once dead entries outnumber live ones (ops taken through *another*
    index — e.g. an owner bucket — die buried, so top-pruning alone would
    let long steady-state runs accumulate them).
    """

    __slots__ = ("entries", "dead")

    _COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self.entries: list[tuple[tuple, "OpState"]] = []
        self.dead = 0

    def push(self, key: tuple, op: "OpState") -> None:
        heapq.heappush(self.entries, (key, op))

    def peek(self) -> "OpState | None":
        entries = self.entries
        while entries:
            op = entries[0][1]
            if op.queued:
                return op
            heapq.heappop(entries)
            self.dead -= 1
        return None

    def note_dead(self) -> None:
        """An op somewhere in this heap was discarded elsewhere."""
        self.dead += 1
        if (
            self.dead >= self._COMPACT_MIN_DEAD
            and self.dead * 2 >= len(self.entries)
        ):
            self.entries = [e for e in self.entries if e[1].queued]
            heapq.heapify(self.entries)
            self.dead = 0

    def __len__(self) -> int:
        return len(self.entries)


class IndexedReadyQueue(ReadyQueue):
    """Policy-keyed heaps with per-owner buckets and order-blocked parking."""

    def __init__(self, key_fn: Callable[["OpState"], tuple]) -> None:
        self._key = key_fn
        self._heap = _LazyHeap()
        self._owner_heaps: dict[str, _LazyHeap] = {}
        self._parked: dict[OpKey, "OpState"] = {}
        self._live = 0
        self._priority_counts: dict[int, int] = {}
        # --- heap-of-heads (weighted-share admission) ----------------------
        # ``select(exclude_owners=...)`` answers "best op among tenants with
        # no flow in flight".  The owner scan is O(T) per admission; at
        # thousands of tenants that dominates cluster runs.  When the channel
        # mirrors its in-flight set via :meth:`set_owner_active`, every
        # *inactive* owner's bucket head also lives in one shared lazy heap,
        # making admission O(log T).  Entries go stale when their op is
        # taken or their owner activates; stale tops are popped at peek
        # (an inactive owner's current head is always re-pushed on discard/
        # deactivate, so popping loses nothing).  The set is membership-only
        # — never iterated — so determinism is unaffected.
        self._active_owners: set[str] = set()
        self._heads: list[tuple[tuple, "OpState"]] = []
        self._track_heads = False

    # --- mutation -----------------------------------------------------------
    def push(self, op: "OpState", eligible: bool) -> None:
        if eligible:
            self._admit(op)
        else:
            self._parked[op.key] = op

    def _admit(self, op: "OpState") -> None:
        op.queued = True
        key = self._key(op)
        self._heap.push(key, op)
        owner_heap = self._owner_heaps.get(op.owner)
        if owner_heap is None:
            owner_heap = self._owner_heaps[op.owner] = _LazyHeap()
        owner_heap.push(key, op)
        if self._track_heads and op.owner not in self._active_owners:
            heapq.heappush(self._heads, (key, op))
        self._live += 1
        counts = self._priority_counts
        counts[op.priority] = counts.get(op.priority, 0) + 1

    def promote(self, op_key: OpKey) -> bool:
        op = self._parked.pop(op_key, None)
        if op is None:
            return False
        self._admit(op)
        return True

    def discard(self, op: "OpState") -> None:
        if self._parked.pop(op.key, None) is not None:
            return
        if not op.queued:
            return
        op.queued = False
        self._live -= 1
        counts = self._priority_counts
        remaining = counts[op.priority] - 1
        if remaining:
            counts[op.priority] = remaining
        else:
            del counts[op.priority]
        self._heap.note_dead()
        owner_heap = self._owner_heaps.get(op.owner)
        if owner_heap is not None:
            owner_heap.note_dead()
        if self._track_heads and op.owner not in self._active_owners:
            # The taken op may have been its owner's head: keep the owner's
            # *current* head present in the heads heap.
            head = self._peek_owner(op.owner)
            if head is not None:
                heapq.heappush(self._heads, (self._key(head), head))

    def set_owner_active(self, owner: str, active: bool) -> None:
        if not self._track_heads:
            # First activation turns tracking on: seed the heads heap with
            # every owner's current head (ops admitted before any flow
            # started predate tracking).
            self._track_heads = True
            for existing in list(self._owner_heaps):
                head = self._peek_owner(existing)
                if head is not None:
                    heapq.heappush(self._heads, (self._key(head), head))
        if active:
            self._active_owners.add(owner)
            return
        self._active_owners.discard(owner)
        head = self._peek_owner(owner)
        if head is not None:
            heapq.heappush(self._heads, (self._key(head), head))

    def _peek_heads(self) -> "OpState | None":
        """Best op among inactive owners, popping stale entries.

        An entry is stale when its op was taken or its owner currently has
        a flow in flight; both are safe to pop outright, because an
        inactive owner's current head is re-pushed on every discard and on
        every deactivation.
        """
        heads = self._heads
        active = self._active_owners
        if len(heads) >= 64 and len(heads) > 2 * self._live:
            # Stale entries can die buried (ops taken through the global
            # heap, owners toggling active); rebuild once they dominate.
            heads = [
                entry
                for entry in heads
                if entry[1].queued and entry[1].owner not in active
            ]
            heapq.heapify(heads)
            self._heads = heads
        while heads:
            op = heads[0][1]
            if op.queued and op.owner not in active:
                return op
            heapq.heappop(heads)
        return None

    # --- selection ----------------------------------------------------------
    def select(
        self,
        owner: str | None = None,
        exclude_owners: Iterable[str] | None = None,
    ) -> "OpState | None":
        if owner is not None:
            return self._peek_owner(owner)
        if exclude_owners is not None:
            # O(log T) fast path: when the exclusion set is the channel's
            # mirrored in-flight set (same size; the channel updates both in
            # lockstep), the answer is the top of the heads heap.  The
            # candidate is re-checked against ``exclude_owners`` itself, so
            # a mirror mismatch degrades to the scan instead of misselecting.
            if self._track_heads:
                size = (
                    len(exclude_owners)  # type: ignore[arg-type]
                    if hasattr(exclude_owners, "__len__")
                    else None
                )
                if size is not None and size == len(self._active_owners):
                    candidate = self._peek_heads()
                    if candidate is None or candidate.owner not in exclude_owners:
                        return candidate
            best: "OpState | None" = None
            best_key: tuple | None = None
            for candidate_owner in list(self._owner_heaps):
                if candidate_owner in exclude_owners:
                    continue
                candidate = self._peek_owner(candidate_owner)
                if candidate is None:
                    continue
                key = self._key(candidate)
                if best_key is None or key < best_key:
                    best, best_key = candidate, key
            return best
        return self._heap.peek()

    def _peek_owner(self, owner: str) -> "OpState | None":
        owner_heap = self._owner_heaps.get(owner)
        if owner_heap is None:
            return None
        op = owner_heap.peek()
        if op is None:
            del self._owner_heaps[owner]
        return op

    def max_priority(self) -> int | None:
        # Distinct priority levels are few (per-tenant), so max over the
        # count index is O(#levels), not O(#ops).
        if not self._priority_counts:
            return None
        return max(self._priority_counts)

    # --- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return self._live + len(self._parked)

    def __iter__(self) -> Iterator["OpState"]:
        # Dedup on the stable op identity, not id(): stale heap entries for
        # the same op must collapse, and address-based keys would make the
        # iteration (and anything ordered by it) vary run to run.
        seen: set[tuple[int, int, int]] = set()
        for _key, op in self._heap.entries:
            if op.queued and op.key not in seen:
                seen.add(op.key)
                yield op
        yield from self._parked.values()


class ListReadyQueue(ReadyQueue):
    """Seed-semantics flat list: linear scans, ``policy.select`` minima.

    O(n) per decision — kept only as the reference implementation the
    determinism property tests compare against.
    """

    def __init__(self, policy: "IntraDimPolicy") -> None:
        self._policy = policy
        self._ops: list["OpState"] = []

    def push(self, op: "OpState", eligible: bool) -> None:
        self._ops.append(op)

    def discard(self, op: "OpState") -> None:
        self._ops.remove(op)

    def select(
        self,
        owner: str | None = None,
        exclude_owners: Iterable[str] | None = None,
    ) -> "OpState | None":
        candidates = [
            op
            for op in self._ops
            if self._is_eligible(op)
            and (owner is None or op.owner == owner)
            and (exclude_owners is None or op.owner not in exclude_owners)
        ]
        if not candidates:
            return None
        return self._policy.select(candidates)

    def max_priority(self) -> int | None:
        priorities = [op.priority for op in self._ops if self._is_eligible(op)]
        return max(priorities) if priorities else None

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator["OpState"]:
        return iter(list(self._ops))
