"""Intra-dimension chunk scheduling policies (paper Sec. 4.3).

When several chunk operations are simultaneously ready on one dimension,
the policy picks which runs next:

* **FIFO** — process in arrival order.  The paper's default for the baseline
  (where policies do not matter, since every chunk has the identical
  schedule) and for the Themis+FIFO configuration.
* **SCF** (Smallest-Chunk-First) — the paper's empirically best policy for
  Themis: small ops finish quickly and feed their chunk to the next
  dimension sooner, reducing dimension starvation.
* **LCF** (Largest-Chunk-First) — the adversarial mirror of SCF, included
  as an ablation to quantify how much intra-dimension ordering matters.

Policies order *ready* ops only; op readiness (previous stage completed) is
the executor's concern.

A policy also supplies the *ready-queue structure* the executor keeps its
ready ops in (:meth:`IntraDimPolicy.make_queue`): each policy's heap is
keyed by its own ``sort_key``, so selection is O(log n) instead of the
linear ``select(list)`` scan.  The scan stays as the minimum
:class:`~repro.core.ready_queue.ListReadyQueue` takes, the reference the
determinism property tests compare the heap against.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from ..errors import ConfigError
from .ready_queue import IndexedReadyQueue, ReadyQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..sim.executor import OpState


class IntraDimPolicy(abc.ABC):
    """Selects the next ready chunk-op for a dimension channel."""

    name: str = "abstract"

    @abc.abstractmethod
    def sort_key(self, op: "OpState") -> tuple:
        """Total order over ready ops; the smallest key runs first."""

    def select(self, ready_ops: list["OpState"]) -> "OpState":
        """Pick the next op to execute from the non-empty ready list."""
        if not ready_ops:
            raise ConfigError("policy invoked with no ready ops")
        return min(ready_ops, key=self.sort_key)

    def make_queue(self) -> ReadyQueue:
        """Build this policy's ready-queue structure for one channel.

        A lazy-deletion heap ordered by this policy's ``sort_key`` (the key
        *is* the policy, so FIFO gets an arrival-order heap, SCF/LCF
        size-order heaps).
        """
        return IndexedReadyQueue(self.sort_key)


class FifoPolicy(IntraDimPolicy):
    """First-in first-out by readiness time (ties: issue order, chunk id)."""

    name = "FIFO"

    def sort_key(self, op: "OpState") -> tuple:
        return (
            -op.priority,
            op.ready_time,
            op.collective_seq,
            op.chunk_id,
            op.stage_index,
        )


class SmallestChunkFirstPolicy(IntraDimPolicy):
    """Smallest stage first (paper's SCF); ties fall back to FIFO order."""

    name = "SCF"

    def sort_key(self, op: "OpState") -> tuple:
        return (
            -op.priority,
            op.stage.stage_size,
            op.ready_time,
            op.collective_seq,
            op.chunk_id,
            op.stage_index,
        )


class LargestChunkFirstPolicy(IntraDimPolicy):
    """Largest stage first — ablation counterpart of SCF."""

    name = "LCF"

    def sort_key(self, op: "OpState") -> tuple:
        return (
            -op.priority,
            -op.stage.stage_size,
            op.ready_time,
            op.collective_seq,
            op.chunk_id,
            op.stage_index,
        )


_POLICIES = {
    "fifo": FifoPolicy,
    "scf": SmallestChunkFirstPolicy,
    "lcf": LargestChunkFirstPolicy,
}


def get_policy(name: str) -> IntraDimPolicy:
    """Instantiate a policy by (case-insensitive) name."""
    lowered = name.strip().lower()
    if lowered not in _POLICIES:
        known = ", ".join(sorted(_POLICIES))
        raise ConfigError(f"unknown intra-dimension policy {name!r}; known: {known}")
    return _POLICIES[lowered]()


def policy_names() -> tuple[str, ...]:
    return tuple(sorted(_POLICIES))


def register_policy(name: str, policy: type[IntraDimPolicy]) -> None:
    """Register a custom intra-dimension policy under ``name``.

    The (case-insensitive) name becomes valid wherever policies are chosen
    by key: ``NetworkSimulator(policy=...)``, scenario specs, CLI flags.
    """
    lowered = name.strip().lower()
    if not lowered:
        raise ConfigError("policy name must be non-empty")
    if lowered in _POLICIES:
        raise ConfigError(f"intra-dimension policy {name!r} is already registered")
    _POLICIES[lowered] = policy
