"""The fluid fast-path backend: flow-level channels, rate-change events only.

The analytical backend's event count scales with chunks × stages × flows:
every chunk-op is at least two events, so a 64-chunk All-Reduce on a 3D
platform fires hundreds of events even when nothing contends.  The fluid
backend keeps the exact engine, channels, schedulers, fairness hooks, and
fault machinery, but changes *execution granularity*: shared
:class:`~repro.sim.executor.DimensionChannel` flows advance analytically
between rate-change points.  A flow's bandwidth share is constant until
some flow arrives, completes, or a fault/weight event fires, so its
bytes-remaining integrate in closed form and only the *next rate-change
event* is scheduled — no per-chunk events while rates are stable.

Concretely, :class:`FluidNetwork` is a :class:`NetworkSimulator` whose

* channels run in weighted GPS sharing mode from construction (the
  existing ``_FlowState`` closed-form integrator — bank progress at the
  old rate, re-split capacity, re-arm one finish event per flow — *is*
  the fluid model; the serial per-chunk wire is simply never used);
* plans are **fluidized** (:meth:`FluidNetwork._build_chunk_ops`): the
  exact scheduler still plans every collective — plan decisions stay
  exact — but the resulting chunk train collapses into one aggregate flow
  per traversed dimension (bytes and transfer seconds summed, the fixed
  latency ``A_K`` carried once as the pipeline tail, exactly as the exact
  wire pays it).  Per-dimension flows start concurrently, modeling the
  chunk pipeline's dimension overlap; the collective completes when its
  slowest dimension drains.  The modeling error is the pipeline fill/drain
  skew the collapse hides — a ``(ndims − 1)/chunks`` fraction of a
  dimension's work — which the hybrid bounds via ``tolerance``;
* the collapse is **memoized on the plan-cache key**
  (:meth:`FluidNetwork._aggregate`): every submission under one key
  shares the cached plan's chunks, so the per-dimension aggregates —
  ``(dim, op, bytes, transfer seconds, max fixed latency, summed stage
  size)`` in first-traversal order, or the hybrid's coarse-plan verdict —
  are summed once per key and each submission only stamps fresh
  :class:`~repro.sim.executor.OpState` objects from them.  The key carries
  the live capacity factors whenever a dimension is degraded, so no
  aggregate crosses fault states.  The memo is on exactly when the plan
  cache is: under a subclassed scheduler factory (key ``None``) every
  submission is collapsed afresh;
* simultaneous rate changes coalesce across channels
  (:class:`~repro.sim.executor.FlowCoalescer`): a same-instant burst of
  flow starts/finishes/reweights recomputes each channel's rates once
  instead of once per cause.

The **hybrid escape hatch** falls back to the exact per-chunk event path
where precision matters (``hybrid=True``, the default):

* **plan decisions** are always exact — fluidization happens after the
  scheduler has planned, never changes what it sees;
* **fault transitions** always take the exact path: capacity changes
  recompute rates immediately (never coalesced) through the same
  bank-cancel-re-arm path the analytical backend uses, so byte
  conservation holds across every rate-change point;
* **priority preemption boundaries**: arming preemption switches the
  channels to strict-priority sharing (only the highest-priority in-flight
  flows get rate; lower-priority flows park at rate zero with progress
  banked) *and* keeps collectives at exact chunk granularity, so
  preemption points land at chunk boundaries as they do on the serial
  wire (checked live on every submission, never memoized);
* **coarse multi-dimensional plans**, where the fill/drain skew exceeds
  ``tolerance``, keep exact granularity rather than hide the error.

See ``docs/backends.md`` for the model, options, and tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

from ...collectives.phases import Stage
from ...collectives.types import PhaseOp
from ...errors import ConfigError
from ..executor import FlowCoalescer, OpState
from ..network import NetworkSimulator
from .base import NetworkBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...collectives.types import CollectiveRequest
    from ...core.chunk import CollectivePlan
    from ...core.latency_model import LatencyModel
    from ...core.policies import IntraDimPolicy
    from ...core.scheduler import SchedulerFactory
    from ...topology import Topology
    from ..engine import EventQueue
    from ..executor import FusionConfig

#: One traversed dimension of a fluidized plan: ``(local dim, phase op,
#: per-NPU bytes, transfer seconds, fixed latency, summed stage size)``.
DimAggregate = tuple[int, PhaseOp, float, float, float, float]


@dataclass(frozen=True)
class FluidOptions:
    """Knobs of the fluid backend (a scenario's ``backend_options``).

    ``tolerance`` is the accepted per-collective modeling-error budget:
    collapsing a chunk train hides the pipeline fill/drain skew, a
    ``(ndims − 1)/chunks`` fraction of a dimension's work, so with
    ``hybrid`` on, multi-dimensional plans where that fraction exceeds
    ``tolerance`` keep exact chunk granularity.  ``hybrid=False`` fluidizes
    everything regardless (fastest, coarsest); fault transitions stay
    exact either way.  ``coalesce`` enables the cross-channel same-instant
    rate-change coalescer.
    """

    tolerance: float = 0.05
    hybrid: bool = True
    coalesce: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.tolerance <= 1.0:
            raise ConfigError(
                f"tolerance must be within [0, 1], got {self.tolerance}"
            )

    @classmethod
    def from_dict(cls, data: dict[str, Any] | None) -> "FluidOptions":
        """Build from a spec's ``backend_options`` document.

        Unknown keys get the same did-you-mean rejection as every other
        spec field.
        """
        if not data:
            return cls()
        known = ("tolerance", "hybrid", "coalesce")
        unknown = sorted(set(data) - set(known))
        if unknown:
            import difflib

            hints = []
            for key in unknown:
                match = difflib.get_close_matches(key, known, n=1, cutoff=0.5)
                hints.append(
                    f"{key!r} (did you mean {match[0]!r}?)" if match else repr(key)
                )
            raise ConfigError(
                f"unknown fluid backend option(s): {', '.join(hints)}; "
                f"known: {', '.join(known)}"
            )
        return cls(
            tolerance=float(data.get("tolerance", cls.tolerance)),
            hybrid=bool(data.get("hybrid", cls.hybrid)),
            coalesce=bool(data.get("coalesce", cls.coalesce)),
        )


class FluidNetwork(NetworkSimulator):
    """Flow-level network simulator: see the module docstring for the model."""

    def __init__(
        self,
        topology: "Topology",
        scheduler: "SchedulerFactory | None" = None,
        policy: "str | IntraDimPolicy" = "SCF",
        fusion: "FusionConfig | None" = None,
        engine: "EventQueue | None" = None,
        record_ops: bool = True,
        audit: bool | None = None,
        options: FluidOptions | None = None,
    ) -> None:
        super().__init__(
            topology,
            scheduler=scheduler,
            policy=policy,
            fusion=fusion,
            engine=engine,
            record_ops=record_ops,
            audit=audit,
        )
        self.options = options or FluidOptions()
        #: Set by :meth:`enable_preemption`; with ``hybrid`` on it pins
        #: collectives to exact chunk granularity (preemption boundaries
        #: are precision points).
        self._preemption_armed = False
        # The channels run in GPS sharing mode from the first byte: the
        # closed-form flow integrator is the fluid model.  Enabling it
        # before anything is in flight also means the serial-wire guard in
        # set_share_weights can never trip.
        for channel in self.channels:
            channel.set_share_weights({}, default=1.0)
        #: ``plan key -> per-dimension aggregates`` (``None``: the plan
        #: stays exact).  Every submission under one plan-cache key shares
        #: ``plan.chunks``, so the collapse runs once per key.
        self._aggregates: dict[tuple, tuple[DimAggregate, ...] | None] = {}
        self.coalescer: FlowCoalescer | None = None
        if self.options.coalesce:
            self.coalescer = FlowCoalescer(self.engine)
            for channel in self.channels:
                channel.flow_coalescer = self.coalescer

    # --- fairness ----------------------------------------------------------
    def enable_preemption(self) -> None:
        """Arm fluid preemption: strict-priority rates, exact boundaries.

        Only the highest-priority in-flight flows on a dimension receive
        bandwidth; lower-priority flows park at rate zero with their
        progress banked (each running→parked transition counts one
        preemption).  With ``hybrid`` on, collectives additionally keep
        exact chunk granularity so preemption points land at chunk
        boundaries, matching the serial wire's precision.
        """
        self._preemption_armed = True
        for channel in self.channels:
            channel.enable_priority_sharing()

    # --- execution granularity --------------------------------------------
    def _aggregate(
        self, plan: "CollectivePlan", model: "LatencyModel"
    ) -> tuple[DimAggregate, ...] | None:
        """Collapse a plan's chunk train into per-dimension aggregates.

        One entry per traversed dimension, in first-traversal order
        (deterministic: plan order, no sets).  Bytes and transfer seconds
        are the exact plan's sums, so byte conservation is untouched; the
        fixed latency is carried once per dimension, exactly as the exact
        wire pays it (a pipeline tail, not a per-chunk cost).  ``None``
        when ``hybrid`` keeps the plan exact because it is too coarse: its
        fill/drain skew ``(ndims − 1)/chunks`` exceeds ``tolerance``.
        """
        order: list[int] = []
        totals: dict[int, list[float]] = {}
        ops: dict[int, PhaseOp] = {}
        for chunk in plan.chunks:
            for stage in chunk.stages:
                local = stage.dim_index
                bucket = totals.get(local)
                if bucket is None:
                    order.append(local)
                    totals[local] = bucket = [0.0, 0.0, 0.0, 0.0]
                    ops[local] = stage.op
                bucket[0] += model.bytes_per_npu(
                    stage.op, stage.stage_size, local
                )
                bucket[1] += model.chunk_load(stage.op, stage.stage_size, local)
                fixed = model.fixed_latency(stage.op, local)
                if fixed > bucket[2]:
                    bucket[2] = fixed
                bucket[3] += stage.stage_size
        options = self.options
        ndims = len(order)
        if (
            options.hybrid
            and ndims > 1
            and (ndims - 1) > options.tolerance * len(plan.chunks)
        ):
            return None
        aggregates = []
        for local in order:
            nbytes, transfer, fixed, stage_size = totals[local]
            aggregates.append((local, ops[local], nbytes, transfer, fixed, stage_size))
        return tuple(aggregates)

    def _build_chunk_ops(
        self,
        request: "CollectiveRequest",
        plan: "CollectivePlan",
        subtopo: "Topology",
        model: "LatencyModel",
        plan_key: tuple | None,
    ) -> list[list[OpState]]:
        # Armed preemption pins exact granularity: a live check, never
        # memoized, since arming can happen between two submissions that
        # share a plan-cache slot.
        if self.options.hybrid and self._preemption_armed:
            return super()._build_chunk_ops(request, plan, subtopo, model, plan_key)
        if plan_key is None:
            aggregates = self._aggregate(plan, model)
        elif plan_key in self._aggregates:
            aggregates = self._aggregates[plan_key]
        else:
            aggregates = self._aggregates[plan_key] = self._aggregate(plan, model)
        if aggregates is None:
            return super()._build_chunk_ops(request, plan, subtopo, model, plan_key)
        # One single-stage pseudo-chunk per traversed dimension.  All of
        # them enqueue immediately — stage 0 of every chunk — so the
        # per-dimension flows run concurrently, modeling the chunk train's
        # dimension overlap; the collective completes when the last
        # dimension drains.
        chunk_ops: list[list[OpState]] = []
        for pseudo_id, aggregate in enumerate(aggregates):
            local, op, nbytes, transfer, fixed, stage_size = aggregate
            chunk_ops.append(
                [
                    OpState(
                        collective_seq=request.request_id,
                        chunk_id=pseudo_id,
                        stage_index=0,
                        stage=Stage(dim_index=local, op=op, stage_size=stage_size),
                        parent_dim=subtopo.parent_index(local),
                        bytes_sent=nbytes,
                        transfer_time=transfer,
                        fixed_time=fixed,
                        priority=request.priority,
                        owner=request.owner,
                    )
                ]
            )
        return chunk_ops


class FluidBackend(NetworkBackend):
    """Flow-level fast path over the analytical channels (see fluid.py)."""

    key: ClassVar[str] = "fluid"
    description: ClassVar[str] = (
        "flow-level fast path: closed-form shared channels, rate-change "
        "events only (512-4096-job runs)"
    )
    accepts_scheduler: ClassVar[bool] = True
    provides_result: ClassVar[bool] = True
    supports_faults: ClassVar[bool] = True
    supports_sharing: ClassVar[bool] = True
    supports_cluster: ClassVar[bool] = True

    def build(
        self,
        topology: "Topology",
        *,
        scheduler: "SchedulerFactory | None" = None,
        policy: "str | IntraDimPolicy" = "SCF",
        fusion: "FusionConfig | None" = None,
        engine: "EventQueue | None" = None,
        record_ops: bool = True,
        audit: bool | None = None,
        options: dict[str, Any] | None = None,
    ) -> FluidNetwork:
        return FluidNetwork(
            topology,
            scheduler=scheduler,
            policy=policy,
            fusion=fusion,
            engine=engine,
            record_ops=record_ops,
            audit=audit,
            options=FluidOptions.from_dict(options),
        )

    def validate_options(self, options: dict[str, Any] | None) -> None:
        FluidOptions.from_dict(options)
