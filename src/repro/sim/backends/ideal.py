"""The Table 3 "Ideal" network as a registered backend.

Folds :class:`~repro.sim.network.IdealNetwork` into the backend registry:
``backend: "ideal"`` is the registry spelling of the older
``ideal_network: true`` training flag (the flag remains an alias).  The
ideal model has no scheduler, no per-tenant accounting, and no fault
surface — the capability flags below let the spec layer reject those
combinations up front.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar

from ..network import IdealNetwork
from .base import NetworkBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.policies import IntraDimPolicy
    from ...core.scheduler import SchedulerFactory
    from ...topology import Topology
    from ..engine import EventQueue
    from ..executor import FusionConfig


class IdealBackend(NetworkBackend):
    """Fluid 100%-utilization lower bound (schedule-invariant bytes)."""

    key: ClassVar[str] = "ideal"
    description: ClassVar[str] = (
        "fluid 100%-utilization lower bound (Table 3 Ideal); "
        "schedule-independent, no faults/fairness"
    )
    accepts_scheduler: ClassVar[bool] = False
    provides_result: ClassVar[bool] = False
    supports_faults: ClassVar[bool] = False
    supports_sharing: ClassVar[bool] = False
    supports_cluster: ClassVar[bool] = False

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
    ) -> IdealNetwork:
        # scheduler/policy/fusion do not exist at this fidelity; they are
        # accepted (and ignored) so every backend builds through one call.
        self.validate_options(options)
        return IdealNetwork(topology, engine=engine)
