"""The :class:`NetworkBackend` interface and its domain registry.

A *backend* is a network-fidelity model: given a platform it builds the
object that training/cluster loops submit collectives to.  All backends
speak the same submission surface (``submit`` / ``run`` / shared engine);
they differ in how faithfully the wires are modeled:

* ``analytical`` — the paper's bandwidth model (:class:`DimensionChannel`
  fluid batches).  The default, and the reference for every published
  number in this repo.
* ``ideal`` — the Table 3 "Ideal" fluid server (schedule-invariant bytes
  at full aggregate bandwidth).
* ``packet`` — MTU packetization, FIFO egress queues, store-and-forward
  switch hops (:class:`~repro.sim.backends.packet.PacketNetwork`).

Backends are registered here (``register_backend`` / ``get_backend`` /
``backend_names``) and surfaced as the ``"backend"`` kind of the unified
:mod:`repro.api.registry`, so scenario specs and the CLI name them by key
with the same did-you-mean validation as every other component.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, ClassVar

from ...errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.policies import IntraDimPolicy
    from ...core.scheduler import SchedulerFactory
    from ...topology import Topology
    from ..engine import EventQueue
    from ..executor import FusionConfig

#: The backend used when a scenario/config leaves ``backend`` unset.
DEFAULT_BACKEND = "analytical"


class NetworkBackend(abc.ABC):
    """Factory + capability descriptor for one network-fidelity model.

    Class attributes advertise what the built network supports, so the
    spec layer can reject incompatible combinations (e.g. weighted
    fairness on a backend without per-tenant wire sharing) with a clear
    error instead of an attribute failure mid-run.
    """

    #: Registry key (``"analytical"``, ``"ideal"``, ``"packet"``).
    key: ClassVar[str] = ""
    #: One-line description for ``themis-sim registry`` and the docs.
    description: ClassVar[str] = ""
    #: Whether ``submit`` accepts a per-request ``scheduler=`` factory.
    accepts_scheduler: ClassVar[bool] = False
    #: Whether the built network exposes ``result() -> ExecutionResult``.
    provides_result: ClassVar[bool] = False
    #: Whether :class:`~repro.sim.faults.FaultSchedule` can be applied.
    supports_faults: ClassVar[bool] = False
    #: Whether weighted per-tenant sharing / priority preemption exist
    #: (``set_tenant_weights`` / ``enable_preemption``).
    supports_sharing: ClassVar[bool] = False
    #: Whether the multi-job cluster simulator can run on this backend
    #: (needs per-owner accounting and per-request schedulers).
    supports_cluster: ClassVar[bool] = False

    @abc.abstractmethod
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
    ) -> Any:
        """Construct the network object for ``topology``.

        ``options`` carries backend-specific knobs (a scenario's
        ``backend_options`` document); backends without knobs reject a
        non-empty dict via :meth:`validate_options`.
        """

    def validate_options(self, options: dict[str, Any] | None) -> None:
        """Reject unknown/malformed ``options`` (default: none allowed).

        Called at spec-validation time so a bad ``backend_options``
        document fails before any simulation is built.
        """
        if options:
            raise ConfigError(
                f"backend {self.key!r} accepts no options, got: "
                f"{', '.join(sorted(options))}"
            )


_BACKENDS: dict[str, NetworkBackend] = {}


def register_backend(
    key: str, backend: NetworkBackend | type[NetworkBackend]
) -> None:
    """Register a backend under ``key`` (case-insensitive, unique).

    Accepts an instance or a zero-argument class, matching the other
    domain registries' ``register_*`` hooks (and the unified registry's
    ``register("backend", ...)``).
    """
    lowered = key.lower()
    if lowered in _BACKENDS:
        raise ConfigError(f"backend {key!r} is already registered")
    instance = backend() if isinstance(backend, type) else backend
    if not isinstance(instance, NetworkBackend):
        raise ConfigError(
            f"backend {key!r} must be a NetworkBackend, "
            f"got {type(instance).__name__}"
        )
    _BACKENDS[lowered] = instance


def get_backend(key: str) -> NetworkBackend:
    """Look up a backend by key (case-insensitive)."""
    lowered = key.lower() if isinstance(key, str) else key
    backend = _BACKENDS.get(lowered)
    if backend is None:
        known = ", ".join(backend_names())
        raise ConfigError(f"unknown backend {key!r}; known: {known}")
    return backend


def backend_names() -> tuple[str, ...]:
    """Registered backend keys, sorted."""
    return tuple(sorted(_BACKENDS))


def resolve_backend_key(
    backend: str | None, ideal_network: bool = False
) -> str:
    """The effective backend key for a scenario/config.

    ``ideal_network=True`` (the pre-backend spelling) is an alias for
    ``backend="ideal"``; an explicit conflicting ``backend`` is rejected
    at spec validation, so here the flag simply wins when ``backend`` is
    unset.
    """
    if backend is not None:
        return backend.lower()
    return "ideal" if ideal_network else DEFAULT_BACKEND
