"""Multi-job cluster simulator: N training jobs on one shared network.

This is the CASSINI/Themis-fair setting: several training jobs arrive over
time and their collectives contend for the same network dimensions.  Each
job runs the factored single-job iteration program (:class:`TrainingLoop`)
but, instead of owning the clock, is driven event-by-event on one shared
:class:`EventQueue` + :class:`NetworkSimulator`:

* a job's *compute* step schedules its own resumption ``duration`` later;
* a job's *wait* step parks the job until the awaited collective's
  completion callback fires;
* every submission carries the job's scheduler factory (Baseline or Themis
  — per job), priority, communicator dim-subset, and owner tag, so the
  shared network interleaves tenants exactly as the paper's intra-dimension
  policies dictate and attributes comm-active time per job.

Isolated baselines (the slowdown denominator) re-run each job alone on the
same platform with the same per-job configuration.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from collections.abc import Callable, Iterator, Sequence

from ..core.scheduler import SchedulerFactory
from ..core.splitter import Splitter
from ..errors import ConfigError, DeadlockError, EventBudgetError
from ..sim.audit import InvariantViolation
from ..sim.engine import EventQueue
from ..sim.faults import FaultSchedule, JobFaultPolicy, fault_substream
from ..sim.network import CollectiveResult, NetworkSimulator
from ..sim.stats import bw_utilization
from ..topology import Topology
from ..training.iteration import ComputeStep, TrainingConfig, TrainingLoop, WaitStep
from ..training.results import IterationBreakdown
from .fairness import FairnessPolicy, get_fairness
from .jobs import JobMix, JobSpec
from .metrics import ClusterReport, JobOutcome, SteadyStateReport
from .placement import PlacementPolicy, get_placement
from .streaming import EpochAccumulator, StreamingStats


@dataclass(frozen=True)
class ClusterConfig:
    """Training knobs and run options for a cluster simulation.

    ``training`` supplies both the per-job loop knobs (bucketing, overlap,
    compute model) and the shared-network configuration (intra-dimension
    policy, fusion, chunk granularity) — the same fields mean the same
    thing as in a single-job :class:`TrainingSimulator` run, except that
    ``training.iterations`` is ignored in favor of each job's
    ``JobSpec.iterations``.  When ``isolated_baselines`` is True, every
    job is additionally re-run alone so its slowdown can be reported.
    ``fairness`` selects how contending tenants share the network: a
    registry name (``"fifo"``, ``"weighted"``, ``"ftf"``, ``"preempt"``), a
    configured :class:`FairnessPolicy` instance, or ``None`` for the
    default first-come sharing.

    ``placement`` selects which dimension subset each arriving job's
    communicators span: a registry name (``"manual"``, ``"all-dims"``,
    ``"load-balanced"``, ``"interleaved"``), a configured
    :class:`PlacementPolicy` instance, or ``None`` for the default hand
    placement (honor ``JobSpec.dim_indices``, today's behavior).  The
    decision is made *at the job's arrival event* — automatic policies read
    the shared network's live load — and recorded per job in the
    :class:`ClusterReport`.

    ``record_ops`` defaults to False for cluster runs: per-op
    :class:`OpRecord` collection grows without bound across hundreds of
    jobs and no cluster metric reads it.  Turn it on to inspect shared-
    network timelines (``sim.network.result().records``).
    """

    training: TrainingConfig | None = None
    isolated_baselines: bool = True
    fairness: FairnessPolicy | str | None = None
    placement: PlacementPolicy | str | None = None
    record_ops: bool = False
    #: Runtime invariant auditing (repro.sim.audit): ``True``/``False``
    #: force it on/off; ``None`` defers to ``THEMIS_AUDIT``.  Observer-only
    #: — the timeline is bit-identical either way.
    audit: bool | None = None
    #: Admission control: at most this many jobs run concurrently; excess
    #: arrivals wait in a FIFO admission queue and are admitted as slots
    #: free up at departures (their queueing delay is ``admit - arrival``).
    #: ``None`` (default) admits every job at its arrival instant.
    max_concurrent: int | None = None
    #: Steady-state measurement window: discard the first ``warmup_time``
    #: simulated seconds, measure for ``measure_time`` more, then *stop* —
    #: jobs still running at the window end are expected, not a deadlock.
    #: ``measure_time=None`` (default) keeps the closed-loop run-to-drain
    #: behavior; ``warmup_time`` requires ``measure_time``.
    warmup_time: float = 0.0
    measure_time: float | None = None
    #: Memory bound for long open-loop runs: only the first ``outcome_cap``
    #: completions keep their :class:`TrainingLoop` and per-iteration
    #: breakdowns; later finishers are released at departure (their
    #: ``JobOutcome`` keeps times/placement but carries no breakdowns).
    #: Streaming steady-state metrics see every job either way.
    outcome_cap: int | None = None
    #: Approximate each isolated baseline as ``iterations x`` the job's
    #: solo *single-iteration* JCT.  With heavy-tailed iteration counts
    #: this collapses the baseline cache to one solo run per workload
    #: shape instead of one per (shape, iteration count) pair.
    isolated_per_iteration: bool = False
    #: Epochs the measurement window is split into for the convergence
    #: series (per-epoch rho means + stationarity flag).
    convergence_epochs: int = 8
    #: Deterministic link-capacity faults (degradations, failures, flaps,
    #: stragglers) applied to the shared network at construction; see
    #: :class:`repro.sim.faults.FaultSchedule`.  Isolated baselines strip
    #: them — rho keeps comparing against the *healthy* solo run, so fault
    #: scenarios report genuine JCT inflation.
    link_faults: FaultSchedule | None = None
    #: Job-level crash/retry semantics (crash hazard, bounded retries with
    #: exponential backoff + jitter, optional checkpoint rollback); see
    #: :class:`repro.sim.faults.JobFaultPolicy`.  ``None`` = jobs never
    #: crash (today's behavior).
    job_faults: JobFaultPolicy | None = None
    #: Network-fidelity backend key (``None`` = the analytical default;
    #: see :mod:`repro.sim.backends`).  The isolated rho baselines run at
    #: the same fidelity, so slowdown stays an apples-to-apples ratio.
    backend: str | None = None
    #: Backend-specific knobs (e.g. the packet backend's ``mtu_bytes``).
    backend_options: dict | None = None

    def __post_init__(self) -> None:
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ConfigError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )
        if self.warmup_time < 0:
            raise ConfigError(
                f"warmup_time must be >= 0, got {self.warmup_time}"
            )
        if self.measure_time is not None and self.measure_time <= 0:
            raise ConfigError(
                f"measure_time must be positive, got {self.measure_time}"
            )
        if self.warmup_time > 0 and self.measure_time is None:
            raise ConfigError("warmup_time requires measure_time")
        if self.outcome_cap is not None and self.outcome_cap < 0:
            raise ConfigError(
                f"outcome_cap must be >= 0, got {self.outcome_cap}"
            )
        if self.convergence_epochs < 1:
            raise ConfigError(
                f"convergence_epochs must be >= 1, got {self.convergence_epochs}"
            )


class _JobDriver:
    """Advances one job's :class:`TrainingLoop` on the shared engine.

    The loop's step generator is pulled synchronously until it either
    computes (resume scheduled ``duration`` later) or waits on a collective
    that has not completed (resume from the completion callback).

    ``on_arrival`` is invoked at the job's arrival event.  The cluster
    decides there whether the job is *admitted* immediately (placement +
    loop binding + :meth:`begin`, all at the arrival instant — the default,
    bit-identical to the pre-admission-control flow) or parked in the
    admission queue until a concurrency slot frees up at some departure.
    ``on_finish`` fires at the job's last iteration boundary, before any
    other event at that timestamp runs — the cluster recycles the job's
    slot there.
    """

    def __init__(
        self,
        spec: JobSpec,
        engine: EventQueue,
        on_arrival: "Callable[[_JobDriver], None]",
        on_finish: "Callable[[_JobDriver], None]",
        fault_policy: JobFaultPolicy | None = None,
    ) -> None:
        self.spec = spec
        self.engine = engine
        self.on_arrival = on_arrival
        self.on_finish = on_finish
        self.loop: TrainingLoop | None = None
        self.iterations: list[IterationBreakdown] = []
        self.iterations_done = 0
        self.arrived = False
        self.admit_time: float | None = None
        self.finish_time: float | None = None
        #: ``loop.collectives_issued`` snapshotted at :meth:`release`.
        self.released_collectives = 0
        self._steps: Iterator[ComputeStep | WaitStep] | None = None
        self._breakdown = IterationBreakdown()
        self._waiting: WaitStep | None = None
        self._wait_start = 0.0
        # --- job-fault state (inert without a policy) ----------------------
        self.fault_policy = fault_policy
        #: Per-job crash substream: time-to-failure and backoff-jitter draws
        #: depend only on ``(policy.seed, job name)``, never on trace order.
        self._fault_rng = (
            fault_substream(fault_policy.seed, f"crash:{spec.name}")
            if fault_policy is not None
            else None
        )
        self.attempts = 0
        self.crash_count = 0
        self.failed = False
        self.fail_time: float | None = None
        #: Simulated seconds of discarded progress across all crashes.
        self.lost_work = 0.0
        self._crash_pending = False
        #: Staleness guard for crash timers: events drawn for an earlier
        #: attempt carry an old generation and are ignored (crash timers
        #: are never cancelled, so this guard carries correctness).
        self._crash_generation = 0
        #: Rollback anchor: time of the last checkpoint (or attempt start).
        self._checkpoint_time = 0.0

    @property
    def finished(self) -> bool:
        return self.finish_time is not None

    @property
    def terminal(self) -> bool:
        """Finished or permanently failed — either way, done with its slot."""
        return self.finished or self.failed

    def bind(self, loop: TrainingLoop) -> None:
        self.loop = loop

    def start(self) -> None:
        self.engine.schedule(self.spec.arrival_time, self._arrive)

    def _arrive(self) -> None:
        self.arrived = True
        self.on_arrival(self)

    def begin(self) -> None:
        """Start iterating (called by the cluster at the admission instant)."""
        self.admit_time = self.engine.now
        self._start_attempt()

    # --- job faults ---------------------------------------------------------
    def _start_attempt(self) -> None:
        """Open an attempt: arm the crash timer (if any) and iterate."""
        self.attempts += 1
        self._checkpoint_time = self.engine.now
        policy = self.fault_policy
        if policy is not None:
            self._crash_generation += 1
            generation = self._crash_generation
            ttf = self._fault_rng.expovariate(policy.crash_rate)
            self.engine.schedule_after(ttf, lambda: self._crash(generation))
        self._begin_iteration()

    def _crash(self, generation: int) -> None:
        """Crash timer fired: flag the abort for the next resumption point.

        The driver is always either computing (a pending ``_advance``) or
        waiting on a collective completion, so a resumption point is
        guaranteed; aborting there keeps the engine's event set untouched
        (no cancellations needed) and the in-flight collective simply
        completes into a driver that ignores it.
        """
        if generation != self._crash_generation or self.terminal:
            return
        self._crash_pending = True

    def _abort_attempt(self) -> None:
        """Roll back to the last checkpoint, then retry or fail for good."""
        policy = self.fault_policy
        assert policy is not None
        now = self.engine.now
        self._crash_pending = False
        self._crash_generation += 1  # disarm any stale crash timer
        self.crash_count += 1
        cp = policy.checkpoint_iterations
        kept = 0 if cp is None else (self.iterations_done // cp) * cp
        self.lost_work += now - self._checkpoint_time
        self.iterations_done = kept
        del self.iterations[kept:]
        self._steps = None
        self._waiting = None
        if self.loop is not None:
            self.loop.reset_attempt()
        if self.crash_count > policy.max_retries:
            self.failed = True
            self.fail_time = now
            self.on_finish(self)
            return
        delay = policy.retry_delay(self.crash_count, self._fault_rng)
        self.engine.schedule_after(delay, self._start_attempt)

    def release(self) -> None:
        """Drop the loop and per-iteration breakdowns (bounded memory).

        Called by the cluster at departure once the job is past the
        outcome cap: the counters that feed streaming metrics
        (``iterations_done``, ``released_collectives``, the recorded
        times) survive; the per-iteration detail does not.
        """
        if self.loop is not None:
            self.released_collectives = self.loop.collectives_issued
        self.loop = None
        self._steps = None
        self.iterations = []

    # --- driving ------------------------------------------------------------
    def _begin_iteration(self) -> None:
        if self.iterations_done == self.spec.iterations:
            self.finish_time = self.engine.now
            self.on_finish(self)
            return
        self._breakdown = IterationBreakdown()
        self._steps = self.loop.iteration_steps()
        self._advance()

    def _advance(self) -> None:
        if self._crash_pending:
            self._abort_attempt()
            return
        while True:
            try:
                step = next(self._steps)
            except StopIteration:
                self.iterations.append(self._breakdown)
                self.iterations_done += 1
                cp = (
                    self.fault_policy.checkpoint_iterations
                    if self.fault_policy is not None
                    else None
                )
                if cp is not None and self.iterations_done % cp == 0:
                    self._checkpoint_time = self.engine.now
                self._begin_iteration()
                return
            if isinstance(step, ComputeStep):
                self._breakdown.add_compute(step.phase, step.duration)
                self.engine.schedule_after(step.duration, self._advance)
                return
            if step.handle.done:
                continue  # completed while the job was computing: zero stall
            self._waiting = step
            self._wait_start = self.engine.now
            return

    def collective_done(self, result: CollectiveResult) -> None:
        """Completion callback for every collective this job submitted."""
        if self._waiting is None or self._waiting.handle is not result:
            return  # an overlapped collective nobody is parked on (yet)
        step = self._waiting
        self._waiting = None
        if self._crash_pending:
            self._abort_attempt()
            return
        self._breakdown.add_stall(
            step.attribution, self.engine.now - self._wait_start
        )
        self._advance()


class _SteadyCollector:
    """Streaming window-scoped accumulators for one measurement run."""

    def __init__(
        self, warmup: float, measure: float, epochs: int, epoch_metric: str
    ) -> None:
        self.window_start = warmup
        self.window_end = warmup + measure
        self.arrivals = 0
        self.completions = 0
        self.measured = 0
        self.failures = 0
        # Distinct fixed reservoir seeds per metric: deterministic for a
        # given ingestion order, uncorrelated across the three digests.
        self.queue_delay = StreamingStats(seed=101)
        self.jct = StreamingStats(seed=102)
        self.rho = StreamingStats(seed=103)
        self.epoch_metric = epoch_metric
        self.epochs = EpochAccumulator(self.window_start, self.window_end, epochs)

    def note_arrival(self, time: float) -> None:
        if self.window_start <= time <= self.window_end:
            self.arrivals += 1

    def note_failure(self, driver: "_JobDriver") -> None:
        """A permanently-failed departure: counted, never fed to the JCT /
        rho digests (a failed job has no completion time — streaming a
        placeholder would poison the moments)."""
        fail_time = driver.fail_time
        assert fail_time is not None
        if self.window_start <= fail_time <= self.window_end:
            self.failures += 1

    def note_finish(self, driver: "_JobDriver", rho: float | None) -> None:
        finish = driver.finish_time
        assert finish is not None
        if not self.window_start <= finish <= self.window_end:
            return
        self.completions += 1
        arrival = driver.spec.arrival_time
        if arrival < self.window_start:
            return  # lifetime straddles the warm-up edge: not measured
        self.measured += 1
        jct = finish - arrival
        self.jct.add(jct)
        admit = driver.admit_time if driver.admit_time is not None else arrival
        self.queue_delay.add(admit - arrival)
        if rho is not None:
            self.rho.add(rho)
        self.epochs.add(finish, rho if rho is not None else jct)

    def report(
        self,
        *,
        peak_live_jobs: int,
        mean_live_jobs: float,
        max_concurrent: int | None,
    ) -> SteadyStateReport:
        return SteadyStateReport(
            warmup_time=self.window_start,
            measure_time=self.window_end - self.window_start,
            arrivals=self.arrivals,
            completions=self.completions,
            measured_jobs=self.measured,
            failed_jobs=self.failures,
            peak_live_jobs=peak_live_jobs,
            mean_live_jobs=mean_live_jobs,
            slot_utilization=(
                mean_live_jobs / max_concurrent
                if max_concurrent is not None
                else None
            ),
            queueing_delay=self.queue_delay.summary(),
            jct=self.jct.summary(),
            rho=self.rho.summary(),
            jain_rho=self.rho.jain_index,
            epoch_series=self.epochs.series(),
            epoch_counts=self.epochs.counts(),
            epoch_metric=self.epoch_metric,
            stationary=self.epochs.stationary(),
        )


class ClusterSimulator:
    """Runs a trace of training jobs on one shared platform network."""

    def __init__(
        self,
        topology: Topology,
        jobs: Sequence[JobSpec],
        config: ClusterConfig | None = None,
        *,
        isolated_cache: dict[tuple, float] | None = None,
    ) -> None:
        """``isolated_cache`` optionally shares isolated-JCT results across
        simulators (sweeps re-running one trace under several policies pass
        a common dict so each solo baseline is simulated once)."""
        if not jobs:
            raise ConfigError("a cluster run needs at least one job")
        duplicates = sorted(
            name
            for name, count in Counter(spec.name for spec in jobs).items()
            if count > 1
        )
        if duplicates:
            raise ConfigError(
                f"duplicate job names: {', '.join(duplicates)}"
            )
        self.topology = topology
        self.jobs = list(jobs)
        self.config = config or ClusterConfig()
        self.training_config = self.config.training or TrainingConfig()
        self.fairness = get_fairness(self.config.fairness)
        self.placement = get_placement(self.config.placement)
        #: ``job name -> assigned dimension subset`` (``None`` = all dims),
        #: filled at each job's admission event.  Jobs a truncated run cut
        #: before arrival (or that never left the admission queue) are
        #: absent.
        self.placements: dict[str, tuple[int, ...] | None] = {}
        #: Admitted-and-unfinished jobs, in admission order:
        #: ``name -> assigned dims``.  A plain dict (not a set) so policies
        #: iterating it sum floats in deterministic admission order.
        self.live_jobs: dict[str, tuple[int, ...] | None] = {}
        #: Unfinished admitted jobs per dimension — the incremental form of
        #: the placement layer's assigned-counts signal (previously an
        #: O(jobs) scan per arrival; now O(dims) per admit/depart).
        self.dim_assigned_counts = [0] * len(topology.dims)
        #: Highest simultaneous admitted-job count seen so far.
        self.peak_live_jobs = 0
        self._isolated_cache = isolated_cache if isolated_cache is not None else {}
        self.engine = EventQueue()
        self._splitter = Splitter(self.training_config.chunks_per_collective)
        from ..sim.backends import get_backend, resolve_backend_key

        self.backend_name = resolve_backend_key(self.config.backend)
        backend_impl = get_backend(self.backend_name)
        if not backend_impl.supports_cluster:
            raise ConfigError(
                f"the {self.backend_name!r} backend cannot run a shared "
                "multi-job cluster; use 'analytical', 'fluid', or 'packet'"
            )
        if (
            self.fairness is not None
            and self.fairness.requires_sharing
            and not backend_impl.supports_sharing
        ):
            raise ConfigError(
                f"fairness policy {self.fairness.name!r} needs the "
                "network's weighted-sharing/preemption hooks, which the "
                f"{self.backend_name!r} backend does not provide; use "
                "backend='analytical'"
            )
        self.network = backend_impl.build(
            topology,
            scheduler=SchedulerFactory("themis", splitter=self._splitter),
            policy=self.training_config.policy,
            fusion=self.training_config.fusion,
            engine=self.engine,
            record_ops=self.config.record_ops,
            audit=self.config.audit,
            options=self.config.backend_options,
        )
        if self.config.link_faults is not None:
            self.network.apply_fault_schedule(self.config.link_faults)
        self._drivers = [
            _JobDriver(
                spec,
                self.engine,
                self._on_arrival,
                self._on_finish,
                fault_policy=self.config.job_faults,
            )
            for spec in self.jobs
        ]
        self._admission_queue: deque[_JobDriver] = deque()
        self._live_count = 0
        self._last_live_change = 0.0
        self._live_window_integral = 0.0
        self._finished_count = 0
        self._released_collectives = 0
        self._collector: _SteadyCollector | None = None
        if self.config.measure_time is not None:
            self._collector = _SteadyCollector(
                self.config.warmup_time,
                self.config.measure_time,
                self.config.convergence_epochs,
                "rho" if self.config.isolated_baselines else "jct",
            )

    @property
    def drivers(self) -> list[_JobDriver]:
        """Per-job drivers (fairness policies read progress from these)."""
        return self._drivers

    # --- admission control / departures -------------------------------------
    def _note_live(self, delta: int) -> None:
        """Advance the window-clamped live-jobs time integral, then apply
        ``delta`` to the live count."""
        now = self.engine.now
        if self._collector is not None and now > self._last_live_change:
            lo = max(self._last_live_change, self._collector.window_start)
            hi = min(now, self._collector.window_end)
            if hi > lo:
                self._live_window_integral += self._live_count * (hi - lo)
        self._last_live_change = now
        self._live_count += delta
        if self._live_count > self.peak_live_jobs:
            self.peak_live_jobs = self._live_count

    def _on_arrival(self, driver: _JobDriver) -> None:
        """Arrival event: admit immediately, or queue for a free slot."""
        if self._collector is not None:
            self._collector.note_arrival(self.engine.now)
        cap = self.config.max_concurrent
        if cap is None or self._live_count < cap:
            self._admit(driver)
        else:
            self._admission_queue.append(driver)

    def _on_finish(self, driver: _JobDriver) -> None:
        """Departure: recycle the job's slot, stream its outcome, admit next."""
        spec = driver.spec
        dims = self.live_jobs.pop(spec.name)
        occupied = dims if dims is not None else range(len(self.topology.dims))
        for dim_index in occupied:
            self.dim_assigned_counts[dim_index] -= 1
        self._note_live(-1)
        auditor = self.network.auditor
        if auditor is not None:
            auditor.on_job_departed(
                spec.name, time=self.engine.now, live=self._live_count
            )
        self._finished_count += 1
        if self._collector is not None:
            if driver.failed:
                self._collector.note_failure(driver)
            else:
                rho = None
                if self.config.isolated_baselines:
                    isolated = self.isolated_time(spec)
                    if isolated > 0 and driver.finish_time is not None:
                        rho = (
                            driver.finish_time - spec.arrival_time
                        ) / isolated
                self._collector.note_finish(driver, rho)
        cap_detail = self.config.outcome_cap
        if cap_detail is not None and self._finished_count > cap_detail:
            self._released_collectives += (
                driver.loop.collectives_issued if driver.loop is not None else 0
            )
            driver.release()
        cap = self.config.max_concurrent
        while self._admission_queue and (
            cap is None or self._live_count < cap
        ):
            self._admit(self._admission_queue.popleft())

    def _admit(self, driver: _JobDriver) -> None:
        """Admission event: place the job, bind its loop, start iterating.

        Placement happens here — not at construction time — so automatic
        policies see the shared network exactly as the job would: live
        outstanding bytes per dimension, which tenants are still running,
        and what was assigned before it.  Without admission control this
        runs inside the arrival event and the loop construction schedules
        no events, so with the default hand placement this is bit-for-bit
        the pre-placement-layer timeline.
        """
        spec = driver.spec
        if self.placement is None:
            dims = spec.dim_indices
        else:
            dims = self.placement.place(spec, self)
            if dims is not None:
                dims = tuple(dims)
                for dim_index in dims:
                    if not 0 <= dim_index < len(self.topology.dims):
                        raise ConfigError(
                            f"placement policy assigned job {spec.name!r} "
                            f"out-of-range dimension {dim_index} on a "
                            f"{len(self.topology.dims)}D topology"
                        )
        self.placements[spec.name] = dims
        loop = TrainingLoop(
            spec.resolve_workload(),
            self.topology,
            self.network,
            self.engine,
            self.training_config,
            scheduler_factory=SchedulerFactory(
                spec.scheduler, splitter=self._splitter
            ),
            dim_indices=dims,
            priority_boost=spec.priority,
            owner=spec.name,
            on_collective_complete=driver.collective_done,
        )
        driver.bind(loop)
        self.live_jobs[spec.name] = dims
        occupied = dims if dims is not None else range(len(self.topology.dims))
        for dim_index in occupied:
            self.dim_assigned_counts[dim_index] += 1
        self._note_live(+1)
        auditor = self.network.auditor
        if auditor is not None:
            auditor.on_job_admitted(
                spec.name,
                time=self.engine.now,
                live=self._live_count,
                cap=self.config.max_concurrent,
            )
        driver.begin()

    def assigned_dims(self, spec: JobSpec) -> tuple[int, ...] | None:
        """The dimension subset ``spec``'s communicators span (or will span).

        The decided placement once the job has arrived; before that, the
        hand-declared ``dim_indices`` — automatic policies decide only at
        the arrival instant, so pre-arrival callers (the finish-time-fair
        policy computing isolated baselines at t=0) see the hand placement.
        """
        if spec.name in self.placements:
            return self.placements[spec.name]
        return spec.dim_indices

    def isolated_time(self, spec: JobSpec) -> float:
        """Cached isolated JCT of ``spec`` (the rho / slowdown denominator).

        The solo run uses the job's *assigned* dimensions (see
        :meth:`assigned_dims`) — rho compares shared vs alone on the same
        slice of the platform.  Jobs with identical configuration share one
        isolated run.  A registry name always resolves to the same
        workload; Workload *instances* are keyed by content (name, batch,
        parallelism, layer stack — everything the simulation reads), so
        reconstructed-but-equal workloads (spec-driven sweeps rebuild them
        per point) still share one baseline.  Priority, weight, and arrival
        are irrelevant alone on the network, so they are not part of the
        key.
        """
        workload = spec.workload
        if isinstance(workload, str):
            workload_key: tuple | str = workload
        else:
            workload_key = (
                workload.name,
                workload.batch_per_npu,
                workload.mp_group_size,
                workload.dp_style,
                tuple(workload.layers),
            )
        dims = self.assigned_dims(spec)
        if self.config.isolated_per_iteration:
            key = (workload_key, spec.scheduler.lower(), 1, dims)
            if key not in self._isolated_cache:
                self._isolated_cache[key] = isolated_jct(
                    self.topology,
                    replace(spec, dim_indices=dims, iterations=1),
                    self.config,
                )
            return self._isolated_cache[key] * spec.iterations
        key = (
            workload_key,
            spec.scheduler.lower(),
            spec.iterations,
            dims,
        )
        if key not in self._isolated_cache:
            self._isolated_cache[key] = isolated_jct(
                self.topology, replace(spec, dim_indices=dims), self.config
            )
        return self._isolated_cache[key]

    def _audit_outcomes(self) -> None:
        """End-of-run cluster invariants (only with auditing enabled).

        Every finished job must finish no earlier than it arrived and must
        have run exactly its configured iteration count — a driver that
        books extra (or loses) iterations would silently skew JCT and
        slowdown metrics.
        """
        auditor = self.network.auditor
        assert auditor is not None
        policy = self.config.job_faults
        for driver in self._drivers:
            auditor.checks_run += 1
            spec = driver.spec
            if driver.failed:
                # Retry/attempt accounting: a failed job crashed once per
                # attempt, within the retry budget, and never also finished.
                if driver.finish_time is not None:
                    raise InvariantViolation(
                        "job-fault-accounting",
                        f"job {spec.name!r} both failed and finished",
                        time=driver.fail_time,
                    )
                if driver.crash_count != driver.attempts or (
                    policy is not None
                    and driver.attempts > policy.max_retries + 1
                ):
                    raise InvariantViolation(
                        "job-fault-accounting",
                        f"job {spec.name!r} failed with {driver.attempts} "
                        f"attempt(s) and {driver.crash_count} crash(es)",
                        time=driver.fail_time,
                    )
                continue
            if driver.finish_time is None:
                continue
            if driver.crash_count != driver.attempts - 1:
                raise InvariantViolation(
                    "job-fault-accounting",
                    f"job {spec.name!r} finished with {driver.attempts} "
                    f"attempt(s) and {driver.crash_count} crash(es)",
                    time=driver.finish_time,
                )
            if driver.finish_time < spec.arrival_time:
                raise InvariantViolation(
                    "job-causality",
                    f"job {spec.name!r} finished before it arrived",
                    time=driver.finish_time,
                    context={"arrival": spec.arrival_time},
                )
            if driver.iterations_done != spec.iterations:
                raise InvariantViolation(
                    "job-iterations",
                    f"job {spec.name!r} ran {driver.iterations_done} "
                    f"iteration(s), expected {spec.iterations}",
                    time=driver.finish_time,
                )

    def run(self, max_events: int | None = None) -> ClusterReport:
        """Run all jobs to completion and collect per-job/cluster metrics.

        With a measurement window configured (``config.measure_time``), the
        run instead stops at ``warmup_time + measure_time``: jobs still
        running then are expected, not a deadlock, and the report carries a
        window-scoped :class:`SteadyStateReport` plus ``stopped_at``.  Jobs
        whose arrival the window cut off are omitted from the per-job rows
        (``total_jobs`` still counts the full trace).

        When ``max_events`` cuts the simulation short, the returned report
        is flagged ``truncated=True``: unfinished jobs carry
        ``finish_time=None`` and the cluster metrics cover the finished
        jobs only, instead of a complete-looking report built from a
        half-run trace.
        """
        if self.fairness is not None:
            self.fairness.prepare(self)
        if self.placement is not None:
            self.placement.prepare(self)
        for driver in self._drivers:
            driver.start()
        stop_time: float | None = None
        if self.config.measure_time is not None:
            stop_time = self.config.warmup_time + self.config.measure_time
        truncated = False
        try:
            if stop_time is not None:
                self.engine.run_until(stop_time, max_events=max_events)
            else:
                self.engine.run(max_events=max_events)
        except EventBudgetError:
            truncated = True
        self._note_live(0)  # close the live-jobs time integral at stop
        unfinished = sorted(
            driver.spec.name for driver in self._drivers if not driver.terminal
        )
        if unfinished and not truncated and stop_time is None:
            raise DeadlockError(
                f"{len(unfinished)} job(s) never completed: "
                f"{', '.join(unfinished)}"
            )
        if self.network.auditor is not None:
            self._audit_outcomes()
        submitted = self._released_collectives + sum(
            d.loop.collectives_issued
            for d in self._drivers
            # truncated/windowed runs may cut a job pre-arrival; released
            # drivers contribute via the accumulator instead
            if d.loop is not None
        )
        result = self.network.result() if submitted else None
        utilization = None
        comm_active = 0.0
        if result is not None and result.comm_active_seconds > 0:
            utilization = bw_utilization(result)
            comm_active = result.comm_active_seconds
        outcomes = []
        outcome_specs = []
        for driver in self._drivers:
            spec = driver.spec
            if stop_time is not None and not driver.arrived:
                continue  # the window closed before this job existed
            outcome_specs.append(spec)
            outcomes.append(
                JobOutcome(
                    name=spec.name,
                    workload_name=spec.workload_name,
                    scheduler_name=spec.scheduler_label,
                    arrival_time=spec.arrival_time,
                    finish_time=driver.finish_time,
                    iterations=driver.iterations,
                    comm_active_seconds=(
                        result.comm_active_seconds_for(spec.name)
                        if result is not None
                        else 0.0
                    ),
                    placement=self.assigned_dims(spec),
                    placed=spec.name in self.placements,
                    admit_time=driver.admit_time,
                    attempts=driver.attempts,
                    failed=driver.failed,
                    fail_time=driver.fail_time,
                    lost_work=driver.lost_work,
                )
            )
        if self.config.isolated_baselines:
            for spec, outcome in zip(outcome_specs, outcomes):
                outcome.isolated_time = self.isolated_time(spec)
        steady_state = None
        if self._collector is not None:
            measure = self._collector.window_end - self._collector.window_start
            steady_state = self._collector.report(
                peak_live_jobs=self.peak_live_jobs,
                mean_live_jobs=self._live_window_integral / measure,
                max_concurrent=self.config.max_concurrent,
            )
        return ClusterReport(
            topology_name=self.topology.name,
            jobs=outcomes,
            utilization=utilization,
            comm_active_seconds=comm_active,
            fairness_name=(
                self.fairness.describe() if self.fairness is not None else None
            ),
            placement_name=(
                self.placement.describe() if self.placement is not None else None
            ),
            dim_load=(
                tuple(result.dim_busy_seconds) if result is not None else ()
            ),
            preemption_count=self.network.preemption_count,
            truncated=truncated,
            truncated_at=self.engine.now if truncated else None,
            stopped_at=stop_time if not truncated else None,
            peak_live_jobs=self.peak_live_jobs,
            total_jobs=len(self.jobs),
            steady_state=steady_state,
        )


def isolated_jct(
    topology: Topology, spec: JobSpec, config: ClusterConfig | None = None
) -> float:
    """JCT of ``spec`` run alone on ``topology`` (the rho denominator).

    Fairness and placement policies are stripped for the solo run: alone on
    the network a job gets full bandwidth under every discipline,
    finish-time-fair re-weighting would recurse into computing its own
    isolated baselines, and the caller has already baked the decided
    placement into ``spec.dim_indices``.
    """
    solo_config = replace(
        config or ClusterConfig(),
        isolated_baselines=False,
        fairness=None,
        placement=None,
        # Window/admission knobs belong to the shared run, not the solo
        # baseline — a warm-up longer than the solo JCT would otherwise
        # truncate the denominator to nothing.
        max_concurrent=None,
        warmup_time=0.0,
        measure_time=None,
        outcome_cap=None,
        # Faults belong to the shared run too: rho compares the contended
        # run against a *healthy* solo run, so degradation shows up in the
        # numerator only.
        link_faults=None,
        job_faults=None,
    )
    solo = ClusterSimulator(topology, [spec.at_arrival(0.0)], solo_config)
    return solo.run().jobs[0].jct


def mix_mean_service_time(
    topology: Topology,
    mix: JobMix,
    config: ClusterConfig | None = None,
    schedulers: Sequence[str] = ("themis",),
    cache: dict[tuple, float] | None = None,
) -> float:
    """Expected isolated JCT of one job drawn from ``mix`` (seconds).

    The mean service demand behind target-rho calibration: per class and
    size rung, one solo single-iteration run (cached) scaled by the mix's
    expected iteration count, weighted by the analytic class/rung
    probabilities and averaged over the scheduler rotation.  Exact for the
    iteration factor (service time is linear in iterations when run solo —
    iterations are identical and independent) and exact-by-construction
    for the rung weights, so ``derive_open_loop_rate`` hits its target
    offered load without a pilot simulation.
    """
    if not schedulers:
        raise ConfigError("mix_mean_service_time needs at least one scheduler")
    cache = cache if cache is not None else {}
    pool = mix.workload_pool()
    class_probs = mix.class_probabilities()
    level_probs = mix.level_probabilities()
    expected = 0.0
    for (label, rung), workload in pool.items():
        weight = class_probs[label] * level_probs[rung]
        if weight <= 0:
            continue
        per_scheduler = 0.0
        for scheduler in schedulers:
            key = ("mix-service", workload.name, scheduler.lower())
            if key not in cache:
                cache[key] = isolated_jct(
                    topology,
                    JobSpec(
                        name=f"calib-{label}-s{rung}",
                        workload=workload,
                        iterations=1,
                        scheduler=scheduler,
                    ),
                    config,
                )
            per_scheduler += cache[key]
        expected += weight * per_scheduler / len(schedulers)
    return expected * mix.mean_iterations


def run_cluster(
    topology: Topology,
    jobs: Sequence[JobSpec],
    config: ClusterConfig | None = None,
) -> ClusterReport:
    """One-call convenience wrapper around :class:`ClusterSimulator`."""
    return ClusterSimulator(topology, jobs, config).run()
