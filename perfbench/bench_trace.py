"""Per-layer tracing that wraps the simulator's public boundaries from outside.

:class:`Tracer` patches methods of ``repro`` classes for the duration of
one traced pass and restores them afterwards; no ``src/`` code knows it
exists.  It keeps three kinds of record, all in memory:

* **spans** (name, start, end, parent span, run id) at the boundaries that
  are entered a bounded number of times per run: ``api.run``,
  ``TrainingSimulator.run``, ``ClusterSimulator.run``,
  ``NetworkSimulator.run``/``result``, ``CollectiveScheduler.plan``,
  ``IdealEstimator.collective_time`` and ``OpenLoopTrace.to_jobs``;
* **counts** of hot calls, which are never spanned: event scheduling,
  channel enqueues and reweights, network submissions, latency-model
  lookups;
* **self time** per layer.  Every span and every *timed* hot boundary
  (engine steps and loops, executor entry points, and each fired event
  callback, attributed to the module that defined it) is a frame on one
  stack; a frame's self time is its duration minus the frames nested in
  it, so self times add up to the time the outermost frames cover.

:meth:`Tracer.write_chrome_trace` writes the spans as Chrome trace-event
JSON, which Perfetto (ui.perfetto.dev) and ``chrome://tracing`` load.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any

_clock = time.perf_counter


def callback_layer(module: str) -> str:
    """The layer an event callback belongs to, from its defining module."""
    if module.startswith(("repro.sim.network", "repro.sim.backends")):
        return "sim.network"
    if module.startswith("repro.sim."):
        return "sim." + module.split(".")[2]
    if module.startswith("repro."):
        return module.split(".")[1]
    return "other"


class Tracer:
    """Spans, counts and per-layer self time for one traced pass."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent span index or -1, run id)``.
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: Every ``EventQueue`` built while installed, for its counters.
        self.engines: list[Any] = []
        self.run_id = -1
        self._frames: list[list[Any]] = []  # [key, start, child seconds]
        self._open_spans: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._layers: dict[str, str] = {}
        self._cells: dict[str, list[int]] = {}

    # --- frames and spans -------------------------------------------------
    def _enter(self, key: str) -> list[Any]:
        frame = [key, _clock(), 0.0]
        self._frames.append(frame)
        return frame

    def _exit(self, frame: list[Any]) -> float:
        end = _clock()
        duration = end - frame[1]
        self._frames.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if self._frames:
            self._frames[-1][2] += duration
        return end

    def _span(self, name: str, function: Any, key: str | None = None) -> Any:
        tracer = self
        key = key or name

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.calls[name] += 1
            index, run_id = len(tracer.spans), tracer.run_id
            parent = tracer._open_spans[-1] if tracer._open_spans else -1
            tracer.spans.append((name, 0.0, 0.0, parent, run_id))
            tracer._open_spans.append(index)
            frame = tracer._enter(key)
            try:
                return function(*args, **kwargs)
            finally:
                end = tracer._exit(frame)
                tracer._open_spans.pop()
                tracer.spans[index] = (name, frame[1], end, parent, run_id)

        return wrapper

    def _timed(self, key: str, function: Any, count: str | None = None) -> Any:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                tracer.calls[count] += 1
            frame = tracer._enter(key)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _counted(self, name: str, function: Any) -> Any:
        # A one-element list is cheaper to bump than a Counter entry, and
        # these wrappers sit on the hottest calls; totals are folded into
        # ``calls`` by :meth:`uninstall`.
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return function(*args, **kwargs)

        return wrapper

    # --- special boundaries -----------------------------------------------
    def _api_run(self, function: Any) -> Any:
        tracer = self
        spanned = self._span("api.run", function)

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.run_id += 1
            return spanned(*args, **kwargs)

        return wrapper

    def _schedule(self, function: Any) -> Any:
        tracer = self
        layers = self._layers

        @functools.wraps(function)
        def wrapper(queue: Any, when: float, callback: Any) -> Any:
            tracer.calls["sim.engine.schedule"] += 1
            module = getattr(callback, "__module__", None) or ""
            key = layers.get(module)
            if key is None:
                key = layers[module] = callback_layer(module)

            def timed_callback() -> None:
                frame = tracer._enter(key)
                try:
                    callback()
                finally:
                    tracer._exit(frame)

            return function(queue, when, timed_callback)

        return wrapper

    def _engine_init(self, function: Any) -> Any:
        engines = self.engines

        @functools.wraps(function)
        def wrapper(queue: Any, *args: Any, **kwargs: Any) -> None:
            function(queue, *args, **kwargs)
            engines.append(queue)

        return wrapper

    def _to_jobs(self, function: Any) -> Any:
        tracer = self
        spanned = self._span("cluster.trace", function)

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            jobs = spanned(*args, **kwargs)
            tracer.calls["cluster.arrivals"] += len(jobs)
            return jobs

        return wrapper

    # --- install / uninstall ----------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Any) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap the boundaries; call :meth:`uninstall` when the pass ends."""
        import repro.api
        from repro.api.spec import OpenLoopTrace
        from repro.cluster.simulator import ClusterSimulator
        from repro.core.ideal import IdealEstimator
        from repro.core.latency_model import LatencyModel
        from repro.core.scheduler import CollectiveScheduler
        from repro.sim.engine import EventQueue
        from repro.sim.executor import DimensionChannel
        from repro.sim.network import IdealNetwork, NetworkSimulator
        from repro.training.iteration import TrainingSimulator

        span, timed, counted = self._span, self._timed, self._counted
        self._patch(repro.api, "run", self._api_run)
        self._patch(TrainingSimulator, "run", lambda f: span("training.run", f))
        self._patch(ClusterSimulator, "run", lambda f: span("cluster.run", f))
        self._patch(CollectiveScheduler, "plan", lambda f: span("core.plan", f))
        self._patch(IdealEstimator, "collective_time", lambda f: span("core.ideal", f))
        self._patch(NetworkSimulator, "run", lambda f: span("sim.network.run", f))
        self._patch(
            NetworkSimulator,
            "result",
            lambda f: span("sim.network.result", f),
        )
        self._patch(OpenLoopTrace, "to_jobs", self._to_jobs)
        self._patch(
            NetworkSimulator, "submit", lambda f: counted("sim.network.submit", f)
        )
        self._patch(
            IdealNetwork, "submit", lambda f: counted("sim.network.submit.ideal", f)
        )
        for name in (
            "bytes_per_npu",
            "chunk_load",
            "fixed_latency",
            "op_time",
            "collective_fixed_latency",
            "stage_loads",
            "single_phase_ops",
        ):
            self._patch(LatencyModel, name, lambda f: counted("core.latency_model", f))
        self._patch(
            DimensionChannel,
            "enqueue",
            lambda f: timed("sim.executor", f, "sim.executor.enqueue"),
        )
        self._patch(
            DimensionChannel,
            "set_share_weights",
            lambda f: timed("sim.executor", f, "sim.executor.reweight"),
        )
        self._patch(EventQueue, "__init__", self._engine_init)
        self._patch(EventQueue, "schedule", self._schedule)
        for name in ("step", "run", "run_until"):
            self._patch(EventQueue, name, lambda f: timed("sim.engine", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for name, cell in self._cells.items():
            self.calls[name] += cell[0]
        self._cells.clear()

    # --- reporting --------------------------------------------------------
    def span_seconds(self, name: str) -> float:
        """Total inclusive seconds of the spans called ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def write_chrome_trace(self, path: Path, labels: list[str]) -> None:
        """Write the spans as Chrome trace-event JSON (loads in Perfetto).

        ``labels[i]`` names the operation whose ``api.run`` had run id i.
        """
        origin = min((start for _, start, _, _, _ in self.spans), default=0.0)
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": "perfbench traced pass"},
            }
        ]
        for index, (name, start, end, parent, run_id) in enumerate(self.spans):
            args: dict[str, Any] = {"run_id": run_id, "parent": parent}
            if name == "api.run" and 0 <= run_id < len(labels):
                args["operation"] = labels[run_id]
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "calls": dict(sorted(self.calls.items())),
                "self_s": dict(sorted(self.self_s.items())),
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))
