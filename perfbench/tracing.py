"""Timing wrappers around the layers' public functions, for traced runs.

:class:`Tracer` patches a fixed list of public functions (and two module
globals of ``repro.service.scheduler``) with wrappers that record one
span per call: name, start, end, parent span and thread. Nesting is
tracked per thread, so each span also knows how much of its interval its
child spans cover; its *self time* is the rest. :meth:`Tracer.remove`
puts every original attribute back.

Only what the per-layer metrics need is kept for every call: each span
name's durations and self times as flat float arrays, and every
top-level span's interval. Full span records are kept for the first
``MAX_SPAN_RECORDS`` calls and written out as JSON lines by
:meth:`Tracer.dump`, whose last line counts the records dropped past
that cap (a traced ``fused_grid`` run makes far more ``get_page``
spans than that).

The client's round trips (``CLIENT_SPANS``) wait on the server's
threads, so their time overlaps the server-side spans; they count
toward no layer's self time.
"""

from __future__ import annotations

import itertools
import json
import threading
from array import array
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Span records kept for :meth:`Tracer.dump`.
MAX_SPAN_RECORDS = 100_000

#: ``ServiceClient`` round trips, timed on the client's threads.
CLIENT_SPANS = ("api.submit", "api.result", "api.model")

#: Server-side span name -> the layer whose self time it counts toward.
LAYER_OF_SPAN = {
    "api.handle": "api",
    "service.submit": "service",
    "service.dispatch": "service",
    "service.ledger.reserve": "service.ledger",
    "service.ledger.commit": "service.ledger",
    "service.wal.sync": "service.wal",
    "service.wal.reset": "service.wal",
    "service.wal.snapshot": "service.wal",
    "rdbms.bismarck.scan": "rdbms.bismarck",
    "rdbms.executor.chunk": "rdbms.executor",
    "rdbms.storage.get_page": "rdbms.storage",
    "rdbms.storage.read_page": "rdbms.storage",
    "rdbms.uda.transition": "rdbms.uda",
    "optim.losses.batch_gradient": "optim.losses",
    "core.mechanisms.sample": "core",
    "core.sensitivity.bound": "core",
}

LAYERS = sorted(set(LAYER_OF_SPAN.values()))


def _method_targets():
    """(owner class, attribute, span name) for every wrapped method."""
    from http.server import BaseHTTPRequestHandler

    from repro.api.client import ServiceClient
    from repro.optim.losses import LogisticLoss
    from repro.rdbms.bismarck import BismarckSession
    from repro.rdbms.storage import BufferPool, MaterializedHeapFile, SQLiteHeapFile
    from repro.rdbms.uda import MultiSGDUDA, SGDUDA
    from repro.service.ledger import PrivacyBudgetLedger
    from repro.service.registry import ModelRegistry
    from repro.service.scheduler import SharedScanScheduler
    from repro.service.server import TrainingService
    from repro.service.wal import WriteAheadLog

    return [
        (ServiceClient, "submit", "api.submit"),
        (ServiceClient, "result", "api.result"),
        (ServiceClient, "model", "api.model"),
        # The server's handling of one request, on its handler thread.
        (BaseHTTPRequestHandler, "handle", "api.handle"),
        (TrainingService, "submit", "service.submit"),
        (SharedScanScheduler, "dispatch_window", "service.dispatch"),
        (PrivacyBudgetLedger, "reserve", "service.ledger.reserve"),
        (PrivacyBudgetLedger, "commit", "service.ledger.commit"),
        (WriteAheadLog, "sync", "service.wal.sync"),
        (WriteAheadLog, "reset", "service.wal.reset"),
        (ModelRegistry, "snapshot", "service.wal.snapshot"),
        (BismarckSession, "run_sgd", "rdbms.bismarck.scan"),
        (BismarckSession, "run_sgd_multi", "rdbms.bismarck.scan"),
        (BufferPool, "get_page", "rdbms.storage.get_page"),
        (MaterializedHeapFile, "read_page", "rdbms.storage.read_page"),
        (SQLiteHeapFile, "read_page", "rdbms.storage.read_page"),
        (SGDUDA, "transition_batch", "rdbms.uda.transition"),
        (MultiSGDUDA, "transition_batch", "rdbms.uda.transition"),
        (LogisticLoss, "batch_gradient", "optim.losses.batch_gradient"),
    ]


class _Series:
    """Per-name call statistics: every duration and self time."""

    __slots__ = ("durations", "self_times")

    def __init__(self) -> None:
        self.durations = array("d")
        self.self_times = array("d")


class Tracer:
    """Records spans at the layer boundaries while installed."""

    def __init__(self) -> None:
        self.records: List[Tuple[int, str, float, float, Optional[int], int, str]] = []
        self.series: Dict[str, _Series] = {}
        #: (start, end) of every span with no parent on its thread.
        self.top_level: List[Tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, bool, object]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        # [id, parent frame, child seconds, job]
        frame = [next(self._ids), parent, 0.0, "" if parent is None else parent[3]]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack().pop()
        duration = end - start
        parent = frame[1]
        if parent is None:
            self.top_level.append((start, end))
        else:
            parent[2] += duration
        series = self.series.get(name)
        if series is None:
            series = self.series.setdefault(name, _Series())
        series.durations.append(duration)
        series.self_times.append(duration - frame[2])
        if len(self.records) < MAX_SPAN_RECORDS:
            self.records.append(
                (
                    frame[0],
                    name,
                    start,
                    end,
                    None if parent is None else parent[0],
                    threading.get_ident(),
                    frame[3],
                )
            )

    def wrap(self, name: str, function, job_of=None):
        """``function`` with a span around each call. ``job_of(args,
        result)`` names the job(s) the call serves: it is asked with
        ``result=None`` on entry, and again after the call if that gave
        nothing. Child spans inherit their parent's job."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter()
            if job_of is not None:
                frame[3] = job_of(args, None) or frame[3]
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, name, start, perf_counter())
                raise
            end = perf_counter()
            if job_of is not None and not frame[3]:
                frame[3] = job_of(args, result)
            tracer._exit(frame, name, start, end)
            return result

        traced.__wrapped__ = function
        return traced

    def wrap_generator(self, name: str, function):
        """``function`` (a generator function) with a span around each
        ``next()`` of the generator it returns."""
        tracer = self

        def traced(*args, **kwargs):
            inner = function(*args, **kwargs)
            while True:
                frame = tracer._enter()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._exit(frame, name, start, perf_counter())
                    return
                except BaseException:
                    tracer._exit(frame, name, start, perf_counter())
                    raise
                tracer._exit(frame, name, start, perf_counter())
                yield item

        traced.__wrapped__ = function
        return traced

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        own = attribute in vars(owner)
        self._saved.append((owner, attribute, own, vars(owner).get(attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        """Patch every traced function; undo with :meth:`remove`."""
        from repro.rdbms.executor import ShuffleOnce
        from repro.service import scheduler

        for owner, attribute, name in _method_targets():
            job_of = _JOB_OF.get(name)
            self._patch(owner, attribute, self.wrap(name, getattr(owner, attribute), job_of))
        self._patch(
            ShuffleOnce,
            "scan_chunks",
            self.wrap_generator("rdbms.executor.chunk", ShuffleOnce.scan_chunks),
        )
        self._patch(
            scheduler,
            "sensitivity_for_schedule",
            self.wrap("core.sensitivity.bound", scheduler.sensitivity_for_schedule),
        )
        mechanism_for = scheduler.mechanism_for
        tracer = self

        def traced_mechanism_for(privacy):
            return _TimedMechanism(mechanism_for(privacy), tracer)

        self._patch(scheduler, "mechanism_for", traced_mechanism_for)
        return self

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._saved:
            owner, attribute, own, original = self._saved.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        series = self.series.get(name)
        return 0 if series is None else len(series.durations)

    def seconds(self, name: str, self_time: bool = False) -> float:
        """Total duration (or self time) of every ``name`` span."""
        series = self.series.get(name)
        if series is None:
            return 0.0
        return sum(series.self_times if self_time else series.durations)

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per server-side layer; client spans are left out."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name in self.series:
            if name in LAYER_OF_SPAN:
                totals[LAYER_OF_SPAN[name]] += self.seconds(name, self_time=True)
        return totals

    def covered_seconds(self, start: float, end: float) -> float:
        """Length of the union of top-level spans, clipped to [start, end]."""
        covered = 0.0
        cursor = start
        for span_start, span_end in sorted(self.top_level):
            span_start = max(span_start, cursor)
            span_end = min(span_end, end)
            if span_end > span_start:
                covered += span_end - span_start
                cursor = span_end
        return covered

    def dump(self, path) -> None:
        """Write the kept span records as JSON lines, then one line
        ``{"dropped": n}`` counting the spans past ``MAX_SPAN_RECORDS``."""
        spans = sum(self.calls(name) for name in self.series)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, thread, job in self.records:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "thread": thread,
                            "job": job,
                        }
                    )
                    + "\n"
                )
            handle.write(json.dumps({"dropped": spans - len(self.records)}) + "\n")


class _TimedMechanism:
    """A noise mechanism whose ``sample`` draws are spans."""

    def __init__(self, mechanism, tracer: Tracer) -> None:
        self._mechanism = mechanism
        self.sample = tracer.wrap("core.mechanisms.sample", mechanism.sample)

    def __getattr__(self, attribute):
        return getattr(self._mechanism, attribute)


def _submitted_job(args, result) -> str:
    return getattr(result, "job_id", "") or ""


def _job_argument(args, result) -> str:
    return str(args[1]) if len(args) > 1 else ""


def _window_jobs(args, result) -> str:
    return ",".join(job.job_id for job in args[1]) if len(args) > 1 else ""


_JOB_OF = {
    "api.submit": _submitted_job,
    "api.result": _job_argument,
    "api.model": _job_argument,
    "service.submit": _submitted_job,
    "service.dispatch": _window_jobs,
}
