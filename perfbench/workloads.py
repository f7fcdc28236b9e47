"""The benchmark's three closed-loop workloads.

Each workload builds a :class:`Deployment` (data, a ``TrainingService``,
its tables, for ``http_tenants`` a live ``ServiceApiServer``, and one
warm-up job per table), then drives it through the service's public
verbs until a deadline passes. A client sends its next job only after
the previous one was released, so a slower system receives less load.
Every build starts the job stream from its head, so loops on fresh
deployments of one seed submit the same jobs.

* ``fused_grid``: one client submits bursts of 32 logistic jobs (an
  8 lambda x 4 epsilon grid, batch 50, 2 passes) to an in-memory
  m=5000, d=50 table, then drains. Every burst is queued before the
  dispatch loop starts, so each burst is exactly one fused window.
* ``sqlite_thrash``: one client runs one job at a time (1 pass, batch
  sizes cycling 10/25/50/100) against a SQLite-backed m=5000, d=50
  table behind a 32-page buffer-pool domain, 1/8 of the table.
* ``http_tenants``: two client threads, one per tenant and table
  (m=256, d=10, 1 pass), drive ``ServiceClient`` against a live server
  over a durable service (``state_dir`` set, 2 workers). Every second
  submission repeats one of the tenant's earlier jobs, so the result
  cache serves it at admission.

Inputs are a pure function of the workload seed; the program only sees
the generated arrays and job parameters. Every job has distinct
parameters except the deliberate ``http_tenants`` repeats, so a repeat
is the only way a release can come from the result cache.
"""

from __future__ import annotations

import pathlib
import pickle
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api import ServiceApiServer, ServiceClient
from repro.optim.losses import LogisticLoss
from repro.service import JobStatus, TrainingService

COMPLETED = JobStatus.COMPLETED.value

#: The lambda x epsilon grid of one tuning sweep.
REGULARIZATIONS = tuple(float(v) for v in np.logspace(-4, -1, 8))
EPSILONS = (0.1, 0.3, 1.0, 3.0)

#: Held-out rows generated beside every table for ``test_accuracy``.
TEST_ROWS = 2000
#: Share of labels flipped, so no table is perfectly separable.
LABEL_NOISE = 0.05
#: A budget no workload run can exhaust.
BUDGET_EPSILON = 1e12
#: Child processes that compute the reference releases.
REFERENCE_PROCESSES = 2


@dataclass(frozen=True)
class JobSpec:
    """Everything a job's release depends on besides the table."""

    principal: str
    table: str
    regularization: float
    epsilon: float
    batch_size: int
    passes: int
    seed: int

    def submit_to(self, target):
        """Submit through ``TrainingService.submit`` or ``ServiceClient.submit``."""
        return target.submit(
            self.principal,
            self.table,
            LogisticLoss(regularization=self.regularization),
            epsilon=self.epsilon,
            passes=self.passes,
            batch_size=self.batch_size,
            seed=self.seed,
        )


@dataclass
class Release:
    """One job as its client saw it."""

    spec: JobSpec
    job_id: str
    status: str
    weights: Optional[np.ndarray]
    submitted: float
    released: float
    cached: bool = False
    error: str = ""

    @property
    def latency(self) -> float:
        return self.released - self.submitted


@dataclass
class Table:
    name: str
    principal: str
    features: np.ndarray
    labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray


def make_table(name: str, principal: str, seed: int, index: int, m: int, d: int) -> Table:
    """A noisy linearly separable binary table on the unit sphere."""
    rng = np.random.default_rng([seed, index])
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    rows = rng.standard_normal((m + TEST_ROWS, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    labels = np.where(rows @ direction >= 0.0, 1.0, -1.0)
    labels[rng.random(m + TEST_ROWS) < LABEL_NOISE] *= -1.0
    return Table(name, principal, rows[:m], labels[:m], rows[m:], labels[m:])


@dataclass
class Phase:
    """One timed stretch of a workload's closed loop."""

    releases: List[Release]
    started: float
    seconds: float
    pages: int
    pool_hits: int
    pool_requests: int


@dataclass
class Deployment:
    """A built workload: the service under test and its client state."""

    service: TrainingService
    tables: List[Table]
    warmups: List[Release] = field(default_factory=list)
    server: Optional[ServiceApiServer] = None
    clients: List[ServiceClient] = field(default_factory=list)
    #: Per-client position in the job stream (continues across phases).
    cursors: List[int] = field(default_factory=list)
    #: Per-client history the http repeats draw from.
    history: List[List[JobSpec]] = field(default_factory=list)
    closed: bool = False

    def pool_counters(self):
        """(page requests, pool hits) summed over the deployment's tables."""
        pool = self.service.session.pool
        requests = hits = 0
        for table in self.tables:
            stats = pool.stats_for(self.service.session.catalog.get(table.name).heap)
            requests += stats.page_reads
            hits += stats.cache_hits
        return requests, hits

    def close(self) -> None:
        """Stop the server and the service and close the tables (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self.server is not None:
            self.server.close()
        self.service.stop()
        if self.service.wal is not None:
            self.service.wal.close()
        for table in self.tables:
            close = getattr(self.service.session.catalog.get(table.name).heap, "close", None)
            if close is not None:
                close()


def _wait_in_process(service: TrainingService, record, submitted: float, spec: JobSpec) -> Release:
    """The release of an in-process job once its record is terminal; the
    release instant is the end of its ``commit`` span."""
    status = record.status.value
    released = submitted
    if status == COMPLETED:
        commit = service.trace(record.job_id).span("commit")
        released = commit.end if commit is not None else time.perf_counter()
    return Release(
        spec,
        record.job_id,
        status,
        None if record.model is None else np.array(record.model, copy=True),
        submitted,
        released,
        cached=record.dispatch == "cached",
        error=record.error or "",
    )


class Workload:
    """One workload: its shape, how it is built, and its closed loop."""

    name = ""
    clients = 1
    shape: Dict[str, object] = {}
    #: Jobs at the head of each client's stream whose releases make up
    #: the release digest and ``test_accuracy``; every loop completes them.
    check_jobs_per_client = 0

    def __init__(self, seed: int, workdir, **shape) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        unknown = set(shape) - set(self.shape)
        if unknown:
            raise ValueError(f"unknown shape keys for {self.name}: {sorted(unknown)}")
        self.shape = {**type(self).shape, **shape}
        self._builds = 0
        self._runs = 0
        #: Peak resident memory (MB) through the first set-up and the
        #: check jobs of the first timed loop: a fixed amount of work, so
        #: it does not grow with throughput the way job history does.
        self.check_jobs_peak_rss_mb = 0.0
        self._rss_lock = threading.Lock()

    def build(self) -> Deployment:
        raise NotImplementedError

    def run(self, deployment: Deployment, seconds: float) -> Phase:
        """Drive the closed loop for ``seconds``; releases in job order."""
        self._runs += 1
        requests_before, hits_before = deployment.pool_counters()
        pages_before = deployment.service.page_reads
        per_client: List[List[Release]] = [[] for _ in range(self.clients)]
        start = time.perf_counter()
        self._loop(deployment, start + seconds, per_client)
        elapsed = time.perf_counter() - start
        requests_after, hits_after = deployment.pool_counters()
        return Phase(
            [release for releases in per_client for release in releases],
            start,
            elapsed,
            deployment.service.page_reads - pages_before,
            hits_after - hits_before,
            requests_after - requests_before,
        )

    def _loop(self, deployment: Deployment, deadline: float, per_client) -> None:
        raise NotImplementedError

    def _record(self, per_client: List[List[Release]], k: int, release: Release) -> None:
        """Append client ``k``'s release; once the client's check jobs are
        in on the first loop, note the process's peak resident memory."""
        per_client[k].append(release)
        if self._runs == 1 and len(per_client[k]) == self.check_jobs_per_client:
            with self._rss_lock:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.check_jobs_peak_rss_mb = max(self.check_jobs_peak_rss_mb, peak)

    def _done(self, releases: List[Release], deadline: float) -> bool:
        """A client stops once the deadline has passed and its check jobs
        are in (on a slow box a very short run may overrun for them)."""
        return (
            time.perf_counter() >= deadline
            and len(releases) >= self.check_jobs_per_client
        )

    def check_prefix(self, deployment: Deployment, phase: Phase) -> List[Release]:
        """The first ``check_jobs_per_client`` releases of every client."""
        prefix: List[Release] = []
        for table in deployment.tables:
            own = [r for r in phase.releases if r.spec.principal == table.principal]
            prefix.extend(own[: self.check_jobs_per_client])
        return prefix

    def _new_build_dir(self):
        self._builds += 1
        path = self.workdir / f"{self.name}-{self._builds}"
        path.mkdir(parents=True, exist_ok=False)
        return path


class FusedGrid(Workload):
    name = "fused_grid"
    shape = {"m": 5000, "d": 50, "burst": 32, "batch_size": 50, "passes": 2}
    check_jobs_per_client = 64

    def build(self) -> Deployment:
        shape = self.shape
        table = make_table("grid", "analyst", self.seed, 0, shape["m"], shape["d"])
        service = TrainingService()
        service.register_table(table.name, table.features, table.labels)
        service.open_budget(table.principal, table.name, BUDGET_EPSILON)
        deployment = Deployment(service, [table], cursors=[0])
        warmup = self._spec(table, -1, 0)
        submitted = time.perf_counter()
        record = warmup.submit_to(service)
        service.drain()
        deployment.warmups.append(_wait_in_process(service, record, submitted, warmup))
        return deployment

    def _spec(self, table: Table, burst: int, position: int) -> JobSpec:
        grid = len(REGULARIZATIONS)
        return JobSpec(
            table.principal,
            table.name,
            REGULARIZATIONS[position % grid],
            EPSILONS[(position // grid) % len(EPSILONS)],
            self.shape["batch_size"],
            self.shape["passes"],
            seed=(self.seed * 1_000_003 + (burst + 1) * self.shape["burst"] + position) % 2**63,
        )

    def _loop(self, deployment: Deployment, deadline: float, per_client) -> None:
        service = deployment.service
        table = deployment.tables[0]
        while True:
            burst = deployment.cursors[0]
            deployment.cursors[0] += 1
            submitted = []
            for position in range(self.shape["burst"]):
                spec = self._spec(table, burst, position)
                started = time.perf_counter()
                submitted.append((spec, spec.submit_to(service), started))
            service.drain()
            for spec, record, started in submitted:
                self._record(per_client, 0, _wait_in_process(service, record, started, spec))
            if self._done(per_client[0], deadline):
                return


class SqliteThrash(Workload):
    name = "sqlite_thrash"
    shape = {
        "m": 5000,
        "d": 50,
        "pool_pages": 32,
        "passes": 1,
        "batch_sizes": (10, 25, 50, 100),
    }
    check_jobs_per_client = 8

    def build(self) -> Deployment:
        shape = self.shape
        table = make_table("thrash", "analyst", self.seed, 0, shape["m"], shape["d"])
        service = TrainingService(buffer_pool_pages=shape["pool_pages"])
        service.register_table(
            table.name,
            table.features,
            table.labels,
            backend="sqlite",
            path=self._new_build_dir() / "thrash.db",
        )
        service.open_budget(table.principal, table.name, BUDGET_EPSILON)
        service.start()
        deployment = Deployment(service, [table], cursors=[0])
        warmup = self._spec(table, -1)
        deployment.warmups.append(self._one(service, warmup))
        return deployment

    def _spec(self, table: Table, index: int) -> JobSpec:
        sizes = self.shape["batch_sizes"]
        return JobSpec(
            table.principal,
            table.name,
            REGULARIZATIONS[index % len(REGULARIZATIONS)],
            EPSILONS[index % len(EPSILONS)],
            sizes[index % len(sizes)],
            self.shape["passes"],
            seed=(self.seed * 1_000_003 + index + 1) % 2**63,
        )

    @staticmethod
    def _one(service: TrainingService, spec: JobSpec) -> Release:
        submitted = time.perf_counter()
        record = spec.submit_to(service)
        record.wait(timeout=120.0)
        return _wait_in_process(service, record, submitted, spec)

    def _loop(self, deployment: Deployment, deadline: float, per_client) -> None:
        table = deployment.tables[0]
        cycle = len(self.shape["batch_sizes"])
        while True:
            # Whole cycles of batch sizes, so per-job counts repeat exactly.
            for _ in range(cycle):
                index = deployment.cursors[0]
                deployment.cursors[0] += 1
                self._record(
                    per_client, 0, self._one(deployment.service, self._spec(table, index))
                )
            if self._done(per_client[0], deadline):
                return


class HttpTenants(Workload):
    name = "http_tenants"
    clients = 2
    shape = {"m": 256, "d": 10, "batch_size": 16, "passes": 1, "poll_seconds": 0.001}
    #: The upper half of the grid: on 256-row tables smaller epsilons
    #: drown the model in noise and make the accuracy a coin flip.
    epsilons = EPSILONS[2:]
    check_jobs_per_client = 64

    def build(self) -> Deployment:
        shape = self.shape
        tables = [
            make_table(f"tenant{k}", f"tenant{k}", self.seed, k, shape["m"], shape["d"])
            for k in range(self.clients)
        ]
        service = TrainingService(workers=2, state_dir=self._new_build_dir() / "state")
        for table in tables:
            service.register_table(table.name, table.features, table.labels)
            service.open_budget(table.principal, table.name, BUDGET_EPSILON)
        service.start()
        tokens = {f"token-{table.principal}": table.principal for table in tables}
        server = ServiceApiServer(service, tokens).start()
        deployment = Deployment(
            service,
            tables,
            server=server,
            clients=[
                ServiceClient(server.url, token=f"token-{table.principal}") for table in tables
            ],
            cursors=[0] * len(tables),
            history=[[] for _ in tables],
        )
        for k, table in enumerate(tables):
            warmup = self._new_spec(k, table, -1)
            deployment.warmups.append(self._one(deployment.clients[k], warmup))
        return deployment

    def _new_spec(self, k: int, table: Table, index: int) -> JobSpec:
        rng = np.random.default_rng([self.seed, 7, k, index + 1])
        return JobSpec(
            table.principal,
            table.name,
            REGULARIZATIONS[int(rng.integers(len(REGULARIZATIONS)))],
            self.epsilons[int(rng.integers(len(self.epsilons)))],
            self.shape["batch_size"],
            self.shape["passes"],
            seed=(self.seed * 1_000_003 + index + 1) % 2**63,
        )

    def _next_spec(self, deployment: Deployment, k: int) -> JobSpec:
        """Even positions are new jobs; odd ones repeat an earlier new job
        of the same tenant, picked by a seeded draw."""
        position = deployment.cursors[k]
        deployment.cursors[k] += 1
        history = deployment.history[k]
        if position % 2 == 0:
            spec = self._new_spec(k, deployment.tables[k], position // 2)
            history.append(spec)
            return spec
        rng = np.random.default_rng([self.seed, 11, k, position])
        return history[int(rng.integers(len(history)))]

    def _one(self, client: ServiceClient, spec: JobSpec) -> Release:
        """Submit, poll ``result`` until terminal, then fetch the model."""
        submitted = time.perf_counter()
        try:
            view = spec.submit_to(client)
            cached = view.dispatch == "cached"
            while not view.done:
                time.sleep(self.shape["poll_seconds"])
                view = client.result(view.job_id)
            weights = client.model(view.job_id) if view.status is JobStatus.COMPLETED else None
        except Exception as error:  # a raised client call is counted, not fatal
            return Release(
                spec, "", "raised", None, submitted, time.perf_counter(),
                error=f"{type(error).__name__}: {error}",
            )
        return Release(
            spec, view.job_id, view.status.value, weights, submitted,
            time.perf_counter(), cached=cached, error=view.error or "",
        )

    def _loop(self, deployment: Deployment, deadline: float, per_client) -> None:
        def client_loop(k: int) -> None:
            while True:
                # Whole (new, repeat) pairs, so per-job counts repeat exactly.
                for _ in range(2):
                    spec = self._next_spec(deployment, k)
                    self._record(per_client, k, self._one(deployment.clients[k], spec))
                if self._done(per_client[k], deadline):
                    return

        threads = [
            threading.Thread(target=client_loop, args=(k,), name=f"tenant{k}-client")
            for k in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    workload.name: workload for workload in (FusedGrid, SqliteThrash, HttpTenants)
}


class Reference:
    """Reference releases: each job submitted alone to a fresh in-process
    service with default options, the same tables registered in memory."""

    def __init__(self, tables: List[Table]) -> None:
        self.service = TrainingService()
        for table in tables:
            self.service.register_table(table.name, table.features, table.labels)
            self.service.open_budget(table.principal, table.name, BUDGET_EPSILON)

    def weights(self, spec: JobSpec) -> np.ndarray:
        record = spec.submit_to(self.service)
        self.service.drain()
        if record.status is not JobStatus.COMPLETED:
            raise RuntimeError(f"reference job {spec} ended {record.status.value}: {record.error}")
        return record.model

    def close(self) -> None:
        self.service.stop()


def _reference_share(tables: List[Table], specs: List[JobSpec]) -> List[object]:
    """Each spec's reference weights, or the reason its reference job failed."""
    results: List[object] = []
    reference = Reference(tables)
    try:
        for spec in specs:
            try:
                results.append(reference.weights(spec))
            except RuntimeError as error:
                results.append(str(error))
    finally:
        reference.close()
    return results


#: A reference process: read (tables, specs) from stdin, answer on stdout.
_REFERENCE_CHILD = """\
import pickle, sys
sys.path[:0] = {paths!r}
from workloads import _reference_share
tables, specs = pickle.load(sys.stdin.buffer)
pickle.dump(_reference_share(tables, specs), sys.stdout.buffer)
"""


def reference_weights(tables: List[Table], specs: List[JobSpec]) -> Dict[JobSpec, object]:
    """The reference release of every distinct spec (or why its reference
    job failed), computed by ``REFERENCE_PROCESSES`` child processes that
    each build their own fresh reference service and take an equal share."""
    here = pathlib.Path(__file__).resolve().parent
    code = _REFERENCE_CHILD.format(paths=[str(here.parent / "src"), str(here)])
    distinct = list(dict.fromkeys(specs))
    shares = [
        distinct[k::REFERENCE_PROCESSES]
        for k in range(REFERENCE_PROCESSES)
        if distinct[k::REFERENCE_PROCESSES]
    ]
    references: Dict[JobSpec, object] = {}
    children = []
    try:
        for share in shares:
            child = subprocess.Popen(
                [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
            children.append((share, child))
        # Each child reads its whole input before it starts computing, so
        # feeding them one after the other cannot deadlock.
        for share, child in children:
            pickle.dump((tables, share), child.stdin)
            child.stdin.close()
        for share, child in children:
            try:
                results = pickle.load(child.stdout)
            except (EOFError, pickle.UnpicklingError):
                results = ["the reference process died"] * len(share)
            references.update(zip(share, results))
    finally:
        for _, child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()
    return references
