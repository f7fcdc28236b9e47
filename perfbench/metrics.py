"""The benchmark's metric catalogue and how each metric is computed.

``END_TO_END`` and ``PER_LAYER`` list every metric with its unit and
better-direction; ``BENCHMARK.json`` declares the same lists and the
self-test keeps the two in step. End-to-end metrics come from untraced
runs only; per-layer metrics from a traced run (see ``tracing.py``).
A run drives several loops, each on a freshly built deployment; the
rates and latencies are medians over those loops, the counts are summed
over them.
"""

from __future__ import annotations

import hashlib
import math
from statistics import median
from typing import Dict, List, Sequence, Tuple

import numpy as np

from tracing import CLIENT_SPANS, LAYERS, Tracer
from workloads import COMPLETED, Deployment, Phase, Release

#: (name, unit, better) of every end-to-end metric.
END_TO_END: List[Tuple[str, str, str]] = [
    ("jobs_per_s", "1/s", "higher"),
    ("job_latency_p50_s", "s", "lower"),
    ("job_latency_p90_s", "s", "lower"),
    ("pages_per_job", "pages/job", "lower"),
    ("test_accuracy", "share", "higher"),
    ("completed_share", "share", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Per-call timings: the span each reads, and whether the per-call value
#: is the span's self time (nested layers) or its whole duration. Each
#: span name yields ``<name>_s`` (median per call) and ``<name>_calls``
#: (the call count it is the median of).
TIMINGS: List[Tuple[str, bool]] = [
    ("api.submit", False),
    ("api.result", False),
    ("api.model", False),
    ("api.handle", True),
    ("service.submit", True),
    ("service.ledger.reserve", False),
    ("service.ledger.commit", False),
    ("service.wal.sync", False),
    ("service.wal.snapshot", False),
    ("rdbms.bismarck.scan", False),
    ("rdbms.executor.chunk", True),
    ("rdbms.storage.get_page", True),
    ("rdbms.storage.read_page", False),
    ("rdbms.uda.transition", True),
    ("optim.losses.batch_gradient", False),
    ("core.mechanisms.sample", False),
    ("core.sensitivity.bound", False),
]

#: Lifecycle phases read from the service's own job traces.
JOB_SPANS = [
    ("service.queue_wait", "queued"),
    ("service.claim", "claim"),
    ("service.epilogue", "epilogue"),
    ("service.commit", "commit"),
]

RATIOS: List[Tuple[str, str, str]] = [
    ("api.polls_per_job", "count", "lower"),
    ("api.calls_failed_share", "share", "lower"),
    ("service.jobs_per_scan", "count", "higher"),
    ("service.cache_hit_share", "share", "higher"),
    ("service.wal.syncs_per_job", "count", "lower"),
    ("rdbms.storage.pool_hit_share", "share", "higher"),
    ("rdbms.storage.reads_per_job", "count", "lower"),
    ("optim.losses.calls_per_job", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
]


def _per_layer_catalogue() -> List[Tuple[str, str, str]]:
    stems = [span for span, _ in TIMINGS] + [stem for stem, _ in JOB_SPANS]
    catalogue = []
    for stem in sorted(stems):
        catalogue.append((f"{stem}_s", "s", "lower"))
        catalogue.append((f"{stem}_calls", "count", "higher"))
    catalogue.extend(RATIOS)
    catalogue.extend((f"layer.{layer}.self_share", "share", "lower") for layer in LAYERS)
    return catalogue


#: (name, unit, better) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str]] = _per_layer_catalogue()


def completed(releases: List[Release]) -> List[Release]:
    return [release for release in releases if release.status == COMPLETED]


def nearest_rank(sorted_values: List[float], quantile: float) -> float:
    """The nearest-rank quantile: at p90 of n >= 100 values, at least 10
    values lie beyond it."""
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[rank - 1]


def release_digest(releases: List[Release]) -> str:
    """sha256 over the released weights' bytes, in job order."""
    digest = hashlib.sha256()
    for release in releases:
        digest.update(np.ascontiguousarray(release.weights, dtype=np.float64).tobytes())
    return digest.hexdigest()


def held_out_accuracy(deployment: Deployment, releases: List[Release]) -> float:
    """Mean held-out accuracy of the given releases."""
    tables = {table.name: table for table in deployment.tables}
    scores = []
    for release in releases:
        table = tables[release.spec.table]
        predicted = np.where(table.test_features @ release.weights >= 0.0, 1.0, -1.0)
        scores.append(float(np.mean(predicted == table.test_labels)))
    return float(np.mean(scores))


def jobs_per_second(phase: Phase) -> float:
    return len(completed(phase.releases)) / phase.seconds


def latencies(phase: Phase) -> List[float]:
    """The sorted submit-to-release times of the phase's completed jobs."""
    return sorted(release.latency for release in completed(phase.releases))


def end_to_end(
    phases: Sequence[Phase], prefix: List[Release], deployment: Deployment,
    setup_seconds: float, peak_rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics of untraced loops on fresh deployments."""
    done = sum(len(completed(phase.releases)) for phase in phases)
    return {
        "jobs_per_s": median(jobs_per_second(phase) for phase in phases),
        "job_latency_p50_s": median(median(latencies(phase)) for phase in phases),
        "job_latency_p90_s": median(nearest_rank(latencies(phase), 0.9) for phase in phases),
        "pages_per_job": sum(phase.pages for phase in phases) / done,
        "test_accuracy": held_out_accuracy(deployment, prefix),
        "completed_share": done / sum(len(phase.releases) for phase in phases),
        "setup_s": setup_seconds,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    tracer: Tracer, traced: Sequence[Tuple[Deployment, Phase]], untraced: Sequence[Phase],
) -> Dict[str, float]:
    """Every per-layer metric of the traced loops, each on its own fresh
    deployment. A layer the workload never enters reports 0 calls and
    0 seconds."""
    metrics: Dict[str, float] = {}
    for span, self_time in TIMINGS:
        series = tracer.series.get(span)
        values = [] if series is None else (series.self_times if self_time else series.durations)
        metrics[f"{span}_s"] = median(values) if len(values) else 0.0
        metrics[f"{span}_calls"] = len(values)

    phases = [phase for _, phase in traced]
    releases = [release for phase in phases for release in phase.releases]
    jobs = len(completed(releases))
    for stem, span_name in JOB_SPANS:
        durations = []
        for deployment, phase in traced:
            for release in completed(phase.releases):
                if release.cached:
                    continue
                span = deployment.service.trace(release.job_id).span(span_name)
                if span is not None:
                    durations.append(span.duration)
        metrics[f"{stem}_s"] = median(durations) if durations else 0.0
        metrics[f"{stem}_calls"] = len(durations)

    trained = sum(1 for release in completed(releases) if not release.cached)
    client_calls = sum(tracer.calls(name) for name in CLIENT_SPANS)
    raised = sum(1 for release in releases if release.status == "raised")
    scans = tracer.calls("rdbms.bismarck.scan")
    pool_requests = sum(phase.pool_requests for phase in phases)
    metrics["api.polls_per_job"] = tracer.calls("api.result") / jobs
    metrics["api.calls_failed_share"] = raised / client_calls if client_calls else 0.0
    metrics["service.jobs_per_scan"] = trained / scans if scans else 0.0
    metrics["service.cache_hit_share"] = (jobs - trained) / len(releases)
    metrics["service.wal.syncs_per_job"] = tracer.calls("service.wal.sync") / jobs
    metrics["rdbms.storage.pool_hit_share"] = (
        sum(phase.pool_hits for phase in phases) / pool_requests if pool_requests else 0.0
    )
    metrics["rdbms.storage.reads_per_job"] = tracer.calls("rdbms.storage.read_page") / jobs
    metrics["optim.losses.calls_per_job"] = tracer.calls("optim.losses.batch_gradient") / jobs
    metrics["trace.overhead_share"] = 1.0 - (
        median(jobs_per_second(phase) for phase in phases)
        / median(jobs_per_second(phase) for phase in untraced)
    )
    covered = sum(
        tracer.covered_seconds(phase.started, phase.started + phase.seconds) for phase in phases
    )
    metrics["trace.unattributed_share"] = 1.0 - covered / sum(phase.seconds for phase in phases)

    self_seconds = tracer.layer_self_seconds()
    total = sum(self_seconds.values())
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = self_seconds[layer] / total if total else 0.0
    return metrics


#: Server-side spans that serve requests rather than train: request
#: handling, admission, the budget ledger and the WAL.
SERVING_SPANS = (
    "api.handle",
    "service.submit",
    "service.ledger.reserve",
    "service.ledger.commit",
    "service.wal.sync",
    "service.wal.reset",
    "service.wal.snapshot",
)


def dominance(workload: str, tracer: Tracer) -> Tuple[bool, str]:
    """Whether the traced run's heaviest layers match the workload's purpose."""
    self_seconds = tracer.layer_self_seconds()
    if workload == "http_tenants":
        # Shares of the server's busy time (its handler and worker
        # threads), not of the client's wall time, which mostly waits.
        busy = sum(self_seconds.values())
        serving = sum(tracer.seconds(name, self_time=True) for name in SERVING_SPANS)
        scans = tracer.seconds("rdbms.bismarck.scan")
        return serving >= busy / 3.0, (
            f"request handling + admission + ledger + WAL self {serving / busy:.2f} "
            f"vs scans {scans / busy:.2f} of server busy time {busy:.3f}s"
        )
    focus = {
        "fused_grid": ("optim.losses", "rdbms.uda"),
        "sqlite_thrash": ("rdbms.storage", "rdbms.executor"),
    }[workload]
    combined = sum(self_seconds[layer] for layer in focus)
    others = {layer: s for layer, s in self_seconds.items() if layer not in focus}
    heaviest = max(others, key=others.get)
    return combined > others[heaviest], (
        f"{'+'.join(focus)} self {combined:.3f}s vs heaviest other "
        f"{heaviest} {others[heaviest]:.3f}s"
    )
