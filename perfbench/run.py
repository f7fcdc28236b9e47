"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fused_grid --seed 1 --seconds 15 --trace 0

Builds the workload from ``--seed`` ``LOOPS`` times. Each build is
timed (``setup_s`` is their median) and then driven through the training
service's public verbs for ``--seconds / LOOPS`` and closed, so every
loop starts from the same state; rates and latencies are medians over
the loops. Then every release is checked bit for bit against a
reference: the same job submitted alone to a fresh in-process service
with default options. The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of the untraced loops.
``--trace 1`` runs the untraced loops, then ``LOOPS`` traced loops on
fresh builds, and reports the per-layer metrics; the traced spans are
written to ``.perfbench_out/`` as JSON lines.

The program is imported from ``src/`` beside this directory; without it
the command exits with status 2 and prints no result. Any job that is
not COMPLETED, or any release that differs from its reference, makes
the result ``"correct": false`` and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import sys
import time
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh deployments per run, each timed for ``--seconds / LOOPS``;
#: ``setup_s`` is the median of their set-ups.
LOOPS = 10
#: Failure messages printed before the result line.
MAX_REPORTED_FAILURES = 5


def _import_program() -> bool:
    """Put the checkout's ``src/`` first on the path and import from it."""
    # One BLAS thread unless the caller says otherwise: on a 2-core box
    # the service's own worker and client threads already fill the
    # cores, and OpenBLAS's spinning pool made a 32-job burst take
    # anywhere from 224 to 336 ms within one run (293-309 ms pinned).
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {SRC}: {error}", file=sys.stderr)
        return False
    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        print(
            f"perfbench: imported repro from {repro.__file__}, not from {SRC}",
            file=sys.stderr,
        )
        return False
    return True


def check_releases(releases, references):
    """Failure messages for every release that is not COMPLETED or not
    bitwise-equal (atol=0) to its reference (``references`` maps each
    job spec to its reference release, or to why that failed)."""
    failures = []
    for release in releases:
        if release.status != "completed":
            failures.append(
                f"job {release.job_id or release.spec}: {release.status} {release.error}"
            )
            continue
        expected = references.get(release.spec, "none was computed")
        if isinstance(expected, str):
            failures.append(f"job {release.job_id}: no reference ({expected})")
            continue
        got = release.weights
        if (
            got.dtype != expected.dtype
            or got.shape != expected.shape
            or got.tobytes() != expected.tobytes()
        ):
            failures.append(f"job {release.job_id}: release differs from its reference")
    return failures


def drive(workload, seconds: float, tracer=None):
    """``LOOPS`` times: build a fresh deployment, drive it for ``seconds /
    LOOPS`` (under ``tracer`` if given) and close it. Returns the set-up
    seconds and the (deployment, phase) of every loop."""
    setups, loops = [], []
    for _ in range(LOOPS):
        started = time.perf_counter()
        deployment = workload.build()
        setups.append(time.perf_counter() - started)
        try:
            if tracer is None:
                phase = workload.run(deployment, seconds / LOOPS)
            else:
                with tracer:
                    phase = workload.run(deployment, seconds / LOOPS)
        finally:
            deployment.close()
        loops.append((deployment, phase))
    return setups, loops


def measure(name: str, seed: int, seconds: float, trace: bool, shape=None) -> dict:
    """Build, drive and check one workload; returns the result object
    plus ``report`` (human-readable lines), ``digest`` (the release
    digest of the check jobs, empty when the run failed) and, for traced
    runs, ``dominant`` (whether the heaviest layers match the workload)."""
    import metrics as catalogue
    from tracing import Tracer
    from workloads import WORKLOADS, reference_weights

    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workload = WORKLOADS[name](seed, workdir, **(shape or {}))
    report = []
    try:
        setup_seconds, loops = drive(workload, seconds)
        peak_rss_mb = workload.check_jobs_peak_rss_mb
        first, phase = loops[0]
        prefix = workload.check_prefix(first, phase)
        phases = [phase for _, phase in loops]
        traced = []
        if trace:
            tracer = Tracer()
            traced = drive(workload, seconds, tracer)[1]

        checked = [
            release
            for deployment, phase in loops + traced
            for release in deployment.warmups + phase.releases
        ]
        references = reference_weights(first.tables, [r.spec for r in checked])
        failures = check_releases(checked, references)

        report.append(
            f"{name} seed={seed}: {LOOPS} loops of "
            + ", ".join(
                f"{len(catalogue.latencies(p))} jobs in {p.seconds:.3f} s" for p in phases
            )
            + " (jobs = latency samples); set-ups "
            + ", ".join(f"{s:.4f}" for s in setup_seconds)
            + " s"
        )
        digest = ""
        dominant = None
        if not failures:
            digest = catalogue.release_digest(prefix)
            report.append(f"release digest (first {len(prefix)} jobs): {digest}")
            values = catalogue.end_to_end(
                phases, prefix, first, median(setup_seconds), peak_rss_mb
            )
            if trace:
                layer_values = catalogue.per_layer(tracer, traced, phases)
                dominant, detail = catalogue.dominance(name, tracer)
                report.append(
                    f"dominant layer {'matches' if dominant else 'DOES NOT match'}: {detail}"
                )
                for metric, value in values.items():
                    report.append(f"untraced {metric} = {value!r}")
                out = ROOT / ".perfbench_out"
                out.mkdir(exist_ok=True)
                tracer.dump(out / f"trace-{name}-seed{seed}.jsonl")
                values = layer_values
                units = catalogue.PER_LAYER
            else:
                units = catalogue.END_TO_END
            result_metrics = {
                metric: {"value": values[metric], "unit": unit} for metric, unit, _ in units
            }
        else:
            result_metrics = {}
        report.extend(f"FAIL {message}" for message in failures[:MAX_REPORTED_FAILURES])
        return {
            "correct": not failures,
            "attempted": len(checked),
            "failed": len(failures),
            "metrics": result_metrics,
            "report": report,
            "digest": digest,
            "dominant": dominant,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds normally, so its finally blocks stop the
    # service, the server and any reference process it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not _import_program():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result.pop("digest")
    result.pop("dominant")
    for line in result.pop("report"):
        print(line)
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
