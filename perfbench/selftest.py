"""Self-test of the benchmark itself, at reduced shapes.

    python3 perfbench/selftest.py

Checks that every workload runs and passes its output check, that the
check fails on a deliberately perturbed release and on a job that did
not complete, that a rerun with the same seed reproduces the release
digest and ``test_accuracy``, that a second seed reproduces the counts
that depend only on the shape, that each workload's heaviest layers
match its purpose and a scan-heavy ``http_tenants`` fails that check,
that the traced run puts every patched function back, and that
``BENCHMARK.json`` and ``spec.json`` agree with the code's metric
catalogue and workload shapes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import unittest

import run

if not run._import_program():
    sys.exit(2)

import numpy as np  # noqa: E402

import metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, reference_weights  # noqa: E402

SMALL = {
    "fused_grid": {"m": 600, "d": 20, "burst": 8},
    "sqlite_thrash": {"m": 600, "d": 20, "pool_pages": 4},
    "http_tenants": {"m": 64, "d": 5},
}
SECONDS = 1.0
#: ``http_tenants`` reshaped so that scans, not serving, dominate.
SCAN_HEAVY_HTTP = {"m": 2000, "d": 20}

#: Per-layer counts that depend on the shape, not the seed.
SHAPE_COUNTS = (
    "service.jobs_per_scan",
    "optim.losses.calls_per_job",
    "service.cache_hit_share",
    "rdbms.storage.pool_hit_share",
    "rdbms.storage.reads_per_job",
)


def _measure(name: str, seed: int, trace: bool, shape=None) -> dict:
    return run.measure(name, seed, SECONDS, trace, shape=shape or SMALL[name])


class OutputCheckTest(unittest.TestCase):
    """The bitwise gate passes clean runs and catches perturbed ones."""

    def setUp(self) -> None:
        self.workdir = run.ROOT / ".perfbench_work" / "selftest"
        shutil.rmtree(self.workdir, ignore_errors=True)

    def tearDown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_gate_fails_on_a_perturbed_release(self) -> None:
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = WORKLOADS[name](3, self.workdir / name, **SMALL[name])
                deployment = workload.build()
                try:
                    phase = workload.run(deployment, SECONDS)
                finally:
                    deployment.close()
                references = reference_weights(
                    deployment.tables, [release.spec for release in phase.releases]
                )
                self.assertEqual(run.check_releases(phase.releases, references), [])
                victim = phase.releases[len(phase.releases) // 2]
                clean = victim.weights
                victim.weights = clean.copy()
                victim.weights[0] = np.nextafter(clean[0], np.inf)
                failures = run.check_releases(phase.releases, references)
                self.assertEqual(len(failures), 1)
                self.assertIn("differs from its reference", failures[0])
                victim.weights = clean
                victim.status = "failed"
                self.assertEqual(len(run.check_releases(phase.releases, references)), 1)


class RunTest(unittest.TestCase):
    """Whole runs through ``run.measure``, as the command makes them."""

    def test_runs_are_correct_and_repeat(self) -> None:
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = _measure(name, 1, trace=False)
                self.assertTrue(first["correct"], first["report"])
                self.assertEqual(
                    sorted(first["metrics"]), sorted(m for m, _, _ in metrics.END_TO_END)
                )
                again = _measure(name, 1, trace=False)
                self.assertEqual(again["digest"], first["digest"])
                for metric in ("pages_per_job", "test_accuracy", "completed_share"):
                    self.assertEqual(
                        again["metrics"][metric]["value"], first["metrics"][metric]["value"]
                    )
                other_seed = _measure(name, 2, trace=False)
                self.assertTrue(other_seed["correct"], other_seed["report"])
                self.assertEqual(
                    other_seed["metrics"]["pages_per_job"]["value"],
                    first["metrics"]["pages_per_job"]["value"],
                )

    def test_traced_counts_depend_on_shape_not_seed(self) -> None:
        for name in WORKLOADS:
            with self.subTest(workload=name):
                one = _measure(name, 1, trace=True)
                two = _measure(name, 2, trace=True)
                self.assertTrue(one["correct"] and two["correct"])
                self.assertTrue(one["dominant"], one["report"])
                self.assertEqual(
                    sorted(one["metrics"]), sorted(m for m, _, _ in metrics.PER_LAYER)
                )
                for metric in SHAPE_COUNTS:
                    self.assertEqual(
                        one["metrics"][metric]["value"], two["metrics"][metric]["value"], metric
                    )

    def test_dominance_check_fails_when_scans_dominate_http(self) -> None:
        result = _measure("http_tenants", 1, trace=True, shape=SCAN_HEAVY_HTTP)
        self.assertTrue(result["correct"], result["report"])
        self.assertIs(result["dominant"], False, result["report"])

    def test_tracer_restores_every_patch(self) -> None:
        from repro.optim.losses import LogisticLoss
        from repro.rdbms.storage import BufferPool
        from repro.service import scheduler

        before = (
            BufferPool.get_page,
            scheduler.mechanism_for,
            scheduler.sensitivity_for_schedule,
        )
        with Tracer():
            self.assertIn("batch_gradient", vars(LogisticLoss))
            self.assertIsNot(BufferPool.get_page, before[0])
        self.assertNotIn("batch_gradient", vars(LogisticLoss))
        self.assertEqual(
            (BufferPool.get_page, scheduler.mechanism_for, scheduler.sensitivity_for_schedule),
            before,
        )


class CatalogueTest(unittest.TestCase):
    """BENCHMARK.json and spec.json say what the code does."""

    def test_benchmark_json_matches_the_catalogue(self) -> None:
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]],
            metrics.END_TO_END,
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
            metrics.PER_LAYER,
        )
        self.assertEqual([w["name"] for w in declared["workloads"]], list(WORKLOADS))

    def test_spec_json_matches_the_code(self) -> None:
        spec = json.loads((pathlib.Path(__file__).parent / "spec.json").read_text())
        per_layer = {name for name, _, _ in metrics.PER_LAYER}
        for name, workload in WORKLOADS.items():
            entry = spec["workloads"][name]
            shape = {k: list(v) if isinstance(v, tuple) else v for k, v in workload.shape.items()}
            self.assertEqual(entry["shape"], shape)
            self.assertEqual(entry["clients"], workload.clients)
        self.assertEqual(set(spec["end_to_end"]), {name for name, _, _ in metrics.END_TO_END})
        mapped = {m for effect in spec["per_layer_effects"] for m in effect["metrics"]}
        self.assertLessEqual(mapped, per_layer)
        self.assertEqual(mapped, {m for m in per_layer if not m.endswith("_calls")})


if __name__ == "__main__":
    unittest.main()
