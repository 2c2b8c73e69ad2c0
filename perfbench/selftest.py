"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

They check that an oracle trips on a perturbed history, that every name
the command emits is well formed and listed in ``BENCHMARK.json``, that
two traced runs at one seed give identical counts, and that each workload
runs.  The file is not named ``test_*.py``, so the repository's own test
suite does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
import unittest
from argparse import Namespace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402


class TinySeedSweep(workloads.SeedSweep):
    replicas = 3
    steps = 3
    mix_repeats = 1


class TinyMixedGrid(workloads.MixedGrid):
    steps = 2
    cnn_steps = 1
    mix_repeats = 1


class TinyStoreResume(workloads.StoreResume):
    rates = 1
    seeds = 1
    steps = 3
    pool = 2


class TinyCluster(workloads.Cluster):
    steps = 3
    mix_repeats = 1


TINY = {cls.name: cls for cls in (TinySeedSweep, TinyMixedGrid,
                                  TinyStoreResume, TinyCluster)}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@contextlib.contextmanager
def workdir():
    path = Path(tempfile.mkdtemp(prefix=".perfbench-test-", dir=run.ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_tiny(workload: str, trace: int, seed: int = 3):
    """One command run at tiny size: (exit code, last-line JSON)."""
    saved = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update(TINY)
    out = io.StringIO()
    try:
        with workdir() as path, contextlib.redirect_stdout(out):
            code = run.run(Namespace(workload=workload, seed=seed,
                                     seconds=0.0, trace=trace), path)
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(saved)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def perturb(history) -> None:
    record = history.records[-1]
    record.train_loss = (record.train_loss or 0.0) + 1e-9


class OracleTests(unittest.TestCase):
    def check_trips(self, cls) -> None:
        with workdir() as path:
            workload = cls(5, path)
            workload.prepare()
            workload.rep()
            self.assertEqual(workload.oracle(), [])
            result = workload.last_result
            for outcome in getattr(result, "outcomes", [result]):
                perturb(outcome.history)
            self.assertNotEqual(workload.oracle(), [])

    def test_seed_sweep_oracle_trips(self):
        self.check_trips(TinySeedSweep)

    def test_mixed_grid_oracle_trips(self):
        self.check_trips(TinyMixedGrid)

    def test_store_resume_oracle_trips(self):
        self.check_trips(TinyStoreResume)

    def test_cluster_oracle_trips(self):
        self.check_trips(TinyCluster)


class InputTests(unittest.TestCase):
    def test_store_resume_grid_is_full_at_every_seed(self):
        # At seeds 86, 88, 124 and 189 a plain draw of five rates gives
        # two that are equal after rounding; the grid must stay full.
        for seed in (0, 1, 86, 88, 124, 189):
            with self.subTest(seed=seed):
                workload = workloads.StoreResume(seed, Path("unused"))
                self.assertEqual(len(workload.campaign.expand()), 1000)


class CommandTests(unittest.TestCase):
    def test_every_workload_runs_and_names_match(self):
        declared = {kind: {metric["name"]: metric["unit"]
                           for metric in BENCHMARK[kind]}
                    for kind in ("end_to_end", "per_layer")}
        self.assertEqual(sorted(TINY), sorted(
            workload["name"] for workload in BENCHMARK["workloads"]))
        for workload in TINY:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_tiny(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     set(declared[kind]))
                    for name, metric in result["metrics"].items():
                        self.assertTrue(NAME.fullmatch(name), name)
                        self.assertEqual(metric["unit"],
                                         declared[kind][name])

    def test_traced_counts_repeat(self):
        counts = [name for name, unit in
                  ((metric["name"], metric["unit"])
                   for metric in BENCHMARK["per_layer"])
                  if unit in ("count", "frames/step")]
        for workload in TINY:
            with self.subTest(workload=workload):
                first = run_tiny(workload, 1)[1]["metrics"]
                second = run_tiny(workload, 1)[1]["metrics"]
                self.assertEqual(
                    {name: first[name]["value"] for name in counts},
                    {name: second[name]["value"] for name in counts})


if __name__ == "__main__":
    unittest.main(verbosity=2)
