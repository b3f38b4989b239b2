"""Self-test of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout; takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import spec
import worker

ROOT = run.ROOT


def setUpModule():
    (ROOT / ".perfbench").mkdir(exist_ok=True)


def bench_config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class DigestGate(unittest.TestCase):
    def test_mutated_report_text_fails_its_operation(self):
        workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
        try:
            result = run.launch("battery3", spec.DEFAULT_SEED, "measure", workdir)
            gen = worker.build_inputs("battery3", spec.DEFAULT_SEED, workdir)[0]
        finally:
            shutil.rmtree(workdir)
        expected = run.load_expected()
        self.assertIn(str(spec.DEFAULT_SEED), expected["battery3"])
        errors = run.gate_passes("battery3", spec.DEFAULT_SEED, [result], expected)
        self.assertEqual(run.count_failed(errors), (spec.WORKLOADS["battery3"]["ops"], 0))

        texts, _ = worker.op_battery3(gen)
        reports = result["ops"][0]["reports"]
        self.assertEqual(reports, [[name, spec.sha256(text)] for name, text in texts])
        name, text = texts[0]
        mutated = text.replace("vacuous=", "vacuous=1", 1)
        self.assertNotEqual(mutated, text)
        reports[0] = [name, spec.sha256(mutated)]

        errors = run.gate_passes("battery3", spec.DEFAULT_SEED, [result], expected)
        attempted, failed = run.count_failed(errors)
        self.assertEqual(failed, 1)
        self.assertGreater(failed / attempted, 0.0)
        self.assertIn("digest differs from expected.json", errors[0][0])

    def test_dead_worker_fails_every_operation_of_its_pass(self):
        errors = run.gate_passes("analyze_w8", 1, [{"error": "worker exited 1"}], {})
        self.assertEqual(run.count_failed(errors), (spec.WORKLOADS["analyze_w8"]["ops"],) * 2)


class Metrics(unittest.TestCase):
    def test_config_matches_what_the_benchmark_emits(self):
        config = bench_config()
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in config["end_to_end"]],
            list(spec.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]],
            spec.per_layer_metrics(),
        )
        self.assertEqual([w["name"] for w in config["workloads"]], list(spec.WORKLOADS))

    def test_every_named_metric_is_emitted_with_its_unit(self):
        config = bench_config()
        for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run_bench(
                ROOT, "--workload", "battery3", "--seed", "3", "--seconds", "1", "--trace", trace
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in config[listed]},
            )
            rows = [line.split() for line in proc.stdout.splitlines()[:-1]]
            printed = {row[0]: row[3] for row in rows if len(row) > 3 and row[1] == "="}
            for metric in config[listed]:
                self.assertEqual(printed.get(metric["name"]), metric["unit"], metric["name"])

    def test_tail_leaves_ten_samples_above_it(self):
        self.assertEqual(run.tail([float(v) for v in range(1, 101)]), (90.0, 90.0))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


class Checkout(unittest.TestCase):
    def test_refuses_a_directory_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                ROOT / "perfbench", Path(bare) / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = run_bench(Path(bare), "--workload", "battery3", "--seed", "0",
                             "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
