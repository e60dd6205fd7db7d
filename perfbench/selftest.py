"""Self-test of the benchmark on tiny corpora of all three workloads.

    python3 perfbench/selftest.py

Checks that every named metric is printed, that the answer checks reject
wrong outputs, that tracing leaves outputs_sha256 unchanged, and that the
command fails cleanly where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SUMMARY = ("wall_s", "item_p50_ms", "item_tail_ms", "fail_ratio", "setup_s", "peak_rss_mb")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-B", str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def worker_sha(workload: str, *extra: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
         "--size", "tiny", "--rounds", "2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["outputs_sha256"]


class BenchmarkSelfTest(unittest.TestCase):
    def test_untraced_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCH["end_to_end"]})
                for name in SUMMARY:
                    self.assertTrue(any(line.startswith(f"{workload} {name} ") for line in lines),
                                    name)
                self.assertIn(f"{workload} outputs_sha256 ", proc.stdout)

    def test_traced_prints_every_per_layer_metric_and_counts_repeat(self):
        counts = {m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    proc = bench(workload, 1)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in BENCH["per_layer"]})
                    runs.append({name: metrics[name]["value"] for name in counts})
                self.assertEqual(runs[0], runs[1])

    def test_tracing_keeps_outputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(worker_sha(workload), worker_sha(workload, "--trace"))

    def test_checks_reject_wrong_answers(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import workloads
        from obidet import ON, QQ, GO, Tableau, on_straighten, standard_points, random_go_point
        from obidet.gl_straighten import BidetTerm, Combination

        s, t = Tableau.parse("1b 1; 2"), Tableau.parse("1 2b; 2")
        for mode in (ON, GO):
            out = on_straighten(s, t, mode, 4, QQ)
            points = (standard_points(4, 2, seed=1) if mode == ON
                      else [random_go_point(4, 9, 3)])
            workloads.check_expansion(s, t, mode, out, points)
            empty = Tableau(())   # the constant 1: ON fails at every point, GO on grading
            off = Combination(list(out) + [BidetTerm(1, 0, empty, empty)])
            with self.assertRaises(workloads.WrongAnswer):
                workloads.check_expansion(s, t, mode, off, points)
        with self.assertRaises(workloads.WrongAnswer):
            workloads.check_expansion(s, t, GO, on_straighten(s, t, GO, 4, QQ),
                                      standard_points(4, 1, seed=1))
        report = "independence rank=10 expected=10\nindependence rank=10 expected=10\nPASS"
        workloads.check_suite(report, 10)
        for wrong in (report.replace("PASS", "FAIL"), report.replace("rank=10 e", "rank=9 e", 1)):
            with self.assertRaises(workloads.WrongAnswer):
                workloads.check_suite(wrong, 10)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench")
            proc = bench(WORKLOADS[0], 0, cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip())


if __name__ == "__main__":
    unittest.main()
