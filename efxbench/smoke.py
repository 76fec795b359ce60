"""Smoke test of the benchmark: every workload at toy sizes, through run.py.

Run from the repository root:

    python3 -m unittest efxbench/smoke.py      (or: python3 efxbench/smoke.py)

It checks that each run is correct, prints every metric BENCHMARK.json
names with that metric's unit, that traced spans nest, that every traced
function is called on some workload, that the traced and
untraced runs give the same output digest, and that the benchmark refuses
to run without the efxlab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "efxbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--profile", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result: dict, expected: list[dict]) -> None:
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(entry["value"], (int, float), metric["name"])

    def check_spans(self, workload: str) -> None:
        lines = (OUT / f"spans-{workload}-tiny.jsonl").read_text().splitlines()
        spans = [tuple(json.loads(line)) for line in lines]
        self.assertTrue(spans)
        for name, start, end, parent, op in spans:
            self.assertLessEqual(start, end)
            if parent < 0:
                self.assertEqual(name, tracing.OP_SPAN)
                continue
            _, p_start, p_end, _, p_op = spans[parent]
            self.assertEqual(op, p_op, name)
            self.assertTrue(p_start <= start and end <= p_end, f"{name} outside its parent")
        self.assertTrue(all(own >= 0 for own in tracing.self_times(spans)))
        per_layer = tracing.layer_metrics(spans, 1)
        self.assertTrue(all(v >= 0 for k, v in per_layer.items() if k.endswith(".self_ms")))

    def test_workloads(self) -> None:
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, ["scale", "exhaustive", "sweep"])
        calls_seen: set[str] = set()
        for workload in names:
            digests = []
            for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, expected)
                    self.assertTrue(any(line.startswith("failed_share ") and " share" in line
                                        for line in lines))
                    saved = json.loads((OUT / "results" / (
                        f"{workload}-tiny-seed{SEED}-trace{trace}.json")).read_text())
                    for key in ("python", "numpy", "nproc", "commit", "seed", "sizes"):
                        self.assertIn(key, saved["env"])
                    digests.append(saved["digest"])
                    if trace:
                        self.check_spans(workload)
                        calls_seen |= {k for k, v in result["metrics"].items()
                                       if k.endswith(".calls") and v["value"] > 0}
            self.assertEqual(digests[0], digests[1], f"{workload}: traced digest differs")
        # Every traced function is reached by at least one workload.
        listed = {m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls")}
        self.assertEqual(listed - calls_seen, set())

    def test_refuses_without_sources(self) -> None:
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "efxbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = run_bench("sweep", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
