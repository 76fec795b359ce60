"""Run every workload, untraced then traced, and print one table.

Usage, from the repository root:

    python3 efxbench/report.py --seed 1

Each run is its own process (peak_rss_mb is per process) and measures for
BENCHMARK.json's run_seconds. The table lists the six end-to-end metrics
with their units, the tail's percentile and sample count, and the output
digest of the untraced and traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("scale", "exhaustive", "sweep")
END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "failed_share", "peak_rss_mb")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    name = f"{workload}-full-seed{seed}-trace{trace}.json"
    return json.loads((BENCH_DIR / "out" / "results" / name).read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    for workload in WORKLOADS:
        plain = run(workload, args.seed, seconds, 0)
        e2e = dict(plain["end_to_end"])
        e2e["failed_share"] = {"value": plain["failed_share"], "unit": "share"}
        print(f"== {workload}  seed={args.seed}  passes={plain['passes']}  "
              f"executions={plain['attempted']}  failed={plain['failed']}")
        for metric in END_TO_END:
            entry = e2e[metric]
            note = ""
            if metric == "op_ms_tail":
                tail = plain["tail"]
                note = f"  (p{tail['percentile']:.2f} of {tail['samples']} samples)"
            print(f"   {metric:<13} {entry['value']:>12.6g} {entry['unit']}{note}")
        print(f"   digest        {plain['digest']}")
        traced = run(workload, args.seed, seconds, 1)
        layer = traced["metrics"]
        same = "same" if traced["digest"] == plain["digest"] else "DIFFERENT"
        print(f"   traced digest {traced['digest']} ({same}), failed={traced['failed']}")
        print(f"   trace.overhead_share {layer['trace.overhead_share']['value']:.4g} "
              f"(traced {layer['trace.ops_per_s_traced']['value']:.4g} 1/s, "
              f"untraced {layer['trace.ops_per_s_untraced']['value']:.4g} 1/s)")
        top = sorted((v["value"], k) for k, v in layer.items() if k.endswith(".self_ms"))[::-1]
        for value, name in top[:6]:
            calls = layer[name.replace(".self_ms", ".calls")]["value"]
            print(f"   {name:<45} {value:>10.2f} ms/pass  {calls:>8.1f} calls/pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
