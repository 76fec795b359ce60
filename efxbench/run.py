"""efxlab benchmark: checked-run throughput for one workload and seed.

Usage, from the repository root:

    python3 efxbench/run.py --workload scale --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each op starts when the previous one
and its checks have finished. The op list is fixed by the workload, the seed
and ``--seconds`` (which sets how many passes over the workload's ops are
made), so two commits given the same arguments do the same work. The last
line of stdout is the JSON result; the lines before it repeat every metric
with its unit. See efxbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

# Pinned before numpy is imported (in main), so no BLAS pool competes for
# the 2 cores; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("scale", "exhaustive", "sweep")
# Fresh interpreters whose set-up is timed; setup_s is their median.
SETUP_PROCESSES = 7
# Seconds one pass over a workload's ops took when the benchmark was defined
# (Python 3.11.7 on a 2-vCPU VM, in its slower and more common speed mode).
# They turn --seconds into a fixed pass count; they are never re-measured, so
# every commit given the same --seconds runs the same number of passes.
PASS_SECONDS = {
    ("scale", "full"): 11.0,
    ("exhaustive", "full"): 3.0,
    ("sweep", "full"): 0.26,
}
TAIL_BEYOND = 10


def ready_clock() -> float:
    """CLOCK_MONOTONIC, which every process on the machine shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_seconds(args) -> float:
    """Process start to first timed op, in a fresh interpreter.

    The child runs this script with --setup-only: it starts Python, imports
    numpy and efxlab, builds the op list and runs the warm-ups, exactly as a
    measured run does, then prints ready_clock(). The time is taken from just
    before the child is spawned to that reading.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--profile", args.profile, "--setup-only"]
    start = ready_clock()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def passes_for(workload: str, profile: str, seconds: int, trace: bool) -> int:
    nominal = PASS_SECONDS.get((workload, profile))
    passes = 2 if nominal is None else max(1, round(seconds / nominal))
    # The traced run makes every op twice, untraced and traced, in half the passes.
    return max(1, passes // 2) if trace else passes


def digest(record: object) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples). With no more than TAIL_BEYOND
    samples it is the maximum, reported as percentile 100.
    """
    ordered = sorted(times_ms)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, count
    rank = count - TAIL_BEYOND  # 1-based; exactly TAIL_BEYOND samples above
    return ordered[rank - 1], 100.0 * rank / count, count


def git_commit() -> str:
    """HEAD of the repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
    }


def load_reference(path: Path) -> dict[str, str]:
    """Per-op digests stored by an earlier run of the same workload and seed."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def store_reference(path: Path, digests: dict[str, str]) -> None:
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
    os.replace(tmp, path)


class Outcomes:
    """Timings, digests and failures of every op execution in a run."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.seen: dict[str, str] = {}
        self.first_pass: list[tuple[str, str]] = []
        self.times_ms: dict[bool, list[float]] = {False: [], True: []}
        self.seconds = {False: 0.0, True: 0.0}
        self.ok_count = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fresh_queries = 0
        self.query_calls = 0
        self.queries_per_agent_max = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def add(self, p: int, label: str, traced: bool, elapsed: float,
            record: dict, problems: list[str]) -> bool:
        """Count one execution; a digest differing from an earlier one for the
        same label, in this run or a stored earlier run, fails it."""
        d = digest(record)
        expected = self.seen.setdefault(label, self.reference.get(label, d))
        if d != expected:
            problems = problems + ["digest differs from an earlier execution of this op"]
        if p == 0 and not traced:
            self.first_pass.append((label, d))
        self.attempted += 1
        self.times_ms[traced].append(elapsed * 1000.0)
        self.seconds[traced] += elapsed
        ok = not problems
        self.ok_count[traced] += ok
        if not ok:
            self.fail(f"pass {p} {'traced ' if traced else ''}{label}: {'; '.join(problems)}")
        return ok


def run_op(op, tracer, traced: bool, op_id: int):
    """Time one op; return (output, error, seconds). Checks run after the timer."""
    error = None
    if tracer:
        tracer.on = traced
    start = time.perf_counter()
    try:
        output = tracer.run_op(op_id, op.call) if traced else op.call()
    except Exception as exc:  # a failing op is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.on = False
    return output, error, elapsed


def check_op(op, output, error) -> tuple[dict, list[str]]:
    record: dict = {"label": op.label, "error": error}
    if error:
        return record, [error]
    try:
        canon, problems = op.check(output)
    except Exception as exc:  # a check that cannot read the output fails the op
        return record, [f"check raised {type(exc).__name__}: {exc}"]
    record.update(canon)
    return record, problems


def run_passes(workload, tracer, outcomes: Outcomes, before_pass: Callable[[int], None]) -> None:
    """Run every pass, calling before_pass(p) ahead of pass p's timers. With a
    tracer each op runs untraced and traced, in an order that alternates
    between passes."""
    op_id = 0
    for p, ops in enumerate(workload.passes):
        before_pass(p)
        modes = [False] if tracer is None else ([False, True] if p % 2 == 0 else [True, False])
        gc.collect()
        outputs = {}
        pass_ok = True
        for op in ops:
            for traced in modes:
                spans_before = len(tracer.spans) if tracer else 0
                output, error, elapsed = run_op(op, tracer, traced, op_id)
                op_id += 1
                record, problems = check_op(op, output, error)
                pass_ok &= outcomes.add(p, op.label, traced, elapsed, record, problems)
                outputs[op.label] = output
                if traced:
                    outcomes.query_calls += sum(
                        1 for span in tracer.spans[spans_before:]
                        if span[0] == "elicitation.QueryOracle.query")
                    for oracle in tracer.take_oracles():
                        counts = list(oracle.snapshot_counts().values())
                        outcomes.fresh_queries += sum(counts)
                        outcomes.queries_per_agent_max = max(
                            outcomes.queries_per_agent_max, max(counts, default=0))
        if pass_ok:
            try:
                found = workload.cross_check(outputs)
            except Exception as exc:  # a cross-check that cannot run fails too
                found = [f"raised {type(exc).__name__}: {exc}"]
            if found:  # one failure per pass, so failed never exceeds attempted
                outcomes.fail(f"pass {p} cross-check: {'; '.join(found)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="tiny: same code path at toy sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "efxlab" / "__init__.py").is_file():
        print(f"error: no efxlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import efxlab

    if Path(efxlab.__file__).resolve().parent != SRC / "efxlab":
        print(f"error: imported efxlab from {efxlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    trace = bool(args.trace)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()

    OUT.mkdir(exist_ok=True)
    passes = passes_for(args.workload, args.profile, args.seconds, trace)
    work = OUT / ("work-setup" if args.setup_only else "work")
    workload = workloads.BUILDERS[args.workload](args.seed, args.profile, work, passes)
    for warm in workload.warmups:
        warm()
    if args.setup_only:
        print(ready_clock())
        return 0
    # The host's core speed drifts over seconds, so the set-up samples are
    # spread over the run rather than taken back to back: child i runs
    # before pass i * passes // SETUP_PROCESSES.
    setup_at = [i * passes // SETUP_PROCESSES for i in range(SETUP_PROCESSES)]
    setup_samples: list[float] = []

    def before_pass(p: int) -> None:
        for _ in range(setup_at.count(p)):
            setup_samples.append(setup_seconds(args))

    ref_path = OUT / "digests" / f"{args.workload}-{args.profile}-seed{args.seed}.json"
    outcomes = Outcomes(load_reference(ref_path))
    run_passes(workload, tracer, outcomes, before_pass)
    if outcomes.failed == 0:
        store_reference(ref_path, {**outcomes.reference, **outcomes.seen})
    run_digest = digest(outcomes.first_pass)

    times = outcomes.times_ms[False]
    tail_ms, tail_pct, samples = tail(times)
    untraced_ops_per_s = outcomes.ok_count[False] / outcomes.seconds[False]
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (untraced_ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(times), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed_share = outcomes.failed / outcomes.attempted

    env = environment(args, numpy.__version__)
    env["sizes"] = workload.sizes
    summary = {
        "env": env,
        "passes": passes,
        "ops_per_pass": len(workload.passes[0]),
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failed_share": failed_share,
        "digest": run_digest,
        "tail": {"percentile": tail_pct, "samples": samples, "beyond": TAIL_BEYOND},
        "setup_samples_s": setup_samples,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()},
        "problems": outcomes.problems[:50],
    }
    if trace:
        layer = tracing.layer_metrics(tracer.spans, passes)
        traced_ops_per_s = outcomes.ok_count[True] / outcomes.seconds[True]
        layer["elicitation.queries_per_agent_max"] = outcomes.queries_per_agent_max
        layer["elicitation.fresh_query_ratio"] = (
            outcomes.fresh_queries / outcomes.query_calls if outcomes.query_calls else 0.0)
        layer["trace.ops_per_s_traced"] = traced_ops_per_s
        layer["trace.ops_per_s_untraced"] = untraced_ops_per_s
        layer["trace.overhead_share"] = untraced_ops_per_s / traced_ops_per_s - 1.0
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]} for name, value in layer.items()}
        spans_path = OUT / f"spans-{args.workload}-{args.profile}.jsonl"
        tracer.write(str(spans_path))
        summary["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = summary["end_to_end"]
    summary["metrics"] = metrics

    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.profile}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(summary, indent=1, default=str))

    print("env " + json.dumps(env, default=str))
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"executions={outcomes.attempted} digest={run_digest}")
    for problem in outcomes.problems[:20]:
        print("FAILED " + problem)
    if not trace:
        for metric, (value, unit) in end_to_end.items():
            note = ""
            if metric == "op_ms_tail":
                note = f"  (p{tail_pct:.2f} of {samples} samples)"
            print(f"{metric} {value:.6g} {unit}{note}")
    print(f"failed_share {failed_share:.6g} share  ({outcomes.failed} of {outcomes.attempted})")
    if trace:
        for metric, entry in metrics.items():
            print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": outcomes.failed == 0, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
