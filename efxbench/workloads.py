"""The benchmark's workloads: fixed op lists built from a seed, and their checks.

An op is one timed call into efxlab's public API. Its ``check`` runs after
the timer stops and returns the canonical record that goes into the output
digest plus a list of problems; any problem fails the op. Calls look the
function up on its module at call time (``harness.execute``, not a local
alias), so the traced run's wrappers are the ones that run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from efxlab import cli, core, fullinfo, harness, query_enhanced

# The algorithms that do not need bivalued metadata.
GENERAL_ALGORITHMS = ("round_robin", "rrla", "virtual_efx", "prr")
ADVERSARY_ALGORITHMS = {
    "ordinal": GENERAL_ALGORITHMS,
    "query": ("round_robin", "rrla", "prr"),
}

# Sizes per profile. "full" is what the benchmark measures; "tiny" runs the
# same code path in seconds for the smoke test.
SCALE_SIZES = {"full": ((10, 1000), (20, 2000)), "tiny": ((3, 24), (4, 40))}
EXHAUSTIVE_SIZES = {"full": ((2, 14), (3, 9), (4, 8)), "tiny": ((2, 6), (3, 6))}
EXHAUSTIVE_COPIES = {"full": 2, "tiny": 1}
SWEEP_N = {"full": (3, 8), "tiny": (3, 4)}
SWEEP_M = {"full": (12, 120), "tiny": (12, 24)}
# Instance files per GEN_KIND that sweep's ``efxlab run`` ops load.
RUN_FILES_PER_KIND = 2
# Warm-up ops run on instances of this size, one per op kind.
WARM_SIZE = (3, 6)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[dict, list[str]]]


@dataclass
class Workload:
    # The op list of each pass. exhaustive repeats one list; scale and sweep
    # draw new instances and jobs for every pass.
    passes: list[list[Op]]
    warmups: list[Callable[[], object]]
    sizes: dict
    # Checks that compare ops of one pass: label -> output, returns problems.
    cross_check: Callable[[dict], list[str]] = lambda outputs: []


def _bundles(allocation) -> list[list[int]]:
    return [sorted(b) for b in allocation.bundles]


def _check_record(instance):
    """Check a harness.execute RunRecord by re-scoring its allocation.

    A report depends only on the instance and the allocation, so repeated
    executions that return an equal allocation reuse it.
    """
    reports: dict = {}

    def check(record) -> tuple[dict, list[str]]:
        problems = []
        report = reports.get(record.allocation)
        if report is None:
            report = reports[record.allocation] = core.fairness_report(instance, record.allocation)
        if not record.allocation.complete:
            problems.append("allocation not complete")
        if (report.alpha_efx, report.alpha_ef1) != (record.alpha_efx, record.alpha_ef1):
            problems.append("re-scored factors differ from the run record")
        metric = report.alpha_efx if record.bound_kind == "efx" else report.alpha_ef1
        if not record.bound_satisfied or metric < record.bound:
            problems.append(f"{record.bound_kind} {core.format_value(metric)} below bound "
                            f"{core.format_value(record.bound)}")
        canon = {
            "algorithm": record.algorithm,
            "params": {k: str(v) for k, v in record.params.items()},
            "extras": {k: str(v) for k, v in record.extras.items()},
            "allocation": _bundles(record.allocation),
            "alpha_efx": core.format_value(record.alpha_efx),
            "alpha_ef1": core.format_value(record.alpha_ef1),
            "efx_binding": report.efx_binding,
            "ef1_binding": report.ef1_binding,
            "bound": core.format_value(record.bound),
            "bound_kind": record.bound_kind,
            "query_counts": record.query_counts,
        }
        return canon, problems

    return check


def _execute_op(label: str, instance, algorithm: str, **kwargs) -> Op:
    return Op(
        label,
        lambda: harness.execute(instance, algorithm, instance_id=label, **kwargs),
        _check_record(instance),
    )


def _seed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"efxbench:{workload}:{seed}")


def build_scale(seed: int, profile: str, work: Path, passes: int) -> Workload:
    """Every pass gets fresh instances, so a run averages over 4 * passes of
    them rather than leaning on one draw per kind and size."""
    rng = _seed_rng("scale", seed)
    op_passes = []
    for _ in range(passes):
        ops = []
        for n, m in SCALE_SIZES[profile]:
            for kind in ("uniform", "bivalued"):
                inst_seed = rng.randrange(2**31)
                instance = harness.generate_instance(kind, n, m, seed=inst_seed)
                algorithms = harness.ALGORITHMS if kind == "bivalued" else GENERAL_ALGORITHMS
                for algorithm in algorithms:
                    label = f"{kind}-{n}x{m}-{inst_seed}:{algorithm}"
                    ops.append(_execute_op(label, instance, algorithm, blackbox="envy_cycle"))
        op_passes.append(ops)
    warm = {
        kind: harness.generate_instance(kind, *WARM_SIZE, seed=seed)
        for kind in ("uniform", "bivalued")
    }
    warmups = [
        (lambda inst=warm[kind], alg=algorithm: harness.execute(inst, alg))
        for kind, algs in (("uniform", GENERAL_ALGORITHMS), ("bivalued", harness.ALGORITHMS))
        for algorithm in algs
    ]
    sizes = {"nm": SCALE_SIZES[profile], "kinds": ["uniform", "bivalued"],
             "instances": 4 * passes}
    return Workload(op_passes, warmups, sizes)


def _check_best(instance):
    def check(result) -> tuple[dict, list[str]]:
        alpha, allocation = result
        problems = []
        if core.fairness_report(instance, allocation).alpha_efx != alpha:
            problems.append("witness does not attain the reported best alpha")
        return {"alpha": core.format_value(alpha), "allocation": _bundles(allocation)}, problems

    return check


def _check_exact(instance):
    def check(allocation) -> tuple[dict, list[str]]:
        if allocation is None:
            return {"allocation": None}, []
        problems = []
        if core.fairness_report(instance, allocation).alpha_efx != 1:
            problems.append("exact_efx_bruteforce allocation is not EFX")
        return {"allocation": _bundles(allocation)}, problems

    return check


def build_exhaustive(seed: int, profile: str, work: Path, passes: int) -> Workload:
    rng = _seed_rng("exhaustive", seed)
    ops = []
    instances = {}
    for n, m in EXHAUSTIVE_SIZES[profile]:
        for _ in range(EXHAUSTIVE_COPIES[profile]):
            inst_seed = rng.randrange(2**31)
            instance = harness.generate_instance("uniform", n, m, seed=inst_seed)
            tag = f"uniform-{n}x{m}-{inst_seed}"
            instances[tag] = instance
            ops.append(Op(
                f"{tag}:best_alpha",
                lambda inst=instance: fullinfo.best_alpha_bruteforce(inst),
                _check_best(instance),
            ))
            ops.append(Op(
                f"{tag}:exact_efx",
                lambda inst=instance: fullinfo.exact_efx_bruteforce(inst),
                _check_exact(instance),
            ))
            ops.append(_execute_op(f"{tag}:virtual_efx", instance, "virtual_efx", blackbox="exact"))

    def cross_check(outputs: dict) -> list[str]:
        problems = []
        for tag, instance in instances.items():
            best, _ = outputs[f"{tag}:best_alpha"]
            if (outputs[f"{tag}:exact_efx"] is None) != (best < 1):
                problems.append(f"{tag}: exact_efx_bruteforce disagrees with best alpha {best}")
            for algorithm in ("round_robin", "rrla", "prr"):
                alpha = harness.execute(instance, algorithm).alpha_efx
                if alpha > best:
                    problems.append(f"{tag}: {algorithm} alpha_efx {alpha} beats brute force {best}")
        return problems

    warm = harness.generate_instance("uniform", *WARM_SIZE, seed=seed)
    warmups = [
        lambda: fullinfo.best_alpha_bruteforce(warm),
        lambda: fullinfo.exact_efx_bruteforce(warm),
        lambda: harness.execute(warm, "virtual_efx", blackbox="exact"),
    ]
    sizes = {"nm": EXHAUSTIVE_SIZES[profile], "copies": EXHAUSTIVE_COPIES[profile]}
    return Workload([ops] * passes, warmups, sizes, cross_check)


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return call


def _check_sweep(result) -> tuple[dict, list[str]]:
    code, text = result
    problems = [] if code == 0 else [f"exit code {code}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        problems.append(f"expected one CSV row, got {len(rows)}")
    for row in rows:
        if row["error"]:
            problems.append(f"row error: {row['error']}")
        if row["bound_ok"] != "True":
            problems.append(f"bound_ok is {row['bound_ok']!r}")
    return {"exit": code, "stdout": text}, problems


def _check_adversary(result) -> tuple[dict, list[str]]:
    code, text = result
    if code != 0:
        return {"exit": code, "stdout": text}, [f"exit code {code}"]
    problems = [] if json.loads(text)["pass"] is True else ["adversary check did not pass"]
    return {"exit": code, "stdout": text}, problems


def _query_family(rng: random.Random, n_range: tuple[int, int], k_min: int) -> tuple[int, int, int]:
    """(n, k, t) with m = t**(2k-1) inside [12, 120]."""
    k = rng.randint(k_min, 3)
    t = {1: lambda: rng.randint(12, 120), 2: lambda: rng.choice((3, 4)), 3: lambda: 2}[k]()
    return rng.randint(*n_range), k, t


def _prr_domain_ok(n: int, m: int, k: int) -> bool:
    try:
        query_enhanced.theorem5_params(n, m, k, harness.default_lambda(n, m, k))
    except query_enhanced.ParamDomainError:
        return False
    return True


def _sweep_job(rng: random.Random, kind: str, algorithm: str, profile: str, domain_ok) -> dict:
    """One sweep row; prr draws again until its segment sizes fit in m."""
    n_range, (m_lo, m_hi) = SWEEP_N[profile], SWEEP_M[profile]
    job: dict = {"kind": kind, "algorithm": algorithm, "trials": 1, "seed": rng.randrange(10**6)}
    while True:
        if kind == "query_lb":
            job["n"], job["k"], job["t"] = _query_family(rng, n_range, 1)
            m = job["t"] ** (2 * job["k"] - 1)
        else:
            job["n"] = rng.randint(*n_range)
            job["m"] = m = rng.randint(max(m_lo, 2 * job["n"]), m_hi)
            if algorithm in ("prr", "virtual_efx"):
                job["k"] = rng.randint(1, 3)
        if algorithm != "prr" or domain_ok(job["n"], m, job["k"]):
            return job


def _adversary_argv(rng: random.Random, family: str, algorithm: str, profile: str,
                    domain_ok) -> list[str]:
    """One adversary command; prr draws again until its segment sizes fit in m."""
    while True:
        if family == "ordinal":
            n = rng.randint(*SWEEP_N[profile])
            args = ["--n", n, "--m", rng.randint(*SWEEP_M[profile])]
            break
        # The query family's construction needs k >= 2.
        n, k, t = _query_family(rng, SWEEP_N[profile], 2)
        args = ["--n", n, "--k", k, "--t", t, "--budget", k]
        if algorithm != "prr" or domain_ok(n, t ** (2 * k - 1), k):
            break
    return ["adversary", "--family", family, *map(str, args), "--alg", algorithm]


def _check_run(instance):
    """Check an ``efxlab run --assert-bounds`` result by re-scoring its allocation."""

    def check(result) -> tuple[dict, list[str]]:
        code, text = result
        if code != 0:
            return {"exit": code, "stdout": text}, [f"exit code {code}"]
        record = json.loads(text)
        del record["wall_time"]  # the one field that differs between executions
        problems = [] if record["bound_satisfied"] is True else ["bound not satisfied"]
        allocation = core.Allocation.from_json(record["allocation"], m=instance.m)
        report = core.fairness_report(instance, allocation)
        if not allocation.complete:
            problems.append("allocation not complete")
        rescored = (core.format_value(report.alpha_efx), core.format_value(report.alpha_ef1))
        if rescored != (record["alpha_efx"], record["alpha_ef1"]):
            problems.append("re-scored factors differ from the run record")
        return {"exit": code, "record": record}, problems

    return check


def _instance_files(rng: random.Random, profile: str, directory: Path) -> dict:
    """RUN_FILES_PER_KIND instance files of every GEN_KIND: kind -> [(path, instance)]."""
    directory.mkdir(parents=True, exist_ok=True)
    n_range, (m_lo, m_hi) = SWEEP_N[profile], SWEEP_M[profile]
    files: dict = {}
    for kind in harness.GEN_KINDS:
        for index in range(RUN_FILES_PER_KIND):
            if kind == "query_lb":
                n, k, t = _query_family(rng, n_range, 1)
                instance = harness.generate_instance(kind, n, k=k, t=t)
            else:
                n = rng.randint(*n_range)
                m = rng.randint(max(m_lo, 2 * n), m_hi)
                instance = harness.generate_instance(kind, n, m, seed=rng.randrange(10**6))
            path = directory / f"{kind}-{index}.json"
            path.write_text(instance.dumps())
            files.setdefault(kind, []).append((path, instance))
    return files


def _run_op(rng: random.Random, kind: str, files: dict, domain_ok) -> Op:
    """One ``efxlab run`` on an instance file; prr draws again until its
    segment sizes fit in m."""
    path, instance = rng.choice(files[kind])
    algorithms = harness.ALGORITHMS if kind == "bivalued" else GENERAL_ALGORITHMS
    while True:
        algorithm = rng.choice(algorithms)
        extra = []
        if algorithm in ("prr", "virtual_efx"):
            k = rng.randint(1, 3)
            if algorithm == "prr" and not domain_ok(instance.n, instance.m, k):
                continue
            extra = ["--k", str(k)]
        break
    argv = ["run", "--instance", str(path), "--alg", algorithm, "--assert-bounds", *extra]
    label = " ".join(["run", path.name, "--alg", algorithm, *extra])
    return Op(label, _cli_call(argv), _check_run(instance))


def build_sweep(seed: int, profile: str, work: Path, passes: int) -> Workload:
    rng = _seed_rng("sweep", seed)
    config_dir = work / "sweep-configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    combos = [(kind, alg) for kind in ("uniform", "ordinal_lb", "query_lb") for alg in GENERAL_ALGORITHMS]
    combos += [("bivalued", alg) for alg in harness.ALGORITHMS]
    # Cached per build, so every set-up does the same work.
    domain_ok = functools.lru_cache(maxsize=None)(_prr_domain_ok)
    files = _instance_files(rng, profile, work / "instances")
    op_passes = []
    count = 0
    for _ in range(passes):
        ops = [_run_op(rng, kind, files, domain_ok) for kind in harness.GEN_KINDS]
        for kind, algorithm in combos:
            job = _sweep_job(rng, kind, algorithm, profile, domain_ok)
            path = config_dir / f"{seed}-{count}.json"
            count += 1
            path.write_text(json.dumps({"runs": [job]}))
            label = "sweep:" + ",".join(f"{k}={v}" for k, v in job.items())
            ops.append(Op(label, _cli_call(["sweep", "--config", str(path), "--out", "-"]), _check_sweep))
        for family, algorithms in ADVERSARY_ALGORITHMS.items():
            for algorithm in algorithms:
                argv = _adversary_argv(rng, family, algorithm, profile, domain_ok)
                ops.append(Op(" ".join(argv), _cli_call(argv), _check_adversary))
        op_passes.append(ops)
    warm_path = config_dir / f"{seed}-warm.json"
    warm_path.write_text(json.dumps({"runs": [
        {"kind": "bivalued", "algorithm": "mfrr", "n": 3, "m": 12, "seed": seed}
    ]}))
    warmups = [
        _cli_call(["sweep", "--config", str(warm_path), "--out", "-"]),
        _cli_call(["adversary", "--family", "ordinal", "--n", "3", "--m", "12", "--alg", "rrla"]),
        _cli_call(["run", "--instance", str(files["uniform"][0][0]), "--alg", "round_robin"]),
        _cli_call(["adversary", "--family", "query", "--n", "3", "--k", "2", "--t", "3",
                   "--alg", "prr", "--budget", "2"]),
    ]
    sizes = {"n": SWEEP_N[profile], "m": SWEEP_M[profile], "k": (1, 3),
             "ops_per_pass": len(op_passes[0])}
    return Workload(op_passes, warmups, sizes)


BUILDERS = {"scale": build_scale, "exhaustive": build_exhaustive, "sweep": build_sweep}
