"""Experiment harness: instance generation, algorithm runs with guarantee
bounds, CSV sweeps, and adversary checks. The CLI module is a thin argparse
wrapper around these functions.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, TextIO

import numpy as np

from .adversarial import (
    MAX_FAMILY_VALUES,
    QueryLBFamily,
    ordinal_adversary_pick,
    ordinal_lb_build,
    query_adversary_complete,
    query_lb_build,
)
from .bivalued import NotBivalued, match_and_freeze, mfrr, two_query_bivalued
from .core import (
    Allocation,
    DomainError,
    FairDivisionError,
    Instance,
    exact_fields,
    fairness_report,
    format_value,
    parse_value,
)
from .elicitation import QueryOracle, first_disagreement
from .enclosures import pow_enclosure
from .fullinfo import best_alpha_bruteforce, envy_cycle_heuristic
from .ordinal import round_robin, rrla
from .query_enhanced import (
    check_segment_room,
    prr,
    theorem5_bound,
    theorem5_params,
    virtual_efx,
    virtual_efx_bound,
)

GEN_KINDS = ("uniform", "bivalued", "ordinal_lb", "query_lb")

BLACKBOXES = {
    "exact": lambda inst: best_alpha_bruteforce(inst)[1],
    "envy_cycle": envy_cycle_heuristic,
}


@dataclass(frozen=True)
class AlgorithmSpec:
    """How :func:`execute` runs one algorithm and which bound it carries.

    ``run(oracle, k, lam, blackbox)`` returns (allocation, bound, params,
    extras); ``bound_kind`` names the factor the bound constrains ("efx" or
    "ef1"); ``bivalued`` algorithms need a bivalued instance; the
    ``query_family`` ones also run against the query family, with the budget
    as k. Runners look the algorithms up as module globals at call time.
    """

    run: Callable[[QueryOracle, Optional[int], Optional[Fraction], str], tuple]
    bound_kind: str
    bivalued: bool = False
    query_family: bool = False


def _run_round_robin(oracle: QueryOracle, *_) -> tuple:
    return round_robin(oracle), Fraction(1), {}, {}


def _run_rrla(oracle: QueryOracle, *_) -> tuple:
    n, m = oracle.n, oracle.m
    return rrla(oracle), Fraction(1, m - n) if m > n else Fraction(1), {}, {}


def _run_virtual_efx(oracle: QueryOracle, k: Optional[int], _lam, blackbox: str) -> tuple:
    k = k if k is not None else 1
    params = {"k": k, "blackbox": blackbox}
    if blackbox not in BLACKBOXES:
        raise DomainError(f"unknown blackbox {blackbox!r}")
    allocation, _, measured_rho = virtual_efx(oracle, k, BLACKBOXES[blackbox])
    bound = virtual_efx_bound(oracle.m, k, measured_rho)
    return allocation, bound, params, {"measured_rho": measured_rho}


def _run_prr(oracle: QueryOracle, k: Optional[int], lam: Optional[Fraction], _blackbox) -> tuple:
    n, m = oracle.n, oracle.m
    k = k if k is not None else 2
    check_segment_room(m, k)
    lam = lam if lam is not None else default_lambda(n, m, k)
    allocation = prr(oracle, theorem5_params(n, m, k, lam))
    return allocation, theorem5_bound(n, m, k, lam), {"k": k, "lam": lam}, {}


def _run_match_freeze(oracle: QueryOracle, *_) -> tuple:
    # The full-information algorithm is the one runner given the instance.
    return match_and_freeze(oracle.hidden_instance()), Fraction(1), {}, {}


def _run_mfrr(oracle: QueryOracle, *_) -> tuple:
    return mfrr(oracle), Fraction(1, 2), {}, {}


def _run_two_query(oracle: QueryOracle, *_) -> tuple:
    return two_query_bivalued(oracle), Fraction(1, oracle.n), {}, {}


# Every algorithm name is dispatched here; the order is ALGORITHMS', on which
# seeded callers (rng.choice over the names) depend.
ALGORITHM_SPECS = {
    "round_robin": AlgorithmSpec(_run_round_robin, "ef1", query_family=True),
    "rrla": AlgorithmSpec(_run_rrla, "efx", query_family=True),
    "virtual_efx": AlgorithmSpec(_run_virtual_efx, "efx"),
    "prr": AlgorithmSpec(_run_prr, "efx", query_family=True),
    "match_freeze": AlgorithmSpec(_run_match_freeze, "efx", bivalued=True),
    "mfrr": AlgorithmSpec(_run_mfrr, "efx", bivalued=True),
    "two_query": AlgorithmSpec(_run_two_query, "efx", bivalued=True),
}
ALGORITHMS = tuple(ALGORITHM_SPECS)


@dataclass
class RunRecord:
    """Everything one algorithm run produced, bound check included.

    ``bound_kind`` says which metric the bound constrains ("efx" or "ef1");
    ``bound_satisfied`` is recomputable as metric >= bound. The run saw only
    ``rankings`` and ``transcript``, its answers (agent, good, value) in order.
    """

    instance_id: str
    algorithm: str
    params: dict
    query_counts: list[int]
    alpha_efx: Fraction
    alpha_ef1: Fraction
    bound: Fraction
    bound_kind: str
    bound_satisfied: bool
    wall_time: float
    allocation: Allocation
    rankings: tuple[tuple[int, ...], ...]
    transcript: tuple[tuple[int, int, Fraction], ...]
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "algorithm": self.algorithm,
            "params": {k: str(v) for k, v in self.params.items()},
            "query_counts": self.query_counts,
            **exact_fields("alpha_efx", self.alpha_efx),
            **exact_fields("alpha_ef1", self.alpha_ef1),
            **exact_fields("bound", self.bound),
            "bound_kind": self.bound_kind,
            "bound_satisfied": self.bound_satisfied,
            "wall_time": self.wall_time,
            "allocation": self.allocation.to_json(),
            "extras": {k: str(v) for k, v in self.extras.items()},
        }


def generate_instance(
    kind: str,
    n: int,
    m: Optional[int] = None,
    *,
    k: Optional[int] = None,
    t: Optional[int] = None,
    case: int = 2,
    seed: int = 0,
) -> Instance:
    """Deterministic instance generation; same arguments, same instance.
    Uniform values are integers in 0..20."""
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    if kind in ("uniform", "bivalued", "ordinal_lb") and m is None:
        raise DomainError(f"{kind} generation needs m")
    if kind in ("uniform", "bivalued") and m < 1:
        raise DomainError(f"need m >= 1, got m={m}")
    if kind in ("uniform", "bivalued") and n * m > MAX_FAMILY_VALUES:
        raise DomainError(f"instance of {n} x {m} values exceeds {MAX_FAMILY_VALUES}")
    rng = random.Random(seed)
    if kind == "uniform":
        rows = [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
        return Instance.from_rows(rows)
    if kind == "bivalued":
        rows = []
        meta = []
        for _ in range(n):
            h = rng.randint(2, 9)
            low = rng.randint(1, h - 1)
            rows.append([h if rng.random() < 0.5 else low for _ in range(m)])
            meta.append((h, low))
        return Instance.from_rows(rows, meta)
    if kind == "ordinal_lb":
        family = ordinal_lb_build(n, m)
        return family.case1 if case == 1 else family.case2
    if kind == "query_lb":
        if k is None or t is None:
            raise DomainError("query_lb generation needs k and t")
        return query_lb_build(n, k, t).revealed
    raise DomainError(f"unknown generation kind {kind!r}")


def default_lambda(n: int, m: int, k: int) -> Fraction:
    """Smallest convenient rational >= max(1, n / m**(1/(2k-1)))."""
    if m >= n ** (2 * k - 1):
        return Fraction(1)
    # The upper endpoint gives lam**(2k-1) * m >= n**(2k-1), and m < n**(2k-1)
    # then forces lam > 1.
    return Fraction(n) * pow_enclosure(m, -1, 2 * k - 1)[1]


def execute(
    instance: Instance,
    algorithm: str,
    *,
    k: Optional[int] = None,
    lam: Optional[Fraction] = None,
    blackbox: str = "envy_cycle",
    budget: Optional[int] = None,
    instance_id: str = "",
) -> RunRecord:
    """Run one algorithm on one instance and attach its guarantee bound."""
    if algorithm not in ALGORITHMS:
        raise DomainError(f"unknown algorithm {algorithm!r}")
    spec = ALGORITHM_SPECS[algorithm]
    if spec.bivalued and instance.bivalued_meta is None:
        raise NotBivalued(f"{algorithm} requires a bivalued instance")
    oracle = QueryOracle(instance, budget=budget)
    start = time.perf_counter()
    allocation, bound, params, extras = spec.run(oracle, k, lam, blackbox)
    wall = time.perf_counter() - start
    report = fairness_report(instance, allocation)
    metric = report.alpha_efx if spec.bound_kind == "efx" else report.alpha_ef1
    return RunRecord(
        instance_id=instance_id,
        algorithm=algorithm,
        params=params,
        query_counts=list(oracle.snapshot_counts().values()),
        alpha_efx=report.alpha_efx,
        alpha_ef1=report.alpha_ef1,
        bound=bound,
        bound_kind=spec.bound_kind,
        bound_satisfied=metric >= bound,
        wall_time=wall,
        allocation=allocation,
        rankings=oracle.rankings,
        transcript=oracle.transcript(),
        extras=extras,
    )


SWEEP_COLUMNS = [
    "row",
    "kind",
    "algorithm",
    "n",
    "m",
    "k",
    "lam",
    "trial",
    "seed",
    "alpha_efx",
    "alpha_efx_dec",
    "alpha_ef1",
    "alpha_ef1_dec",
    "bound",
    "bound_dec",
    "bound_ok",
    "max_queries",
    "error",
]


def sweep(config: dict, out: TextIO) -> None:
    """Run every configured job and write one CSV row per run.

    Jobs are independent; failures are recorded in the row's error column
    and the sweep continues. A job whose fields do not parse, or that asks
    for fewer than one trial, gives one row with the error. Output row order
    follows the config, whose ``runs`` must be a JSON array.
    """
    if not isinstance(config, dict):
        raise DomainError("a sweep config must be a JSON object")
    runs = config.get("runs", [])
    if type(runs) is not list:
        raise DomainError(f"sweep runs must be a JSON array, got {runs!r}")
    writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    row_id = 0
    for job in runs:
        try:
            kind = job.get("kind", "uniform")
            for key in ("n", "m", "k", "t", "budget", "trials", "seed"):
                # JSON integers only, as in Instance.from_json: not floats,
                # booleans or text.
                if key in job and type(job[key]) is not int:
                    raise DomainError(f"job field {key!r} must be an integer, got {job[key]!r}")
            n, m, k, t = job["n"], job.get("m"), job.get("k"), job.get("t")
            budget = job.get("budget")
            lam = parse_value(job["lam"]) if "lam" in job else None
            trials = job.get("trials", 1)
            if trials < 1:
                raise DomainError(f"job field 'trials' must be >= 1, got {trials}")
            base_seed = job.get("seed", 0)
            algorithm = job["algorithm"]
        except (AttributeError, KeyError, DomainError) as exc:
            detail = f"job lacks {exc}" if isinstance(exc, KeyError) else str(exc)
            writer.writerow({"row": row_id, "error": f"{type(exc).__name__}: {detail}"})
            row_id += 1
            continue
        for trial in range(trials):
            seed = base_seed + trial
            row = {
                "row": row_id,
                "kind": kind,
                "algorithm": algorithm,
                "n": n,
                "m": m if m is not None else "",
                "k": k if k is not None else "",
                "lam": format_value(lam) if lam is not None else "",
                "trial": trial,
                "seed": seed,
                "error": "",
            }
            try:
                instance = generate_instance(kind, n, m, k=k, t=t, seed=seed)
                if kind == "query_lb":
                    row["m"] = instance.m
                record = execute(
                    instance,
                    algorithm,
                    k=k,
                    lam=lam,
                    budget=budget,
                    instance_id=f"{kind}-{seed}",
                )
                row.update(
                    **exact_fields("alpha_efx", record.alpha_efx, "_dec"),
                    **exact_fields("alpha_ef1", record.alpha_ef1, "_dec"),
                    **exact_fields("bound", record.bound, "_dec"),
                    bound_ok=record.bound_satisfied,
                    max_queries=max(record.query_counts),
                )
            except FairDivisionError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            writer.writerow(row)
            row_id += 1


def adversary_ordinal(n: int, m: int, algorithm: str) -> dict:
    """Run an algorithm against the ordinal family and report the check."""
    family = ordinal_lb_build(n, m)
    # Both cases share the ranking; run on case1 so any value query would
    # still be answered consistently with the shared ordinal view.
    record = execute(family.case1, algorithm, instance_id=f"ordinal_lb-{n}-{m}")
    picked, bound = ordinal_adversary_pick(family, record.allocation)
    measured = fairness_report(picked, record.allocation).alpha_efx
    return {
        "family": "ordinal",
        "n": n,
        "m": m,
        "algorithm": algorithm,
        "instance": picked.to_json(),
        "bound": format_value(bound),
        "measured_alpha": format_value(measured),
        "pass": measured <= bound,
    }


def query_family_cap(family: QueryLBFamily) -> Fraction:
    """Upper endpoint of 2 * sqrt(k) * m**(-1/(2k-1))."""
    root_hi = pow_enclosure(family.m, -1, 2 * family.k - 1)[1]
    return 2 * family.top_value_hi * root_hi


def adversary_query(n: int, k: int, t: int, algorithm: str, budget: int) -> dict:
    """Run an algorithm under budget against the query family; complete and check.

    The construction's adversary needs a middle segment, so k must be >= 2.
    """
    if k < 2:
        raise DomainError("the query family adversary needs k >= 2")
    family = query_lb_build(n, k, t)
    if algorithm not in ALGORITHMS or not ALGORITHM_SPECS[algorithm].query_family:
        raise DomainError(
            f"algorithm {algorithm!r} not supported against the query family"
        )
    record = execute(family.revealed, algorithm, k=budget, budget=budget)
    picked, pair_bound = query_adversary_complete(family, record.transcript, record.allocation)
    measured = fairness_report(picked, record.allocation).alpha_efx
    cap = query_family_cap(family)
    # The completion must keep the rankings the run saw and every answer.
    along = np.take_along_axis(picked.scaled_values, np.array(record.rankings), axis=1)
    kept = not first_disagreement(picked, record.transcript)
    consistent = kept and not (along[:, 1:] > along[:, :-1]).any()
    return {
        "family": "query",
        "n": n,
        "k": k,
        "t": t,
        "m": family.m,
        "algorithm": algorithm,
        "budget": budget,
        "instance": picked.to_json(),
        "pair_bound": format_value(pair_bound),
        "cap": format_value(cap),
        "measured_alpha": format_value(measured),
        "consistent": consistent,
        "pass": consistent and measured <= cap,
    }
