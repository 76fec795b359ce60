"""Command-line interface.

Subcommands: gen, run, sweep, oracle, adversary, verify.
Exit codes: 0 success, 2 validation or domain error, 3 guarantee violation
(when --assert-bounds is set or an adversary check fails).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .core import (
    Allocation,
    DomainError,
    FairDivisionError,
    Instance,
    exact_fields,
    fairness_report,
    parse_value,
)
from .fullinfo import best_alpha_bruteforce
from .harness import (
    ALGORITHMS,
    BLACKBOXES,
    GEN_KINDS,
    adversary_ordinal,
    adversary_query,
    execute,
    generate_instance,
    sweep,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARANTEE = 3


def _default_seed() -> int:
    text = os.environ.get("EFX_LAB_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"EFX_LAB_SEED must be an integer, got {text!r}") from None


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise FairDivisionError(f"cannot read {path}: {exc.strerror}") from None


def _read_json(path: str):
    try:
        return json.loads(_read(path))
    except ValueError as exc:
        raise DomainError(f"{path} is not JSON: {exc}") from None


def _load_instance(path: str) -> Instance:
    return Instance.loads(_read(path))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one in the process; parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="efxlab",
        description="Fair-division experiments under ordinal preferences "
        "plus limited value queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance JSON file")
    p_gen.add_argument("--kind", choices=GEN_KINDS, default="uniform")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--t", type=int)
    p_gen.add_argument("--case", type=int, choices=(1, 2), default=2)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default="-", help="output path, - for stdout")

    p_run = sub.add_parser("run", help="run one algorithm on an instance")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--alg", choices=ALGORITHMS, required=True)
    p_run.add_argument("--k", type=int)
    p_run.add_argument("--lambda", dest="lam", type=str)
    p_run.add_argument("--blackbox", choices=tuple(BLACKBOXES), default="envy_cycle")
    p_run.add_argument("--budget", type=int)
    p_run.add_argument(
        "--assert-bounds",
        action="store_true",
        help="exit 3 if the measured factor falls below the guarantee bound",
    )

    p_sweep = sub.add_parser("sweep", help="run a config of jobs, emit CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="-")

    p_oracle = sub.add_parser("oracle", help="brute-force best EFX factor")
    p_oracle.add_argument("--instance", required=True)

    p_adv = sub.add_parser("adversary", help="run an algorithm against a family")
    p_adv.add_argument("--family", choices=("ordinal", "query"), required=True)
    p_adv.add_argument("--n", type=int, required=True)
    p_adv.add_argument("--m", type=int)
    p_adv.add_argument("--k", type=int)
    p_adv.add_argument("--t", type=int)
    p_adv.add_argument("--alg", choices=ALGORITHMS, required=True)
    p_adv.add_argument("--budget", type=int)

    p_verify = sub.add_parser("verify", help="validate and score an allocation")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--allocation", required=True)
    return parser


def _reader_gone() -> None:
    """Point stdout at the null device once its reader has closed the pipe,
    so the interpreter's last flush of what is buffered stays silent."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(data: dict, path: str = "-") -> None:
    text = json.dumps(data, indent=2)
    if path == "-":
        try:
            print(text, flush=True)
        except BrokenPipeError:
            _reader_gone()
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "gen":
            seed = args.seed if args.seed is not None else _default_seed()
            instance = generate_instance(
                args.kind, args.n, args.m, k=args.k, t=args.t, case=args.case, seed=seed
            )
            _emit(instance.to_json(), args.out)
            return EXIT_OK

        if args.command == "run":
            instance = _load_instance(args.instance)
            record = execute(
                instance,
                args.alg,
                k=args.k,
                lam=parse_value(args.lam) if args.lam else None,
                blackbox=args.blackbox,
                budget=args.budget,
                instance_id=os.path.basename(args.instance),
            )
            _emit(record.to_json())
            if args.assert_bounds and not record.bound_satisfied:
                return EXIT_GUARANTEE
            return EXIT_OK

        if args.command == "sweep":
            config = _read_json(args.config)
            if args.out == "-":
                try:
                    sweep(config, sys.stdout)
                    sys.stdout.flush()
                except BrokenPipeError:
                    _reader_gone()
            else:
                with open(args.out, "w", newline="") as fh:
                    sweep(config, fh)
            return EXIT_OK

        if args.command == "oracle":
            instance = _load_instance(args.instance)
            alpha, witness = best_alpha_bruteforce(instance)
            _emit({**exact_fields("best_alpha", alpha), "allocation": witness.to_json()})
            return EXIT_OK

        if args.command == "adversary":
            if args.family == "ordinal":
                if args.m is None:
                    raise FairDivisionError("ordinal family needs --m")
                result = adversary_ordinal(args.n, args.m, args.alg)
            else:
                if args.k is None or args.t is None:
                    raise FairDivisionError("query family needs --k and --t")
                budget = args.budget if args.budget is not None else args.k
                result = adversary_query(args.n, args.k, args.t, args.alg, budget)
            _emit(result)
            return EXIT_OK if result["pass"] else EXIT_GUARANTEE

        if args.command == "verify":
            instance = _load_instance(args.instance)
            allocation = Allocation.from_json(_read_json(args.allocation), m=instance.m)
            report = fairness_report(instance, allocation)
            _emit(
                {
                    **exact_fields("alpha_efx", report.alpha_efx),
                    **exact_fields("alpha_ef1", report.alpha_ef1),
                    "efx_binding": report.efx_binding,
                    "ef1_binding": report.ef1_binding,
                }
            )
            return EXIT_OK
    except FairDivisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
