import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from fraction_reference import fraction_rows
from efxlab import Instance, cli
from efxlab.cli import EXIT_GUARANTEE, EXIT_OK, EXIT_VALIDATION, main
from efxlab.harness import (
    ALGORITHMS,
    SWEEP_COLUMNS,
    adversary_ordinal,
    adversary_query,
    default_lambda,
    execute,
    generate_instance,
    sweep,
)
from helpers import time_limit


def test_gen_deterministic():
    a = generate_instance("uniform", 3, 10, seed=7)
    b = generate_instance("uniform", 3, 10, seed=7)
    c = generate_instance("uniform", 3, 10, seed=8)
    assert a == b and a != c


def test_gen_bivalued_has_meta():
    inst = generate_instance("bivalued", 3, 8, seed=1)
    assert inst.bivalued_meta is not None
    for (h, low), row in zip(inst.bivalued_meta, fraction_rows(inst)):
        assert h > low > 0
        assert all(v in (h, low) for v in row)


def test_gen_query_lb_matches_family():
    inst = generate_instance("query_lb", 2, k=2, t=2)
    assert (inst.n, inst.m) == (2, 8)


def test_gen_ordinal_lb_cases():
    case1 = generate_instance("ordinal_lb", 2, 6, case=1)
    case2 = generate_instance("ordinal_lb", 2, 6, case=2)
    assert fraction_rows(case1)[0][1] == 0 and fraction_rows(case2)[0][1] == 1


def test_execute_bound_flag_recomputable():
    inst = generate_instance("uniform", 3, 12, seed=3)
    for alg in ("round_robin", "rrla"):
        record = execute(inst, alg)
        metric = record.alpha_efx if record.bound_kind == "efx" else record.alpha_ef1
        assert record.bound_satisfied == (metric >= record.bound)
        data = record.to_json()
        assert data["algorithm"] == alg


def test_execute_rejects_unknown_algorithm():
    inst = generate_instance("uniform", 2, 4, seed=0)
    with pytest.raises(Exception):
        execute(inst, "nope")


def test_default_lambda_admissible():
    for n, m, k in [(2, 8, 2), (5, 32, 2), (5, 32, 3), (4, 27, 3)]:
        lam = default_lambda(n, m, k)
        assert lam >= 1
        assert lam ** (2 * k - 1) * m >= n ** (2 * k - 1)


def test_sweep_deterministic_and_columns():
    config = {
        "runs": [
            {"kind": "uniform", "n": 3, "m": 8, "algorithm": "round_robin", "trials": 2, "seed": 5},
            {"kind": "bivalued", "n": 2, "m": 6, "algorithm": "mfrr", "trials": 1, "seed": 5},
            {"kind": "uniform", "n": 3, "m": 8, "algorithm": "rrla", "trials": 1, "seed": 5},
            {"kind": "uniform", "n": 2, "m": 9, "algorithm": "prr", "k": 2, "lam": "3/2",
             "trials": 1, "seed": 1},
        ]
    }
    out1, out2 = io.StringIO(), io.StringIO()
    sweep(config, out1)
    sweep(config, out2)
    assert out1.getvalue() == out2.getvalue()
    rows = list(csv.DictReader(io.StringIO(out1.getvalue())))
    assert len(rows) == 5
    assert list(rows[0].keys()) == SWEEP_COLUMNS
    assert all(r["error"] == "" for r in rows)
    # Each row shows what `run` shows for the same job.
    jobs = [(job, trial) for job in config["runs"] for trial in range(job["trials"])]
    for row, (job, trial) in zip(rows, jobs, strict=True):
        instance = generate_instance(job["kind"], job["n"], job["m"], seed=job["seed"] + trial)
        lam = Fraction(job["lam"]) if "lam" in job else None
        shown = execute(instance, job["algorithm"], k=job.get("k"), lam=lam).to_json()
        for name in ("alpha_efx", "alpha_ef1", "bound"):
            assert row[name] == shown[name]
            assert row[name + "_dec"] == str(shown[name + "_decimal"])
        assert row["bound_ok"] == str(shown["bound_satisfied"])
        assert row["max_queries"] == str(max(shown["query_counts"]))


def test_sweep_empty_config_header_only():
    out = io.StringIO()
    sweep({"runs": []}, out)
    assert out.getvalue().strip() == ",".join(SWEEP_COLUMNS)


def test_sweep_records_errors_and_continues():
    config = {
        "runs": [
            {"kind": "uniform", "n": 2, "m": 6, "algorithm": "mfrr", "trials": 1},
            {"kind": "uniform", "n": 2, "m": 6, "algorithm": "round_robin", "trials": 1},
        ]
    }
    out = io.StringIO()
    sweep(config, out)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert "NotBivalued" in rows[0]["error"]
    assert rows[1]["error"] == ""


def test_adversary_ordinal_passes():
    for alg in ("round_robin", "rrla"):
        result = adversary_ordinal(3, 8, alg)
        assert result["pass"]


def test_adversary_query_passes():
    result = adversary_query(2, 2, 2, "rrla", budget=2)
    assert result["pass"] and result["consistent"]


# ---- CLI ---------------------------------------------------------------


def test_cli_gen_run_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "--kind", "uniform", "--n", "3", "--m", "8",
                 "--seed", "4", "--out", str(path)]) == EXIT_OK
    Instance.loads(path.read_text())
    assert main(["run", "--instance", str(path), "--alg", "rrla",
                 "--assert-bounds"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["bound_satisfied"] is True


def test_cli_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EFX_LAB_SEED", "9")
    assert main(["gen", "--kind", "uniform", "--n", "2", "--m", "4"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["gen", "--kind", "uniform", "--n", "2", "--m", "4",
                 "--seed", "9"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_cli_env_seed_must_be_an_integer(monkeypatch, capsys):
    for text in ("abc", "1.5", ""):
        monkeypatch.setenv("EFX_LAB_SEED", text)
        assert main(["gen", "--n", "2", "--m", "3"]) == EXIT_VALIDATION
        assert "EFX_LAB_SEED must be an integer" in capsys.readouterr().err


def test_cli_validation_exit_code(tmp_path, capsys):
    path = tmp_path / "inst.json"
    main(["gen", "--kind", "uniform", "--n", "2", "--m", "4", "--out", str(path)])
    capsys.readouterr()
    # mfrr on a non-bivalued instance is a validation failure.
    assert main(["run", "--instance", str(path), "--alg", "mfrr"]) == EXIT_VALIDATION


def test_cli_oracle_and_verify(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--kind", "uniform", "--n", "2", "--m", "5",
          "--seed", "2", "--out", str(inst_path)])
    capsys.readouterr()
    assert main(["oracle", "--instance", str(inst_path)]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps(result["allocation"]))
    assert main(["verify", "--instance", str(inst_path),
                 "--allocation", str(alloc_path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["alpha_efx"] == result["best_alpha"]


def test_cli_verify_rejects_overlap(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--kind", "uniform", "--n", "2", "--m", "4", "--out", str(inst_path)])
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"bundles": [[0, 1], [1, 2, 3]]}))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst_path),
                 "--allocation", str(alloc_path)]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "bundles",
    [[[0, 0], [1, 2, 3]], [[0, 1], [2, 3, 1]], [[True], [1, 2, 3]], [[0.0], [1, 2, 3]], [["0"], [1]]],
    ids=["duplicate-in-bundle", "duplicate-across", "boolean", "float", "string"],
)
def test_cli_verify_rejects_malformed_goods(tmp_path, capsys, bundles):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--kind", "uniform", "--n", "2", "--m", "4", "--out", str(inst_path)])
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"bundles": bundles}))
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst_path),
                 "--allocation", str(alloc_path)]) == EXIT_VALIDATION


def test_cli_adversary_query_needs_k_two(capsys):
    code = main(["adversary", "--family", "query", "--n", "3", "--k", "1", "--t", "55",
                 "--alg", "rrla", "--budget", "1"])
    assert code == EXIT_VALIDATION
    assert "k >= 2" in capsys.readouterr().err
    # The family itself is still defined for k = 1.
    assert generate_instance("query_lb", 3, k=1, t=55).m == 55


def test_cli_adversary(capsys):
    code = main(["adversary", "--family", "ordinal", "--n", "2", "--m", "7",
                 "--alg", "round_robin"])
    result = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and result["pass"]


def test_cli_sweep(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"runs": [
        {"kind": "uniform", "n": 2, "m": 6, "algorithm": "round_robin", "trials": 1}
    ]}))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1 and rows[0]["bound_ok"] == "True"


def test_sweep_bad_row_is_recorded_and_sweep_continues():
    config = {
        "runs": [
            {"kind": "uniform", "n": "two", "m": 6, "algorithm": "round_robin"},
            {"kind": "uniform", "n": 2, "m": 6, "algorithm": "round_robin"},
        ]
    }
    out = io.StringIO()
    sweep(config, out)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert [r["row"] for r in rows] == ["0", "1"]
    assert rows[0]["error"].startswith("DomainError") and "'two'" in rows[0]["error"]
    assert rows[0]["alpha_efx"] == ""
    assert rows[1]["error"] == "" and rows[1]["bound_ok"] == "True"


@pytest.mark.parametrize(
    "job,error",
    [({"m": 6, "algorithm": "rrla"}, "KeyError: job lacks 'n'"),
     ({"n": 2, "m": 6}, "KeyError: job lacks 'algorithm'"),
     ({"n": 2, "m": [6], "algorithm": "rrla"}, "DomainError: job field 'm'"),
     ({"n": 2, "m": 6, "algorithm": "prr", "lam": "abc"}, "DomainError: not a rational value"),
     ("not a job", "AttributeError"),
     ({"n": 2.7, "m": 6, "algorithm": "rrla"}, "DomainError: job field 'n' must be an integer"),
     ({"n": 2, "m": True, "algorithm": "rrla"}, "DomainError: job field 'm' must be an integer"),
     ({"n": 2, "m": 6, "seed": "3", "algorithm": "rrla"}, "DomainError: job field 'seed'"),
     ({"n": 2, "m": 6, "trials": 1.9, "algorithm": "rrla"}, "DomainError: job field 'trials'"),
     ({"n": 2, "m": 6, "k": 1.0, "algorithm": "prr"}, "DomainError: job field 'k'"),
     ({"kind": "query_lb", "n": 2, "k": 2, "t": "3", "algorithm": "prr"},
      "DomainError: job field 't'"),
     ({"n": 2, "m": 6, "budget": False, "algorithm": "rrla"}, "DomainError: job field 'budget'"),
     ({"n": 2, "m": 6, "trials": 0, "algorithm": "rrla"},
      "DomainError: job field 'trials' must be >= 1, got 0"),
     ({"n": 2, "m": 6, "trials": -3, "algorithm": "rrla"},
      "DomainError: job field 'trials' must be >= 1, got -3"),
     ({"n": 2, "m": 100000000000, "algorithm": "rrla"},
      "DomainError: instance of 2 x 100000000000 values exceeds 10000000")],
    ids=["no-n", "no-algorithm", "list-m", "bad-lambda", "not-an-object", "float-n", "bool-m",
         "text-seed", "float-trials", "float-k", "text-t", "bool-budget", "zero-trials",
         "negative-trials", "oversized-m"],
)
def test_sweep_malformed_jobs_give_error_rows(job, error):
    out = io.StringIO()
    with time_limit(5):
        sweep({"runs": [job, {"n": 2, "m": 4, "algorithm": "rrla"}]}, out)
    bad, good = csv.DictReader(io.StringIO(out.getvalue()))
    assert bad["error"].startswith(error)
    assert good["error"] == ""


@pytest.mark.parametrize(
    "config,message",
    [({"runs": 5}, "sweep runs must be a JSON array"),
     ({"runs": "ab"}, "sweep runs must be a JSON array"),
     ({"runs": {"a": 1}}, "sweep runs must be a JSON array"),
     ({"runs": None}, "sweep runs must be a JSON array"),
     ([{"n": 2, "m": 4, "algorithm": "rrla"}], "a sweep config must be a JSON object")],
    ids=["number-runs", "text-runs", "object-runs", "null-runs", "array-config"],
)
def test_cli_sweep_malformed_config_exits_2(tmp_path, capsys, config, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def write_instance(tmp_path, text):
    path = tmp_path / "inst.json"
    path.write_text(text)
    return str(path)


def test_cli_run_rejects_bad_lambda(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    main(["gen", "--kind", "uniform", "--n", "2", "--m", "6", "--out", path])
    for lam in ("abc", "1/0"):
        assert main(["run", "--instance", path, "--alg", "prr", "--lambda", lam]) == EXIT_VALIDATION
        assert "not a rational value" in capsys.readouterr().err


def test_cli_run_prr_with_oversized_segments_exits_2_quickly(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    main(["gen", "--n", "10", "--m", "1000", "--seed", "1", "--out", path])
    capsys.readouterr()
    for args, message in (
        (["--k", "500"], "segment sizes must leave goods for the final segment"),
        (["--k", "100000"], "segment sizes must leave goods for the final segment"),
        (["--k", "100000", "--lambda", "1/2"], "segment sizes must leave goods for the final segment"),
        (["--lambda", "1e1000000000"], "not a rational value: '1e1000000000'"),
    ):
        with time_limit(2):
            assert main(["run", "--instance", path, "--alg", "prr", *args]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["gen", "--kind", "ordinal_lb", "--n", "2", "--m", "100000000000"],
     ["adversary", "--family", "query", "--n", "2", "--k", "16", "--t", "3", "--alg", "prr"],
     ["gen", "--kind", "uniform", "--n", "2", "--m", "100000000000"],
     ["gen", "--kind", "bivalued", "--n", "2", "--m", "100000000000"]],
    ids=["ordinal", "query", "uniform", "bivalued"],
)
def test_cli_oversized_family_exits_2_quickly(capsys, argv):
    with time_limit(5):
        assert main(argv) == EXIT_VALIDATION
    assert "values exceeds 10000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["not json", '{"m": 2, "values": [["1", "2"]]}', '{"n": 1, "values": [["1", "2"]]}',
     '{"n": 1, "m": 2}', '[1, 2]', '{"n": 1, "m": 2, "values": 5}'],
    ids=["non-json", "no-n", "no-m", "no-values", "not-an-object", "values-not-rows"],
)
def test_cli_malformed_instance_exits_2(tmp_path, capsys, text):
    path = write_instance(tmp_path, text)
    for argv in (["run", "--instance", path, "--alg", "rrla"], ["oracle", "--instance", path]):
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("field", ["n", "m"])
@pytest.mark.parametrize("bad", [2.7, True, "2"], ids=["float", "bool", "text"])
def test_cli_non_integer_shape_exits_2(tmp_path, capsys, field, bad):
    # The rows have the shape int(bad) would give, so only the type is wrong.
    shape = {"n": 2, "m": 2, field: int(bad)}
    data = {**shape, field: bad, "values": [["1"] * shape["m"]] * shape["n"]}
    path = write_instance(tmp_path, json.dumps(data))
    allocation = tmp_path / "alloc.json"
    allocation.write_text(json.dumps({"bundles": [[0]] + [[]] * (shape["n"] - 1)}))
    for argv in (
        ["run", "--instance", path, "--alg", "rrla"],
        ["oracle", "--instance", path],
        ["verify", "--instance", path, "--allocation", str(allocation)],
    ):
        assert main(argv) == EXIT_VALIDATION
        assert "integer n and m" in capsys.readouterr().err


@pytest.mark.parametrize(
    "shape,values", [((2, 2), [["1", "2"], "34"]), ((2, 1), "12")], ids=["text-row", "text-values"]
)
def test_cli_values_that_are_not_arrays_exit_2(tmp_path, capsys, shape, values):
    # Read as characters, the text would have the declared shape.
    data = {"n": shape[0], "m": shape[1], "values": values}
    path = write_instance(tmp_path, json.dumps(data))
    allocation = tmp_path / "alloc.json"
    allocation.write_text(json.dumps({"bundles": [[0], []]}))
    for argv in (
        ["run", "--instance", path, "--alg", "rrla"],
        ["oracle", "--instance", path],
        ["verify", "--instance", path, "--allocation", str(allocation)],
    ):
        assert main(argv) == EXIT_VALIDATION
        assert "array of arrays" in capsys.readouterr().err


def test_cli_missing_files_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    good = str(tmp_path / "inst.json")
    main(["gen", "--kind", "uniform", "--n", "2", "--m", "4", "--out", good])
    capsys.readouterr()
    for argv in (
        ["run", "--instance", missing, "--alg", "rrla"],
        ["verify", "--instance", good, "--allocation", missing],
        ["sweep", "--config", missing],
    ):
        assert main(argv) == EXIT_VALIDATION
        assert "cannot read" in capsys.readouterr().err


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"runs": [
        {"kind": "uniform", "n": 2, "m": 4, "algorithm": "round_robin", "trials": 1}
    ]}))
    # A path under a missing directory, and a directory.
    for out in (str(tmp_path / "missing" / "x.json"), str(tmp_path)):
        for argv in (
            ["gen", "--n", "2", "--m", "4", "--out", out],
            ["sweep", "--config", str(config), "--out", out],
        ):
            assert main(argv) == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_cli_gen_zero_agents_exits_2(capsys):
    for kind in ("uniform", "bivalued"):
        assert main(["gen", "--kind", kind, "--n", "0", "--m", "4"]) == EXIT_VALIDATION
        assert "n >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [(["adversary", "--family", "ordinal", "--n", "1", "--m", "12", "--alg", "rrla"], "n >= 2"),
     (["adversary", "--family", "query", "--n", "2", "--k", "2", "--t", "3", "--alg", "rrla",
       "--budget", "-1"], "budget must be >= 0"),
     # The algorithm is checked before the budget.
     (["adversary", "--family", "query", "--n", "2", "--k", "2", "--t", "3", "--alg",
       "virtual_efx", "--budget", "-1"], "not supported against the query family"),
     (["gen", "--n", "-2", "--m", "3"], "need n >= 1, got n=-2"),
     (["gen", "--kind", "bivalued", "--n", "0", "--m", "3"], "need n >= 1, got n=0"),
     (["gen", "--n", "3", "--m", "-2"], "need m >= 1, got m=-2")],
    ids=["ordinal-one-agent", "query-negative-budget", "query-unsupported-negative-budget",
         "gen-negative-n", "gen-zero-n", "gen-negative-m"],
)
def test_cli_malformed_arguments_exit_2(capsys, argv, message):
    assert main(argv) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_cli_run_negative_budget_exits_2(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    main(["gen", "--kind", "uniform", "--n", "2", "--m", "6", "--out", path])
    assert main(["run", "--instance", path, "--alg", "rrla", "--budget", "-1"]) == EXIT_VALIDATION
    assert "budget must be >= 0, got -1" in capsys.readouterr().err


def cli_session(tmp_path, fresh_parser: bool) -> list[tuple[int, str, str]]:
    """Exit code, stdout and stderr of one call of every subcommand, with an
    argparse error in the middle; a run record's wall_time is dropped."""
    inst, alloc, config = (str(tmp_path / name) for name in ("i.json", "a.json", "c.json"))
    Path(config).write_text(json.dumps({"runs": [
        {"kind": "uniform", "n": 2, "m": 5, "algorithm": "rrla", "trials": 1, "seed": 3},
    ]}))
    Path(alloc).write_text(json.dumps({"bundles": [[0, 1, 2], [3, 4]]}))
    calls = [
        ["gen", "--kind", "uniform", "--n", "2", "--m", "5", "--seed", "3", "--out", inst],
        ["gen", "--kind", "bivalued", "--n", "2", "--m", "4", "--seed", "1"],
        ["run", "--instance", inst, "--alg", "prr", "--k", "2"],
        ["run", "--instance", inst, "--alg", "nope"],  # argparse: invalid choice
        ["oracle", "--instance", inst],
        ["verify", "--instance", inst, "--allocation", alloc],
        ["sweep", "--config", config],
        ["adversary", "--family", "ordinal", "--n", "3", "--m", "9", "--alg", "rrla"],
        ["adversary", "--family", "query", "--n", "2", "--k", "2", "--t", "3", "--alg", "prr"],
        ["run", "--instance", inst, "--alg", "mfrr"],  # exit 2 from the library
    ]
    results = []
    for argv in calls:
        if fresh_parser:
            cli._parser.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        if argv[0] == "run" and code == EXIT_OK:
            record = json.loads(text)
            del record["wall_time"]
            text = json.dumps(record)
        results.append((code, text, err.getvalue()))
    return results


def test_cli_reuses_one_parser_with_unchanged_results(tmp_path):
    fresh = cli_session(tmp_path, fresh_parser=True)
    cli._parser.cache_clear()
    reused = cli_session(tmp_path, fresh_parser=False)
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 0, 2, 0, 0, 0, 0, 0, 2]
    assert "invalid choice: 'nope'" in reused[3][2]


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["adversary", "--family", "ordinal", "--n", "3", "--m", "9", "--alg", "rrla"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "efxlab", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert main(argv) == EXIT_OK
    assert (proc.returncode, proc.stdout) == (EXIT_OK, capsys.readouterr().out)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_closed_pipe_ends_the_cli_quietly(tmp_path, command):
    instance = tmp_path / "i.json"
    instance.write_text(json.dumps(generate_instance("uniform", 3, 40, seed=1).to_json()))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"runs": [{"n": 3, "m": 40, "algorithm": "rrla", "trials": 3}]}))
    argv = {
        "run": ["run", "--instance", str(instance), "--alg", "round_robin"],
        "sweep": ["sweep", "--config", str(config)],
    }[command]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes a byte
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "efxlab", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
