"""What the benchmark in ``efxbench/`` reads from the package must exist: every
name its tracer wraps (``tracing.TRACED``) and the oracle's query counts. A
deletion in the package then fails here instead of breaking the traced
benchmark run. No benchmark is run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from efxlab import Instance, QueryOracle, elicitation, harness

TRACING = Path(__file__).resolve().parent.parent / "efxbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("efxbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize("module,path", TRACED, ids=[f"{m}.{p}" for m, p in TRACED])
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"efxlab.{module}")
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # The tracer replaces a method in the class's own namespace.
    assert name in vars(owner)
    assert callable(getattr(owner, name))


def test_oracle_reports_query_counts_per_agent():
    oracle = QueryOracle(Instance.from_rows([[1, 2], [3, 4]]))
    oracle.query(1, 0)
    assert oracle.snapshot_counts() == {0: 0, 1: 1}


def test_a_traced_run_registers_its_one_oracle(monkeypatch):
    """The tracer wraps ``QueryOracle.__init__`` to collect each op's oracles
    and reads their ``snapshot_counts()``; ``execute`` must build exactly one
    oracle through it, whose counts are the run's."""
    registered = []
    original_init = elicitation.QueryOracle.__init__

    def init_and_register(oracle, *args, **kwargs):
        original_init(oracle, *args, **kwargs)
        registered.append(oracle)

    monkeypatch.setattr(elicitation.QueryOracle, "__init__", init_and_register)
    record = harness.execute(harness.generate_instance("uniform", 4, 30, seed=3), "prr")
    assert len(registered) == 1
    assert list(registered[0].snapshot_counts().values()) == record.query_counts
    assert sum(record.query_counts) > 0
