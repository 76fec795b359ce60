"""Span tracing of efxlab's public functions, done from outside the package.

``from .x import y`` binds ``y`` once per importing module, so a wrapper
placed only on the defining module would miss most calls. ``install``
therefore replaces the original object under every name that refers to it:
module attributes of every loaded ``efxlab`` module, values of module-level
dicts (``harness.BLACKBOXES`` holds ``envy_cycle_heuristic`` itself), and
class attributes for methods. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter
from typing import Callable

# Defining module, then the attribute path inside it. "QueryOracle" is the
# constructor (its __init__); the span name is "<module>.<path>".
TRACED = (
    ("harness", "generate_instance"),
    ("harness", "execute"),
    ("harness", "sweep"),
    ("cli", "main"),
    ("core", "Instance.from_rows"),
    ("core", "Instance.loads"),
    ("core", "build_ranking"),
    ("core", "fairness_report"),
    ("core", "validate"),
    ("elicitation", "QueryOracle"),
    ("elicitation", "QueryOracle.query"),
    ("ordinal", "round_robin"),
    ("ordinal", "rrla"),
    ("query_enhanced", "virtual_efx"),
    ("query_enhanced", "bucketize"),
    ("query_enhanced", "prr"),
    ("query_enhanced", "theorem5_params"),
    ("bivalued", "match_and_freeze"),
    ("bivalued", "match_freeze_round"),
    ("bivalued", "prioritized_max_matching"),
    ("bivalued", "discover_transition"),
    ("bivalued", "mfrr"),
    ("bivalued", "two_query_bivalued"),
    ("fullinfo", "best_alpha_bruteforce"),
    ("fullinfo", "exact_efx_bruteforce"),
    ("fullinfo", "envy_cycle_heuristic"),
    ("enclosures", "pow_enclosure"),
    ("enclosures", "nth_root_enclosure"),
    ("enclosures", "sqrt_enclosure"),
    ("adversarial", "ordinal_lb_build"),
    ("adversarial", "ordinal_adversary_pick"),
    ("adversarial", "query_lb_build"),
    ("adversarial", "query_adversary_complete"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TRACED)
OP_SPAN = "bench.op"

# Unit of every per-layer metric the traced run reports.
UNITS = {
    **{f"{name}.calls": "count" for name in SPAN_NAMES},
    **{f"{name}.self_ms": "ms" for name in SPAN_NAMES},
    "elicitation.queries_per_agent_max": "count",
    "elicitation.fresh_query_ratio": "ratio",
    "trace.ops_per_s_traced": "1/s",
    "trace.ops_per_s_untraced": "1/s",
    "trace.overhead_share": "share",
}


class Tracer:
    """In-memory span recorder; recording happens only while ``on`` is set.

    A span is (name, start, end, parent index, op id), parent -1 for a root.
    Oracles built while recording are kept until ``take_oracles`` so their
    query counts can be read after the op.
    """

    def __init__(self) -> None:
        self.on = False
        self.op = -1
        self.spans: list = []
        self._stack: list[int] = []
        self._oracles: list = []

    def _call(self, name: str, fn: Callable, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs)

        return traced

    def run_op(self, op_id: int, fn: Callable):
        """Call ``fn`` as one op under a root span."""
        self.op = op_id
        return self._call(OP_SPAN, fn, (), {})

    def take_oracles(self) -> list:
        oracles, self._oracles = self._oracles, []
        return oracles

    def install(self) -> None:
        """Wrap every traced function under each name that refers to it."""
        import efxlab.elicitation as elicitation

        tracer = self
        original_init = elicitation.QueryOracle.__init__

        def init_and_register(oracle, *args, **kwargs):
            original_init(oracle, *args, **kwargs)
            if tracer.on:
                tracer._oracles.append(oracle)

        elicitation.QueryOracle.__init__ = init_and_register

        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if (name == "efxlab" or name.startswith("efxlab.")) and mod is not None
        ]
        for (mod_name, path), span_name in zip(TRACED, SPAN_NAMES):
            owner = sys.modules[f"efxlab.{mod_name}"]
            parts = path.split(".")
            if len(parts) == 2:
                cls = getattr(owner, parts[0])
                attr = parts[1]
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self.wrap(span_name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(span_name, raw))
                continue
            original = getattr(owner, parts[0])
            if isinstance(original, type):
                # A class: trace construction through its __init__.
                original.__init__ = self.wrap(span_name, original.__init__)
                continue
            wrapped = self.wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapped

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: list, passes: int) -> dict[str, float]:
    """``<span>.calls`` and ``<span>.self_ms`` per traced pass, for every name."""
    calls = {name: 0 for name in SPAN_NAMES}
    self_s = {name: 0.0 for name in SPAN_NAMES}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        if name in calls:
            calls[name] += 1
            self_s[name] += own
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_ms"] = self_s[name] * 1000.0 / passes
    return out
