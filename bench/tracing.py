"""Span tracing from outside the program.

Each traced function is replaced, in every loaded ``wtcpir`` module that
refers to it, by a wrapper that records one span: name, start, end,
parent span and op id.  Wrapping happens at the name the caller looks
up (``wtcpir.protocol.mat_solve``, ``wtcpir.cli.upper_bound``, ...), so
nothing in ``src/`` changes and the wrappers cost nothing when not
installed.  Spans stay in memory until the run ends.

Self time is a span's duration minus the durations of its direct
children; since a single thread runs every op, children nest strictly
inside their parent and the self times of an op's spans add up to the
op's duration exactly.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

OP_SPAN = "bench.op"


def _rows(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return {"rows": len(a)}


def _json_out(args, kwargs, result):
    return {"bytes": len(result)}


def _json_in(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text) if isinstance(text, str) else 0}


def _security(args, kwargs, result):
    dbs = [e for e in result["databases"] if e["t"]]
    return {
        "sets_tested": sum(e["sets_tested"] for e in dbs),
        "databases": len(dbs),
        # a found failing set proves FAIL; an exhaustive search proves PASS
        "proved": sum(1 for e in dbs if e["exhaustive"] or e["status"] == "FAIL"),
    }


#: (module, function, span name, attribute extractor).  Span names are
#: "<layer>.<function>"; the layers are the package's modules.
TARGETS = (
    ("fieldmath", "mat_rank", "fieldmath.mat_rank", None),
    ("fieldmath", "mat_solve", "fieldmath.mat_solve", _rows),
    ("fieldmath", "mds_generator", "fieldmath.mds_generator", None),
    ("schemes", "best_scheme", "schemes.best_scheme", None),
    ("schemes", "achievable_rate", "schemes.achievable_rate", None),
    ("capacity", "upper_bound", "capacity.upper_bound", None),
    ("capacity", "constraint_coefficients", "capacity.constraint_coefficients", None),
    ("capacity", "_solve_restricted", "capacity.solve_restricted", None),
    ("planner", "build_plan", "planner.build_plan", None),
    ("planner", "plan_violations", "planner.plan_violations", None),
    ("planner", "plan_to_json", "planner.plan_to_json", _json_out),
    ("planner", "plan_from_json", "planner.plan_from_json", _json_in),
    ("planner", "plan_to_table", "planner.plan_to_table", None),
    ("planner", "plan_stats", "planner.plan_stats", None),
    ("protocol", "random_store", "protocol.random_store", None),
    ("protocol", "run_retrieval", "protocol.run_retrieval", None),
    ("protocol", "decode", "protocol.decode", None),
    ("protocol", "audit_privacy", "protocol.audit_privacy", None),
    ("protocol", "audit_security", "protocol.audit_security", _security),
    ("protocol", "audit_decodability", "protocol.audit_decodability", None),
    ("cli", "main", "cli.main", None),
)


class Recorder:
    """In-memory span store.  A span is the list
    ``[name, start_ns, end_ns, parent_index, op_id, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap every target at each name that refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wtcpir" or n.startswith("wtcpir."))]
        for mod_name, attr, name, attrs in TARGETS:
            orig = getattr(sys.modules[f"wtcpir.{mod_name}"], attr)
            wrapped = self.wrap(name, orig, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()


def self_times(spans) -> list[int]:
    """Per span, its duration minus its direct children's durations (ns)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def nesting_errors(spans) -> int:
    """Spans that do not lie inside their parent, or op roots with a parent."""
    bad = 0
    for s in spans:
        if s[3] >= 0:
            p = spans[s[3]]
            bad += not (p[1] <= s[1] and s[2] <= p[2] and p[4] == s[4])
        else:
            bad += s[0] != OP_SPAN
    return bad


def self_sum_residual_ns(spans, own) -> int:
    """Largest |sum of self times in an op - that op's root duration|."""
    sums = defaultdict(int)
    roots = {}
    for s, o in zip(spans, own):
        sums[s[4]] += o
        if s[0] == OP_SPAN:
            roots[s[4]] = s[2] - s[1]
    return max((abs(sums[op] - dur) for op, dur in roots.items()), default=0)


def ancestors_named(spans, name) -> list[bool]:
    """Per span: is it, or is one of its ancestors, named ``name``?"""
    under = [False] * len(spans)
    for i, s in enumerate(spans):  # parents precede children
        under[i] = s[0] == name or (s[3] >= 0 and under[s[3]])
    return under


def summarize(spans, own) -> dict:
    """Per span name: calls, total ns, self ns and summed attributes."""
    out: dict[str, dict] = {}
    for s, o in zip(spans, own):
        agg = out.setdefault(s[0], {"calls": 0, "ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["ns"] += s[2] - s[1]
        agg["self_ns"] += o
        for k, v in (s[5] or {}).items():
            agg[k] = agg.get(k, 0) + v
    return out
