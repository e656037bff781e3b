"""Span tracing for the benchmark's traced run.

`install` wraps the wkit functions at each layer boundary under the name
the caller looks them up by (the modules use `from ... import`, so
`wkit.cli.is_williamson` and `wkit.hadamard.is_williamson` are separate
bindings of one function).  Each call records a span: name, start, end,
parent span, op id and whether it raised.  Spans stay in memory and are
written once, when the client exits; `summarize` turns them into calls,
inclusive time, self time and errors per span name.
"""

from __future__ import annotations

import importlib
import inspect
import time

# (module, attribute, span name).  A span's self time is its duration minus
# the time covered by its direct child spans.
WRAPPED = (
    ("wkit.cli", "main", "cli.main"),
    ("wkit.cli", "format_results", "cli.format_results"),
    ("wkit.cli", "search", "search.search"),
    ("wkit.cli", "parse_quadruple", "seqcore.parse"),
    ("wkit.cli", "parse_sequence", "seqcore.parse"),
    ("wkit.cli", "is_williamson", "seqcore.is_williamson"),
    ("wkit.cli", "product_theorem_even_check", "theorems.product_check"),
    ("wkit.cli", "product_theorem_odd_check", "theorems.product_check"),
    ("wkit.cli", "corollary_mod4_check", "theorems.mod4_check"),
    ("wkit.cli", "hall_identity_check", "groupring.hall"),
    ("wkit.cli", "williamson_array", "hadamard.williamson_array"),
    ("wkit.cli", "is_hadamard", "hadamard.is_hadamard"),
    ("wkit.cli", "matrix_to_text", "hadamard.matrix_to_text"),
    ("wkit.search", "enumerate_symmetric", "search.enumerate_symmetric"),
    ("wkit.search", "product_condition", "theorems.product_condition"),
    ("wkit.search", "quadruple_to_text", "seqcore.text"),
    ("wkit.search", "sequence_to_text", "seqcore.text"),
    ("wkit.search", "parse_quadruple", "seqcore.parse"),
    ("wkit.hadamard", "is_williamson", "seqcore.is_williamson"),
    ("wkit.theorems", "is_williamson", "seqcore.is_williamson"),
    ("wkit.groupring", "is_williamson", "seqcore.is_williamson"),
)
# `wkit check` looks its predicates up in this table, filled at import.
WRAPPED_CHECKS = (("matrix-williamson", "seqcore.matrix_williamson_check"),)

SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in WRAPPED + WRAPPED_CHECKS))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, error]
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        generator = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # Drain inside the span so the work is timed where it runs.
                    result = iter(list(result))
                return result
            except BaseException:
                rec[5] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every boundary in WRAPPED.  A binding the program no longer has
    is an error: the per-layer metrics would silently read 0, so WRAPPED
    has to be updated along with the program."""
    for module_name, attr, name in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            raise LookupError(f"trace: {module_name}.{attr} not found; update tracing.WRAPPED")
        setattr(module, attr, tracer.wrap(name, fn))
    checks = getattr(importlib.import_module("wkit.cli"), "_CHECKS", {})
    for key, name in WRAPPED_CHECKS:
        if key not in checks:
            raise LookupError(f"trace: check {key!r} not found; update tracing.WRAPPED_CHECKS")
        wants_quadruple, predicate = checks[key]
        checks[key] = (wants_quadruple, tracer.wrap(name, predicate))


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, errors."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _err in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "incl": 0.0, "self": 0.0, "errors": 0} for name in SPAN_NAMES}
    for i, (name, start, end, _parent, _op, err) in enumerate(spans):
        s = out[name]
        s["calls"] += 1
        s["incl"] += end - start
        s["self"] += end - start - child[i]
        s["errors"] += err
    return out
