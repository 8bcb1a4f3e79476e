"""Spans around the calls into each scribal module, recorded from outside.

The tracer replaces each traced function on its module with a wrapper,
and also every alias bound to it by ``from ... import`` (``cli`` and
``corpus`` each bind their own ``parse_rational``; ``scribal/__init__``
re-exports the originals). Library code that calls through a module
attribute or a module global then reaches the wrapper, so
``table_2_over_n`` -> ``decompose`` and ``corpus.replay`` ->
``arith.decompose`` nest as child spans. Nothing under ``src/`` changes.

A span is (op, parent span, name, start ns, end ns); spans of one op
share the op id. Spans stay in memory until the traced pass ends. A
layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter
from time import perf_counter_ns

# The traced spans; each yields `<span>.calls` and `<span>.self_s`. The
# end-to-end metric and workload each should move is in README.md.
SPANS = (
    "rational.parse_rational",
    *(f"arith.decompose.shortest_search.{q}" for q in ("t0", "t1", "t2", "t3", "t4", "bounds")),
    "arith.decompose.greedy",
    "arith.decompose.splitting",
    "arith.table_2_over_n",
    "arith.duplation_multiply",
    "arith.divide_loaves",
    "arith.sequem_complete",
    "equations.solve_hau",
    "equations.solve_hau_false_position",
    "equations.arithmetic_shares",
    "equations.geometric_ladder",
    "geometry.edfu_error_report",
    "geometry.random_convex_quadrilateral",
    "geometry.exact_polygon_area",
    "geometry.sqrt_bounds",
    "geometry.pi_comparison_set",
    "corpus.load_corpus",
    "corpus.replay",
    "corpus.render_report.text",
    "corpus.render_report.json",
    "corpus.render_report.csv",
    "cli.main",
    "cli.build_parser",
)

# Counts taken at the same boundaries.
COUNTS = (
    "arith.decompose.terms",
    "geometry.sqrt_bounds.exact",
    "corpus.load_corpus.problems",
    *(f"corpus.replay.{status}" for status in ("match", "scribal_error", "no_recorded_answer", "engine_error")),
)

OVERHEAD = "trace.overhead_s"


def metric_names() -> list[str]:
    names = [f"{span}.{stat}" for span in SPANS for stat in ("calls", "self_s")]
    return names + list(COUNTS) + [OVERHEAD]


# -- naming a finished call -----------------------------------------------------
# Each namer gets (span base name, args, kwargs, result, exception, counts)
# and returns the span's full name, adding to the counts on the way.


def _plain(base, args, kwargs, result, exc, counts):
    return base


def _decompose(default_policy, bounds_error):
    def name(base, args, kwargs, result, exc, counts):
        policy = args[1] if len(args) > 1 else kwargs.get("policy", default_policy)
        if policy.strategy != "shortest_search":
            qualifier = policy.strategy
        elif isinstance(exc, bounds_error):
            qualifier = "shortest_search.bounds"
        elif exc is not None:
            qualifier = "shortest_search.error"
        else:
            qualifier = f"shortest_search.t{result.term_count}"
        if result is not None:
            counts["arith.decompose.terms"] += result.term_count
        return f"{base}.{qualifier}"

    return name


def _sqrt_bounds(base, args, kwargs, result, exc, counts):
    if result is not None and result[2]:
        counts["geometry.sqrt_bounds.exact"] += 1
    return base


def _load_corpus(base, args, kwargs, result, exc, counts):
    if result is not None:
        counts["corpus.load_corpus.problems"] += len(result)
    return base


def _replay(base, args, kwargs, result, exc, counts):
    if result is not None:
        counts[f"corpus.replay.{result.status}"] += 1
    return base


def _render_report(base, args, kwargs, result, exc, counts):
    return f"{base}.{args[1] if len(args) > 1 else kwargs.get('fmt', 'text')}"


class Tracer:
    """Patch the traced functions on entry, restore them on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patches: list = []

    def _targets(self):
        from scribal import arith, cli, corpus, equations, geometry, rational

        decompose = _decompose(arith.decompose.__defaults__[0], arith.BoundsExceededError)
        plain = {
            rational: ("parse_rational",),
            arith: ("table_2_over_n", "duplation_multiply", "divide_loaves", "sequem_complete"),
            equations: ("solve_hau", "solve_hau_false_position", "arithmetic_shares", "geometric_ladder"),
            geometry: ("edfu_error_report", "random_convex_quadrilateral", "exact_polygon_area",
                       "pi_comparison_set"),
            cli: ("main", "build_parser"),
        }
        for module, names in plain.items():
            for fn in names:
                yield module, fn, _plain
        yield arith, "decompose", decompose
        yield geometry, "sqrt_bounds", _sqrt_bounds
        yield corpus, "load_corpus", _load_corpus
        yield corpus, "replay", _replay
        yield corpus, "render_report", _render_report

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "scribal" or n.startswith("scribal.")]
        for module, fn, namer in self._targets():
            original = getattr(module, fn)
            wrapper = self._wrap(original, f"{module.__name__.rpartition('.')[2]}.{fn}", namer)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, original, base, namer):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            result = exc = None
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (self.op, parent, namer(base, args, kwargs, result, exc, counts), start, end)

        traced.__wrapped__ = original
        return traced

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        self_ns = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        totals: dict[str, list] = {}
        for (_, _, name, _, _), own in zip(self.spans, self_ns):
            if name not in SPANS:
                raise ValueError(f"span {name!r} is not a declared layer")
            entry = totals.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += own
        return {name: (calls, ns / 1e9) for name, (calls, ns) in totals.items()}

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for sid, (op, parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{op}\t{sid}\t{parent}\t{name}\t{start}\t{end}\n")
