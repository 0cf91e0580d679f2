"""Per-layer spans and counts for qfact, recorded from outside the package.

The tracer rebinds each public function at every qfact module that holds
it (the defining module and every module that imported the name), so calls
between layers go through a wrapper that records a span. Spans live in
memory as (name, start, end, parent, case) tuples; self time is a span's
duration minus the time its child spans cover. `uninstall` puts the
original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from math import lcm
from time import perf_counter

LAYERS = {
    "cli": ("run",),
    "laurent": ("parse_laurent", "newton_polytope", "homogenize", "partial_derivatives"),
    "lattice": ("convex_hull", "lattice_points", "normal_fan", "is_simplicial"),
    "toric": ("build_toric_data", "polytope_degree", "monomials_of_degree"),
    "linalg": ("smith_normal_form", "solve_integer", "rank", "rank_and_pivot_columns"),
    "jacobian": ("graded_piece", "multiplication_surjective", "hilbert_profile"),
    "certify": ("certify", "sample_coefficients", "emit_report"),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

# Time spent computing the counts below; it is tracing overhead, kept out
# of every layer's self time.
COUNT_SPAN = "trace.count"


def _cells(result, args):
    A = args[0]
    return {"cells": A.nrows * A.ncols}


def _integerized_bits(result, args):
    """Cells and the largest entry size, in bits, once each row is scaled
    by the lcm of its denominators, which is what the elimination sees."""
    A = args[0]
    bits = 0
    for row in A.entries:
        scale = lcm(*(f.denominator for f in row)) if row else 1
        for f in row:
            bits = max(bits, abs(f.numerator * (scale // f.denominator)).bit_length())
    return {"cells": A.nrows * A.ncols, "max_bits": bits}


def _length(key):
    return lambda result, args: {key: len(result)}


COUNTERS = {
    "lattice.lattice_points": _length("points"),
    "toric.monomials_of_degree": _length("monomials"),
    "jacobian.graded_piece": lambda result, args: {"rows": result.jacobian_rows.nrows},
    "linalg.rank": _cells,
    "linalg.rank_and_pivot_columns": _integerized_bits,
}

# Counts that are a maximum over calls rather than a sum.
MAX_COUNTS = {"linalg.rank_and_pivot_columns.max_bits"}

COUNT_METRICS = (
    "lattice.lattice_points.points",
    "toric.monomials_of_degree.monomials",
    "jacobian.graded_piece.rows",
    "linalg.rank.cells",
    "linalg.rank_and_pivot_columns.cells",
    "linalg.rank_and_pivot_columns.max_bits",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.case = None
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._rebound: list[tuple] = []

    def install(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qfact" or name.startswith("qfact."))
        ]
        for label in FUNCTIONS:
            layer, fname = label.split(".")
            original = getattr(sys.modules[f"qfact.{layer}"], fname)
            wrapper = self._wrap(label, original, COUNTERS.get(label))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, label, fn, counter):
        spans, stack, counts = self.spans, self._stack, self._counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.case)
            counts[f"{label}.calls"] += 1
            if counter is not None:
                c_start = perf_counter()
                for key, value in counter(result, args).items():
                    name = f"{label}.{key}"
                    if name in MAX_COUNTS:
                        counts[name] = max(counts[name], value)
                    else:
                        counts[name] += value
                spans.append((COUNT_SPAN, c_start, perf_counter(), parent, self.case))
            return result

        return traced

    def metrics(self, scale):
        """Per-layer metrics of everything recorded; `scale` turns wall
        seconds into reference seconds."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += (end - start - child_time[i]) * scale
        metrics = {}
        for label in FUNCTIONS:
            metrics[f"{label}.self_s"] = self_s.get(label, 0.0)
            metrics[f"{label}.calls"] = self._counts[f"{label}.calls"]
        for name in COUNT_METRICS:
            metrics[name] = self._counts[name]
        metrics[f"{COUNT_SPAN}.self_s"] = self_s.get(COUNT_SPAN, 0.0)
        return metrics


def write_spans(path, passes):
    """One JSON line per span; `passes` is a list of span lists."""
    with open(path, "w") as fh:
        for n, spans in enumerate(passes):
            for name, start, end, parent, case in spans:
                fh.write(json.dumps({
                    "pass": n, "name": name, "start": start, "end": end,
                    "parent": parent, "case": case,
                }) + "\n")
