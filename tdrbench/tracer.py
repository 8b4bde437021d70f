"""Spans around tdr's public functions, recorded from outside the program.

Each traced name is replaced, in every tdr module namespace that holds
it, by a wrapper that records a span (name, start, end, parent span,
operation) and adds its duration to the parent's child time, so that
self time is span time minus child spans.  Matrix.__matmul__ is wrapped
on the class.  Spans stay in memory, up to a cap, and are written out
when the run ends; the per-name totals always cover every call.  A target
that cannot be found stops the run.  A call the wrappers cannot see (a
reference captured before install) reads as 0 calls, so the traced run
also checks that each workload reaches the layers it names in
workloads.REACHES.
"""

import importlib
import sys
from array import array
from time import perf_counter_ns

# (module, function) pairs; "exactalg.matmul" is Matrix.__matmul__
TARGETS = [
    ("exactalg", name) for name in (
        "rref", "rank", "det", "inverse", "nullspace", "column_space",
        "preimage", "matmul", "charpoly", "factor_poly", "rational_canonical",
        "graded_jordan_chains")
] + [
    ("representation", name) for name in (
        "apply_group_element", "direct_sum", "reverse_wire_rep", "contract",
        "validate_representation")
] + [
    ("decompose", "decompose"), ("decompose", "isomorphic"),
    ("decompose", "realize"), ("classify", "classify_diagram"),
    ("semigraph", "validate_diagram"), ("semigraph", "neighborhood"),
    ("semigraph", "connected_components"), ("generate", "gen_random"),
    ("flows", "extend_flow"), ("wildness", "needle_rep_from_pair"),
    ("wildness", "sim_similarity_solve"), ("cli", "run"),
]

SPAN_FIELDS = ("id", "parent", "name", "op", "start_ns", "end_ns")


def _cells(m):
    return m.rows * m.cols


def _mults(a, b):
    return a.rows * a.cols * b.cols


class Tracer:
    def __init__(self, max_spans=200_000):
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.sizes = {"exactalg.rref.cells": 0, "exactalg.rank.cells": 0,
                      "exactalg.matmul.mults": 0}
        self.factored = set()
        self.stack = []
        self.spans = array("q")
        self.max_spans = max_spans
        self.dropped = 0
        self.next_id = 1
        self.op = 0
        self._undo = []

    def _wrap(self, idx, fn):
        name = self.names[idx]
        size_key, size_of = {
            "exactalg.rref": ("exactalg.rref.cells", _cells),
            "exactalg.rank": ("exactalg.rank.cells", _cells),
            "exactalg.matmul": ("exactalg.matmul.mults", _mults),
        }.get(name, (None, None))
        is_factor = name == "exactalg.factor_poly"
        tracer = self

        def traced(*args, **kwargs):
            if size_key is not None:
                tracer.sizes[size_key] += size_of(*args)
            if is_factor:
                tracer.factored.add(args[0].coeffs)
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][3] if stack else 0
            frame = [idx, perf_counter_ns(), 0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[1]
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(tracer.spans) < tracer.max_spans * 6:
                    tracer.spans.extend((span_id, parent, idx, tracer.op,
                                         frame[1], end))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wraps every target; raises if one cannot be found in its module."""
        homes = {mod: importlib.import_module(f"tdr.{mod}") for mod, _ in TARGETS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tdr" or n.startswith("tdr."))]
        for idx, (mod, fn_name) in enumerate(TARGETS):
            if fn_name == "matmul":
                matrix = homes[mod].Matrix
                orig = matrix.__matmul__
                matrix.__matmul__ = self._wrap(idx, orig)
                self._undo.append((matrix, "__matmul__", orig))
                continue
            orig = getattr(homes[mod], fn_name, None)
            if not callable(orig):
                self.uninstall()
                raise LookupError(f"tracer target tdr.{mod}.{fn_name} not found")
            wrapped = self._wrap(idx, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def metrics(self, ops, factor):
        """Per-operation counts and self times, plus the size counters;
        self times are scaled by the run's reference speed factor."""
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx] / ops, "calls/op")
            out[f"{name}.self_ms"] = (self.self_ns[idx] * factor / 1e6 / ops, "ms/op")
        for key, val in self.sizes.items():
            out[key] = (val / ops, key.rsplit(".", 1)[1] + "/op")
        out["exactalg.factor_poly.distinct"] = (len(self.factored), "count")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            s = self.spans
            for k in range(0, len(s), 6):
                fh.write(f"{s[k]}\t{s[k + 1]}\t{self.names[s[k + 2]]}\t"
                         f"{s[k + 3]}\t{s[k + 4]}\t{s[k + 5]}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} spans past the cap were not kept\n")
