"""Spans around the library's public functions, installed only for traced runs.

Each target is patched where its caller looks it up (a module global such as
friezes.synthesis.validate, or a class attribute such as
FriezeView.entry), so calls between library modules are seen too.  A span
records (name, start, end, parent span, (pass, op id)); spans stay in memory until
the run ends.  A target that a later refactor renamed or removed is reported
as missing instead of failing the run.

Counters are read off arguments and return values at the same boundaries.
The time spent reading them is recorded as a `trace.bookkeeping` child span,
so it is not charged to any layer's self time.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"


def _psi_counts(tr, args, kwargs, result, dur):
    tri = result.triangulation
    lo, hi = tri.window
    near = 0
    for arc in tri.arcs:
        ends = [arc.a.index] if arc.b.boundary == "U" else [arc.a.index, arc.b.index]
        near += any(lo <= e <= hi for e in ends)
    tr.count("synthesis.arcs_materialized", len(tri.arcs))
    tr.count("synthesis.window_arcs", near)
    if tr.token is not None:
        tr.psi_ms[tr.token] += dur * 1e3


def _step_a_counts(tr, args, kwargs, result, dur):
    tr.count("synthesis.step_a.passes", result.passes)
    if result.detected_at is not None:
        tr.count("synthesis.step_a.passes_after_detect", result.passes - result.detected_at)


def _strip_counts(tr, args, kwargs, result, dur):
    tr.count("strip.arcs", len(args[0].arcs))


def _dump_counts(tr, args, kwargs, result, dur):
    tr.count("serialize.dump.bytes", len(result))


def _cut_counts(tr, args, kwargs, result, dur):
    tr.count("counting.cut.polygon_n", result.polygon.n)


# (span name, module, attribute path, counter hook)
TARGETS = [
    ("cli.main", "friezes.cli", "main", None),
    ("quiddity.validate", "friezes.quiddity", "validate", None),
    ("quiddity.validate", "friezes.synthesis", "validate", None),
    ("quiddity.validate", "friezes.cli", "validate", None),
    ("frieze.entry", "friezes.frieze", "FriezeView.entry", None),
    ("frieze.continuant", "friezes.frieze", "FriezeView.continuant", None),
    ("frieze.identity", "friezes.frieze", "FriezeView.ptolemy_holds", None),
    ("frieze.identity", "friezes.frieze", "FriezeView.reconstruct_entry", None),
    ("frieze.identity", "friezes.frieze", "FriezeView.c_coeff", None),
    ("frieze.identity", "friezes.frieze", "FriezeView.d_coeff", None),
    ("synthesis.psi", "friezes.synthesis", "psi", _psi_counts),
    ("synthesis.step_a", "friezes.synthesis", "run_step_a", _step_a_counts),
    ("synthesis.step_a_pass", "friezes.synthesis", "step_a_pass", None),
    ("synthesis.pass_arcs", "friezes.synthesis", "pass_arcs", None),
    ("synthesis.step_b", "friezes.synthesis", "step_b", None),
    ("strip.construct", "friezes.strip", "StripTriangulation.__init__", _strip_counts),
    ("strip.noncrossing", "friezes.strip", "StripTriangulation.check_pairwise_noncrossing", None),
    ("strip.admissible", "friezes.strip", "StripTriangulation.is_admissible_window", None),
    ("strip.special_points", "friezes.strip", "StripTriangulation.special_upper_points", None),
    ("strip.quiddity_of", "friezes.strip", "StripTriangulation.quiddity_of", None),
    ("strip.maximality", "friezes.strip", "StripTriangulation.check_window_maximality", None),
    ("serialize.dump", "friezes.serialize", "strip_to_json", None),
    ("serialize.dump", "friezes.serialize", "dumps", _dump_counts),
    ("serialize.load", "friezes.serialize", "loads", None),
    ("serialize.load", "friezes.serialize", "quiddity_from_json", None),
    ("serialize.load", "friezes.serialize", "strip_from_json", None),
    ("counting.cut", "friezes.counting", "cut_polygon", _cut_counts),
    ("counting.cc", "friezes.counting", "cc_entry", None),
    ("counting.bci", "friezes.counting", "bci_entry", None),
    ("polygon.construct", "friezes.polygon", "PolygonTriangulation.__init__", None),
    ("polygon.faces", "friezes.polygon", "PolygonTriangulation.faces", None),
    ("polygon.cc_labels", "friezes.polygon", "PolygonTriangulation.cc_labels", None),
    ("polygon.bci_count", "friezes.polygon", "PolygonTriangulation.bci_count", None),
]

# Counters whose hook reads library objects; listed as missing if it fails.
HOOKED = {"synthesis.psi": ["synthesis.arcs_materialized", "synthesis.window_arc_share"],
          "synthesis.step_a": ["synthesis.step_a.passes", "synthesis.step_a.passes_after_detect"],
          "strip.construct": ["strip.arcs"], "serialize.dump": ["serialize.dump.bytes"],
          "counting.cut": ["counting.cut.polygon_n"]}


class Tracer:
    """Spans and counters of the operations run while `token` is set.

    The harness sets token = (pass number, op id) around each timed call and
    fills speed[token] with that call's machine-speed factor afterwards.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []   # (name, start, end, parent, token)
        self.stack: list[int] = []
        self.token: tuple[int, str] | None = None
        self.speed: dict[tuple[int, str], float] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.psi_ms: dict[tuple[int, str], float] = defaultdict(float)  # inclusive, wall
        self.missing: set[str] = set()        # targets, spans or counters not measured
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, n: float) -> None:
        if self.token is not None:
            self.counters[name] += n

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        self.spans[idx] = (name, start, end, parent, self.token)

    def wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(idx, name, start, end)
            if hook is not None and HOOKED[name][0] not in tracer.missing:
                b = tracer._open(BOOKKEEPING)
                b_start = perf_counter()
                try:
                    hook(tracer, args, kwargs, result, end - start)
                except (AttributeError, TypeError):
                    tracer.missing.update(HOOKED[name])
                tracer._close(b, BOOKKEEPING, b_start, perf_counter())
            return result
        return traced

    def install(self) -> None:
        found = set()
        for name, module, path, hook in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(f"{module}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, original, hook))
            self._patched.append((owner, attr, original))
            found.add(name)
        for name, _, _, _ in TARGETS:
            if name not in found:
                self.missing.add(name)
                self.missing.update(HOOKED.get(name, []))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Normalized self seconds and call counts per span name, over spans inside ops."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for k, (name, start, end, parent, token) in enumerate(self.spans):
            if token is None or name == BOOKKEEPING:
                continue
            self_s[name] += (end - start - child[k]) * self.speed[token]
            calls[name] += 1
        return self_s, calls
