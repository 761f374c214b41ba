"""JSON encodings of the domain objects.

Formats (all plain JSON objects):

* quiddity:  {"left_period": [...], "core": [...], "right_period": [...],
              "core_start": n}
* polygon:   {"n": n, "chords": [[u, v], ...]}
* strip:     {"window": [lo, hi], "margin": m, "m2_class": "...",
              "arcs": [{"a": ["L", i], "b": ["U", u]}, ...]}
             (one per peripheral (i, j) or bridging (i, u) pair, lower end as
             "a"; parsing accepts either end first, and a repeated arc once)
* frieze pattern: {"n": n, "fundamental": [[a, b, value], ...]}

The upper index class is a string: "empty", "finite:N", "nat_right",
"nat_left" or "bi_infinite".  Emission is deterministic: arcs and table rows
are sorted, keys are fixed, and `dumps` writes canonical JSON (indent=2,
sorted keys, trailing newline).  A strip file is that canonical JSON with
its arcs in lower-index order, a peripheral arc before a bridging one at the
same foot; `strip_dumps` writes exactly those bytes, one f-string per int
pair in the strip's `foot_order`, without the pure-Python encoder that
indent=2 forces on `json.dumps`.  Parsing validates structure and the type
invariants and raises SchemaError with the offending field.

`strip_loads` is the mirror of `strip_dumps`: text to strip, with the cyclic
garbage collector paused across decoding and building.  A decoded document
holds no reference cycles and reference counting frees it once its pairs
are read, yet allocating its hundreds of thousands of lists and dicts
triggers collections that walk every one still alive; pausing only around
`json.loads` defers those walks into the build.  `strip_from_json` checks
the common arc entry, {"a": ["L", i], "b": ["L" | "U", j]}, inline, and
sorts the pairs only when the document did not list them in order; any
other entry takes the field-by-field checks, so an error names the same
fault either way.
"""

from __future__ import annotations

import gc
import json
import sys
from typing import Any

from .polygon import FriezePattern, PolygonError, PolygonTriangulation
from .quiddity import QuiddityDescriptor, QuiddityError
from .strip import LOWER, UPPER, Arc, M2Class, MarkedPoint, StripError, StripTriangulation


class SchemaError(ValueError):
    """Malformed JSON document for one of the domain types."""


def _require(d: Any, key: str, what: str):
    if not isinstance(d, dict):
        raise SchemaError(f"{what}: expected a JSON object, got {type(d).__name__}")
    if key not in d:
        raise SchemaError(f"{what}: missing field {key!r}")
    return d[key]


def _int_list(x: Any, where: str) -> list[int]:
    if not isinstance(x, list) or any(not isinstance(v, int) or isinstance(v, bool)
                                      for v in x):
        raise SchemaError(f"{where}: expected a list of integers")
    return x


def quiddity_to_json(q: QuiddityDescriptor) -> dict:
    return {"left_period": list(q.left_period), "core": list(q.core),
            "right_period": list(q.right_period), "core_start": q.core_start}


def quiddity_from_json(d: Any) -> QuiddityDescriptor:
    lp = _int_list(_require(d, "left_period", "quiddity"), "quiddity.left_period")
    core = _int_list(_require(d, "core", "quiddity"), "quiddity.core")
    rp = _int_list(_require(d, "right_period", "quiddity"), "quiddity.right_period")
    start = _require(d, "core_start", "quiddity")
    if not isinstance(start, int) or isinstance(start, bool):
        raise SchemaError("quiddity.core_start: expected an integer")
    try:
        return QuiddityDescriptor(tuple(lp), tuple(core), tuple(rp), start)
    except QuiddityError as e:
        raise SchemaError(f"quiddity: {e}") from e


def polygon_to_json(p: PolygonTriangulation) -> dict:
    return {"n": p.n, "chords": [list(c) for c in sorted(p.chords)]}


def polygon_from_json(d: Any) -> PolygonTriangulation:
    n = _require(d, "n", "polygon")
    chords = _require(d, "chords", "polygon")
    if not isinstance(n, int) or isinstance(n, bool):
        raise SchemaError("polygon.n: expected an integer")
    if not isinstance(chords, list):
        raise SchemaError("polygon.chords: expected a list of pairs")
    pairs = []
    for c in chords:
        if (not isinstance(c, list) or len(c) != 2
                or any(not isinstance(v, int) or isinstance(v, bool) for v in c)):
            raise SchemaError(f"polygon.chords: bad chord {c!r}")
        pairs.append(tuple(c))
    try:
        return PolygonTriangulation(n, frozenset(pairs))
    except PolygonError as e:
        raise SchemaError(f"polygon: {e}") from e


def m2_to_str(m2: M2Class) -> str:
    return f"finite:{m2.size}" if m2.kind == "finite" else m2.kind


def m2_from_str(s: Any) -> M2Class:
    if not isinstance(s, str):
        raise SchemaError("m2_class: expected a string")
    try:
        if s.startswith("finite:"):
            return M2Class("finite", int(s.split(":", 1)[1]))
        return M2Class(s)
    except (ValueError, StripError) as e:
        raise SchemaError(f"m2_class: {e}") from e


def _point_from_json(x: Any) -> list:
    if type(x) is not list or len(x) != 2 or type(x[0]) is not str or type(x[1]) is not int:
        raise SchemaError(f"marked point: expected ['L'|'U', index], got {x!r}")
    return x


def strip_to_json(t: StripTriangulation) -> dict:
    return {
        "window": list(t.window),
        "margin": t.margin,
        "m2_class": m2_to_str(t.m2_class),
        "arcs": [{"a": [LOWER, i], "b": [end, j]} for i, end, j in t.arc_triples],
    }


_STRIP_ARC = ('\n    {\n      "a": [\n        "L",\n        %d\n      ],'
              '\n      "b": [\n        "%s",\n        %d\n      ]\n    }')
_HEAD, _MID, _TAIL = _STRIP_ARC.split("%d")  # split once, at import
_MID_L, _MID_U = _MID.replace("%s", LOWER), _MID.replace("%s", UPPER)
_STRIP_DOC = ('{\n  "arcs": [%s],\n  "m2_class": "%s",\n  "margin": %d,'
              '\n  "window": [\n    %d,\n    %d\n  ]\n}\n')
_DOC_HEAD, _DOC_TAIL = _STRIP_DOC.split("%s", 1)  # joined around the arcs by one copy


def strip_dumps(t: StripTriangulation) -> str:
    """The bytes of dumps(strip_to_json(t)), one f-string per arc (int ends print as %d)."""
    arcs = ",".join(t.foot_order([f"{_HEAD}{i}{_MID_L}{j}{_TAIL}" for i, j in t.peripheral_arcs],
                                 [f"{_HEAD}{i}{_MID_U}{u}{_TAIL}" for i, u in t.bridging_arcs]))
    tail = ("\n  " if arcs else "") + _DOC_TAIL % (m2_to_str(t.m2_class), t.margin, *t.window)
    return "".join((_DOC_HEAD, arcs, tail))  # no arcs print as []


def strip_from_json(d: Any) -> StripTriangulation:
    window = _int_list(_require(d, "window", "strip"), "strip.window")
    if len(window) != 2:
        raise SchemaError("strip.window: expected [lo, hi]")
    margin = _require(d, "margin", "strip")
    if not isinstance(margin, int) or isinstance(margin, bool):
        raise SchemaError("strip.margin: expected an integer")
    m2 = m2_from_str(_require(d, "m2_class", "strip"))
    raw = _require(d, "arcs", "strip")
    if not isinstance(raw, list):
        raise SchemaError("strip.arcs: expected a list")
    window, per, bri = (window[0], window[1]), [], []
    pairs = {LOWER: per, UPPER: bri}
    try:
        for entry in raw:
            try:  # the common entry, {"a": ["L", i], "b": ["L" | "U", j]}, inline
                a, b = entry["a"], entry["b"]
                (x, i), (y, j) = a, b
            except (TypeError, KeyError, ValueError):
                pass
            else:
                if type(a) is type(b) is list and type(i) is type(j) is int and x == LOWER:
                    if y == UPPER:
                        bri.append((i, j))
                        continue
                    if y == LOWER:
                        per.append((i, j) if i < j else (j, i))
                        continue
            a = _point_from_json(_require(entry, "a", "strip.arcs[]"))
            b = _point_from_json(_require(entry, "b", "strip.arcs[]"))
            if b < a:  # a document may list either end first
                a, b = b, a
            if a[0] != LOWER or b[0] not in pairs:  # the constructor names the broken rule
                StripTriangulation(window, margin, m2, [Arc(MarkedPoint(*a), MarkedPoint(*b))])
            pairs[b[0]].append((a[1], b[1]))
        try:  # from_pairs checks the order once; only a refused order is sorted
            t = StripTriangulation.from_pairs(window, margin, m2, per, bri)
        except StripError:  # its other rules do not depend on the order, so they refuse again
            t = StripTriangulation.from_pairs(  # sorted, and an arc listed twice kept once
                window, margin, m2, *(dict.fromkeys(sorted(p)) for p in (per, bri)))
        t.check_pairwise_noncrossing()
    except StripError as e:
        raise SchemaError(f"strip: {e}") from e
    return t


def frieze_pattern_to_json(f: FriezePattern) -> dict:
    rows = [[a, b, v] for (a, b), v in sorted(f.fundamental.items())]
    return {"n": f.n, "fundamental": rows}


def frieze_pattern_from_json(d: Any) -> FriezePattern:
    n = _require(d, "n", "frieze_pattern")
    rows = _require(d, "fundamental", "frieze_pattern")
    if not isinstance(n, int) or isinstance(n, bool):
        raise SchemaError("frieze_pattern.n: expected an integer")
    fundamental = {}
    for row in rows:
        if (not isinstance(row, list) or len(row) != 3
                or any(not isinstance(v, int) or isinstance(v, bool) for v in row)):
            raise SchemaError(f"frieze_pattern.fundamental: bad row {row!r}")
        a, b, v = row
        if not 1 <= a < b <= n:
            raise SchemaError(f"frieze_pattern.fundamental: bad pair ({a}, {b})")
        fundamental[(a, b)] = v
    want = n * (n - 1) // 2
    if len(fundamental) != want:
        raise SchemaError(f"frieze_pattern.fundamental: expected {want} entries")
    return FriezePattern(n, fundamental)


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or int() refusing a literal past the digit limit
        if "integer string conversion" in str(e):
            raise SchemaError(
                f"an integer in the JSON has more than {sys.get_int_max_str_digits()} digits, "
                f"Python's limit for reading an int (PYTHONINTMAXSTRDIGITS raises it)") from e
        raise SchemaError(f"malformed JSON: {e}") from e


def strip_loads(text: str) -> StripTriangulation:
    """strip_from_json(loads(text)), with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return strip_from_json(loads(text))
    finally:
        if enabled:
            gc.enable()
