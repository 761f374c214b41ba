"""JSON round trips and schema rejection."""

from __future__ import annotations

import gc
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from friezes import QuiddityDescriptor, psi, serialize
from friezes.polygon import PolygonTriangulation
from friezes.serialize import (SchemaError, dumps, frieze_pattern_from_json,
                               frieze_pattern_to_json, loads, m2_from_str,
                               m2_to_str, polygon_from_json, polygon_to_json,
                               quiddity_from_json, quiddity_to_json,
                               strip_dumps, strip_from_json, strip_loads, strip_to_json)

import refdata
from corpus import bijection_corpus, enough_ones_corpus
from oracles import strip_from_json_oracle

GOLDEN = Path(__file__).parent / "golden"


def test_quiddity_round_trip():
    for q in (refdata.LINEAR, refdata.BUMPED, refdata.ZIGZAG, refdata.MIXED_TAILS):
        assert quiddity_from_json(quiddity_to_json(q)) == q
        assert loads(dumps(quiddity_to_json(q))) == quiddity_to_json(q)


def test_quiddity_schema_rejections():
    with pytest.raises(SchemaError):
        quiddity_from_json({"left_period": [2], "core": [0], "right_period": [2],
                            "core_start": 0})
    with pytest.raises(SchemaError):
        quiddity_from_json({"left_period": [2], "core": [], "core_start": 0})
    with pytest.raises(SchemaError):
        quiddity_from_json({"left_period": [2], "core": ["x"],
                            "right_period": [2], "core_start": 0})
    with pytest.raises(SchemaError):
        quiddity_from_json([1, 2, 3])


def test_polygon_round_trip_and_rejections():
    p = PolygonTriangulation(5, frozenset({(1, 3), (1, 4)}))
    assert polygon_from_json(polygon_to_json(p)) == p
    with pytest.raises(SchemaError):
        polygon_from_json({"n": 5, "chords": [[1, 2]]})  # adjacent vertices
    with pytest.raises(SchemaError):
        polygon_from_json({"n": 5, "chords": [[1, 3]]})  # not maximal


def test_m2_string_forms():
    for s in ("empty", "finite:4", "nat_right", "nat_left", "bi_infinite"):
        assert m2_to_str(m2_from_str(s)) == s
    with pytest.raises(SchemaError):
        m2_from_str("finite:x")
    with pytest.raises(SchemaError):
        m2_from_str("upper")


def test_strip_round_trip_for_all_classes():
    for q, window in [(refdata.LINEAR, (-4, 4)), (refdata.BUMPED, (-4, 4)),
                      (refdata.MIXED_TAILS, (-6, 6)), (refdata.ZIGZAG, (-4, 4))]:
        tri = psi(q, window).triangulation
        doc = strip_to_json(tri)
        back = strip_from_json(doc)
        assert back == tri
        assert strip_to_json(back) == doc  # emit . parse = id on documents


def test_strip_emission_is_sorted_and_deterministic():
    tri = psi(refdata.MIXED_TAILS, (-5, 5)).triangulation
    doc1, doc2 = dumps(strip_to_json(tri)), dumps(strip_to_json(tri))
    assert doc1 == doc2
    arcs = strip_to_json(tri)["arcs"]
    assert arcs == sorted(arcs, key=lambda a: (a["a"], a["b"]))


def test_strip_schema_rejects_crossing_arcs():
    doc = {"window": [-2, 2], "margin": 1, "m2_class": "empty",
           "arcs": [{"a": ["L", 0], "b": ["L", 2]},
                    {"a": ["L", 1], "b": ["L", 3]}]}
    with pytest.raises(SchemaError):
        strip_from_json(doc)


def test_strip_schema_rejects_bad_points():
    def doc(a, b, m2="empty"):
        return {"window": [-2, 2], "margin": 1, "m2_class": m2,
                "arcs": [{"a": a, "b": b}]}

    for a, b in ((["X", 0], ["L", 2]),     # unknown boundary
                 (["U", 0], ["U", 2]),     # upper-upper
                 (["L", 1], ["L", 1]),     # equal endpoints
                 (["L", 1], ["L", 2]),     # span 1
                 (["L", "1"], ["L", 3])):  # non-integer index
        with pytest.raises(SchemaError):
            strip_from_json(doc(a, b))
    point = re.escape("marked point: expected ['L'|'U', index], got ")
    with pytest.raises(SchemaError, match=point + re.escape("['L', True]")):
        strip_from_json(doc(["L", True], ["L", 3]))  # a bool is not an index
    with pytest.raises(SchemaError, match=point + re.escape("['L', 1, 3]")):
        strip_from_json(doc(["L", 1, 3], ["L", 3]))
    entries = {"expected a JSON object, got list": [["L", 0], ["L", 2]],
               "missing field 'b'": {"a": ["L", 0]}}
    for message, entry in entries.items():
        with pytest.raises(SchemaError, match=re.escape(f"strip.arcs[]: {message}")):
            strip_from_json({**doc(None, None), "arcs": [entry]})
    # either end of an arc may come first in a document
    lower_first = strip_from_json(doc(["L", 0], ["U", 5], "bi_infinite"))
    assert strip_from_json(doc(["U", 5], ["L", 0], "bi_infinite")) == lower_first
    assert strip_to_json(lower_first)["arcs"] == [{"a": ["L", 0], "b": ["U", 5]}]
    smaller_first = strip_from_json(doc(["L", -1], ["L", 2]))
    assert strip_from_json(doc(["L", 2], ["L", -1])) == smaller_first
    assert smaller_first.peripheral_arcs == ((-1, 2),)
    # an arc listed twice, in either order, is one arc
    twice = {**doc(None, None), "arcs": [{"a": ["L", -1], "b": ["L", 2]},
                                         {"a": ["L", 2], "b": ["L", -1]},
                                         {"a": ["L", -1], "b": ["L", 2]}]}
    assert strip_from_json(twice) == smaller_first


def test_strip_json_matches_golden():
    # the CLI's `synthesize --window=-6..6` document for MIXED_TAILS, byte for byte
    tri = psi(refdata.MIXED_TAILS, (-6, 6)).triangulation
    assert dumps(strip_to_json(tri)) == (GOLDEN / "mixed_tails_strip.json").read_text()


def test_frieze_pattern_round_trip():
    from friezes import polygon_from_quiddity
    fp = polygon_from_quiddity(refdata.HEPTAGON_QUIDDITY).frieze_pattern()
    back = frieze_pattern_from_json(frieze_pattern_to_json(fp))
    assert back == fp
    with pytest.raises(SchemaError):
        frieze_pattern_from_json({"n": 4, "fundamental": [[1, 2, 1]]})


def test_loads_names_the_int_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert loads("[%s]" % ("9" * 4300)) == [10**4300 - 1]
        with pytest.raises(SchemaError) as refused:
            loads('{"core_start": %s}' % ("9" * 4301))
        assert str(refused.value) == (
            "an integer in the JSON has more than 4300 digits, Python's limit for reading "
            "an int (PYTHONINTMAXSTRDIGITS raises it)")
        with pytest.raises(SchemaError, match=re.escape("malformed JSON: Expecting value")):
            loads("[1, ")
    finally:
        sys.set_int_max_str_digits(old)


def _strip_documents(seed: int = 29) -> list[dict]:
    """strip_to_json documents of the corpora, at half-widths 3..8 about the core."""
    rng = random.Random(seed)
    docs = []
    for q in bijection_corpus()[:20] + enough_ones_corpus():
        hw = rng.randint(3, 8)
        docs.append(strip_to_json(psi(q, (q.core_start - hw, q.core_start + hw)).triangulation))
    return docs


def _intact(entry) -> bool:
    return (type(entry) is dict and entry.keys() == {"a", "b"}
            and all(type(entry[e]) is list and len(entry[e]) == 2 for e in "ab"))


def _pick(rng, arcs: list, end: str | None = None) -> int | None:
    """An index of an untouched arc entry, peripheral or bridging if end is "L" or "U"."""
    ks = [k for k, e in enumerate(arcs) if _intact(e) and end in (None, e["b"][0])]
    return rng.choice(ks) if ks else None


def _mutate(rng, doc: dict, kind: str) -> bool:
    """Apply one mutation of the given kind to doc; False if doc offers no place for it."""
    arcs = doc.get("arcs")
    if type(arcs) is not list:
        return False
    k = _pick(rng, arcs, {"upper_first": "U", "reversed_ll": "L", "crossing": "L"}.get(kind))
    if k is None:
        return False
    entry, end = arcs[k], rng.choice("ab")
    (x, i), (y, j) = entry["a"], entry["b"]
    if kind == "drop_key":
        if rng.random() < 0.25:
            del doc[rng.choice(["window", "margin", "m2_class", "arcs"])]
        else:
            del entry[end]
    elif kind == "extra_key":
        (doc if rng.random() < 0.25 else entry)[rng.choice(["c", "note", "a2"])] = [x, i]
    elif kind == "bool_index":
        entry[end][1] = rng.random() < 0.5
    elif kind == "float_index":
        entry[end][1] = float(entry[end][1])
    elif kind == "str_index":
        entry[end][1] = str(entry[end][1])
    elif kind == "tuple_point":
        entry[end] = tuple(entry[end])
    elif kind == "three_point":
        entry[end].append(rng.randint(-3, 3))
    elif kind in ("upper_first", "reversed_ll"):
        entry["a"], entry["b"] = entry["b"], entry["a"]
    elif kind == "equal_ends":
        entry["b"] = ["L", i]
    elif kind == "span_one":
        entry["b"] = ["L", i + rng.choice((-1, 1))]
    elif kind == "unknown_boundary":
        entry[end][0] = rng.choice(["X", "l", "", "LU"])
    elif kind == "upper_upper":
        entry["a"] = ["U", i]
    elif kind == "twice":
        copy = {"a": [x, i], "b": [y, j]} if rng.random() < 0.5 else {"a": [y, j], "b": [x, i]}
        arcs.insert(rng.randint(0, len(arcs)), copy)
    elif kind == "shuffled":
        rng.shuffle(arcs)
    elif kind == "crossing":  # (i, j) and (i + 1, j + 1) interleave, as j - i >= 2
        arcs.insert(rng.randint(0, len(arcs)), {"a": ["L", i + 1], "b": ["L", j + 1]})
    elif kind == "non_dict":
        arcs[k] = rng.choice([[entry["a"], entry["b"]], "arc", None, 3, (entry["a"],)])
    return True


MUTATIONS = ["drop_key", "extra_key", "bool_index", "float_index", "str_index", "tuple_point",
             "three_point", "upper_first", "reversed_ll", "equal_ends", "span_one",
             "unknown_boundary", "upper_upper", "twice", "shuffled", "crossing", "non_dict"]


def _outcome(load, doc):
    try:
        return load(doc)
    except SchemaError as e:
        return str(e)


def test_strip_loader_matches_the_oracle_on_mutated_documents():
    # one to three mutations per draw, so the first fault of several is named alike
    rng = random.Random(2929)
    docs = _strip_documents()
    seen, kinds = Counter(), Counter()
    for _ in range(2400):
        doc = json.loads(json.dumps(rng.choice(docs)))
        for kind in rng.sample(MUTATIONS, rng.choice((1, 1, 2, 3))):
            kinds[kind] += _mutate(rng, doc, kind)
        want = _outcome(strip_from_json_oracle, doc)
        assert _outcome(strip_from_json, doc) == want, (doc, want)
        seen[type(want).__name__] += 1
    assert min(kinds[kind] for kind in MUTATIONS) >= 50, kinds
    assert seen["str"] >= 200 and seen["StripTriangulation"] >= 200, seen


@pytest.mark.parametrize("enabled", [True, False])
def test_strip_loads_pauses_and_restores_the_collector(enabled, monkeypatch):
    good = (GOLDEN / "mixed_tails_strip.json").read_text()
    during = []

    def watched(fn):
        def call(*args):
            during.append(gc.isenabled())
            return fn(*args)
        return call

    # strip_loads looks both stages up as module globals, as perfbench's spans need
    monkeypatch.setattr(serialize, "loads", watched(serialize.loads))
    monkeypatch.setattr(serialize, "strip_from_json", watched(serialize.strip_from_json))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        strip_loads(good)
        assert gc.isenabled() is enabled
        for bad in (good.replace('"U"', '"X"', 1), good[:-9], "[]"):
            with pytest.raises(SchemaError):
                strip_loads(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during and not any(during)


def test_strip_loads_is_strip_from_json_of_loads():
    c3 = QuiddityDescriptor.constant(3)
    for text in ((GOLDEN / "mixed_tails_strip.json").read_text(),
                 strip_dumps(psi(c3, (-2000, 2000)).triangulation)):
        t = strip_loads(text)
        assert t == strip_from_json(json.loads(text)) == strip_from_json_oracle(json.loads(text))
        assert strip_dumps(t) == text
