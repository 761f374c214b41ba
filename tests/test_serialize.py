"""JSON round trips and schema rejection."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from friezes import psi
from friezes.polygon import PolygonTriangulation
from friezes.serialize import (SchemaError, dumps, frieze_pattern_from_json,
                               frieze_pattern_to_json, loads, m2_from_str,
                               m2_to_str, polygon_from_json, polygon_to_json,
                               quiddity_from_json, quiddity_to_json,
                               strip_from_json, strip_to_json)

import refdata

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
