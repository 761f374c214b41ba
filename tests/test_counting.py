"""Polygon cuts and the counting methods on strip triangulations."""

from __future__ import annotations

import random
import time

import pytest

from friezes import FriezeView, QuiddityDescriptor, bci_entry, cc_entry, cut_polygon, psi
from friezes.counting import CutError
from friezes.strip import M2_BI_INFINITE, StripTriangulation, bridging, peripheral

import refdata
from corpus import bijection_corpus, enough_ones_corpus
from oracles import cut_polygon_oracle


def test_cut_through_single_fountain():
    tri = psi(refdata.LINEAR, (-5, 5)).triangulation
    cut = cut_polygon(tri, 0, 3)
    assert cut.kind == "bridging"
    assert cut.polygon.n == 7  # lowers -1..4 plus the one upper point
    assert cut.lower_map[-1] == 1 and cut.lower_map[4] == 6


def test_cut_along_peripheral_arc():
    tri = psi(refdata.MIXED_TAILS, (-8, 8)).triangulation
    cut = cut_polygon(tri, -2, -1)
    assert cut.kind == "peripheral"
    assert set(cut.lower_map) == {-3, -2, -1, 0}  # cut along (-3, 0)


def test_single_point_cut_has_enough_vertices():
    tri = psi(refdata.MIXED_TAILS, (-8, 8)).triangulation
    cut = cut_polygon(tri, 0, 0)
    assert cut.polygon.n >= 3


def test_cc_entry_conventions():
    tri = psi(refdata.MIXED_TAILS, (-6, 6)).triangulation
    for i in range(-4, 5):
        assert cc_entry(tri, i, i) == 0
        assert cc_entry(tri, i, i + 1) == 1
        assert bci_entry(tri, i, i) == 0
        assert bci_entry(tri, i, i + 1) == 1


def test_cc_entry_examples():
    linear = psi(refdata.LINEAR, (-5, 5)).triangulation
    assert cc_entry(linear, 0, 4) == 4
    zig = psi(refdata.ZIGZAG, (-5, 5)).triangulation
    assert bci_entry(zig, -5, -3) == 5
    assert cc_entry(zig, -5, -3) == 5


def test_quiddity_from_adjacent_band():
    tri = psi(refdata.MIXED_TAILS, (-6, 6)).triangulation
    for i in range(-5, 5):
        assert cc_entry(tri, i, i + 2) == refdata.MIXED_TAILS.value_at(i + 1)


@pytest.mark.parametrize("q", [refdata.LINEAR, refdata.BUMPED,
                               refdata.MIXED_TAILS, refdata.ZIGZAG,
                               QuiddityDescriptor.constant(3)])
def test_three_way_agreement(q):
    tri = psi(q, (-5, 5)).triangulation
    view = FriezeView(q)
    for i in range(-5, 6):
        for j in range(i, 6):
            want = view.entry(i, j)
            assert cc_entry(tri, i, j) == want, (i, j)
            assert bci_entry(tri, i, j) == want, (i, j)


def test_cut_invariance_between_cut_kinds():
    # pairs inside (-3, 0) have both a peripheral cut (along that arc) and a
    # bridging cut (fountains at -3 and 0); the counts must not depend on it
    tri = psi(refdata.MIXED_TAILS, (-8, 8)).triangulation
    view = FriezeView(refdata.MIXED_TAILS)
    for i, j in [(-2, -1), (-2, -2), (-1, -1)]:
        per = cut_polygon(tri, i, j, route="peripheral")
        bri = cut_polygon(tri, i, j, route="bridging")
        assert per.kind == "peripheral" and bri.kind == "bridging"
        assert per.polygon.n != bri.polygon.n
        want = view.entry(i, j)
        for cut in (per, bri):
            labels = cut.polygon.cc_labels(cut.lower_map[i])
            assert labels[cut.lower_map[j]] == want
            walk = [cut.lower_map[k] for k in range(i, j + 1)]
            assert cut.polygon.bci_count(walk) == want


def test_cut_error_when_nothing_flanks():
    bare = StripTriangulation((-2, 2), 1, M2_BI_INFINITE,
                              frozenset({bridging(0, 0), bridging(0, 1)}))
    with pytest.raises(CutError):
        cut_polygon(bare, 1, 2)


def test_count_precondition():
    tri = psi(refdata.LINEAR, (-3, 3)).triangulation
    with pytest.raises(Exception):
        cc_entry(tri, 2, 1)


def test_forced_peripheral_route_errors_without_an_arc():
    tri = psi(refdata.LINEAR, (-3, 3)).triangulation  # no peripheral arcs at all
    with pytest.raises(CutError):
        cut_polygon(tri, 0, 1, route="peripheral")
    with pytest.raises(Exception):
        cut_polygon(tri, 0, 1, route="sideways")


def test_band_entries_are_continuants_of_polygon_quiddity():
    # the counting band of a triangulated n-gon obeys the same tridiagonal
    # determinant formula as the infinite friezes
    from friezes import polygon_from_quiddity

    def continuant(vals):
        prev, cur = 1, vals[0]
        for v in vals[1:]:
            prev, cur = cur, v * cur - prev
        return cur

    p = polygon_from_quiddity(refdata.HEPTAGON_QUIDDITY)
    fp = p.frieze_pattern()
    quid = p.quiddity()
    for i in range(1, 8):
        for j in range(i + 2, i + 6):
            vals = [quid[(k - 1) % 7] for k in range(i + 1, j)]
            assert fp.entry(i, j) == continuant(vals), (i, j)


def test_entries_across_a_thousand_vertex_cut():
    # a 1001-point fan of bridging arcs; face extraction used to recurse once
    # per vertex and overflow the interpreter stack here
    tri = psi(QuiddityDescriptor.constant(2), (-600, 600)).triangulation
    assert cut_polygon(tri, -500, 500).polygon.n >= 1003
    assert cc_entry(tri, -500, 500) == 1000
    assert bci_entry(tri, -500, 500) == 1000


@pytest.mark.parametrize("q, window, i, j, want", [
    # Fibonacci F_60: tuple-by-tuple counting would visit 1.5e12 tuples
    (QuiddityDescriptor.constant(3), (-40, 40), 0, 30, 1548008755920),
    # zigzag nests its peripheral arcs around the core: the count is 2, but
    # partial tuples, and sets of used faces along the walk, grow exponentially
    (refdata.ZIGZAG, (-64, 64), -32, 32, 2),
])
def test_bci_entry_cost_grows_neither_with_the_entry_nor_with_nesting(q, window, i, j, want):
    tri = psi(q, window).triangulation
    start = time.perf_counter()
    value = bci_entry(tri, i, j)
    elapsed = time.perf_counter() - start
    assert value == want == FriezeView(q).entry(i, j) == cc_entry(tri, i, j)
    assert elapsed < 0.1, elapsed


def _translated(t: StripTriangulation, d: int) -> StripTriangulation:
    arcs = {peripheral(i + d, j + d) for i, j in t.peripheral_arcs}
    arcs |= {bridging(i + d, u) for i, u in t.bridging_arcs}
    lo, hi = t.window
    return StripTriangulation((lo + d, hi + d), t.margin, t.m2_class, frozenset(arcs))


def _cut_or_error(cut, t, i, j, route):
    try:
        c = cut(t, i, j, route)
    except Exception as e:  # the cut and its oracle must fail alike
        return type(e), str(e)
    return c.polygon, c.lower_map, c.upper_map, c.kind


def test_cut_polygon_matches_scanning_oracle():
    """Every route, on corpus strips moved by up to 10^3, cuts exactly as a
    scan over every arc does, or fails with the same error."""
    rng = random.Random(4417)
    kinds = set()
    for q in bijection_corpus() + enough_ones_corpus():
        base = psi(q, (-8, 8)).triangulation
        for d in (0, rng.randint(-1000, 1000)):
            t = _translated(base, d)
            lo, hi = t.window
            for _ in range(60):
                i = rng.randint(lo - 3, hi + 3)
                j = i + rng.randint(0, 12)
                for route in ("auto", "peripheral", "bridging"):
                    got = _cut_or_error(cut_polygon, t, i, j, route)
                    assert got == _cut_or_error(cut_polygon_oracle, t, i, j, route), (q, d, i, j, route)
                    kinds.add(got[-1] if len(got) == 4 else got[0])
    assert kinds == {"peripheral", "bridging", CutError}
