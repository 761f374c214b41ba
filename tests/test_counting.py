"""Star cuts and the counting methods on strip triangulations."""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from friezes import (FriezeView, QuiddityDescriptor, bci_entry, cc_entry, cli, cut_polygon,
                     polygon, psi)
from friezes.counting import CutError, star_faces
from friezes.strip import (M2_BI_INFINITE, StripError, StripTriangulation, bridging,
                           interleaved_pair, peripheral)

import refdata
from corpus import bijection_corpus, enough_ones_corpus, log_offset
from oracles import cut_polygon_oracle, star_cut_oracle
from workcount import lines_run


def test_cut_through_single_fountain():
    tri = psi(refdata.LINEAR, (-5, 5)).triangulation
    cut = cut_polygon(tri, 0, 3)
    assert cut.polygon.n == 7  # lowers -1..4 plus the one upper point
    assert cut.lower_map[-1] == 1 and cut.lower_map[4] == 6


def test_cut_along_peripheral_arc():
    tri = psi(refdata.MIXED_TAILS, (-8, 8)).triangulation
    cut = cut_polygon(tri, -2, -1)
    assert set(cut.lower_map) == {-3, -2, -1, 0}  # the stars lie under (-3, 0)
    assert cut.upper_map == {}


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


def test_counts_read_the_stars_once_and_build_no_polygon(monkeypatch):
    """cc_entry, bci_entry and a roundtrip row each read the strip's stars
    once and count on the star faces, constructing no PolygonTriangulation."""
    stars, built = [], []
    read = StripTriangulation.stars
    monkeypatch.setattr(StripTriangulation, "stars",
                        lambda self, *args: stars.append(args) or read(self, *args))
    monkeypatch.setattr(polygon.PolygonTriangulation, "__post_init__",
                        lambda self: built.append(self))
    tri = psi(refdata.MIXED_TAILS, (-8, 8)).triangulation
    view = FriezeView(refdata.MIXED_TAILS)
    for count in (cc_entry, bci_entry, cli._counted_row):
        for i, j in ((-6, -4), (-3, 4), (0, 6)):
            stars.clear()
            got = count(tri, i, j)
            want = view.entry(i, j) if count is not cli._counted_row else (view.row(i, i, j),) * 2
            assert (got, len(stars), built) == (want, 1, []), (count.__name__, i, j)


def test_entries_refuse_a_reversed_pair_by_name():
    tri = psi(refdata.LINEAR, (-6, 6)).triangulation
    for count, i, j in ((cc_entry, 3, 2), (bci_entry, 5, 1), (cc_entry, 0, -5)):
        with pytest.raises(StripError, match=rf"^t\({i}, {j}\) needs i <= j$"):
            count(tri, i, j)


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
    # pairs inside (-3, 0) have a peripheral cut (along that arc), a bridging
    # cut (fountains at -3 and 0) and the star cut; the counts must not
    # depend on which one holds them
    tri = psi(refdata.MIXED_TAILS, (-8, 8)).triangulation
    view = FriezeView(refdata.MIXED_TAILS)
    for i, j in [(-2, -1), (-2, -2), (-1, -1)]:
        per = cut_polygon_oracle(tri, i, j, "peripheral")
        bri = cut_polygon_oracle(tri, i, j, "bridging")
        assert per.upper_map == {} and bri.upper_map != {}
        assert per.polygon.n != bri.polygon.n
        want = view.entry(i, j)
        for cut in (per, bri, cut_polygon(tri, i, j)):
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


def _counts(t: StripTriangulation, i: int, j: int):
    """(CC, BCI) of t(i, j), or CutError when the strip does not hold the cut."""
    try:
        return cc_entry(t, i, j), bci_entry(t, i, j)
    except CutError:
        return CutError


def test_cut_polygon_matches_scanning_oracle():
    """On corpus strips moved by up to 10^3, and on pairs reaching past the
    window, the star cut answers wherever the arc-scanning oracle's
    peripheral or bridging cut does, with the same counts as both and as
    FriezeView.  Where it answers alone, it still counts right."""
    rng = random.Random(4417)
    answered = Counter()
    for q in bijection_corpus() + enough_ones_corpus():
        base = psi(q, (-8, 8)).triangulation
        for d in (0, rng.randint(-1000, 1000)):
            t, view = _translated(base, d), FriezeView(q.shift(d))
            lo, hi = t.window
            for _ in range(30):
                i = rng.randint(lo - 3, hi + 3)
                j = i + rng.randint(2, 12)
                want, got = view.entry(i, j), _counts(t, i, j)
                answered["star" if got is not CutError else CutError] += 1
                assert got in ((want, want), CutError), (q, d, i, j)
                for route in ("peripheral", "bridging"):
                    try:
                        cut = cut_polygon_oracle(t, i + 1, j - 1, route)
                    except CutError:
                        continue
                    answered[route] += 1
                    walk = [cut.lower_map[k] for k in range(i, j + 1)]
                    labels = cut.polygon.cc_labels(walk[0])
                    assert (labels[walk[-1]], cut.polygon.bci_count(walk)) == got == (want, want), (
                        q, d, i, j, route)
    assert all(answered[k] for k in ("star", CutError, "peripheral", "bridging")), answered


def test_every_pair_around_the_window_counts_its_entry():
    """Every pair with lo - 1 <= i <= j <= hi + 1 answers by CC and by BCI
    with FriezeView.entry, at the core and at a log-uniform offset out to
    10^9 (500 on the empty class, whose window cut grows with the distance)."""
    rng = random.Random(2609)
    for q in (bijection_corpus() + enough_ones_corpus()
              + [refdata.LINEAR, refdata.BUMPED, refdata.MIXED_TAILS, refdata.ZIGZAG]):
        reach = 500 if psi(q, (-4, 4)).m2_class.kind == "empty" else 10**9
        view = FriezeView(q)
        for mid in (0, log_offset(rng, reach)):
            lo, hi = mid - 4, mid + 4
            tri = psi(q, (lo, hi)).triangulation
            for i in range(lo - 1, hi + 2):
                for j in range(i, hi + 2):
                    assert _counts(tri, i, j) == (view.entry(i, j),) * 2, (q, lo, i, j)


def test_a_strip_missing_one_arc_never_counts_wrong():
    """With any one materialized arc dropped, a pair counts its entry or
    raises CutError: a missing side or chord shows in the cut's checks."""
    outcomes = Counter()
    for q in bijection_corpus()[:12] + [refdata.MIXED_TAILS, refdata.ZIGZAG]:
        t = psi(q, (-5, 5)).triangulation
        view = FriezeView(q)
        per, bri = t.peripheral_arcs, t.bridging_arcs
        dropped = [(per[:k] + per[k + 1:], bri) for k in range(len(per))]
        dropped += [(per, bri[:k] + bri[k + 1:]) for k in range(len(bri))]
        for arcs in dropped:
            s = StripTriangulation.from_pairs(t.window, t.margin, t.m2_class, *arcs)
            for i in range(-6, 5):
                for j in range(i + 2, min(i + 7, 7)):
                    got = _counts(s, i, j)
                    outcomes[got is CutError] += 1
                    assert got in ((view.entry(i, j),) * 2, CutError), (q, arcs, i, j)
    assert outcomes[True] and outcomes[False], outcomes


def test_star_cut_does_not_grow_with_the_window():
    # zigzag nests its peripheral arcs around the core, so an enclosing arc
    # over t(200, 204) spans the window: 410 vertices at +-400
    sizes = set()
    for w, i in ((64, 32), (400, 200)):
        tri = psi(refdata.ZIGZAG, (-w, w)).triangulation
        sizes.add(cut_polygon(tri, i + 1, i + 3).polygon.n)
        assert bci_entry(tri, i, i + 4) == FriezeView(refdata.ZIGZAG).entry(i, i + 4)
    assert sizes == {10}


def test_counting_work_is_linear_in_the_span():
    # constant 2's star cut of 1..j-1 has j + 2 vertices and t(0, j) = j, so the
    # work follows the span alone: per doubling it may grow by little more than 2x
    tri = psi(QuiddityDescriptor.constant(2), (-10, 2010)).triangulation
    for count in (cc_entry, bci_entry):
        work = {j: lines_run(lambda: count(tri, 0, j)) for j in (1000, 2000)}
        assert work[2000] < 2.3 * work[1000], (count.__name__, work)


def _strip_faces(t: StripTriangulation, i: int, j: int):
    """The star faces of i..j as sets of strip points, or CutError."""
    try:
        faces, hi, top = star_faces(t, i, j)
    except CutError:
        return CutError
    return {frozenset(("L", v) if v <= hi else ("U", top - v) for v in face) for face in faces}


def _polygon_faces(cut, near=None):
    """The faces of a PolygonCut as sets of strip points; with near, only
    those with a lower point in near."""
    point = {k: ("L", x) for x, k in cut.lower_map.items()}
    point.update({k: ("U", u) for u, k in cut.upper_map.items()})
    faces = {frozenset(map(point.get, face)) for face in cut.polygon.faces()}
    return faces if near is None else {f for f in faces if any(p in near for p in f)}


def _oracle_faces(oracle, t: StripTriangulation, i: int, j: int):
    try:
        return _polygon_faces(oracle(t, i, j))
    except CutError:
        return CutError


def test_star_faces_match_the_polygon_oracles_on_the_corpora():
    """Every cut of i..j, j - i <= 8, inside and just outside the window of
    each corpus strip: the faces off the fans are those of the relabelled
    polygon (star_cut_oracle), which raises CutError exactly where star_faces
    does, and those of the arc-scanning cut (cut_polygon_oracle) at i..j;
    both counts of t(i - 1, j + 1) on them equal FriezeView.entry."""
    seen = Counter()
    for q in bijection_corpus() + enough_ones_corpus():
        t = psi(q, (-6, 6)).triangulation
        view = FriezeView(q)
        for i in range(-9, 10):
            for j in range(i, i + 9):
                faces = _strip_faces(t, i, j)
                assert faces == _oracle_faces(star_cut_oracle, t, i, j), (q, i, j)
                seen[faces is CutError] += 1
                if faces is CutError:
                    continue
                assert _counts(t, i - 1, j + 1) == (view.entry(i - 1, j + 1),) * 2, (q, i, j)
                try:
                    scanned = cut_polygon_oracle(t, i, j)
                except CutError:
                    continue
                seen["scanned"] += 1
                near = {("L", k) for k in range(i, j + 1)}
                assert faces == _polygon_faces(scanned, near), (q, i, j)
    assert all(seen[k] for k in (True, False, "scanned")), seen


def _broken_strips(t: StripTriangulation, rng: random.Random):
    """t with one arc removed, and t with one arc added: the added ones
    mostly cross an arc of t."""
    per, bri = list(t.peripheral_arcs), list(t.bridging_arcs)
    for k in range(len(per)):
        yield per[:k] + per[k + 1:], bri
    for k in range(len(bri)):
        yield per, bri[:k] + bri[k + 1:]
    labels = [u for _, u in bri] or [0]
    for _ in range(12):
        x = rng.randint(-9, 7)
        arc = (x, x + rng.randint(2, 7))
        if arc not in per:
            yield sorted(per + [arc]), bri
        arc = (rng.randint(-9, 9), rng.randint(min(labels) - 1, max(labels) + 1))
        if arc not in bri and t.m2_class.contains_label(arc[1]):
            yield per, sorted(bri + [arc])


def test_star_faces_raise_where_the_polygon_check_does():
    """On strips with one arc removed or one (mostly crossing) arc added,
    star_faces raises CutError on exactly the cuts where the relabelled
    polygon does, and otherwise gives the same faces."""
    rng = random.Random(6121)
    seen = Counter()
    for q in bijection_corpus()[::4] + enough_ones_corpus()[::2] + [refdata.ZIGZAG]:
        base = psi(q, (-5, 5)).triangulation
        for arcs in _broken_strips(base, rng):
            t = StripTriangulation.from_pairs(base.window, base.margin, base.m2_class, *arcs)
            crossing = interleaved_pair(t.peripheral_arcs) is not None
            for i in range(-7, 8):
                for j in range(i, i + 5):
                    faces = _strip_faces(t, i, j)
                    assert faces == _oracle_faces(star_cut_oracle, t, i, j), (q, arcs, i, j)
                    seen[crossing, faces is CutError] += 1
    assert all(seen[key] for key in ((True, True), (True, False), (False, True))), seen


def test_bci_entry_work_follows_the_cut_not_the_strip():
    # constant 3's cut of 1..11 is the same at +-64 and at +-4096: so is the work
    work = set()
    for w in (64, 4096):
        tri = psi(QuiddityDescriptor.constant(3), (-w, w)).triangulation
        assert bci_entry(tri, 0, 12) == 46368  # F_24
        work.add(lines_run(lambda: bci_entry(tri, 0, 12)))
    assert len(work) == 1, work
