"""Arc crossing, strip data model, special points, Dehn twists."""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest

from friezes import (QuiddityDescriptor, StripError, StripTriangulation, bridging, cross,
                     peripheral, psi)
from friezes.serialize import strip_from_json, strip_to_json
from friezes.strip import (LOWER, M2_BI_INFINITE, M2_EMPTY, M2_NAT_LEFT, M2_NAT_RIGHT, UPPER,
                           Arc, MarkedPoint, m2_finite)

from corpus import bijection_corpus, enough_ones_corpus
from oracles import admissibility_oracle, strip_rules_oracle


def test_peripheral_crossing_rules():
    assert not cross(peripheral(0, 4), peripheral(1, 3))   # nested
    assert cross(peripheral(0, 2), peripheral(1, 3))       # interleaved
    assert not cross(peripheral(0, 2), peripheral(2, 4))   # shared endpoint


def test_peripheral_vs_bridging():
    assert cross(peripheral(0, 2), bridging(1, 5))
    assert not cross(peripheral(0, 2), bridging(2, 5))
    assert not cross(peripheral(0, 2), bridging(3, 5))


def test_bridging_vs_bridging():
    assert cross(bridging(2, 0), bridging(1, 1))        # (0-1)(2-1) < 0
    assert not cross(bridging(1, 0), bridging(2, 1))
    assert not cross(bridging(1, 0), bridging(2, 0))    # shared upper
    assert not cross(bridging(1, 0), bridging(1, 4))    # shared lower


def test_cross_symmetric_and_irreflexive():
    arcs = [peripheral(0, 2), peripheral(1, 3), peripheral(-2, 5),
            bridging(0, 0), bridging(2, -1), bridging(-1, 3)]
    for x, y in itertools.product(arcs, arcs):
        assert cross(x, y) == cross(y, x)
        if x == y:
            assert not cross(x, y)


def test_arc_construction_rules():
    bad = [
        peripheral(1, 2),                                      # contractible
        peripheral(3, 3),                                      # equal endpoints
        Arc(MarkedPoint(UPPER, 0), MarkedPoint(UPPER, 2)),     # upper-upper
        Arc(MarkedPoint(UPPER, 1), MarkedPoint(LOWER, 0)),     # upper end first
        Arc(MarkedPoint(LOWER, 4), MarkedPoint(LOWER, 0)),     # unsorted
        Arc(MarkedPoint("X", 0), MarkedPoint(LOWER, 2)),       # unknown boundary
    ]
    for arc in bad:
        with pytest.raises(StripError):
            StripTriangulation((-1, 1), 2, M2_BI_INFINITE, frozenset({arc}))
    arc = peripheral(4, 0)  # endpoints get sorted
    assert arc == ((LOWER, 0), (LOWER, 4)) and (arc.a.index, arc.b.index) == (0, 4)
    assert bridging(0, 3) == ((LOWER, 0), (UPPER, 3))


def _labels_just_outside(m2) -> list[int]:
    return {"finite": [0, (m2.size or 0) + 1], "nat_right": [-1], "nat_left": [1],
            "empty": [-2, 0, 3], "bi_infinite": []}[m2.kind]


def _draw_strip_input(rng: random.Random, fault: str | None):
    """(window, margin, class, arcs) with arcs valid but for at most one fault."""
    m2 = rng.choice([M2_EMPTY, M2_BI_INFINITE, M2_NAT_LEFT, M2_NAT_RIGHT,
                     m2_finite(rng.randint(1, 4))])
    lo = rng.randint(-6, 4)
    window, margin = (lo, lo + rng.randint(0, 5)), rng.randint(0, 4)
    inside = {"finite": range(1, (m2.size or 0) + 1), "nat_right": range(0, 6),
              "nat_left": range(-5, 1), "bi_infinite": range(-5, 6), "empty": range(0)}[m2.kind]
    arcs = set()
    for _ in range(rng.randint(0, 6)):
        i = rng.randint(lo - 4, lo + 8)
        if inside and rng.random() < 0.5:
            arcs.add(bridging(i, rng.choice(inside)))
        else:
            arcs.add(peripheral(i, i + rng.randint(2, 7)))
    i, j = rng.randint(-8, 8), rng.randint(-8, 8)
    if fault == "window":
        window = (lo, lo - rng.randint(1, 3))
    elif fault == "margin":
        margin = -rng.randint(1, 3)
    elif fault == "span":
        arcs.add(peripheral(i, i + rng.randint(0, 1)))
    elif fault == "unsorted":
        arcs.add(Arc(MarkedPoint(LOWER, i + rng.randint(1, 5)), MarkedPoint(LOWER, i)))
    elif fault == "upper_first":
        arcs.add(Arc(MarkedPoint(UPPER, j), MarkedPoint(LOWER, i)))
    elif fault == "upper_upper":
        arcs.add(Arc(MarkedPoint(UPPER, i), MarkedPoint(UPPER, j)))
    elif fault == "boundary":
        ends = [rng.choice("XlM"), rng.choice((LOWER, UPPER))]
        rng.shuffle(ends)
        arcs.add(Arc(MarkedPoint(ends[0], i), MarkedPoint(ends[1], j)))
    elif fault == "label":
        arcs.add(bridging(i, rng.choice(_labels_just_outside(m2) or [0])))
    return window, margin, m2, arcs


def _rejection(build) -> str | None:
    """The first three words of the StripError build raises; None if it succeeds."""
    try:
        build()
    except StripError as err:
        return " ".join(str(err).split()[:3])
    return None


def test_constructors_accept_exactly_what_the_arc_rules_accept():
    """Both entry points agree with the arc-by-arc rules on seeded draws.

    Every draw holds at most one fault, so the rule that rejects it is
    unique; the constructor and from_pairs must reject with the same kind of
    message, or accept and build the same strip.  from_pairs gets the draws
    whose arcs are pairs: not an upper end first, upper-upper or unknown.
    """
    rng = random.Random(6113)
    faults = [None, "window", "margin", "span", "unsorted", "upper_first",
              "upper_upper", "boundary", "label"]
    seen = Counter()
    for _ in range(3000):
        fault = rng.choice(faults)
        window, margin, m2, arcs = _draw_strip_input(rng, fault)
        want = _rejection(lambda: strip_rules_oracle(window, margin, m2, arcs))
        assert _rejection(lambda: StripTriangulation(window, margin, m2, frozenset(arcs))) == want
        if fault not in ("upper_first", "upper_upper", "boundary"):
            per = sorted((a.index, b.index) for a, b in arcs if b.boundary == LOWER)
            bri = sorted((a.index, b.index) for a, b in arcs if b.boundary == UPPER)
            assert _rejection(lambda: StripTriangulation.from_pairs(
                window, margin, m2, per, bri)) == want, (fault, arcs)
            if want is None:
                t = StripTriangulation.from_pairs(window, margin, m2, per, bri)
                assert t == StripTriangulation(window, margin, m2, frozenset(arcs))
                assert t.arcs == arcs
        seen[fault, want is None] += 1
    # each fault was refused over 100 times; only a label fault on the
    # bi-infinite class, where no label is outside, may be accepted
    assert all(seen[fault, fault is None] > 100 for fault in faults), seen
    assert not any(seen[fault, True] for fault in faults[1:] if fault != "label"), seen


def _fan_triangulation(n_points: int = 4) -> StripTriangulation:
    # every lower point of the materialized range hooks onto upper point 2
    arcs = frozenset(bridging(i, 2) for i in range(-8, 9))
    return StripTriangulation((-3, 3), 5, m2_finite(n_points), arcs)


def test_special_upper_points():
    # labels 1, 3 and 4 lie beyond every materialized arc: lower points
    # outside the strip may reach them, so none is judged special
    assert _fan_triangulation().special_upper_points() == []
    # label 2 lies between the materialized labels 1 and 3 and no arc reaches it
    gap = StripTriangulation((-3, 3), 5, m2_finite(4),
                             frozenset(bridging(i, 1 if i <= 0 else 3) for i in range(-8, 9)))
    assert [p.index for p in gap.special_upper_points()] == [2]
    assert all(p.boundary == "U" for p in gap.special_upper_points())


def test_quiddity_of_fan():
    t = _fan_triangulation()
    assert t.quiddity_of() == {i: 2 for i in range(-3, 4)}
    with pytest.raises(StripError):
        t.quiddity_of((-5, 5))  # beyond the window the star may be truncated


def test_admissibility_criterion():
    assert _fan_triangulation().is_admissible_window()
    # all bridging arcs at one lower point: pairs right of it have no cover
    lower_fan = StripTriangulation((-2, 2), 4, M2_BI_INFINITE,
                                   frozenset(bridging(0, u) for u in range(-9, 10)))
    assert not lower_fan.is_admissible_window()


def test_admissibility_matches_pairwise_oracle():
    rng = random.Random(5081)
    seen = set()
    for _ in range(2000):
        lo = rng.randint(-5, 3)
        hi = lo + rng.randint(0, 6)
        arcs = set()
        for _ in range(rng.randint(0, 4)):
            i = rng.randint(lo - 4, hi + 3)
            arcs.add(peripheral(i, i + rng.randint(2, 9)) if rng.random() < 0.5
                     else bridging(i, rng.randint(-3, 3)))
        t = StripTriangulation((lo, hi), 4, M2_BI_INFINITE, frozenset(arcs))
        want = admissibility_oracle(t)
        assert t.is_admissible_window() == want, t
        seen.add(want)
    assert seen == {True, False}


def test_peripheral_over_is_endpoint_inclusive():
    t = StripTriangulation((-2, 2), 2, M2_EMPTY,
                           frozenset({peripheral(-2, 2), peripheral(-2, 0)}))
    assert t.tightest_peripheral_over(-2, 2) == (-2, 2)
    assert t.tightest_peripheral_over(-1, 0) == (-2, 0)
    assert t.tightest_peripheral_over(2, 3) is None


def test_tightest_peripheral_over_matches_scan():
    """Largest left end, then least right end, among the arcs over (m, n), on
    corpus strips and on random arc sets that may cross."""
    rng = random.Random(818)
    strips = [psi(q, (-8, 8)).triangulation
              for q in bijection_corpus()[:20] + enough_ones_corpus()]
    for _ in range(100):
        arcs = {peripheral(i, i + rng.randint(2, 12)) for i in rng.choices(range(-14, 12), k=8)}
        strips.append(StripTriangulation((-8, 8), 6, M2_EMPTY, frozenset(arcs)))
    for t in strips:
        arcs = t.peripheral_arcs
        for m in range(-12, 13):
            for n in range(m, m + 10):
                over = [(i, j) for i, j in arcs if i <= m and n <= j]
                want = max(over, key=lambda a: (a[0], -a[1])) if over else None
                assert t.tightest_peripheral_over(m, n) == want, (arcs, m, n)
    with pytest.raises(StripError):
        t.tightest_peripheral_over(1, 0)


def test_dehn_twist_moves_upper_endpoints_only():
    arcs = frozenset({peripheral(0, 2), bridging(0, 5), bridging(3, 6)})
    t = StripTriangulation((-1, 4), 3, M2_BI_INFINITE, arcs)
    twisted = t.dehn_twist(1)
    assert peripheral(0, 2) in twisted.arcs
    assert bridging(0, 6) in twisted.arcs and bridging(3, 7) in twisted.arcs
    assert t.dehn_twist(0).arcs == t.arcs


def test_dehn_twist_requires_bi_infinite():
    with pytest.raises(StripError):
        _fan_triangulation().dehn_twist(1)


def test_dehn_equivalence_detects_shift():
    arcs = frozenset({peripheral(0, 2)} | {bridging(i, i) for i in range(-6, 7)}
                     | {bridging(i, i + 1) for i in range(-6, 7)})
    t = StripTriangulation((-3, 3), 3, M2_BI_INFINITE, arcs)
    assert t.dehn_equivalent(t) == 0
    assert t.dehn_equivalent(t.dehn_twist(2)) == 2
    assert t.dehn_twist(-3).dehn_equivalent(t) == 3
    other = StripTriangulation((-3, 3), 3, M2_BI_INFINITE,
                               frozenset({peripheral(0, 3)} |
                                         {bridging(i, i) for i in range(-6, 7)}))
    assert t.dehn_equivalent(other) is None


def test_pairwise_noncrossing_checker():
    good = StripTriangulation((-1, 3), 2, M2_EMPTY,
                              frozenset({peripheral(0, 3), peripheral(1, 3)}))
    good.check_pairwise_noncrossing()
    bad = StripTriangulation((-1, 3), 2, M2_EMPTY,
                             frozenset({peripheral(0, 2), peripheral(1, 3)}))
    with pytest.raises(StripError):
        bad.check_pairwise_noncrossing()


def test_rejects_upper_labels_outside_class():
    with pytest.raises(StripError):
        StripTriangulation((-1, 1), 2, m2_finite(2), frozenset({bridging(0, 3)}))
    with pytest.raises(StripError):
        StripTriangulation((-1, 1), 2, M2_EMPTY, frozenset({bridging(0, 1)}))


def test_wide_window_checks_within_budget():
    """Load and every strip check at constant 3, window +-128, in a 2 s budget."""
    t = psi(QuiddityDescriptor.constant(3), (-128, 128)).triangulation
    doc = strip_to_json(t)
    start = time.perf_counter()
    loaded = strip_from_json(doc)
    assert loaded == t and loaded.is_admissible_window()
    loaded.check_pairwise_noncrossing()
    loaded.check_window_maximality()
    inner = next(arc for arc in sorted(t.arcs) if -128 < arc.a.index < 128)
    gapped = StripTriangulation(t.window, t.margin, t.m2_class, t.arcs - {inner})
    with pytest.raises(StripError, match="not maximal"):
        gapped.check_window_maximality()
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"wide-window checks took {elapsed:.2f}s, budget 2s"
