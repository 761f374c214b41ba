"""Triangulated polygons: faces, CC/BCI counting, rank-n frieze patterns."""

from __future__ import annotations

import math
import random
import re

import pytest

from friezes import (PolygonError, PolygonTriangulation, all_triangulations,
                     polygon_from_quiddity, random_triangulation)
from friezes.strip import interleaved_pair

import refdata
from oracles import bci_count_oracle, cc_labels_oracle, chords_cross, faces_oracle
from workcount import lines_run


def _heptagon() -> PolygonTriangulation:
    return polygon_from_quiddity(refdata.HEPTAGON_QUIDDITY)


def test_triangle_faces():
    p = PolygonTriangulation(3, frozenset())
    assert p.faces() == [(1, 2, 3)]


def test_fan_pentagon_faces():
    p = PolygonTriangulation(5, frozenset({(1, 3), (1, 4)}))
    assert set(p.faces()) == {(1, 2, 3), (1, 3, 4), (1, 4, 5)}


def test_heptagon_quiddity_round_trip():
    p = _heptagon()
    assert len(p.faces()) == 5
    assert p.quiddity() == refdata.HEPTAGON_QUIDDITY
    assert sum(p.quiddity()) == 3 * 7 - 6


def test_rejects_bad_chord_sets():
    with pytest.raises(PolygonError):
        PolygonTriangulation(5, frozenset({(1, 3)}))  # wrong count
    with pytest.raises(PolygonError):
        PolygonTriangulation(6, frozenset({(1, 3), (2, 5), (3, 5)}))  # crossing
    with pytest.raises(PolygonError):
        PolygonTriangulation(5, frozenset({(1, 2), (2, 4)}))  # adjacent pair


def test_chord_crossing_check_matches_pairwise_oracle():
    """The sweep rejects exactly the chord sets in which two chords cross.

    Random triangulations pass; one chord swapped for a chord crossing the
    rest must be rejected naming two chords that cross; random sets of n - 3
    chords are rejected iff the all-pairs oracle finds a crossing.
    """
    rng = random.Random(3301)
    rejected = 0
    for n in range(4, 13):
        every = [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1)
                 if (a, b) != (1, n)]
        for _ in range(25):
            chords = set(random_triangulation(n, rng).chords)
            assert not any(chords_cross(x, y) for x in chords for y in chords)
            dropped = rng.choice(sorted(chords))
            rest = chords - {dropped}
            crossing = [c for c in every
                        if c not in chords and any(chords_cross(c, d) for d in rest)]
            cases = [set(rng.sample(every, n - 3))]
            if crossing:
                cases.append(rest | {rng.choice(crossing)})
            for chord_set in cases:
                want = any(chords_cross(x, y) for x in chord_set for y in chord_set)
                try:
                    PolygonTriangulation(n, frozenset(chord_set))
                except PolygonError as e:
                    rejected += 1
                    assert want, (n, chord_set)
                    a, b, c, d = map(int, re.fullmatch(
                        r"chords \((\d+), (\d+)\) and \((\d+), (\d+)\) cross", str(e)).groups())
                    assert {(a, b), (c, d)} <= chord_set and chords_cross((a, b), (c, d))
                else:
                    assert not want, (n, chord_set)
    assert rejected >= 100


def test_constructor_names_the_crossing_pair_of_interleaved_pair():
    """The face sweep refuses the same pair, the first one the (left, -right)
    sweep of strip.interleaved_pair finds, on random sets of n - 3 chords."""
    rng = random.Random(5113)
    crossing = 0
    for _ in range(300):
        n = rng.randint(5, 40)
        every = [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1)
                 if (a, b) != (1, n)]
        chords = rng.sample(every, n - 3)
        pair = interleaved_pair(chords)
        if pair is None:
            PolygonTriangulation(n, frozenset(chords))
            continue
        crossing += 1
        with pytest.raises(PolygonError) as e:
            PolygonTriangulation(n, frozenset(chords))
        assert str(e.value) == f"chords {pair[0]} and {pair[1]} cross"
    assert crossing >= 250


def test_cc_labels_heptagon_rows():
    p = _heptagon()
    labels1 = p.cc_labels(1)
    assert labels1[1] == 0
    assert {b: labels1[b] for b in range(2, 8)} == refdata.HEPTAGON_CC_FROM_1
    labels2 = p.cc_labels(2)
    assert {b: labels2[b] for b in range(3, 8)} == refdata.HEPTAGON_CC_FROM_2


def test_cc_source_and_neighbours():
    for p in all_triangulations(6):
        for a in range(1, 7):
            labels = p.cc_labels(a)
            assert labels[a] == 0
            assert labels[a % 6 + 1] == 1 and labels[(a - 2) % 6 + 1] == 1


def test_bci_conventions():
    p = _heptagon()
    assert p.bci_count([3]) == 0
    assert p.bci_count([1, 2]) == 1
    assert p.bci_count([2, 1]) == 1


def test_bci_heptagon_examples():
    p = _heptagon()
    assert p.bci_count([1, 2, 3]) == 2  # equals CC(1, 3)
    up = p.boundary_walk(1, 5, +1)
    down = p.boundary_walk(1, 5, -1)
    assert up == [1, 2, 3, 4, 5] and down == [1, 7, 6, 5]
    assert p.bci_count(up) == p.bci_count(down) == 3  # equals CC(1, 5)


def test_boundary_walk_refuses_vertices_out_of_range():
    p = PolygonTriangulation(5, frozenset({(1, 3), (1, 4)}))
    for a, b, bad in ((0, 3, 0), (7, 3, 7), (3, 6, 6), (2, -1, -1)):
        with pytest.raises(PolygonError, match=f"^vertex {bad} out of range$"):
            p.boundary_walk(a, b)
    assert p.boundary_walk(5, 3, -1) == [5, 4, 3] and p.boundary_walk(4, 1) == [4, 5, 1]


def test_bci_rejects_non_boundary_walk():
    with pytest.raises(PolygonError):
        _heptagon().bci_count([1, 3, 5])


def test_cc_equals_bci_both_walks_small_n():
    for n in (4, 5, 6):
        for p in all_triangulations(n):
            for a in range(1, n + 1):
                labels = p.cc_labels(a)
                for b in range(1, n + 1):
                    if a == b:
                        continue
                    for direction in (1, -1):
                        assert p.bci_count(p.boundary_walk(a, b, direction)) == labels[b]


def test_faces_cc_and_bci_match_oracles_exhaustively():
    """Every triangulation with n <= 9 and every boundary walk (a, b, direction)."""
    for n in range(3, 10):
        for p in all_triangulations(n):
            assert p.faces() == faces_oracle(p)
            for a in range(1, n + 1):
                assert p.cc_labels(a) == cc_labels_oracle(p, a)
                for b in range(1, n + 1):
                    for direction in (1, -1):
                        walk = p.boundary_walk(a, b, direction)
                        assert p.bci_count(walk) == bci_count_oracle(p, walk), (p.chords, walk)


def _zigzag(n: int) -> PolygonTriangulation:
    """The n-gon cut along the path 1, n, 2, n - 1, 3, ...: each chord nests in the one before."""
    path = [v for k in range(1, n // 2 + 2) for v in (k, n + 1 - k)][:n]
    return PolygonTriangulation(n, frozenset(
        (min(e), max(e)) for e in list(zip(path, path[1:]))[1:-1]))


def _assert_post_order(p: PolygonTriangulation) -> None:
    """One face (x, apex, y) per chord (x, y) and for the side (1, n), each
    after the faces on the chords (x, apex) and (apex, y)."""
    at = {(x, y): k for k, (x, _, y) in enumerate(p._faces)}
    assert len(p._faces) == len(at) == p.n - 2 and set(at) == p.chords | {(1, p.n)}
    for k, (x, apex, y) in enumerate(p._faces):
        assert x < apex < y, (p.chords, k)
        for u, v in ((x, apex), (apex, y)):
            assert v == u + 1 or at.get((u, v), k) < k, (p.chords, k)


def test_faces_come_after_the_faces_under_their_chords():
    """The order in which bci_count closes the faces: every triangulation
    with n <= 9, random ones up to n = 300 and the nested zigzag."""
    for n in range(3, 10):
        for p in all_triangulations(n):
            _assert_post_order(p)
    rng = random.Random(3217)
    for _ in range(60):
        _assert_post_order(random_triangulation(round(300 ** rng.uniform(0.25, 1)), rng))
    _assert_post_order(_zigzag(301))


def test_cc_labels_match_the_oracle_from_every_source():
    rng = random.Random(4093)
    for _ in range(80):
        p = random_triangulation(rng.randint(4, 40), rng)
        for a in range(1, p.n + 1):
            assert p.cc_labels(a) == cc_labels_oracle(p, a), (p.chords, a)


def test_cc_and_bci_agree_on_a_deeply_nested_polygon():
    """2 * 10^4 vertices with every chord nested in the one before: the sweep
    keeps them all open at once, and no step recurses.  Both counts equal the
    frieze recurrence along the walk."""
    n = 20000
    p = _zigzag(n)
    a, b = n // 3, n // 3 + n // 2
    walk = p.boundary_walk(a, b)
    quiddity = p.quiddity()
    prev, entry = 0, 1
    for v in walk[1:-1]:
        prev, entry = entry, quiddity[v - 1] * entry - prev
    assert p.cc_labels(a)[b] == p.bci_count(walk) == entry > 10 ** 100


def test_cc_labels_work_is_linear_in_n():
    # two walks over the faces the constructor keeps: the lines run may grow
    # by little more than 2x per doubling of n
    work = {}
    for n in (1000, 2000, 4000):
        p = _zigzag(n)
        work[n] = lines_run(lambda: p.cc_labels(n // 3))
    assert work[4000] < 2.3 * work[2000] < 2.3 ** 2 * work[1000], work


def test_bci_matches_backtracking_oracle_on_random_polygons():
    """Boundary walks up to n = 14, and walks that turn back and revisit
    vertices (a vertex met k times takes k distinct faces)."""
    rng = random.Random(1974)
    for _ in range(150):
        p = random_triangulation(rng.randint(4, 14), rng)
        walks = [p.boundary_walk(*rng.sample(range(1, p.n + 1), 2), rng.choice((1, -1)))
                 for _ in range(8)]
        for _ in range(4):
            walk = [rng.randint(1, p.n)]
            for _ in range(rng.randint(1, 10)):
                walk.append((walk[-1] - 1 + rng.choice((1, -1))) % p.n + 1)
            walks.append(walk)
        for walk in walks:
            assert p.bci_count(walk) == bci_count_oracle(p, walk), (p.chords, walk)


def test_frieze_pattern_matches_band_window():
    fp = _heptagon().frieze_pattern()
    for (i, j), want in refdata.HEPTAGON_BAND.items():
        assert fp.entry(i, j) == want, (i, j)
    fp.check()


def test_frieze_pattern_glide_reflection_column():
    p = _heptagon()
    fp = p.frieze_pattern()
    labels1 = p.cc_labels(1)
    for x in range(2, 8):
        assert fp.entry(x, 8) == labels1[x]


def test_frieze_pattern_borders_are_ones():
    for p in all_triangulations(6):
        fp = p.frieze_pattern()
        assert all(fp.entry(i, i + 1) == 1 for i in range(-8, 9))
        assert all(fp.entry(i, i + 5) == 1 for i in range(-8, 9))


def test_polygon_from_quiddity_edge_cases():
    assert polygon_from_quiddity([1, 1, 1]).n == 3
    with pytest.raises(PolygonError):
        polygon_from_quiddity([2, 2, 2])  # sum 6 != 3
    with pytest.raises(PolygonError):
        polygon_from_quiddity([2, 2, 2, 2, 2, 2])  # sum right for n=6 but no ear


def test_polygon_from_quiddity_round_trips_counts():
    rng = random.Random(64)
    for n in range(4, 11):
        for _ in range(20):
            p = random_triangulation(n, rng)
            quid = p.quiddity()
            rebuilt = polygon_from_quiddity(quid)
            assert rebuilt.quiddity() == quid


def test_enumeration_counts_are_catalan():
    def catalan(k):
        return math.comb(2 * k, k) // (k + 1)

    for n in range(3, 9):
        assert sum(1 for _ in all_triangulations(n)) == catalan(n - 2)


def test_enumeration_yields_distinct_valid_triangulations():
    seen = set()
    for p in all_triangulations(7):
        assert len(p.faces()) == 5
        assert p.chords not in seen
        seen.add(p.chords)


def test_every_polygon_has_two_nonconsecutive_ears():
    for n in range(4, 9):
        for p in all_triangulations(n):
            quid = p.quiddity()
            ears = [v for v in range(1, n + 1) if quid[v - 1] == 1]
            assert len(ears) >= 2
            assert any((b - a) % n not in (1, n - 1)
                       for a in ears for b in ears if a != b)


def test_polygon_from_quiddity_is_deterministic():
    # smallest-labeled ear first pins the chord set exactly
    p = _heptagon()
    assert p.chords == frozenset({(2, 7), (3, 5), (3, 7), (5, 7)})
    assert polygon_from_quiddity(refdata.HEPTAGON_QUIDDITY).chords == p.chords


def test_quiddity_sums():
    rng = random.Random(11)
    for n in range(3, 13):
        p = random_triangulation(n, rng)
        assert sum(p.quiddity()) == 3 * n - 6
