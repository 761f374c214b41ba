"""Triangulated convex polygons and the two classical counting methods.

The n-gon has vertices 1..n in cyclic order; a triangulation is a maximal
set of n - 3 pairwise noncrossing chords, cutting it into n - 2 faces.  Two
counts recover its rank-n frieze pattern and agree on every vertex pair:
Conway-Coxeter (CC) labels a source 0 and gives the third vertex of each
face the sum of the other two; Broline-Crowe-Isaacs (BCI) counts tuples of
distinct faces along a boundary walk A, P_1, ..., P_r, B, the i-th at P_i.

The constructor sweeps the chords once, without recursion, refusing a
crossing pair and keeping each chord's face after the faces under it.  CC
and BCI are module functions over such a children-first face list
(cc_over_faces, bci_over_faces), which the methods call and so do the star
cuts of counting, whose faces come off the strip's fans.  Both are
near-linear in the number of faces, whatever the count.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from math import factorial, prod
from operator import itemgetter


class PolygonError(ValueError):
    """Raised for invalid triangulation data or bad counting queries."""


def _cyclically_adjacent(u: int, v: int, n: int) -> bool:
    return (u - v) % n in (1, n - 1)


def _post_order_faces(chords: Iterable[tuple[int, int]], n: int) -> list[tuple[int, int, int]]:
    """The faces (x, apex, y), x < apex < y, of the n-gon cut along n - 3 chords.

    Chords in range and nonadjacent, swept in (left, -right) order by two
    stable sorts from the side (1, n).  An open chord is popped, and its face
    emitted, once the sweep passes its right end, after the faces under it; a
    chord ending past the open one on top crosses it (PolygonError).  A face's
    apex is the right end of its first child if that starts at x, else the
    left end of its last child, else x + 1; the last child to arrive decides.
    """
    order = sorted(chords, key=itemgetter(1), reverse=True)
    order.sort(key=itemgetter(0))
    out: list[tuple[int, int, int]] = []
    stack = [[1, 2, n]]  # open chords as [x, apex, y], innermost on top
    for a, b in order:
        while stack[-1][2] <= a:
            out.append(tuple(stack.pop()))
        top = stack[-1]
        if b > top[2]:
            raise PolygonError(f"chords {(top[0], top[2])} and {(a, b)} cross")
        top[1] = b if a == top[0] else a
        stack.append([a, a + 1, b])
    out += map(tuple, reversed(stack))
    return out


def cc_over_faces(faces: list[tuple[int, int, int]], a: int) -> dict[int, int]:
    """CC labels from source vertex a over a triangulation's faces, children first.

    A face (x, apex, y) has parent side (x, y); its child sides are polygon
    sides or parent sides of earlier faces, the last face's is the root side.
    label[a] = 0, and 1 at the root side's other end if a is on it.  The
    faces with x < a < y, which must be those over a, label their vertex on
    the far side from a, from a up: 1 at x and y if a is the apex, else by
    Ptolemy's relation.  Then, parents first, label[apex] = label[x] + label[y].
    """
    x0, _, y0 = faces[-1]
    label = {a: 0}
    if a == x0 or a == y0:
        label[y0 if a == x0 else x0] = 1
    for x, apex, y in faces:
        if x < a < y:
            if a == apex:
                label[x] = label[y] = 1
            elif a < apex:
                label[y] = label[x] + label[apex]
            else:
                label[x] = label[apex] + label[y]
    for x, apex, y in reversed(faces):
        if not x < a < y:
            label[apex] = label[x] + label[y]
    return label


def bci_over_faces(faces: list[tuple[int, int, int]], walk: list[int]) -> int:
    """BCI: ordered tuples of distinct faces along a walk [A, P_1, ..., P_r, B].

    The i-th face meets P_i; the count is 0 for A = B, 1 for adjacent A, B.
    Faces as for cc_over_faces.  A vertex met k times takes k distinct faces
    in k! orders, and a dynamic program sums the disjoint face sets: the
    table of a parent side (a, c) counts the ways to serve the walk vertices
    under it, keyed by the faces given to a and to c; the face (a, b, c)
    joins the tables of (a, b) and (b, c) and settles b.
    """
    if len(walk) < 3:
        return len(walk) - 1
    need = defaultdict(int, Counter(walk[1:-1]))  # 0 off the walk's inner vertices
    idle = {(0, 0): 1}  # a side, or a chord with no walk vertex under it
    tables: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for a, b, c in faces:
        need_a, need_b, need_c = need[a], need[b], need[c]
        left, right = tables.pop((a, b), idle), tables.pop((b, c), idle)
        if left is right is idle and not (need_a or need_b or need_c):
            continue
        out: dict[tuple[int, int], int] = {}
        for (at_a, at_b), ways_left in left.items():
            for (more_at_b, at_c), ways_right in right.items():
                ways = ways_left * ways_right
                short = need_b - at_b - more_at_b  # 1: this face goes to b; 0: to a, c or none
                if short == 0 or short == 1:
                    out[at_a, at_c] = out.get((at_a, at_c), 0) + ways
                if short == 0 and at_a < need_a:
                    out[at_a + 1, at_c] = out.get((at_a + 1, at_c), 0) + ways
                if short == 0 and at_c < need_c:
                    out[at_a, at_c + 1] = out.get((at_a, at_c + 1), 0) + ways
        tables[a, c] = out
    x0, _, y0 = faces[-1]
    total = tables.get((x0, y0), idle).get((need[x0], need[y0]), 0)
    return total * prod(map(factorial, need.values()))


@dataclass(frozen=True)
class PolygonTriangulation:
    """A triangulated convex n-gon: vertices 1..n plus a maximal chord set."""

    n: int
    chords: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "chords",
                           frozenset(tuple(sorted(c)) for c in self.chords))
        if self.n < 3:
            raise PolygonError("polygon needs n >= 3")
        for u, v in self.chords:
            if not (1 <= u <= self.n and 1 <= v <= self.n) or u == v:
                raise PolygonError(f"chord {(u, v)} out of range for n={self.n}")
            if _cyclically_adjacent(u, v, self.n):
                raise PolygonError(f"chord {(u, v)} joins adjacent vertices")
        if len(self.chords) != self.n - 3:
            raise PolygonError(
                f"expected {self.n - 3} chords for n={self.n}, got {len(self.chords)}")
        # each face after the faces under its chords: the children-first order the counts read
        object.__setattr__(self, "_faces", _post_order_faces(self.chords, self.n))

    def faces(self) -> list[tuple[int, int, int]]:
        """The n - 2 triangular faces, each as a sorted vertex triple, in sorted order."""
        return sorted(self._faces)

    def quiddity(self) -> list[int]:
        """Triangle count at each vertex 1..n; always sums to 3n - 6."""
        counts = Counter(chain.from_iterable(self._faces))
        return [counts[v] for v in range(1, self.n + 1)]

    def cc_labels(self, a: int) -> dict[int, int]:
        """CC counting from source vertex a; returns the full labeling."""
        if not 1 <= a <= self.n:
            raise PolygonError(f"vertex {a} out of range")
        return cc_over_faces(self._faces, a)

    def boundary_walk(self, a: int, b: int, direction: int = 1) -> list[int]:
        """The boundary walk from a to b stepping by +1 or -1 (mod n)."""
        if direction not in (1, -1):
            raise PolygonError("direction must be +1 or -1")
        for v in (a, b):
            if not 1 <= v <= self.n:
                raise PolygonError(f"vertex {v} out of range")
        n = self.n
        return [(a - 1 + direction * s) % n + 1 for s in range(direction * (b - a) % n + 1)]

    def bci_count(self, walk: list[int]) -> int:
        """BCI counting (bci_over_faces) along a walk of adjacent boundary vertices."""
        if not walk:
            raise PolygonError("empty walk")
        for v in walk:
            if not 1 <= v <= self.n:
                raise PolygonError(f"walk vertex {v} out of range")
        for u, v in zip(walk, walk[1:]):
            if not _cyclically_adjacent(u, v, self.n):
                raise PolygonError(f"walk step {u} -> {v} is not a boundary side")
        return bci_over_faces(self._faces, walk)

    def frieze_pattern(self) -> "FriezePattern":
        """The rank-n frieze pattern whose fundamental region is the CC table."""
        n = self.n
        labels = {a: self.cc_labels(a) for a in range(1, n + 1)}
        return FriezePattern(n, {(a, b): labels[a][b] for a in labels for b in labels if a < b})


@dataclass(frozen=True)
class FriezePattern:
    """Rank-n frieze pattern: the band 0 < j - i < n filled by glide reflection.

    The fundamental region stores CC(A, B) for 1 <= A < B <= n; any band
    position reduces to it via representatives modulo n.
    """

    n: int
    fundamental: dict[tuple[int, int], int]

    def entry(self, i: int, j: int) -> int:
        if not 0 < j - i < self.n:
            raise PolygonError(f"({i}, {j}) outside the rank-{self.n} band")
        a = (i - 1) % self.n + 1
        b = (j - 1) % self.n + 1
        if a > b:
            a, b = b, a
        return self.fundamental[(a, b)]

    def check(self) -> None:
        """Assert border ones and the unimodular rule on a few band periods."""
        for i in range(-self.n, self.n + 1):
            if self.entry(i, i + 1) != 1 or self.entry(i, i + self.n - 1) != 1:
                raise PolygonError("border of the band is not all ones")
        for i in range(-self.n, self.n + 1):
            for j in range(i + 2, i + self.n - 1):  # all four corners in band
                det = (self.entry(i, j) * self.entry(i + 1, j + 1)
                       - self.entry(i, j + 1) * self.entry(i + 1, j))
                if det != 1:
                    raise PolygonError(f"unimodular rule fails at ({i}, {j})")


def polygon_from_quiddity(quiddity: list[int]) -> PolygonTriangulation:
    """Build a triangulation whose per-vertex triangle counts match the input.

    Works by repeatedly cutting an ear at a count-1 vertex (always the one
    with the smallest label, for determinism) and recursing.  The result is
    canonical for that ear order; other triangulations with the same counts
    may exist.  Raises PolygonError when the input is not realizable.
    """
    n = len(quiddity)
    if n < 3:
        raise PolygonError("need at least 3 vertices")
    if any(v < 1 for v in quiddity):
        raise PolygonError("triangle counts must be >= 1")
    if sum(quiddity) != 3 * n - 6:
        raise PolygonError(f"counts must sum to 3n - 6 = {3 * n - 6}, got {sum(quiddity)}")
    counts = {v: quiddity[v - 1] for v in range(1, n + 1)}
    ring = list(range(1, n + 1))
    chords: set[tuple[int, int]] = set()
    while len(ring) > 3:
        ears = [v for v in ring if counts[v] == 1]
        if not ears:
            raise PolygonError("no ear available; counts are not realizable")
        v = min(ears)
        k = ring.index(v)
        u, w = ring[k - 1], ring[(k + 1) % len(ring)]
        if not _cyclically_adjacent(u, w, n):
            chords.add(tuple(sorted((u, w))))
        for x in (u, w):
            counts[x] -= 1
            if counts[x] < 1:
                raise PolygonError("counts are not realizable (vertex exhausted)")
        ring.remove(v)
    if any(counts[v] != 1 for v in ring):
        raise PolygonError("counts are not realizable (leftover triangle slots)")
    return PolygonTriangulation(n, frozenset(chords))


def all_triangulations(n: int):
    """Yield every triangulation of the n-gon (Catalan(n - 2) of them)."""

    def gen(ids: list[int]):
        if len(ids) < 3:
            yield frozenset()
            return
        a, b = ids[0], ids[1]
        for k in range(2, len(ids)):
            c = ids[k]
            new = [e for e in ((a, c), (b, c)) if not _cyclically_adjacent(*e, n)]
            for left in gen(ids[1:k + 1]):
                for right in gen([ids[0]] + ids[k:]):
                    yield left | right | frozenset(tuple(sorted(e)) for e in new)

    for chords in gen(list(range(1, n + 1))):
        yield PolygonTriangulation(n, chords)


def random_triangulation(n: int, rng: random.Random) -> PolygonTriangulation:
    """A random triangulation by recursive random apex choice (not uniform)."""
    chords: set[tuple[int, int]] = set()

    def split(ids: list[int]):
        if len(ids) < 3:
            return
        a, b = ids[0], ids[1]
        k = rng.randrange(2, len(ids))
        c = ids[k]
        for e in ((a, c), (b, c)):
            if not _cyclically_adjacent(*e, n):
                chords.add(tuple(sorted(e)))
        split(ids[1:k + 1])
        split([ids[0]] + ids[k:])

    split(list(range(1, n + 1)))
    return PolygonTriangulation(n, frozenset(chords))
