"""Triangulated convex polygons and the two classical counting methods.

The n-gon has vertices 1..n in cyclic order; a triangulation is a maximal set
of n-3 pairwise noncrossing chords, splitting the polygon into n-2 triangular
faces.  Two counting procedures recover the associated rank-n frieze pattern:

* CC counting: label a source vertex 0, its side/chord neighbours 1, and
  propagate the rule "whenever a triangle has two labeled vertices the third
  gets their sum"; CC(A, B) is the resulting label at B.
* BCI counting: for a boundary walk A, P_1, ..., P_r, B, count ordered
  r-tuples of pairwise distinct triangles whose i-th member is incident to
  P_i (with the conventions BCI = 0 for A = B and BCI = 1 for adjacent A, B).

Both computations agree on every vertex pair; the finite polygon machinery
here doubles as the oracle for entries of strip triangulations.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property


class PolygonError(ValueError):
    """Raised for invalid triangulation data or bad counting queries."""


def _cyclically_adjacent(u: int, v: int, n: int) -> bool:
    return (u - v) % n in (1, n - 1)


def interleaved_pair(pairs: Iterable[tuple[int, int]]
                     ) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Two of the pairs (a, b), (c, d), all with a < b, such that a < c < b < d.

    None when no two pairs interleave, that is, when the intervals are
    laminar: the noncrossing rule for polygon chords and for peripheral arcs
    of the strip, where shared endpoints never cross.  One sweep in
    (left end, -right end) order keeps the chain of intervals still open at
    the current left end, innermost on top; O(P log P) for P pairs.
    """
    stack: list[tuple[int, int]] = []
    for a, b in sorted(pairs, key=lambda pair: (pair[0], -pair[1])):
        while stack and stack[-1][1] <= a:
            stack.pop()
        if stack and b > stack[-1][1]:
            return stack[-1], (a, b)
        stack.append((a, b))
    return None


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
        pair = interleaved_pair(self.chords)
        if pair:
            raise PolygonError(f"chords {pair[0]} and {pair[1]} cross")

    def _is_edge(self, u: int, v: int) -> bool:
        return _cyclically_adjacent(u, v, self.n) or tuple(sorted((u, v))) in self.chords

    @cached_property
    def _faces(self) -> tuple[tuple[int, int, int], ...]:
        out: list[tuple[int, int, int]] = []

        def split(ids: list[int]):
            if len(ids) < 3:
                return
            if len(ids) == 3:
                out.append(tuple(sorted(ids)))
                return
            a, b = ids[0], ids[1]
            for k in range(2, len(ids)):
                c = ids[k]
                if self._is_edge(a, c) and self._is_edge(b, c):
                    out.append(tuple(sorted((a, b, c))))
                    split(ids[1:k + 1])
                    split([ids[0]] + ids[k:])
                    return
            raise PolygonError("no triangle on a boundary side; chord set is not maximal")

        split(list(range(1, self.n + 1)))
        return tuple(sorted(out))

    def faces(self) -> list[tuple[int, int, int]]:
        """The n - 2 triangular faces, each as a sorted vertex triple."""
        fs = list(self._faces)
        if len(fs) != self.n - 2:
            raise PolygonError("face extraction did not yield n - 2 triangles")
        return fs

    def quiddity(self) -> list[int]:
        """Triangle count at each vertex 1..n; always sums to 3n - 6."""
        counts = [0] * (self.n + 1)
        for f in self.faces():
            for v in f:
                counts[v] += 1
        return counts[1:]

    def cc_labels(self, a: int) -> dict[int, int]:
        """CC counting from source vertex a; returns the full labeling."""
        if not 1 <= a <= self.n:
            raise PolygonError(f"vertex {a} out of range")
        labels = {a: 0}
        for v in range(1, self.n + 1):
            if v != a and self._is_edge(a, v):
                labels[v] = 1
        faces = self.faces()
        while len(labels) < self.n:
            progress = False
            for f in faces:
                known = [v for v in f if v in labels]
                if len(known) == 2:
                    (x, y), (missing,) = known, [v for v in f if v not in labels]
                    labels[missing] = labels[x] + labels[y]
                    progress = True
            if not progress:
                raise PolygonError("label propagation stalled")  # impossible if valid
        return labels

    def cc(self, a: int, b: int) -> int:
        return self.cc_labels(a)[b]

    def boundary_walk(self, a: int, b: int, direction: int = 1) -> list[int]:
        """The boundary walk from a to b stepping by +1 or -1 (mod n)."""
        if direction not in (1, -1):
            raise PolygonError("direction must be +1 or -1")
        walk = [a]
        v = a
        while v != b:
            v = (v - 1 + direction) % self.n + 1
            walk.append(v)
            if len(walk) > self.n:
                raise PolygonError("walk failed to reach target")
        return walk

    def bci_count(self, walk: list[int]) -> int:
        """Number of tuples of distinct triangles along a boundary walk.

        walk = [A, P_1, ..., P_r, B]; consecutive entries must be adjacent on
        the polygon boundary.  Counts ordered r-tuples of pairwise distinct
        faces with the i-th face incident to P_i, by direct backtracking.
        """
        if not walk:
            raise PolygonError("empty walk")
        for v in walk:
            if not 1 <= v <= self.n:
                raise PolygonError(f"walk vertex {v} out of range")
        for u, v in zip(walk, walk[1:]):
            if not _cyclically_adjacent(u, v, self.n):
                raise PolygonError(f"walk step {u} -> {v} is not a boundary side")
        if len(walk) == 1:
            return 0
        interior = walk[1:-1]
        if not interior:
            return 1
        faces = self.faces()
        incident = [[k for k, f in enumerate(faces) if p in f] for p in interior]
        used = [False] * len(faces)

        def count_from(pos: int) -> int:
            if pos == len(interior):
                return 1
            total = 0
            for k in incident[pos]:
                if not used[k]:
                    used[k] = True
                    total += count_from(pos + 1)
                    used[k] = False
            return total

        return count_from(0)

    def frieze_pattern(self) -> "FriezePattern":
        """The rank-n frieze pattern whose fundamental region is the CC table."""
        fundamental: dict[tuple[int, int], int] = {}
        for a in range(1, self.n + 1):
            labels = self.cc_labels(a)
            for b in range(a + 1, self.n + 1):
                fundamental[(a, b)] = labels[b]
        return FriezePattern(self.n, fundamental)


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
        if a == b:
            raise PolygonError("band position folds to a diagonal entry")
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
