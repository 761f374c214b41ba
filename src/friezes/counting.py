"""Frieze entries of a strip triangulation by counting inside star cuts.

t(i, j) is the continuant of the triangle counts at i+1..j-1.  Those
triangles tile a polygon, the star cut, read straight off the fans of the
strip's sorted stars with each third side certified (star_faces): a strip
missing arcs raises CutError, never a wrong count.  Conway-Coxeter labels
from i and Broline-Crowe-Isaacs tuples along i..j count on its faces
(polygon's cc_over_faces, bci_over_faces), cross-checking the recurrence.
A cut costs about j - i plus the degrees of i..j, whatever the width.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import pairwise

from .polygon import PolygonTriangulation, bci_over_faces, cc_over_faces
from .strip import StripTriangulation, StripError


class CutError(StripError):
    """The materialized arcs do not hold the stars a cut needs."""


@dataclass(frozen=True)
class PolygonCut:
    """A finite triangulated polygon cut out of the strip, with index maps."""

    polygon: PolygonTriangulation
    lower_map: dict[int, int]   # lower index -> polygon vertex label
    upper_map: dict[int, int]   # upper index -> polygon vertex label


def _has(arcs: tuple[tuple[int, int], ...], arc: tuple[int, int]) -> bool:
    k = bisect_left(arcs, arc)
    return k < len(arcs) and arcs[k] == arc


def star_faces(t: StripTriangulation, i: int, j: int
               ) -> tuple[list[tuple[int, int, int]], int, int]:
    """The triangles at lower points i..j, children first, and (hi, top).

    A lower point is its index, at most hi; an upper point u is top - u.
    The fan of k runs k+1, the ends y of the arcs (k, y) ascending, the ends
    u of the arcs (k, u) descending, the ends x < i of the arcs (x, k)
    ascending (and i-1 at k = i): each consecutive pair (a, b) gives the
    face (k, a, b), kept at its least lower point in i..j, so the fan of
    k > i stops at c_k, before x_k, its least lower neighbour in [i, k).
    From k = j down, each face (k, a, b) follows those across (k, a) and
    (a, b): (k, b) is its parent side, and (i, i-1) the root side.

    Each third side (a, b) is certified.  With k < a <= j it must be the
    side (a, c_a) that a's fan leaves open, with x_a = k; then, by induction
    on a, every a in i+1..j is met.  Any other side joins two corners
    outside i..j and must be a segment or a materialized arc, bisected out
    of the sorted pairs.  So the faces glue into one polygon triangulated by
    the arcs at i..j, as the polygon constructor would check.  An arc (k, c)
    missing from a star crosses the third side of the face its fan shows
    around c, so that side cannot be materialized, and CutError is raised.
    """
    if i > j:
        raise StripError("need i <= j")
    starting, ending, footed = t.stars(i, j)
    per, bri = t.peripheral_arcs, t.bridging_arcs
    hi = max([j + 1, *(y for _, y in starting)])
    top = hi + 1 + max((u for _, u in footed), default=0)
    fans = [[k + 1] for k in range(i, j + 1)]
    for x, y in starting:
        fans[x - i].append(y)
    for k, u in reversed(footed):
        fans[k - i].append(top - u)
    low = list(range(i - 1, j))  # x_k
    for x, y in ending:
        if x < i:
            fans[y - i].append(x)
        elif x < low[y - i]:
            low[y - i] = x
    fans[0].append(i - 1)
    faces: list[tuple[int, int, int]] = []
    for k, fan in zip(range(j, i - 1, -1), reversed(fans)):
        for a, b in pairwise(fan):
            faces.append((k, a, b))
            if k < a <= j:
                ok = low[a - i] == k and fans[a - i][-1] == b
            elif a > hi or b > hi:  # upper points u, u - 1, or a bridging arc, lower end first
                ok = a + 1 == b if min(a, b) > hi else _has(bri, (min(a, b), top - max(a, b)))
            else:
                ok = abs(a - b) == 1 or _has(per, (min(a, b), max(a, b)))
            if not ok:
                raise CutError(f"the star cut of {i}..{j} is not complete at lower point {k}")
    return faces, hi, top


def cut_polygon(t: StripTriangulation, i: int, j: int) -> PolygonCut:
    """The star cut of i..j as a PolygonTriangulation, its corners labelled
    from 1 in star_faces' order (lower ascending, then upper descending)."""
    faces, hi, top = star_faces(t, i, j)
    corners = sorted({v for face in faces for v in face})
    label = {v: n for n, v in enumerate(corners, 1)}
    chords = frozenset((label[k], label[b]) for k, _, b in faces[:-1])
    return PolygonCut(PolygonTriangulation(len(corners), chords),
                      {v: label[v] for v in corners if v <= hi},
                      {top - v: label[v] for v in corners if v > hi})


def cc_entry(t: StripTriangulation, i: int, j: int) -> int:
    """t(i, j) by label propagation from i, the far end of the cut's root side."""
    if i > j:
        raise StripError(f"t({i}, {j}) needs i <= j")
    return cc_over_faces(star_faces(t, i + 1, j - 1)[0], i)[j] if j - i > 1 else j - i


def bci_entry(t: StripTriangulation, i: int, j: int) -> int:
    """t(i, j) by counting triangle tuples along the lower walk i, i+1, ..., j."""
    if i > j:
        raise StripError(f"t({i}, {j}) needs i <= j")
    return bci_over_faces(star_faces(t, i + 1, j - 1)[0], range(i, j + 1)) if j - i > 1 else j - i
