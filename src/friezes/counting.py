"""Frieze entries of a strip triangulation by counting inside star cuts.

t(i, j) reads only the triangles at the lower points i+1..j-1: it is the
continuant of their counts.  Their union is a triangulated polygon, the
star cut, and both classical counts run there: Conway-Coxeter label
propagation from i, and Broline-Crowe-Isaacs tuples of triangles along the
lower walk i..j.  They agree with the recurrence, giving a fully independent
cross-check of it, and the cut costs about j - i plus the degrees of
i+1..j-1, whatever the strip's width.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .polygon import PolygonError, PolygonTriangulation
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


def cut_polygon(t: StripTriangulation, i: int, j: int) -> PolygonCut:
    """The polygon of the triangles at lower points i..j: the star cut.

    Stars of neighbours k, k+1 share the triangle on the segment (k, k+1),
    so the union does not pinch.  Its corners are i-1..j+1 and the far ends
    of the arcs at i..j: the lower ones ascending, labelled from 1, then the
    upper ones descending.  Both sides of an arc at a point of i..j are
    triangles at that point, so those arcs are exactly the chords, and every
    other side joins two corners outside i..j.

    The cut certifies itself from the arcs alone, trusting no window or
    margin.  Each side off the lower path must be a boundary segment
    (adjacent lower indices or upper labels) or a materialized arc; the
    polygon is then a union of true triangles, any arc in it is a chord of
    its one triangulation, and its n - 3 chord check passes only when the
    stars of i..j are complete.  Either failure raises CutError, so a strip
    missing arcs never gives a wrong count.  The arcs are bisected out of
    the sorted pairs: the cost follows the cut, not the strip.
    """
    if i > j:
        raise StripError("need i <= j")
    starting, ending, footed = t.stars(i, j)
    left = sorted({x for x, _ in ending if x < i - 1})
    right = sorted({y for _, y in starting if y > j + 1})
    upper = sorted({u for _, u in footed})
    per, bri = t.peripheral_arcs, t.bridging_arcs
    first, last = (left or [i - 1])[0], (right or [j + 1])[-1]
    if upper:
        closed = _has(bri, (last, upper[-1])) and _has(bri, (first, upper[0]))
    else:
        closed = _has(per, (first, last))
    lower_sides = [*zip(left, [*left[1:], i - 1]), *zip([j + 1, *right], right)]
    if not (closed and all(b == a + 1 or _has(per, (a, b)) for a, b in lower_sides)
            and all(v == u + 1 for u, v in zip(upper, upper[1:]))):
        raise CutError(f"a side of the star cut of {i}..{j} is not a materialized arc")
    lower_map = {x: k for k, x in enumerate([*left, *range(i - 1, j + 2), *right], 1)}
    top = len(lower_map) + len(upper)
    upper_map = {u: top - k for k, u in enumerate(upper)}
    chords = {(lower_map[x], lower_map[y]) for x, y in (*starting, *ending)}
    chords |= {(lower_map[k], upper_map[u]) for k, u in footed}
    try:
        poly = PolygonTriangulation(top, frozenset(chords))
    except PolygonError as e:
        raise CutError(f"the star cut of {i}..{j} is not complete: {e}") from e
    return PolygonCut(poly, lower_map, upper_map)


def cc_entry(t: StripTriangulation, i: int, j: int) -> int:
    """t(i, j) by label propagation inside the star cut of i+1..j-1 (i <= j)."""
    if i <= j <= i + 1:
        return j - i  # t(i, i) = 0 and t(i, i+1) = 1; cut_polygon refuses i > j
    cut = cut_polygon(t, i + 1, j - 1)
    return cut.polygon.cc_labels(cut.lower_map[i])[cut.lower_map[j]]


def bci_entry(t: StripTriangulation, i: int, j: int) -> int:
    """t(i, j) by counting triangle tuples along the lower walk i, i+1, ..., j."""
    if i <= j <= i + 1:
        return j - i  # t(i, i) = 0 and t(i, i+1) = 1; cut_polygon refuses i > j
    cut = cut_polygon(t, i + 1, j - 1)
    return cut.polygon.bci_count([cut.lower_map[k] for k in range(i, j + 1)])
