"""Frieze entries of a strip triangulation by counting inside polygon cuts.

Any entry t(i, j) of the frieze of an admissible strip triangulation can be
computed combinatorially: cut the strip along an existing arc system that
encloses the stars of the lower points i..j (either one peripheral arc
passing over them, or a bridging arc on each side), producing a finite
triangulated polygon, then run the polygon counting methods there.  The
label-propagation count and the boundary-walk tuple count both equal the
frieze entry, giving a fully independent cross-check of the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polygon import PolygonTriangulation
from .strip import StripTriangulation, StripError


class CutError(StripError):
    """No complete enclosing cut was found among the materialized arcs."""


@dataclass(frozen=True)
class PolygonCut:
    """A finite triangulated polygon cut out of the strip, with index maps."""

    polygon: PolygonTriangulation
    lower_map: dict[int, int]   # lower index -> polygon vertex label
    upper_map: dict[int, int]   # upper index -> polygon vertex label
    kind: str                   # "peripheral" or "bridging"


def cut_polygon(t: StripTriangulation, i: int, j: int,
                route: str = "auto") -> PolygonCut:
    """Cut out a triangulated polygon containing the stars of lower points i..j.

    Prefers the tightest peripheral arc over (i-1, j+1); otherwise falls
    back to the nearest bridging arcs at some p <= i-1 and q >= j+1.  The
    cut arcs become polygon sides; everything strictly inside is inherited.
    route forces one of the two cut kinds ("peripheral" or "bridging");
    any valid cut yields the same counts.
    """
    if i > j:
        raise StripError("need i <= j")
    if route not in ("auto", "peripheral", "bridging"):
        raise StripError(f"unknown cut route {route!r}")
    over = [(x, y) for x, y in t.peripheral_arcs if x <= i - 1 and y >= j + 1]
    if route == "bridging":
        over = []
    if over:
        a0 = max(x for x, _ in over)
        b0 = min(y for x, y in over if x == a0)
        lower_map = {k: k - a0 + 1 for k in range(a0, b0 + 1)}
        chords = set()
        for x, y in t.peripheral_arcs:
            if a0 <= x and y <= b0 and (x, y) != (a0, b0):
                chords.add((lower_map[x], lower_map[y]))
        poly = PolygonTriangulation(b0 - a0 + 1, frozenset(chords))
        return PolygonCut(poly, lower_map, {}, "peripheral")

    if route == "peripheral":
        raise CutError(f"no peripheral arc over ({i - 1}, {j + 1})")
    carriers = sorted({k for k, _ in t.bridging_arcs})
    left = [p for p in carriers if p <= i - 1]
    right = [q for q in carriers if q >= j + 1]
    if not left or not right:
        raise CutError(
            f"no peripheral arc over ({i - 1}, {j + 1}) and no flanking bridging "
            "arcs in the materialized region")
    p, q = left[-1], right[0]
    u = max(w for k, w in t.bridging_arcs if k == p)
    v = min(w for k, w in t.bridging_arcs if k == q)
    if u > v:
        raise StripError("flanking bridging arcs cross; triangulation is corrupt")
    n_low = q - p + 1
    lower_map = {k: k - p + 1 for k in range(p, q + 1)}
    upper_map = {w: n_low + (v - w) + 1 for w in range(u, v + 1)}
    n = n_low + (v - u + 1)
    chords = set()
    for x, y in t.peripheral_arcs:
        if p <= x and y <= q:
            chords.add((lower_map[x], lower_map[y]))
    for k, w in t.bridging_arcs:
        if p <= k <= q and u <= w <= v and (k, w) not in ((p, u), (q, v)):
            chords.add(tuple(sorted((lower_map[k], upper_map[w]))))
    if len(chords) != n - 3:
        raise CutError(
            f"cut region has {len(chords)} chords but needs {n - 3}; "
            "the strip does not materialize this cut completely")
    poly = PolygonTriangulation(n, frozenset(chords))
    return PolygonCut(poly, lower_map, upper_map, "bridging")


def cc_entry(t: StripTriangulation, i: int, j: int) -> int:
    """t(i, j) by label propagation inside a polygon cut (i <= j)."""
    if i > j:
        raise StripError("need i <= j")
    if i == j:
        return 0
    if j == i + 1:
        return 1
    cut = cut_polygon(t, i, j)
    labels = cut.polygon.cc_labels(cut.lower_map[i])
    return labels[cut.lower_map[j]]


def bci_entry(t: StripTriangulation, i: int, j: int) -> int:
    """t(i, j) by counting triangle tuples along the lower walk i, i+1, ..., j."""
    if i > j:
        raise StripError("need i <= j")
    if i == j:
        return 0
    if j == i + 1:
        return 1
    cut = cut_polygon(t, i, j)
    walk = [cut.lower_map[k] for k in range(i, j + 1)]
    return cut.polygon.bci_count(walk)
