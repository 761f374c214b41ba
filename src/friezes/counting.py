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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

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


def _peripheral_chords(t: StripTriangulation, lo: int, hi: int,
                       label: dict[int, int]) -> set[tuple[int, int]]:
    """The peripheral arcs (x, y) with lo <= x and y <= hi, relabelled."""
    arcs = t.peripheral_arcs
    inside = arcs[bisect_left(arcs, (lo,)):bisect_left(arcs, (hi,))]
    return {(label[x], label[y]) for x, y in inside if y <= hi}


def cut_polygon(t: StripTriangulation, i: int, j: int,
                route: str = "auto") -> PolygonCut:
    """Cut out a triangulated polygon containing the stars of lower points i..j.

    Prefers the tightest peripheral arc over (i-1, j+1); otherwise falls
    back to the nearest bridging arcs at some p <= i-1 and q >= j+1.  The
    cut arcs become polygon sides; everything strictly inside is inherited.
    route forces one of the two cut kinds ("peripheral" or "bridging");
    any valid cut yields the same counts.  The cut arcs and the arcs inside
    them are found by bisecting the sorted arc views: no Python loop runs
    over arcs outside the polygon.
    """
    if i > j:
        raise StripError("need i <= j")
    if route not in ("auto", "peripheral", "bridging"):
        raise StripError(f"unknown cut route {route!r}")
    over = None if route == "bridging" else t.tightest_peripheral_over(i - 1, j + 1)
    if over is not None:
        a0, b0 = over
        n = b0 - a0 + 1
        lower_map = {k: k - a0 + 1 for k in range(a0, b0 + 1)}
        chords = _peripheral_chords(t, a0, b0, lower_map) - {(1, n)}  # the cut arc is a side
        poly = PolygonTriangulation(n, frozenset(chords))
        return PolygonCut(poly, lower_map, {}, "peripheral")

    if route == "peripheral":
        raise CutError(f"no peripheral arc over ({i - 1}, {j + 1})")
    bridging_arcs = t.bridging_arcs
    left = bisect_right(bridging_arcs, i - 1, key=itemgetter(0))  # end of feet <= i-1
    right = bisect_left(bridging_arcs, j + 1, key=itemgetter(0))  # start of feet >= j+1
    if left == 0 or right == len(bridging_arcs):
        raise CutError(
            f"no peripheral arc over ({i - 1}, {j + 1}) and no flanking bridging "
            "arcs in the materialized region")
    (p, u), (q, v) = bridging_arcs[left - 1], bridging_arcs[right]
    if u > v:
        raise StripError("flanking bridging arcs cross; triangulation is corrupt")
    n_low = q - p + 1
    lower_map = {k: k - p + 1 for k in range(p, q + 1)}
    upper_map = {w: n_low + (v - w) + 1 for w in range(u, v + 1)}
    n = n_low + (v - u + 1)
    chords = _peripheral_chords(t, p, q, lower_map)
    chords |= {(lower_map[k], upper_map[w])  # feet strictly between p and q
               for k, w in bridging_arcs[left:right] if u <= w <= v}
    if len(chords) != n - 3:
        raise CutError(
            f"cut region has {len(chords)} chords but needs {n - 3}; "
            "the strip does not materialize this cut completely")
    poly = PolygonTriangulation(n, frozenset(chords))
    return PolygonCut(poly, lower_map, upper_map, "bridging")


def cc_entry(t: StripTriangulation, i: int, j: int) -> int:
    """t(i, j) by label propagation inside a polygon cut (i <= j)."""
    if i <= j <= i + 1:
        return j - i  # t(i, i) = 0 and t(i, i+1) = 1; cut_polygon refuses i > j
    cut = cut_polygon(t, i, j)
    labels = cut.polygon.cc_labels(cut.lower_map[i])
    return labels[cut.lower_map[j]]


def bci_entry(t: StripTriangulation, i: int, j: int) -> int:
    """t(i, j) by counting triangle tuples along the lower walk i, i+1, ..., j."""
    if i <= j <= i + 1:
        return j - i  # t(i, i) = 0 and t(i, i+1) = 1; cut_polygon refuses i > j
    cut = cut_polygon(t, i, j)
    walk = [cut.lower_map[k] for k in range(i, j + 1)]
    return cut.polygon.bci_count(walk)
