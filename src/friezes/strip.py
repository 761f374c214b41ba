"""Triangulations of the infinite strip with marked points.

The strip has height one: marked points (i, 0) for every integer i on the
lower boundary, and points (u, 1) on the upper boundary indexed by a subset
of the integers (the upper index class).  Arcs join marked points and are
peripheral (both endpoints lower) or bridging (one endpoint per boundary);
upper-upper arcs never occur in the triangulations produced here.  A
triangulation is a maximal pairwise noncrossing arc collection; it is
admissible when every lower point meets only finitely many arcs.

A full triangulation is infinite, so a StripTriangulation materializes only
the arcs relevant to a finite window of lower indices plus a margin, and
records the upper index class explicitly (a finite window cannot tell the
classes apart by inspection).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

LOWER = "L"
UPPER = "U"


class StripError(ValueError):
    """Raised for invalid strip data or queries outside the materialized region."""


@dataclass(frozen=True, order=True)
class MarkedPoint:
    boundary: str  # LOWER or UPPER
    index: int

    def __post_init__(self):
        if self.boundary not in (LOWER, UPPER):
            raise StripError(f"boundary must be {LOWER!r} or {UPPER!r}")


@dataclass(frozen=True, order=True)
class Arc:
    """An arc between two marked points, endpoints stored in sorted order."""

    a: MarkedPoint
    b: MarkedPoint

    def __post_init__(self):
        if self.a == self.b:
            raise StripError("arc endpoints must be distinct")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)
        if self.a.boundary == UPPER and self.b.boundary == UPPER:
            raise StripError("upper-upper arcs do not occur here")
        if self.is_peripheral() and self.b.index - self.a.index < 2:
            raise StripError("peripheral arcs must span at least 2 (shorter is contractible)")

    def is_peripheral(self) -> bool:
        return self.a.boundary == LOWER and self.b.boundary == LOWER

    def is_bridging(self) -> bool:
        return not self.is_peripheral()

    def lower_index(self) -> int:
        # bridging arcs sort (L, i) before (U, u), so a is the lower endpoint
        return self.a.index

    def upper_index(self) -> int:
        if not self.is_bridging():
            raise StripError("peripheral arc has no upper endpoint")
        return self.b.index

    def lower_span(self) -> tuple[int, int]:
        """Lower indices covered: (i, j) for peripheral, (i, i) for bridging."""
        if self.is_peripheral():
            return (self.a.index, self.b.index)
        return (self.a.index, self.a.index)


def peripheral(i: int, j: int) -> Arc:
    return Arc(MarkedPoint(LOWER, i), MarkedPoint(LOWER, j))


def bridging(lower_i: int, upper_u: int) -> Arc:
    return Arc(MarkedPoint(LOWER, lower_i), MarkedPoint(UPPER, upper_u))


def cross(x: Arc, y: Arc) -> bool:
    """Whether two arcs cross in the strip interior (shared endpoints never cross)."""
    if x.is_peripheral() and y.is_peripheral():
        i, j = x.a.index, x.b.index
        k, l = y.a.index, y.b.index
        return (i < k < j < l) or (k < i < l < j)
    if x.is_peripheral() != y.is_peripheral():
        per, br = (x, y) if x.is_peripheral() else (y, x)
        i, j = per.a.index, per.b.index
        return i < br.lower_index() < j
    u, p = x.upper_index(), x.lower_index()
    v, q = y.upper_index(), y.lower_index()
    return (u - v) * (p - q) < 0


@dataclass(frozen=True)
class M2Class:
    """Shape of the upper marked point index set.

    kind is one of "empty", "finite" (with size), "nat_right" (order type of
    the nonnegative integers: a leftmost point, none rightmost), "nat_left"
    (mirror image), "bi_infinite".  Labeling conventions: finite classes use
    1..N left to right, nat_right starts at 0 going right, nat_left ends at 0
    going left, bi_infinite uses all integers with an arbitrary anchor.
    """

    kind: str
    size: int | None = None

    _KINDS = ("empty", "finite", "nat_right", "nat_left", "bi_infinite")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise StripError(f"unknown upper index class {self.kind!r}")
        if (self.kind == "finite") != (self.size is not None):
            raise StripError("finite class needs a size; others must not carry one")
        if self.size is not None and self.size < 1:
            raise StripError("finite class size must be >= 1")

    def label_range(self) -> tuple[int | None, int | None]:
        """(smallest label or None, largest label or None) of the class."""
        return {
            "empty": (None, None),
            "finite": (1, self.size),
            "nat_right": (0, None),
            "nat_left": (None, 0),
            "bi_infinite": (None, None),
        }[self.kind]

    def contains_label(self, u: int) -> bool:
        lo, hi = self.label_range()
        if self.kind == "empty":
            return False
        return (lo is None or u >= lo) and (hi is None or u <= hi)


M2_EMPTY = M2Class("empty")
M2_BI_INFINITE = M2Class("bi_infinite")
M2_NAT_RIGHT = M2Class("nat_right")
M2_NAT_LEFT = M2Class("nat_left")


def m2_finite(n: int) -> M2Class:
    return M2Class("finite", n)


@dataclass(frozen=True)
class StripTriangulation:
    """Windowed materialization of a strip triangulation.

    `arcs` holds arcs of the underlying triangulation.  Producers guarantee
    complete stars at the window's lower points and a complete window cut:
    the polygon counting.cut_polygon cuts out around lower points lo-1..hi+1,
    within [lo - margin, hi + margin].  Queries about points outside the
    window may be answered from partial data and raise StripError where that
    would be unsound.
    """

    window: tuple[int, int]
    margin: int
    m2_class: M2Class
    arcs: frozenset[Arc]

    def __post_init__(self):
        lo, hi = self.window
        if lo > hi:
            raise StripError("window lo must be <= hi")
        if self.margin < 0:
            raise StripError("margin must be >= 0")
        for arc in self.arcs:
            if arc.is_bridging() and not self.m2_class.contains_label(arc.upper_index()):
                raise StripError(
                    f"bridging arc to upper {arc.upper_index()} outside class {self.m2_class}")

    @cached_property
    def peripheral_arcs(self) -> tuple[Arc, ...]:
        return tuple(sorted(a for a in self.arcs if a.is_peripheral()))

    @cached_property
    def bridging_arcs(self) -> tuple[Arc, ...]:
        return tuple(sorted(a for a in self.arcs if a.is_bridging()))

    @cached_property
    def _lower_degree(self) -> dict[int, int]:
        deg: dict[int, int] = {}
        for arc in self.arcs:
            if arc.is_peripheral():
                for i in (arc.a.index, arc.b.index):
                    deg[i] = deg.get(i, 0) + 1
            else:
                i = arc.lower_index()
                deg[i] = deg.get(i, 0) + 1
        return deg

    def lower_star(self, i: int) -> list[Arc]:
        return sorted(a for a in self.arcs
                      if (a.is_peripheral() and i in (a.a.index, a.b.index))
                      or (a.is_bridging() and a.lower_index() == i))

    def quiddity_of(self, window: tuple[int, int] | None = None) -> dict[int, int]:
        """Triangle count at each lower point of the window: 1 + arc degree.

        Only the triangulation's own window is guaranteed to have complete
        stars; asking beyond it raises rather than guessing.
        """
        lo, hi = window if window is not None else self.window
        if lo < self.window[0] or hi > self.window[1]:
            raise StripError(
                f"stars outside window {self.window} may be truncated by the margin")
        deg = self._lower_degree
        return {i: 1 + deg.get(i, 0) for i in range(lo, hi + 1)}

    def check_pairwise_noncrossing(self) -> None:
        arcs = sorted(self.arcs)
        for i, x in enumerate(arcs):
            for y in arcs[i + 1:]:
                if cross(x, y):
                    raise StripError(f"arcs cross: {x} and {y}")

    def has_peripheral_over(self, m: int, n: int) -> bool:
        """Whether some peripheral arc (i, j) has i <= m <= n <= j (endpoints count)."""
        if m > n:
            raise StripError("need m <= n")
        return any(a.a.index <= m and n <= a.b.index for a in self.peripheral_arcs)

    def _bridging_lowers(self) -> list[int]:
        return sorted({a.lower_index() for a in self.bridging_arcs})

    def is_admissible_window(self) -> bool:
        """Local admissibility criterion over all window pairs m < n.

        Each pair must be passed over by a peripheral arc, or flanked by
        bridging arcs at some p <= m and q >= n.  Answers use materialized
        arcs only, so a too-small margin can produce a false negative.
        """
        lo, hi = self.window
        carriers = self._bridging_lowers()
        left = carriers[0] if carriers else None
        right = carriers[-1] if carriers else None
        for m in range(lo, hi):
            for n in range(m + 1, hi + 1):
                if self.has_peripheral_over(m, n):
                    continue
                if left is not None and left <= m and right >= n:
                    continue
                return False
        return True

    def materialized_upper_labels(self) -> list[int]:
        """All upper labels implied by the class within the materialized span."""
        used = sorted({a.upper_index() for a in self.bridging_arcs})
        cls_lo, cls_hi = self.m2_class.label_range()
        if self.m2_class.kind == "empty":
            return []
        if self.m2_class.kind == "finite":
            return list(range(1, self.m2_class.size + 1))
        lo = cls_lo if cls_lo is not None else (used[0] if used else 0)
        hi = cls_hi if cls_hi is not None else (used[-1] if used else 0)
        if used:
            lo = min(lo, used[0])
            hi = max(hi, used[-1])
        return list(range(lo, hi + 1))

    def special_upper_points(self) -> list[MarkedPoint]:
        """Materialized upper points incident to no arc at all."""
        used = {a.upper_index() for a in self.bridging_arcs}
        return [MarkedPoint(UPPER, u) for u in self.materialized_upper_labels()
                if u not in used]

    def check_window_maximality(self) -> None:
        """No compatible arc with both endpoints inside the window is missing.

        Candidate peripheral arcs range over window index pairs, candidate
        bridging arcs over window lower points and materialized upper labels.
        Sound because every arc meeting the window is materialized, so a
        candidate that crosses nothing here crosses nothing at all.
        """
        lo, hi = self.window
        arcs = sorted(self.arcs)
        uppers = self.materialized_upper_labels()
        candidates = [peripheral(i, j)
                      for i in range(lo, hi - 1) for j in range(i + 2, hi + 1)]
        candidates += [bridging(i, u) for i in range(lo, hi + 1) for u in uppers]
        for cand in candidates:
            if cand in self.arcs:
                continue
            if not any(cross(cand, a) for a in arcs):
                raise StripError(f"window not maximal: {cand} could be added")

    def dehn_twist(self, n: int) -> "StripTriangulation":
        """Shift the upper endpoint of every bridging arc by n positions.

        Defined only for the bi-infinite upper class; peripheral arcs and
        hence all lower stars are unchanged.
        """
        if self.m2_class.kind != "bi_infinite":
            raise StripError("Dehn twist needs a bi-infinite upper boundary")
        new_arcs = frozenset(
            bridging(a.lower_index(), a.upper_index() + n) if a.is_bridging() else a
            for a in self.arcs)
        return StripTriangulation(self.window, self.margin, self.m2_class, new_arcs)

    def dehn_equivalent(self, other: "StripTriangulation") -> int | None:
        """The twist power n with other = D^n(self) on the window, if any.

        Both triangulations must be bi-infinite with the same window.  The
        comparison is restricted to arcs whose lower span meets the window,
        where both materializations are complete.
        """
        if self.m2_class.kind != "bi_infinite" or other.m2_class.kind != "bi_infinite":
            raise StripError("Dehn equivalence is defined for bi-infinite upper classes")
        if self.window != other.window:
            raise StripError("windows differ")
        lo, hi = self.window

        def window_arcs(t: StripTriangulation) -> tuple[set[Arc], set[Arc]]:
            per, bri = set(), set()
            for a in t.arcs:
                s, e = a.lower_span()
                if e >= lo and s <= hi:
                    (per if a.is_peripheral() else bri).add(a)
            return per, bri

        per1, bri1 = window_arcs(self)
        per2, bri2 = window_arcs(other)
        if per1 != per2:
            return None
        if not bri1 and not bri2:
            return 0
        if {a.lower_index() for a in bri1} != {a.lower_index() for a in bri2}:
            return None
        anchor = min(a.lower_index() for a in bri1)
        u1 = min(a.upper_index() for a in bri1 if a.lower_index() == anchor)
        u2 = min(a.upper_index() for a in bri2 if a.lower_index() == anchor)
        n = u2 - u1
        shifted = {bridging(a.lower_index(), a.upper_index() + n) for a in bri1}
        return n if shifted == bri2 else None
