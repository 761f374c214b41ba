"""Triangulations of the infinite strip with marked points.

The strip has height one: marked points (i, 0) for every integer i on the
lower boundary, and points (u, 1) on the upper boundary indexed by a subset
of the integers (the upper index class).  Arcs join marked points and are
peripheral (both endpoints lower) or bridging (one endpoint per boundary);
upper-upper arcs never occur in the triangulations produced here.  A
triangulation is a maximal pairwise noncrossing arc collection; it is
admissible when every lower point meets only finitely many arcs.

A StripTriangulation stores its arcs as sorted int pairs, peripheral_arcs
(i, j) with i < j and bridging_arcs (i, u), checks them once when it is
built (peripheral arcs by the laminar sweep of interleaved_pair; polygon
chords have their own, in the polygon constructor), and interleaves per-arc
items of both in arc order, splicing runs found by bisection on the feet
(foot_order, read by arc_triples and the strip writer).
An Arc is the tuple of two (boundary, index) marked points, lower endpoint
first: (("L", i), ("L", j)) or (("L", i), ("U", u)); Arc and MarkedPoint
name the fields but add no behaviour.  Arcs are the constructor's input,
the `arcs` view and what error messages name.

A full triangulation is infinite, so a StripTriangulation materializes only
the arcs relevant to a finite window of lower indices plus a margin, and
records the upper index class explicitly (a finite window cannot tell the
classes apart by inspection).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, starmap
from operator import itemgetter, lt, sub
from typing import Iterable, NamedTuple

LOWER = "L"
UPPER = "U"


class StripError(ValueError):
    """Raised for invalid strip data or queries outside the materialized region."""


class MarkedPoint(NamedTuple):
    boundary: str  # LOWER or UPPER
    index: int


class Arc(NamedTuple):
    """An arc between two marked points, the lower (or smaller) endpoint first."""

    a: MarkedPoint
    b: MarkedPoint


def peripheral(i: int, j: int) -> Arc:
    if i > j:
        i, j = j, i
    return Arc(MarkedPoint(LOWER, i), MarkedPoint(LOWER, j))


def bridging(lower_i: int, upper_u: int) -> Arc:
    return Arc(MarkedPoint(LOWER, lower_i), MarkedPoint(UPPER, upper_u))


def cross(x: Arc, y: Arc) -> bool:
    """Whether two arcs cross in the strip interior (shared endpoints never cross)."""
    (_, i), (x_end, j) = x
    (_, k), (y_end, l) = y
    if x_end == LOWER and y_end == LOWER:
        return (i < k < j < l) or (k < i < l < j)
    if x_end == LOWER:
        return i < k < j
    if y_end == LOWER:
        return k < i < l
    return (j - l) * (i - k) < 0


def interleaved_pair(pairs: Iterable[tuple[int, int]]
                     ) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Two of the pairs (a, b), (c, d), all with a < b, such that a < c < b < d.

    None when no two pairs interleave, that is, when the intervals are
    laminar: the noncrossing rule for peripheral arcs of the strip (and for
    polygon chords), where shared endpoints never cross.  One sweep in
    (left end, -right end) order keeps the chain of intervals still open at
    the current left end, innermost on top; O(P log P) for P pairs.
    """
    # (left, -right) order by two stable sorts on C-level keys
    order = sorted(pairs, key=itemgetter(1), reverse=True)
    order.sort(key=itemgetter(0))
    stack: list[tuple[int, int]] = []
    for a, b in order:
        while stack and stack[-1][1] <= a:
            stack.pop()
        if stack and b > stack[-1][1]:
            return stack[-1], (a, b)
        stack.append((a, b))
    return None


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

    def contains_label(self, u: int) -> bool:
        if self.kind == "finite":
            return 1 <= u <= self.size
        if self.kind == "nat_right":
            return u >= 0
        if self.kind == "nat_left":
            return u <= 0
        return self.kind == "bi_infinite"


M2_EMPTY = M2Class("empty")
M2_BI_INFINITE = M2Class("bi_infinite")
M2_NAT_RIGHT = M2Class("nat_right")
M2_NAT_LEFT = M2Class("nat_left")


def m2_finite(n: int) -> M2Class:
    return M2Class("finite", n)


@dataclass(frozen=True, init=False)
class StripTriangulation:
    """Windowed materialization of a strip triangulation.

    The arcs are two sorted tuples of distinct int pairs: `peripheral_arcs`
    (i, j) with j - i >= 2 and `bridging_arcs` (i, u) with u in the upper
    class.  `from_pairs` takes those pairs, the constructor Arc tuples, and
    both run one check.  `arcs` gives the Arc tuples back, built on first use.
    Producers guarantee complete stars at the lower points lo-1..hi+1 and
    every arc of the window cut, the polygon enclosing those stars along
    the tightest peripheral arc over (lo-2, hi+2) or else between the
    nearest bridging arcs, whose lower span lies in [lo - margin, hi +
    margin] (psi takes the least such margin).  Counting reads only stars,
    whose fans certify themselves (counting.star_faces); other queries
    about points outside the window may be answered from partial data and
    raise StripError where that would be unsound.  `peripheral_by_end` is
    built on first use, as `arcs` is.
    """

    window: tuple[int, int]
    margin: int
    m2_class: M2Class
    peripheral_arcs: tuple[tuple[int, int], ...]
    bridging_arcs: tuple[tuple[int, int], ...]

    def __init__(self, window: tuple[int, int], margin: int, m2_class: M2Class,
                 arcs: Iterable[Arc]):
        pairs: dict[str, list[tuple[int, int]]] = {LOWER: [], UPPER: []}
        for arc in arcs:
            (a_end, i), (b_end, j) = arc
            if a_end != LOWER or b_end not in pairs:
                if not {a_end, b_end} <= {LOWER, UPPER}:
                    raise StripError(f"boundary must be {LOWER!r} or {UPPER!r}: {arc}")
                if a_end == UPPER == b_end:
                    raise StripError("upper-upper arcs do not occur here")
                raise StripError(f"arc endpoints must be sorted, lower first: {arc}")
            pairs[b_end].append((i, j))
        vars(self).update(vars(self.from_pairs(window, margin, m2_class, sorted(pairs[LOWER]),
                                               sorted(pairs[UPPER]))))

    @classmethod
    def from_pairs(cls, window: tuple[int, int], margin: int, m2_class: M2Class,
                   peripheral_arcs: Iterable[tuple[int, int]],
                   bridging_arcs: Iterable[tuple[int, int]]) -> "StripTriangulation":
        """A strip from its pairs, each sequence sorted and without repeats."""
        per, bri = tuple(peripheral_arcs), tuple(bridging_arcs)
        t = cls._from_sorted(window, margin, m2_class, per, bri)
        if per and min(map(sub, map(itemgetter(1), per), map(itemgetter(0), per))) < 2:
            i, j = next((i, j) for i, j in per if j - i < 2)
            if i > j:
                arc = Arc(MarkedPoint(LOWER, i), MarkedPoint(LOWER, j))
                raise StripError(f"arc endpoints must be sorted, lower first: {arc}")
            raise StripError("peripheral arcs must span at least 2 (shorter is contractible)")
        if not (all(map(lt, per, per[1:])) and all(map(lt, bri, bri[1:]))):
            raise StripError("arcs must be sorted and hold no pair twice")
        # each class is an interval of labels, and bi_infinite holds every label
        if bri and m2_class.kind != "bi_infinite":
            for u in min(map(itemgetter(1), bri)), max(map(itemgetter(1), bri)):
                if not m2_class.contains_label(u):
                    raise StripError(f"bridging arc to upper {u} outside class {m2_class}")
        return t

    @classmethod
    def _from_sorted(cls, window, margin, m2_class, per, bri) -> "StripTriangulation":
        """from_pairs without its pair checks, for pairs that pass them by construction."""
        lo, hi = window
        if lo > hi:
            raise StripError("window lo must be <= hi")
        if margin < 0:
            raise StripError("margin must be >= 0")
        t = cls.__new__(cls)
        vars(t).update(window=window, margin=margin, m2_class=m2_class,
                       peripheral_arcs=per, bridging_arcs=bri)
        return t

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        """Every arc as an Arc tuple."""
        return frozenset([*starmap(peripheral, self.peripheral_arcs),
                          *starmap(bridging, self.bridging_arcs)])

    def foot_order(self, per: list, bri: list) -> list:
        """Items of the peripheral and the bridging arcs, in storage order,
        interleaved as sorted(arcs) is: by foot, a peripheral arc first.
        Runs of either side are spliced whole, their ends found by bisection."""
        P, B = self.peripheral_arcs, self.bridging_arcs
        out, k, b = [], 0, 0
        while k < len(P):  # the bridging arcs before P[k]'s foot, then the peripheral up to B[c]'s
            c = bisect_left(B, P[k][:1], b)  # (foot,) sorts before every pair at that foot
            e = bisect_left(P, (B[c][0] + 1,), k) if c < len(B) else len(P)
            out += bri[b:c] + per[k:e]
            k, b = e, c
        return out + bri[b:]

    @cached_property
    def arc_triples(self) -> tuple[tuple[int, str, int], ...]:
        """Every arc as (lower index, boundary of the other end, its index),
        in the order of sorted(arcs), by foot_order."""
        return tuple(self.foot_order([(i, LOWER, j) for i, j in self.peripheral_arcs],
                                     [(i, UPPER, u) for i, u in self.bridging_arcs]))

    @cached_property
    def peripheral_by_end(self) -> tuple[tuple[int, int], ...]:
        """The peripheral arcs sorted by right end, then by left end."""
        return tuple(sorted(self.peripheral_arcs, key=itemgetter(1)))  # stable: keeps left order

    def stars(self, i: int, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The arcs at lower points i..j as three slices found by bisection.

        Peripheral (x, y) with i <= x <= j, in sorted order; peripheral
        (x, y) with i <= y <= j, by right end (an arc with both ends in i..j
        is in both); and bridging (k, u) with i <= k <= j, in sorted order.
        """
        per, ends, bri = self.peripheral_arcs, self.peripheral_by_end, self.bridging_arcs
        end = itemgetter(1)
        return (per[bisect_left(per, (i,)):bisect_left(per, (j + 1,))],
                ends[bisect_left(ends, i, key=end):bisect_right(ends, j, key=end)],
                bri[bisect_left(bri, (i,)):bisect_left(bri, (j + 1,))])

    def lower_star(self, i: int) -> list[Arc]:
        """The arcs at lower point i, as Arc tuples in sorted order."""
        starting, ending, footed = self.stars(i, i)
        return ([peripheral(x, i) for x, _ in ending] + [peripheral(i, y) for _, y in starting]
                + [bridging(i, u) for _, u in footed])

    def quiddity_of(self, window: tuple[int, int] | None = None) -> dict[int, int]:
        """Triangle count at each lower point of the window: 1 + arc degree.

        Only the triangulation's own window is guaranteed to have complete
        stars; asking beyond it raises rather than guessing.
        """
        lo, hi = window if window is not None else self.window
        if lo < self.window[0] or hi > self.window[1]:
            raise StripError(
                f"stars outside window {self.window} may be truncated by the margin")
        deg = Counter(chain(*zip(*self.peripheral_arcs), (i for i, _ in self.bridging_arcs)))
        return {i: 1 + deg[i] for i in range(lo, hi + 1)}

    def check_pairwise_noncrossing(self) -> None:
        """Raise StripError naming two arcs that cross, if any two do.

        Three exact restatements of `cross`, in O(A log A) for A arcs:
        peripheral arcs must be laminar (no two interleave); bridging arcs
        sorted by (lower, upper) must have nondecreasing upper labels; and no
        bridging foot may lie strictly inside a peripheral arc.
        """
        pair = interleaved_pair(self.peripheral_arcs)
        if pair:
            raise StripError(f"arcs cross: {peripheral(*pair[0])} and {peripheral(*pair[1])}")
        bridging_arcs = self.bridging_arcs
        for x, y in zip(bridging_arcs, bridging_arcs[1:]):
            if y[1] < x[1]:
                raise StripError(f"arcs cross: {bridging(*x)} and {bridging(*y)}")
        if not (self.peripheral_arcs and bridging_arcs):
            return  # no foot to lie under an arc
        feet = [i for i, _ in bridging_arcs]
        for i, j in self.peripheral_arcs:
            k = bisect_right(feet, i)
            if k < len(feet) and feet[k] < j:
                raise StripError(
                    f"arcs cross: {peripheral(i, j)} and {bridging(*bridging_arcs[k])}")

    def tightest_peripheral_over(self, m: int, n: int) -> tuple[int, int] | None:
        """The peripheral arc (i, j) with i <= m <= n <= j, largest i, then least j.

        None when no arc passes over (m, n) (endpoints count).  A bisect finds
        the arcs starting at or left of m, and one C-level max says whether
        one of them ends at or right of n; the scan back to the nearest such
        start passes only arcs under the answer, as arcs do not cross.
        """
        if m > n:
            raise StripError("need m <= n")
        arcs = self.peripheral_arcs
        k = bisect_right(arcs, m, key=itemgetter(0))
        if k == 0 or max(map(itemgetter(1), arcs[:k])) < n:
            return None
        while arcs[k - 1][1] < n:
            k -= 1
        return arcs[bisect_left(arcs, (arcs[k - 1][0], n))]

    def is_admissible_window(self) -> bool:
        """Local admissibility criterion over all window pairs m < n.

        Each pair must be passed over by a peripheral arc, or flanked by
        bridging arcs at some p <= m and q >= n.  Both covers of (m, n) also
        cover every pair inside it, so the widest pair (lo, hi) decides:
        O(A).  Answers use materialized arcs only, so a too-small margin can
        produce a false negative.
        """
        lo, hi = self.window
        if lo == hi or self.tightest_peripheral_over(lo, hi) is not None:
            return True
        feet = self.bridging_arcs
        return bool(feet) and feet[0][0] <= lo and feet[-1][0] >= hi

    def materialized_upper_labels(self) -> list[int]:
        """The upper labels from the least to the greatest one a bridging arc uses.

        [] when no bridging arc is materialized.  The class bounds do not
        widen the range: a label outside it could be reached only from lower
        points at or beyond the outermost materialized feet, so the strip
        cannot decide whether such a point is special.
        """
        labels = [u for _, u in self.bridging_arcs]
        return list(range(min(labels), max(labels) + 1)) if labels else []

    def special_upper_points(self) -> list[MarkedPoint]:
        """Upper points between materialized labels that no arc reaches.

        Only labels inside materialized_upper_labels are judged: the strip
        holds the window's cut, so a point beyond its outermost bridging arcs
        is left undecided rather than reported.
        """
        used = {u for _, u in self.bridging_arcs}
        return [MarkedPoint(UPPER, u) for u in self.materialized_upper_labels()
                if u not in used]

    def check_window_maximality(self) -> None:
        """No compatible arc with both endpoints inside the window is missing.

        Only noncrossing arcs can be part of a triangulation, so a crossing
        raises check_pairwise_noncrossing's error first.  Candidate peripheral
        arcs range over window index pairs, candidate bridging arcs over
        window lower points and materialized upper labels; the first
        candidate (peripheral by (i, j), then bridging by (i, u)) that is
        absent and crosses no arc is reported.  Sound because every arc
        meeting the window is materialized.

        The peripheral candidates from i that cross nothing are i's visible
        points: after v (from v = i + 1) comes the far end of the longest arc
        starting at v, or v + 1.  The walk stops at a bridging foot, at the
        end of an arc from left of i, or past the window; each visible point
        must end an arc at i, so row i costs O(deg i + 1).  A bridging (i, u)
        crosses nothing when i is strictly under no peripheral arc and u lies
        between the labels of the nearest feet on each side of i, as labels
        rise with the feet.  O(W + A log A) for window width W and A arcs.
        """
        self.check_pairwise_noncrossing()
        lo, hi = self.window
        width = hi - lo + 1
        bridging_arcs = self.bridging_arcs
        reach_right = [lo - 1] * width  # farthest end of an arc starting at p
        reach_left = [hi + 1] * width   # nearest start of an arc ending at p
        under = [0] * (width + 1)       # difference array: p strictly under an arc
        for i, j in self.peripheral_arcs:
            if lo <= i <= hi:
                reach_right[i - lo] = max(reach_right[i - lo], j)
            if lo <= j <= hi:
                reach_left[j - lo] = min(reach_left[j - lo], i)
            a, b = max(i + 1, lo), min(j - 1, hi)
            if a <= b:
                under[a - lo] += 1
                under[b - lo + 1] -= 1
        peripherals, footed = set(self.peripheral_arcs), {i for i, _ in bridging_arcs}
        for i in range(lo, hi - 1):
            v = i + 1
            while v not in footed and reach_left[v - lo] >= i:
                v = max(v + 1, reach_right[v - lo])
                if v > hi:
                    break
                if (i, v) not in peripherals:
                    raise StripError(f"window not maximal: {peripheral(i, v)} could be added")

        bridgings = set(bridging_arcs)
        labels = [u for _, u in bridging_arcs]  # nondecreasing, as no two arcs cross
        covered = 0
        for i in range(lo, hi + 1):
            covered += under[i - lo]
            if covered or not labels:
                continue
            k, m = bisect_left(bridging_arcs, (i,)), bisect_left(bridging_arcs, (i + 1,))
            u_lo, u_hi = labels[max(k - 1, 0)], labels[min(m, len(labels) - 1)]
            for u in range(u_lo, u_hi + 1):
                if (i, u) not in bridgings:
                    raise StripError(f"window not maximal: {bridging(i, u)} could be added")

    def dehn_twist(self, n: int) -> "StripTriangulation":
        """Shift the upper endpoint of every bridging arc by n positions.

        Defined only for the bi-infinite upper class; peripheral arcs and
        hence all lower stars are unchanged.
        """
        if self.m2_class.kind != "bi_infinite":
            raise StripError("Dehn twist needs a bi-infinite upper boundary")
        return self.from_pairs(self.window, self.margin, self.m2_class, self.peripheral_arcs,
                               [(i, u + n) for i, u in self.bridging_arcs])

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

        def window_arcs(t: StripTriangulation) -> tuple[list, list]:
            return ([(i, j) for i, j in t.peripheral_arcs if j >= lo and i <= hi],
                    [(i, u) for i, u in t.bridging_arcs if lo <= i <= hi])

        (per1, bri1), (per2, bri2) = window_arcs(self), window_arcs(other)
        if per1 != per2 or not (bri1 and bri2):
            return 0 if per1 == per2 and bri1 == bri2 else None
        # both sides must share the leftmost carrier; compare its lowest upper ends
        n = bri2[0][1] - bri1[0][1]
        return n if [(i, u + n) for i, u in bri1] == bri2 else None
