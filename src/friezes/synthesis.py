"""Synthesis of an admissible strip triangulation from a quiddity sequence.

The construction runs in two phases over a Residual: the quiddity
sequence's own eventually periodic word with 0 allowed, where a position's
value counts the triangles still missing at that lower marked point (0 marks
a fully consumed position):

* Phase A repeatedly scans for positions of value 1.  Each such position i
  receives a peripheral arc joining its nearest nonzero neighbours, then is
  zeroed out, and each neighbour loses one triangle slot per adjacent
  removed 1 (two slots when flanked on both sides).  All value-1 positions
  of a pass are processed simultaneously.  The phase ends when no 1 is left;
  it may also run forever, in which case the peripheral arcs alone already
  triangulate the strip with an empty upper boundary.
* Phase B distributes upper marked points.  The leftover values are 0 or
  >= 2; each value v >= 2 position still needs v - 1 bridging arcs, to
  consecutive upper points of which it shares the first with the previous
  nonzero position.  So every label is a prefix sum of the excesses
  max(v - 2, 0), counted from the closed end of a half line, from the
  leftmost point of a finite class, or from an anchor position of value
  > 2 on a bi-infinite boundary; a side with no further value > 2 position
  ends in a single fountain point serving its whole tail.  Excess sums over
  whole tail periods are one period's excess times their number, so only
  the window's cut is visited.

The shape of the upper index set is read off from which phases terminate:
phase A, then each side's fountain, endless on a tail with a value > 2.  Only
a bi-infinite boundary has an anchor, the one free choice (a twist class).
Residuals stay eventually periodic throughout, so passes are computed as
exact descriptor rewrites.  A window's cut is read off the residuals, as
zeroed positions never revive, and each pass's 1s and arcs are recorded
once, over the cut.  One sweep carries the phase-A rule: it reads the
values of a range once, walks their nonzero positions as (previous, this,
next) triples, and gives the rewritten values and the 1s with their arcs.
The descriptor rewrite, the arcs over the cut and the check of the new
tails all run it.  It rejects three patterns that no frieze reaches
(Conway-Coxeter: a residual 1 is an ear): two 1s adjacent through zeros, as
the continuant K(1, 1) is 0; a 2 between two 1s, as K(1, 2, 1) is 0, the
one decrement that would zero a position without an arc; and a 1 with an
all-zero side, which has no end for its arc.  These rules decide validity:
a run that trips none builds a strip whose triangle counts are q, so psi
needs no separate positivity check.  Nontermination of phase A is detected
by recurrence, up to translation, of the residual with its zeros collapsed
away (zero positions are inert, and the gaps between survivors grow, so the
uncollapsed residual never recurs).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, count, cycle
from operator import ne
from typing import NoReturn

from .quiddity import QuiddityDescriptor, QuiddityError, validate
from .strip import (M2Class, M2_BI_INFINITE, M2_EMPTY, M2_NAT_LEFT,
                    M2_NAT_RIGHT, StripTriangulation, m2_finite)

DEFAULT_CAP = 1000


class InconclusiveError(RuntimeError):
    """A cap was reached before the synthesis could classify the input."""


class Residual(QuiddityDescriptor):
    """Working copy of a quiddity sequence during synthesis.

    The same eventually periodic word as QuiddityDescriptor, except that 0
    is allowed: a value counts the triangles still missing at that lower
    point, and 0 marks a consumed one.  Values are never negative, as a pass
    zeroes the removed positions and only decrements nonzero ones.
    """

    MIN_VALUE = 0

    @classmethod
    def from_descriptor(cls, q: QuiddityDescriptor) -> "Residual":
        return cls(**vars(q))

    def excess(self, lo: int, hi: int) -> int:
        """Sum of max(v - 2, 0) over indices lo..hi; 0 when lo > hi.

        Whole tail periods count as one period's excess times their number,
        so the cost does not grow with hi - lo.
        """
        (lp, ln), core, (rp, rn) = self._pieces(lo, hi)
        return (_tail_excess(self.left_period, lp, ln) + _excess(core)
                + _tail_excess(self.right_period, rp, rn))


def _excess(values) -> int:
    return sum(v - 2 for v in values if v > 2)


def _tail_excess(period: tuple[int, ...], phase: int, count: int) -> int:
    """Excess of count tail values from period[phase] on."""
    whole, rest = divmod(count, len(period))
    return whole * _excess(period) + _excess((period[phase:] + period[:phase])[:rest])


def _primitive(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _agreement(word: tuple[int, ...], period: tuple[int, ...]) -> int:
    """Length of the longest prefix of word that continues period cycled from its start."""
    return next(compress(count(), map(ne, word, cycle(period))), len(word)) if period else 0


def _rotate(period: tuple[int, ...], k: int) -> tuple[int, ...]:
    k %= len(period) or 1
    return period[k:] + period[:k]


def _trim(left: tuple[int, ...], core: tuple[int, ...], right: tuple[int, ...],
          start: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """Primitive tails, and a core trimmed of values that continue them.

    A tail may be empty (an all-zero period once collapsed); it trims nothing.
    Both trim lengths are found first, so the core is sliced once.
    """
    left, right = _primitive(left), _primitive(right)
    k = _agreement(core, left)
    j = _agreement(core[k:][::-1], right[::-1])
    return _rotate(left, k), core[k:len(core) - j], _rotate(right, -j), start + k


def _normalize(res: QuiddityDescriptor) -> Residual:
    """The descriptor as a Residual, with its fields passed through _trim."""
    return Residual(*_trim(res.left_period, res.core, res.right_period, res.core_start))


def _collapsed(res: Residual) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    drop = lambda w: tuple(v for v in w if v)
    return drop(res.left_period), drop(res.core), drop(res.right_period)


def _collapsed_signature(res: Residual):
    """Canonical form of the zero-collapsed residual, up to index translation."""
    a, c, b, _ = _trim(*_collapsed(res), 0)
    if not c and a and a == b:
        rotations = [a[i:] + a[:i] for i in range(len(a))]
        return ("pure", min(rotations))
    return ("mixed", a, c, b)


@dataclass(frozen=True)
class PassRecord:
    """What one phase-A pass did inside the materialized range."""

    index: int
    ones: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]
    residual_after: Residual


def _sweep(vals: list[int], base: int, lo: int, hi: int) -> tuple[list[int], list]:
    """One phase-A pass over lo..hi, given vals[k], the value at base + k.

    vals must reach every nearest nonzero neighbour of a position in lo..hi
    that has one.  Returns the values on lo..hi after the pass, and each 1
    there with its arc (p, n) between its nearest nonzero neighbours.  Only
    the nonzero positions are walked, as (previous, this, next) triples.
    Raises QuiddityError for a 1 next to another 1 or with an all-zero side,
    and for a 2 between two 1s, the one decrement that would zero a position
    without an arc.
    """
    nonzero = list(compress(count(base), vals))
    ends, near = [None, *nonzero, None], [0, *compress(vals, vals), 0]
    new = vals[lo - base:hi + 1 - base]
    ones = []
    k, m = bisect_left(nonzero, lo), bisect_right(nonzero, hi)
    for p, i, n, a, v, b in zip(ends[k:m], nonzero[k:m], ends[k + 2:], near[k:m],
                                near[k + 1:], near[k + 2:]):
        if v == 1:
            if 1 in (a, b):
                # for a genuine frieze this pattern forces a zero entry two bands up
                raise QuiddityError(
                    "two residual 1s are adjacent through zeros; "
                    "the input is not the quiddity sequence of an infinite frieze")
            if p is None or n is None:
                raise QuiddityError(
                    f"residual 1 at {i} has no nonzero neighbour; "
                    "input is not a valid quiddity sequence")
            new[i - lo] = 0
            ones.append((i, (p, n)))
        elif a == 1 or b == 1:
            if a == b == 1 and v == 2:
                # as the continuant K(1, 2, 1) is 0, no frieze has this pattern
                raise QuiddityError(
                    f"residual 2 at {i} lies between two 1s; "
                    "the input is not the quiddity sequence of an infinite frieze")
            new[i - lo] -= (a == 1) + (b == 1)
    return new, ones


def pass_arcs(res: Residual, lo: int, hi: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Value-1 positions and their peripheral arcs relevant to [lo, hi].

    An arc reaches at most max_zero_gap beyond its 1, so one sweep over the
    1s within gap + 1 of [lo, hi], read with their neighbours another gap
    out, catches every arc whose span meets [lo, hi].
    """
    gap = res.max_zero_gap()
    base = lo - 2 * gap - 1
    _, found = _sweep(res.values(base, hi + 2 * gap + 1), base, lo - gap - 1, hi + gap + 1)
    ones, arcs = [], []
    for i, (p, n) in found:
        if lo <= i <= hi:
            ones.append(i)
        if n >= lo and p <= hi:
            arcs.append((p, n))
    return ones, arcs


def step_a_pass(res: Residual) -> Residual:
    """Apply one simultaneous pass to the residual descriptor.

    One sweep rewrites two period copies per side around the core, so that
    tail-core boundary effects land in the new core; the outermost copies
    see pure tail context and become the new periods, as a sweep over three
    copies of each period confirms.
    """
    L, R = len(res.left_period), len(res.right_period)
    w_lo, w_hi = res.core_start - 2 * L, res.core_start + len(res.core) + 2 * R - 1
    gap = res.max_zero_gap()
    new, _ = _sweep(res.values(w_lo - gap, w_hi + gap), w_lo - gap, w_lo, w_hi)
    left, core, right = new[:L], new[L:len(new) - R], new[len(new) - R:]
    for period, got in ((res.left_period, left), (res.right_period, right)):
        if got != _sweep(list(period) * 3, -len(period), 0, len(period) - 1)[0]:
            raise AssertionError("tail rewrite deviated from its periodic context")
    return _normalize(Residual(left, core, right, w_lo + L))


@dataclass(frozen=True)
class StepAResult:
    """A phase-A run; its 1s and arcs are recorded once per pass, over the
    cut, which is read off the residuals and holds mat_lo..mat_hi."""

    verdict: str  # "terminated" | "nonterminating" | "cap_reached"
    passes: int
    residual: Residual
    arcs: tuple[tuple[int, int], ...]  # sorted; every arc that meets the cut
    trace: tuple[PassRecord, ...]
    cut: tuple[int, int]  # (r_lo, r_hi), the lower span of the cut polygon
    detected_at: int | None = None  # pass index where recurrence was seen


def run_step_a(q: QuiddityDescriptor | Residual, mat_lo: int, mat_hi: int,
               cap: int = DEFAULT_CAP) -> StepAResult:
    """Iterate phase-A passes until no 1 remains, recurrence, or the cap.

    On recurrence of the collapsed residual the run is known nonterminating;
    passes continue until mat_lo..mat_hi is zero, so that window queries see
    final data.  The cut is then read off the residuals: the nearest nonzero
    positions around mat_lo + 1..mat_hi - 1 after the first pass that zeroes
    it (found by bisect, as positions never revive), or after the last.  That
    pass removes the range's one nonzero value, a 1 whose arc is the cut: its
    ends stay nonzero, no earlier arc spans the 1 and no later one lies
    inside.  So the cut is the tightest arc (p, n) with p <= mat_lo and
    mat_hi <= n, or else the ends of the nearest bridging arcs.  This needs
    no 0 in the range before the first pass, as for every QuiddityDescriptor;
    a Residual with zeros there is out of scope.  Each pass's 1s and arcs are
    recorded once, over the cut.
    """
    if cap < 1:
        raise QuiddityError("pass cap must be >= 1")
    res = _normalize(q)
    seen = {_collapsed_signature(res)}
    residuals = [res]
    detected: int | None = None
    while True:
        k = len(residuals) - 1
        verdict = ("terminated" if not res.has_value(1)
                   else "nonterminating" if detected is not None
                   and not any(res.values(mat_lo, mat_hi))
                   else "cap_reached" if k >= cap else None)
        if verdict:
            break
        res = step_a_pass(res)
        residuals.append(res)
        if detected is None:
            sig = _collapsed_signature(res)
            detected = k + 1 if sig in seen else None
            seen.add(sig)
    zeroed = bisect_left(residuals, True,
                         key=lambda r: not any(r.values(mat_lo + 1, mat_hi - 1)))
    at = residuals[min(zeroed, k)]
    cut = at.prev_nonzero(mat_lo + 1), at.next_nonzero(mat_hi - 1)
    trace, arcs = [], []
    for i, (before, after) in enumerate(zip(residuals, residuals[1:])):
        ones, new_arcs = pass_arcs(before, *cut)
        arcs += new_arcs
        trace.append(PassRecord(i, tuple(ones), tuple(new_arcs), after))
    return StepAResult(verdict, k, res, tuple(sorted(arcs)), tuple(trace), cut, detected)


@dataclass(frozen=True)
class StepBResult:
    bridging_arcs: tuple[tuple[int, int], ...]  # sorted (lower index, upper label)
    anchor: int | None  # bi_infinite's, or the one given; else None
    m2: M2Class


def step_b(res: Residual, window: tuple[int, int], mat_lo: int, mat_hi: int,
           anchor: int | None = None) -> StepBResult:
    """Plant upper marked points and bridging arcs on a terminated residual.

    The class comes from the tails holding a value > 2: both give
    bi_infinite, the left alone nat_left, the right alone nat_right, and
    neither the finite class of 1 + excess points.  A position of value
    v >= 2 takes the v - 1 consecutive labels from the one after the
    previous nonzero position on, sharing the first.  So the label after
    position i is first + P(i) - P(at - 1) for the prefix sum P of the
    excesses max(v - 2, 0), where (first, at) fixes the class's labeling:
    (1, f_lo) finite, (0, f_lo) nat_right, (0, f_hi + 1) nat_left and
    (1, anchor) bi_infinite, for the footprint f_lo..f_hi.  The starting
    label is one excess sum over whole tail periods, and fans are recorded
    at lower indices in [mat_lo, mat_hi] only, so the cost does not grow
    with the distance from the core or the anchor.

    The anchor, needed only on bi_infinite, defaults to the first value > 2
    from the window midpoint rightward; a given one must have value > 2.
    """
    if res.has_value(1):
        raise QuiddityError("phase B requires a residual with no 1s")
    f_lo, f_hi = res.footprint()
    if not any(res.values(f_lo, f_hi)):
        raise QuiddityError("residual vanished entirely; a valid frieze cannot reach this state")
    if anchor is not None and res.value_at(anchor) <= 2:
        raise QuiddityError(f"anchor {anchor} does not have residual value > 2")

    left = any(v > 2 for v in res.left_period)
    right = any(v > 2 for v in res.right_period)
    if left and right:
        if anchor is None:
            mid = sum(window) // 2
            anchor = res.scan(mid - 1, 1, max(mid, f_hi) + len(res.right_period), above=2)
        m2, first, at = M2_BI_INFINITE, 1, anchor
    elif left:
        m2, first, at = M2_NAT_LEFT, 0, f_hi + 1
    elif right:
        m2, first, at = M2_NAT_RIGHT, 0, f_lo
    else:
        m2, first, at = m2_finite(1 + res.excess(f_lo, f_hi)), 1, f_lo
    top = first + (res.excess(at, mat_lo - 1) if at <= mat_lo else -res.excess(mat_lo, at - 1))
    arcs: list[tuple[int, int]] = []
    for i, v in enumerate(res.values(mat_lo, mat_hi), mat_lo):
        if v >= 2:
            arcs += [(i, u) for u in range(top, top + v - 1)]
            top += v - 2
    return StepBResult(tuple(arcs), anchor, m2)


@dataclass(frozen=True)
class SynthesisOutcome:
    triangulation: StripTriangulation
    m2_class: M2Class
    step_a_verdict: str
    step_a_passes: int
    residual: Residual
    trace: tuple[PassRecord, ...]
    anchor: int | None  # bi_infinite's, or the one given; else None


def _refuse(q: QuiddityDescriptor, err: Exception) -> NoReturn:
    """Raise a QuiddityError naming validate(q)'s witness if it finds one, else err."""
    report = validate(q)
    if report.ok:
        raise err
    raise QuiddityError(
        f"not a valid quiddity sequence: t{report.witness[:2]} = {report.witness[2]}"
    ) from err


def psi(q: QuiddityDescriptor, window: tuple[int, int],
        cap: int = DEFAULT_CAP, anchor: int | None = None) -> SynthesisOutcome:
    """Full synthesis pipeline for a quiddity descriptor.

    Phase A runs once over the window plus two on each side (until that is
    consumed, if it never terminates); it gives the window's cut, read off
    its residuals, and the arcs over the cut, recorded once per pass.
    Phase B runs once over the cut, and the margin is the smallest that
    holds it.  Phase B labels the cut's fans by prefix sums of excess,
    without walking to the core or the anchor, so it answers at any distance
    from them.  The class is empty unless phase A terminates, else read off
    the tails; the anchor is None unless it is bi_infinite or given.

    Validity is decided by the construction itself: a run that finishes
    without tripping a pass rule is a strip triangulation whose triangle
    counts are q, so q is the quiddity sequence of an infinite frieze, and
    a valid q trips no rule.  Raises QuiddityError on invalid input,
    InconclusiveError when phase A hits the pass cap, and StripError for a
    window with lo > hi.  A tripped rule, or the cap before recurrence, is
    a QuiddityError naming a nonpositive entry when validate finds one at
    its default depth; after recurrence q is valid.
    """
    lo, hi = window
    try:
        a = run_step_a(q, lo - 2, hi + 2, cap)
    except QuiddityError as err:
        _refuse(q, err)
    if a.verdict == "cap_reached":
        if a.detected_at is None:
            _refuse(q, InconclusiveError(
                f"phase A hit the {cap}-pass cap without terminating or recurring"))
        raise InconclusiveError(
            f"phase A hit the {cap}-pass cap before consuming the window; "
            f"recurrence was seen at pass {a.detected_at}")
    r_lo, r_hi = a.cut
    margin = max(lo - r_lo, r_hi - hi)
    if a.verdict == "nonterminating":
        tri = StripTriangulation.from_pairs(window, margin, M2_EMPTY, a.arcs, ())
        return SynthesisOutcome(tri, M2_EMPTY, a.verdict, a.passes, a.residual,
                                a.trace, None)
    b = step_b(a.residual, window, r_lo, r_hi, anchor)
    tri = StripTriangulation.from_pairs(window, margin, b.m2, a.arcs, b.bridging_arcs)
    return SynthesisOutcome(tri, b.m2, a.verdict, a.passes, a.residual, a.trace, b.anchor)
