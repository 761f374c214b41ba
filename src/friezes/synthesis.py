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

The shape of the upper index set is read off from which phases terminate.
Residuals stay eventually periodic throughout, so passes are computed as
exact descriptor rewrites; arcs are materialized for a window and its cut.
One sweep carries the phase-A rule: it reads the values of a range once,
walks their nonzero positions as (previous, this, next) triples, and gives
the rewritten values, the 1s with their arcs, and the double-decrement
flag.  The descriptor rewrite, the window's arcs and the check of the new
tails all run it, and it rejects 1s that are adjacent through zeros.
Nontermination of phase A is detected by recurrence, up to translation, of
the residual with its zeros collapsed away (zero positions are inert, and
the gaps between survivors grow, so the uncollapsed residual never recurs).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import compress, count

from .quiddity import DEFAULT_DEPTH, QuiddityDescriptor, QuiddityError, validate
from .strip import (M2Class, M2_BI_INFINITE, M2_EMPTY, M2_NAT_LEFT,
                    M2_NAT_RIGHT, StripTriangulation, bridging, m2_finite,
                    peripheral)

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


def _trim(left: tuple[int, ...], core: tuple[int, ...], right: tuple[int, ...],
          start: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """Primitive tails, and a core trimmed of values that continue them.

    A tail may be empty (an all-zero period once collapsed); it trims nothing.
    """
    left, right, core = _primitive(left), _primitive(right), list(core)
    while core and left and core[0] == left[0]:
        core.pop(0)
        start += 1
        left = left[1:] + left[:1]
    while core and right and core[-1] == right[-1]:
        core.pop()
        right = right[-1:] + right[:-1]
    return left, tuple(core), right, start


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
    double_decrement: bool


def _sweep(vals: list[int], base: int, lo: int, hi: int) -> tuple[list[int], list, bool]:
    """One phase-A pass over lo..hi, given vals[k], the value at base + k.

    vals must reach every nearest nonzero neighbour of a position in lo..hi
    that has one.  Returns the values on lo..hi after the pass, each 1 there
    with its arc (p, n) between its nearest nonzero neighbours (None on an
    all-zero side), and whether some position lost two slots at once.  Only
    the nonzero positions are walked, as (previous, this, next) triples.
    """
    nonzero = list(compress(count(base), vals))
    ends, near = [None, *nonzero, None], [0, *compress(vals, vals), 0]
    new = vals[lo - base:hi + 1 - base]
    ones, double = [], False
    k, m = bisect_left(nonzero, lo), bisect_right(nonzero, hi)
    for p, i, n, a, v, b in zip(ends[k:m], nonzero[k:m], ends[k + 2:], near[k:m],
                                near[k + 1:], near[k + 2:]):
        if v == 1:
            if 1 in (a, b):
                # for a genuine frieze this pattern forces a zero entry two bands up
                raise QuiddityError(
                    "two residual 1s are adjacent through zeros; "
                    "the input is not the quiddity sequence of an infinite frieze")
            new[i - lo] = 0
            ones.append((i, (p, n)))
        elif a == 1 or b == 1:
            new[i - lo] -= (a == 1) + (b == 1)
            double = double or a == b == 1
    return new, ones, double


def pass_arcs(res: Residual, lo: int, hi: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Value-1 positions and their peripheral arcs relevant to [lo, hi].

    An arc reaches at most max_zero_gap beyond its 1, so one sweep over the
    1s within gap + 1 of [lo, hi], read with their neighbours another gap
    out, catches every arc whose span meets [lo, hi].
    """
    gap = res.max_zero_gap()
    base = lo - 2 * gap - 1
    _, found, _ = _sweep(res.values(base, hi + 2 * gap + 1), base, lo - gap - 1, hi + gap + 1)
    ones, arcs = [], []
    for i, (p, n) in found:
        if p is None or n is None:
            raise QuiddityError(
                f"residual 1 at {i} has no nonzero neighbour; "
                "input is not a valid quiddity sequence")
        if lo <= i <= hi:
            ones.append(i)
        if n >= lo and p <= hi:
            arcs.append((p, n))
    return ones, arcs


def step_a_pass(res: Residual) -> tuple[Residual, bool]:
    """Apply one simultaneous pass to the residual descriptor.

    Returns the rewritten residual and whether any position lost two slots
    at once (both nearest nonzero neighbours were 1s).  One sweep rewrites
    two period copies per side around the core, so that tail-core boundary
    effects land in the new core; the outermost copies see pure tail context
    and become the new periods, as a sweep over three copies of each period
    confirms.
    """
    L, R = len(res.left_period), len(res.right_period)
    w_lo, w_hi = res.core_start - 2 * L, res.core_start + len(res.core) + 2 * R - 1
    gap = res.max_zero_gap()
    new, _, double = _sweep(res.values(w_lo - gap, w_hi + gap), w_lo - gap, w_lo, w_hi)
    left, core, right = new[:L], new[L:len(new) - R], new[len(new) - R:]
    for period, got in ((res.left_period, left), (res.right_period, right)):
        if got != _sweep(list(period) * 3, -len(period), 0, len(period) - 1)[0]:
            raise AssertionError("tail rewrite deviated from its periodic context")
    return _normalize(Residual(left, core, right, w_lo + L)), double


@dataclass(frozen=True)
class StepAResult:
    verdict: str  # "terminated" | "nonterminating" | "cap_reached"
    passes: int
    residual: Residual
    arcs: tuple[tuple[int, int], ...]
    trace: tuple[PassRecord, ...]
    detected_at: int | None = None  # pass index where recurrence was seen


def run_step_a(q: QuiddityDescriptor | Residual, mat_lo: int, mat_hi: int,
               cap: int = DEFAULT_CAP) -> StepAResult:
    """Iterate phase-A passes until no 1 remains, recurrence, or the cap.

    On recurrence of the collapsed residual the run is known nonterminating;
    passes continue until the materialized range is fully consumed and one
    arc spans it, so that window queries see final data.
    """
    if cap < 1:
        raise QuiddityError("pass cap must be >= 1")
    res = _normalize(q)
    seen = {_collapsed_signature(res)}
    trace: list[PassRecord] = []
    arcs: list[tuple[int, int]] = []
    detected: int | None = None
    k = 0
    while True:
        verdict = ("terminated" if not res.has_value(1)
                   else "nonterminating" if detected is not None
                   and _materialization_done(res, arcs, mat_lo, mat_hi)
                   else "cap_reached" if k >= cap else None)
        if verdict:
            break
        ones, new_arcs = pass_arcs(res, mat_lo, mat_hi)
        res, double = step_a_pass(res)
        arcs += new_arcs
        trace.append(PassRecord(k, tuple(ones), tuple(new_arcs), res, double))
        k += 1
        if detected is None:
            sig = _collapsed_signature(res)
            detected = k if sig in seen else None
            seen.add(sig)
    return StepAResult(verdict, k, res, tuple(sorted(set(arcs))), tuple(trace), detected)


def _materialization_done(res: Residual, arcs: list[tuple[int, int]],
                          lo: int, hi: int) -> bool:
    # positions never revive, so a zeroed range can gain no further arc ends
    return not any(res.values(lo, hi)) and any(a <= lo and hi <= b for a, b in arcs)


@dataclass(frozen=True)
class StepBResult:
    bridging_arcs: tuple[tuple[int, int], ...]  # sorted (lower index, upper label)
    b1_terminated: bool
    b2_terminated: bool
    n_value: int | None  # None when infinite
    anchor: int | None
    m2: M2Class


def _pick_anchor(res: Residual, mid: int) -> int | None:
    f_lo, f_hi = res.footprint()
    # a tail with no value > 2 holds no anchor: each scan starts past it
    start = mid if any(v > 2 for v in res.left_period) else max(mid, f_lo)
    right = res.scan(start - 1, 1, max(mid, f_hi) + len(res.right_period), above=2)
    if right is not None:
        return right
    start = mid if any(v > 2 for v in res.right_period) else min(mid, f_hi + 1)
    return res.scan(start, -1, min(mid, f_lo) - len(res.left_period), above=2)


def step_b(res: Residual, window: tuple[int, int], mat_lo: int, mat_hi: int,
           anchor: int | None = None) -> StepBResult:
    """Plant upper marked points and bridging arcs on a terminated residual.

    A position of value v >= 2 takes the v - 1 consecutive labels from the
    one after the previous nonzero position on, sharing the first.  So the
    label after position i is first + P(i) - P(at - 1) for the prefix sum P
    of the excesses max(v - 2, 0), where (first, at) fixes the class's
    labeling: (1, f_lo) finite, (0, f_lo) nat_right, (0, f_hi + 1) nat_left
    and (1, anchor) bi_infinite, for the footprint f_lo..f_hi.  The starting
    label is one excess sum over whole tail periods, and fans are recorded
    at lower indices in [mat_lo, mat_hi] only, so the cost does not grow
    with the distance from the core or the anchor.

    The anchor defaults to the value > 2 position nearest the window
    midpoint (preferring the right); it is the one free choice of the
    construction and amounts, on a bi-infinite upper boundary, to fixing the
    twist class representative.
    """
    if res.has_value(1):
        raise QuiddityError("phase B requires a residual with no 1s")
    b1_term = not any(v > 2 for v in res.right_period)
    b2_term = not any(v > 2 for v in res.left_period)
    f_lo, f_hi = res.footprint()
    n_value = 1 + res.excess(f_lo, f_hi) if b1_term and b2_term else None
    if not any(res.values(f_lo, f_hi)):
        raise QuiddityError("residual vanished entirely; a valid frieze cannot reach this state")

    lo, hi = window
    if anchor is None:
        anchor = _pick_anchor(res, (lo + hi) // 2)
    elif res.value_at(anchor) <= 2:
        raise QuiddityError(f"anchor {anchor} does not have residual value > 2")

    m2 = m2_class(True, b1_term, b2_term, n_value)
    first, at = {"finite": (1, f_lo), "nat_right": (0, f_lo), "nat_left": (0, f_hi + 1),
                 "bi_infinite": (1, anchor)}[m2.kind]
    top = first + (res.excess(at, mat_lo - 1) if at <= mat_lo else -res.excess(mat_lo, at - 1))
    arcs: list[tuple[int, int]] = []
    for i, v in enumerate(res.values(mat_lo, mat_hi), mat_lo):
        if v >= 2:
            arcs += [(i, u) for u in range(top, top + v - 1)]
            top += v - 2
    return StepBResult(tuple(arcs), b1_term, b2_term, n_value, anchor, m2)


def m2_class(a_terminated: bool, b1_terminated: bool | None,
             b2_terminated: bool | None, n_value: int | None) -> M2Class:
    """Upper index class from the phase termination flags (pure lookup)."""
    if not a_terminated:
        return M2_EMPTY
    if b1_terminated is None or b2_terminated is None:
        raise QuiddityError("terminated runs need both fountain flags")
    if b1_terminated and b2_terminated:
        if n_value is None:
            raise QuiddityError("both fountains terminated yet the excess sum is infinite")
        return m2_finite(n_value)
    if n_value is not None:
        raise QuiddityError("finite excess sum is inconsistent with a running fountain")
    if b1_terminated and not b2_terminated:
        return M2_NAT_LEFT
    if b2_terminated and not b1_terminated:
        return M2_NAT_RIGHT
    return M2_BI_INFINITE


@dataclass(frozen=True)
class SynthesisOutcome:
    triangulation: StripTriangulation
    m2_class: M2Class
    step_a_verdict: str
    step_a_passes: int
    residual: Residual
    trace: tuple[PassRecord, ...]
    b1_terminated: bool | None
    b2_terminated: bool | None
    n_value: int | None
    anchor: int | None


def _cut_region(a: StepAResult, lo: int, hi: int) -> tuple[int, int]:
    """Lower span of the polygon counting.cut_polygon cuts around lo-1..hi+1.

    The tightest arc over (lo - 2, hi + 2), final once recorded as no later
    arc ends strictly inside an earlier one; failing that, the nearest
    bridging arcs, which sit at the nearest nonzero residual positions.
    """
    over = [(i, j) for i, j in a.arcs if i <= lo - 2 and hi + 2 <= j]
    if over:
        return max(over, key=lambda arc: (arc[0], -arc[1]))
    return a.residual.prev_nonzero(lo - 1), a.residual.next_nonzero(hi + 1)


def _reread(q: QuiddityDescriptor, trace: tuple[PassRecord, ...], lo: int,
            hi: int) -> tuple[PassRecord, ...]:
    """The pass records of a run, with ones and arcs read over [lo, hi]."""
    before = [_normalize(q)]
    before += [rec.residual_after for rec in trace[:-1]]
    out = []
    for res, rec in zip(before, trace):
        ones, arcs = pass_arcs(res, lo, hi)
        out.append(replace(rec, ones=tuple(ones), arcs=tuple(arcs)))
    return tuple(out)


def psi(q: QuiddityDescriptor, window: tuple[int, int], cap: int = DEFAULT_CAP,
        anchor: int | None = None,
        validation_depth: int | None = None) -> SynthesisOutcome:
    """Full synthesis pipeline for a validated quiddity descriptor.

    Phase A runs once over the window plus two on each side (until that is
    consumed and spanned, if it never terminates).  The window's cut and its
    arcs are read off that run, phase B runs once over the cut, and the
    margin is the smallest that holds it.  Phase B labels the cut's fans by
    prefix sums of excess, without walking to the core or the anchor, so it
    answers at any distance from them.  Raises QuiddityError on invalid
    input and InconclusiveError when phase A hits the pass cap.
    """
    report = validate(q, DEFAULT_DEPTH if validation_depth is None else validation_depth)
    if not report.ok:
        raise QuiddityError(
            f"not a valid quiddity sequence: t{report.witness[:2]} = {report.witness[2]}")
    lo, hi = window
    a = run_step_a(q, lo - 2, hi + 2, cap)
    if a.verdict == "cap_reached":
        if a.detected_at is None:
            raise InconclusiveError(
                f"phase A hit the {cap}-pass cap without terminating or recurring")
        raise InconclusiveError(
            f"phase A hit the {cap}-pass cap before consuming the window; "
            f"recurrence was seen at pass {a.detected_at}")
    r_lo, r_hi = _cut_region(a, lo, hi)
    margin = max(lo - r_lo, r_hi - hi)
    trace = _reread(q, a.trace, r_lo, r_hi)
    arcs = {peripheral(i, j) for rec in trace for i, j in rec.arcs}
    if a.verdict == "nonterminating":
        tri = StripTriangulation(window, margin, M2_EMPTY, frozenset(arcs))
        return SynthesisOutcome(tri, M2_EMPTY, a.verdict, a.passes, a.residual,
                                trace, None, None, None, None)
    b = step_b(a.residual, window, r_lo, r_hi, anchor)
    arcs |= {bridging(i, u) for i, u in b.bridging_arcs}
    tri = StripTriangulation(window, margin, b.m2, frozenset(arcs))
    return SynthesisOutcome(tri, b.m2, a.verdict, a.passes, a.residual, trace,
                            b.b1_terminated, b.b2_terminated, b.n_value, b.anchor)
