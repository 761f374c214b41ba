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
exact descriptor rewrites.  Phase A holds the residual as survivors: its two
tail periods and the sorted nonzero core positions with their values.  A
pass finds the nearest nonzero neighbours of its 1s by bisect, or by period
arithmetic in a tail, and touches only the 1s, their neighbours and the
tail values a front consumes; so a run costs about as much as its 1s, not
the core length times the passes.  One rule carries the pass: it walks
nonzero positions as (previous, this, next) triples and gives the changed
values and the 1s with their arcs.  The core's 1s and each tail period, in
its own periodic context, run it.  It rejects three patterns that no frieze
reaches (Conway-Coxeter: a residual 1 is an ear): two 1s adjacent through
zeros, as the continuant K(1, 1) is 0; a 2 between two 1s, as K(1, 2, 1) is
0, the one decrement that would zero a position without an arc; and a 1
with an all-zero side, which has no end for its arc.  These rules decide
validity: a run that trips none builds a strip whose triangle counts are q,
so psi needs no separate positivity check.  A window's cut is read off the
survivors, as zeroed positions never revive.  Each pass's 1s and arcs are
recorded once and kept over the cut; the residual after a pass is rebuilt
from the recorded changes only when read.  Nontermination of phase A is
detected by recurrence, up to translation, of the residual with its zeros
collapsed away (zero positions are inert, and the gaps between survivors
grow, so the uncollapsed residual never recurs).  Signatures are compared
only between passes whose collapsed cores are as long.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, count, cycle, islice
from operator import ne
from typing import NoReturn

# validate is unused here since _refuse scans directly, but perfbench's tracer
# still patches friezes.synthesis.validate and counts it missing if absent
from .quiddity import (DEFAULT_DEPTH, QuiddityDescriptor, QuiddityError, _band_scan,
                       validate)
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


@lru_cache(maxsize=256)
def _primitive(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _agreement(word: Iterable[int], n: int, period: tuple[int, ...]) -> int:
    """Length of the longest prefix of word, n values long, that continues
    period cycled from its start."""
    return next(compress(count(), map(ne, word, cycle(period))), n) if period else 0


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
    k = _agreement(core, len(core), left)
    j = _agreement(islice(reversed(core), len(core) - k), len(core) - k, right[::-1])
    return _rotate(left, k), core[k:len(core) - j], _rotate(right, -j), start + k


def _normalize(res: QuiddityDescriptor) -> Residual:
    """The descriptor as a Residual, with its fields passed through _trim."""
    return Residual(*_trim(res.left_period, res.core, res.right_period, res.core_start))


def _collapsed(res: Residual) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    drop = lambda w: tuple(v for v in w if v)
    return drop(res.left_period), drop(res.core), drop(res.right_period)


def _signature(left: tuple[int, ...], core: tuple[int, ...], right: tuple[int, ...]):
    """Canonical form, up to index translation, of a zero-free residual word."""
    a, c, b, _ = _trim(left, core, right, 0)
    if not c and a and a == b:
        rotations = [a[i:] + a[:i] for i in range(len(a))]
        return ("pure", min(rotations))
    return ("mixed", a, c, b)


def _collapsed_signature(res: Residual):
    """Canonical form of the zero-collapsed residual, up to index translation."""
    return _signature(*_collapsed(res))


def _rule(triples) -> tuple[list[tuple[int, int]], list[tuple[int, tuple[int, int]]]]:
    """The phase-A pass rule, applied to nonzero positions left to right.

    Each triple is (p, i, n, a, v, b): a nonzero position i of value v, its
    nearest nonzero neighbours p and n (None for an all-zero side) and their
    values a and b (0 for None).  Returns each changed position with its new
    value, and each 1 with its arc (p, n).  Raises QuiddityError, at the
    first offending position, for a 1 next to another 1 or with an all-zero
    side, and for a 2 between two 1s, the one decrement that would zero a
    position without an arc.
    """
    changes, ones = [], []
    for p, i, n, a, v, b in triples:
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
            changes.append((i, 0))
            ones.append((i, (p, n)))
        elif a == 1 or b == 1:
            if a == b == 1 and v == 2:
                # as the continuant K(1, 2, 1) is 0, no frieze has this pattern
                raise QuiddityError(
                    f"residual 2 at {i} lies between two 1s; "
                    "the input is not the quiddity sequence of an infinite frieze")
            changes.append((i, v - (a == 1) - (b == 1)))
    return changes, ones


def _period_pass(period: tuple[int, ...], base: int):
    """A pass over a tail in its own periodic context: the new period, and
    the 1s with their arcs of the copy at base..base + len(period) - 1."""
    if 1 not in period:
        return period, []
    n = len(period)
    nonzero = list(compress(count(), period))
    ends = [nonzero[-1] - n, *nonzero, nonzero[0] + n]
    changes, ones = _rule((base + p, base + i, base + m, period[p % n], period[i], period[m % n])
                          for p, i, m in zip(ends, nonzero, ends[2:]))
    new = list(period)
    for i, v in changes:
        new[i - base] = v
    return tuple(new), ones


@lru_cache(maxsize=256)
def _nonzero_ends(period: tuple[int, ...]) -> tuple[int, int] | None:
    """Indices of the first and the last nonzero value of period; None if it is all zero."""
    nonzero = list(compress(count(), period))
    return (nonzero[0], nonzero[-1]) if nonzero else None


def _tail_scan(period: tuple[int, ...], anchor: int, x: int, step: int) -> int | None:
    """First nonzero tail position from x on in direction step, within one
    period; the tail's value at y is period[(y - anchor) % len(period)]."""
    n = len(period)
    for y in range(x, x + step * n, step):
        if period[(y - anchor) % n]:
            return y
    return None


class _Survivors:
    """A residual held as phase A needs it: the left period, whose last value
    sits at cs - 1; the nonzero positions pos of the core cs..ce - 1, sorted,
    with their values vals; the right period, whose first value sits at ce;
    and ones, the core positions of value 1.  Extents, periods and trims are
    those of the descriptor rewrite, so residual() is what that rewrite gives.
    A pass touches the 1s, their neighbours, and tail values only where a 1
    reaches them.
    """

    def __init__(self, res: Residual):
        self.left, self.right = res.left_period, res.right_period
        self.cs = res.core_start
        self.ce = res.core_start + len(res.core)
        self.pos = list(compress(count(self.cs), res.core))
        self.vals = list(filter(None, res.core))
        self.ones = [i for i, v in zip(self.pos, self.vals) if v == 1]

    def residual(self) -> Residual:
        core = [0] * (self.ce - self.cs)
        for i, v in zip(self.pos, self.vals):
            core[i - self.cs] = v
        return Residual(self.left, core, self.right, self.cs)

    def signature(self):
        """_collapsed_signature of residual(), read off the survivors."""
        return _signature(tuple(filter(None, self.left)), tuple(self.vals),
                          tuple(filter(None, self.right)))

    def core_length(self) -> int:
        """The length of signature()'s core, found without building it."""
        vals, n = self.vals, len(self.vals)
        a, b = (_primitive(tuple(filter(None, t))) for t in (self.left, self.right))
        k = _agreement(vals, n, a)
        return n - k - _agreement(islice(reversed(vals), n - k), n - k, b[::-1])

    def has_one(self) -> bool:
        return bool(self.ones) or 1 in self.left or 1 in self.right

    def prev_nonzero(self, i: int) -> int | None:
        """The nearest nonzero position below i; None when there is none."""
        x = i - 1
        if x >= self.ce:
            y = _tail_scan(self.right, self.ce, x, -1)
            if y is not None and y >= self.ce:
                return y
            x = self.ce - 1
        k = bisect_right(self.pos, x)
        if k:
            return self.pos[k - 1]
        return _tail_scan(self.left, self.cs, min(x, self.cs - 1), -1)

    def next_nonzero(self, i: int) -> int | None:
        """The nearest nonzero position above i; None when there is none."""
        x = i + 1
        if x < self.cs:
            y = _tail_scan(self.left, self.cs, x, 1)
            if y is not None and y < self.cs:
                return y
            x = self.cs
        k = bisect_left(self.pos, x)
        if k < len(self.pos):
            return self.pos[k]
        return _tail_scan(self.right, self.ce, max(x, self.ce), 1)

    def zero_on(self, lo: int, hi: int) -> bool:
        """Whether every value at lo..hi is 0."""
        k = bisect_left(self.pos, lo)
        if k < len(self.pos) and self.pos[k] <= hi:
            return False
        for period, anchor, a, b in ((self.left, self.cs, lo, min(hi, self.cs - 1)),
                                     (self.right, self.ce, max(lo, self.ce), hi)):
            n = len(period)
            if a <= b and any(period if b - a >= n else
                              (period[(y - anchor) % n] for y in range(a, b + 1))):
                return False
        return True

    def step(self):
        """One simultaneous pass, with the descriptor rewrite's result.

        That rewrite lends the core one period copy per side, and the outer
        copies, in pure tail context, give the new periods.  Only a period
        holding a 1 is lent here, as its copy's 1s reach into the core; a
        1-free tail is left alone but for the one value a core 1 at the edge
        consumes, which joins the core.  Returns the pass's 1s with their
        arcs, as (core 1s, (period, its copy's 1s) per tail: a tail's 1s are
        those of its innermost copy, repeated outward), and the changed core
        values as (position, value) pairs, 0 for a position no longer held.
        """
        left, right, pos, vals = self.left, self.right, self.pos, self.vals
        L, R = len(left), len(right)
        c0, c1 = self.cs - L, self.ce + R
        lo, hi = self.cs, self.ce  # pos holds every nonzero value in lo..hi - 1
        before: dict[int, int] = {}  # each changed position's value before the pass, 0 if not held
        after: dict[int, int] = {}
        ones = self.ones
        if 1 in left:
            lo = c0
            lent = [(i, v) for i, v in enumerate(left, c0) if v]
            pos[:0], vals[:0] = [i for i, _ in lent], [v for _, v in lent]
            before.update((i, 0) for i, _ in lent)
            after.update(lent)
            ones = [i for i, v in lent if v == 1] + ones
        if 1 in right:
            hi = c1
            lent = [(i, v) for i, v in enumerate(right, self.ce) if v]
            pos += (i for i, _ in lent)
            vals += (v for _, v in lent)
            before.update((i, 0) for i, _ in lent)
            after.update(lent)
            ones = ones + [i for i, v in lent if v == 1]

        new_left, left_ones = _period_pass(left, lo - L)
        # the nearest tail values to the core's edge survivors, and their values
        ends = _nonzero_ends(left)
        xl, al = (lo - L + ends[1], left[ends[1]]) if ends else (None, 0)
        ends = _nonzero_ends(right)
        xr, ar = (hi + ends[0], right[ends[0]]) if ends else (None, 0)
        m = len(pos)
        near = set()
        for i in ones:
            k = bisect_left(pos, i)
            near.update((k - 1, k, k + 1))
        if al == 1:
            near.add(0)
        if ar == 1:
            near.add(m - 1)
        triples = []
        # a 1 at an edge consumes a slot of the 1-free tail value next to it,
        # whose other neighbour is a tail value, so no 1
        if m and vals[0] == 1 and xl is not None and lo == self.cs:
            triples.append((None, xl, pos[0], 0, al, 1))
        for k in sorted(near):
            if 0 <= k < m:
                p, a = (pos[k - 1], vals[k - 1]) if k else (xl, al)
                n, b = (pos[k + 1], vals[k + 1]) if k + 1 < m else (xr, ar)
                triples.append((p, pos[k], n, a, vals[k], b))
        if m and vals[-1] == 1 and xr is not None and hi == self.ce:
            triples.append((pos[-1], xr, None, 1, ar, 0))
        changes, core_ones = _rule(triples)
        new_right, right_ones = _period_pass(right, hi)

        carry = []
        for i, v in changes:
            k = bisect_left(pos, i)
            if k < len(pos) and pos[k] == i:
                before.setdefault(i, vals[k])
                if v:
                    vals[k] = v
                else:
                    del pos[k], vals[k]
            else:
                before[i] = 0
                pos.insert(k, i)
                vals.insert(k, v)
            after[i] = v
            if v == 1:
                carry.append(i)

        # _trim, read off the survivors and the tails: primitive periods, and
        # the core shorn of the values that continue them.  Tail values that
        # no core 1 consumed continue their own period, so each scan starts
        # at the first held position or the old core
        new_left, new_right = _primitive(new_left), _primitive(new_right)
        Ln, Rn = len(new_left), len(new_right)
        m = len(pos)
        x = min(pos[0], lo) if pos else lo
        k = 0
        while x < c1:
            held = k < m and pos[k] == x
            v = (vals[k] if held else left[(x - lo) % L] if x < lo
                 else right[(x - hi) % R] if x >= hi else 0)
            if v != new_left[(x - c0) % Ln]:
                break
            k += held
            x += 1
        y = max(max(pos[-1], hi - 1) if pos else hi - 1, x - 1)
        j = m
        while y >= x:
            held = j > k and pos[j - 1] == y
            v = (vals[j - 1] if held else left[(y - lo) % L] if y < lo
                 else right[(y - hi) % R] if y >= hi else 0)
            if v != new_right[(y - c1) % Rn]:
                break
            j -= held
            y -= 1
        for i, v in zip(pos[:k] + pos[j:], vals[:k] + vals[j:]):
            before.setdefault(i, v)
            after[i] = 0
        del pos[j:], vals[j:], pos[:k], vals[:k]
        self.cs, self.ce = x, y + 1
        self.left, self.right = _rotate(new_left, x - c0), _rotate(new_right, y + 1 - c1)
        self.ones = [i for i in carry if x <= i <= y]
        found = (core_ones, (left, left_ones), (right, right_ones))
        return found, tuple((i, v) for i, v in after.items() if v != before[i])


def _over(found, lo: int, hi: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The 1s of one pass in lo..hi, and the arcs that meet lo..hi, in the
    order of their 1s."""
    core, (lp, lones), (rp, rones) = found
    L, R = len(lp), len(rp)
    left = sorted((i - t * L, (p - t * L, n - t * L)) for i, (p, n) in lones
                  for t in range(max(0, -((hi + L - i) // L)), (i - lo + L) // L + 1))
    right = sorted((i + t * R, (p + t * R, n + t * R)) for i, (p, n) in rones
                   for t in range(max(0, -((i - lo + R) // R)), (hi + R - i) // R + 1))
    ones, arcs = [], []
    for i, (p, n) in chain(left, core, right):
        if lo <= i <= hi:
            ones.append(i)
        if n >= lo and p <= hi:
            arcs.append((p, n))
    return ones, arcs


def pass_arcs(res: Residual, lo: int, hi: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The value-1 positions in [lo, hi], and the peripheral arcs of one pass
    that meet [lo, hi], in the order of their 1s.  Raises as step_a_pass."""
    found, _ = _Survivors(res).step()
    return _over(found, lo, hi)


def step_a_pass(res: Residual) -> Residual:
    """Apply one simultaneous pass to the residual descriptor.

    Tail values that the pass changes next to the core join it; the rest
    see pure tail context and follow the rewritten periods.  The result is
    normalized as _normalize does.
    """
    s = _Survivors(res)
    s.step()
    return s.residual()


class _History:
    """The survivors before the first pass and each pass's changes: the
    residual after any pass is rebuilt from them when it is read."""

    def __init__(self, s: _Survivors):
        self._first = dict(zip(s.pos, s.vals))
        self._shapes = [(s.left, s.cs, s.ce, s.right)]
        self._changes: list[tuple[tuple[int, int], ...]] = []
        self._cursor = 0, dict(self._first)

    def add(self, s: _Survivors, changes: tuple[tuple[int, int], ...]) -> None:
        self._shapes.append((s.left, s.cs, s.ce, s.right))
        self._changes.append(changes)

    def residual(self, k: int) -> Residual:
        """The residual after k passes."""
        at, held = self._cursor
        if k < at:
            at, held = 0, dict(self._first)
        for changes in self._changes[at:k]:
            for i, v in changes:
                if v:
                    held[i] = v
                else:
                    del held[i]
        self._cursor = k, held
        left, cs, ce, right = self._shapes[k]
        core = [0] * (ce - cs)
        for i, v in held.items():
            core[i - cs] = v
        return Residual(left, core, right, cs)


@dataclass(frozen=True)
class PassRecord:
    """What one phase-A pass did over the cut: its 1s and their arcs.

    residual_after is rebuilt from the run's survivor history when read, so
    a run keeps the changes of each pass, not one residual per pass.
    """

    index: int
    ones: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]
    _history: _History = field(repr=False, compare=False)

    @property
    def residual_after(self) -> Residual:
        return self._history.residual(self.index + 1)


@dataclass(frozen=True)
class StepAResult:
    """A phase-A run; its 1s and arcs are recorded once per pass, over the
    cut, which is read off the survivors and holds mat_lo..mat_hi."""

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

    The residual is held as survivors: the nonzero core positions with their
    values, between two tail periods.  A pass finds the neighbours of its 1s
    by bisect, or in a tail by period arithmetic, takes into the core only
    the tail values it changes there, and trims what continues the new
    periods, so its cost grows with its 1s and the periods, not with the
    core.  Recurrence is looked for among passes whose collapsed cores are
    as long, so a long core that never recurs is never copied.

    On recurrence of the collapsed residual the run is known nonterminating;
    passes continue until mat_lo..mat_hi is zero, so that window queries see
    final data.  The cut is read off the survivors: the nearest nonzero
    positions around mat_lo + 1..mat_hi - 1 after the first pass that zeroes
    it (positions never revive), or after the last.  That pass removes the
    range's one nonzero value, a 1 whose arc is the cut: its ends stay
    nonzero, no earlier arc spans the 1 and no later one lies inside.  So the
    cut is the tightest arc (p, n) with p <= mat_lo and mat_hi <= n, or else
    the ends of the nearest bridging arcs.  This needs no 0 in the range
    before the first pass, as for every QuiddityDescriptor; a Residual with
    zeros there is out of scope.  Each pass's 1s and arcs are recorded once,
    and kept over the cut; its residual_after is rebuilt only when read, and
    the final residual is built once.
    """
    if cap < 1:
        raise QuiddityError("pass cap must be >= 1")
    s = _Survivors(_normalize(q))
    history = _History(s)
    # passes by the length of their collapsed core; signatures are built
    # only for passes whose lengths meet, as only those can be equal
    lengths = {s.core_length(): [0]}
    signatures = {}
    found = []
    cut = None
    detected: int | None = None
    while True:
        if cut is None and s.zero_on(mat_lo + 1, mat_hi - 1):
            cut = s.prev_nonzero(mat_lo + 1), s.next_nonzero(mat_hi - 1)
        k = len(found)
        verdict = ("terminated" if not s.has_one()
                   else "nonterminating" if detected is not None and s.zero_on(mat_lo, mat_hi)
                   else "cap_reached" if k >= cap else None)
        if verdict:
            break
        ones, changes = s.step()
        found.append(ones)
        history.add(s, changes)
        if detected is None:
            same = lengths.setdefault(s.core_length(), [])
            if same:
                signatures[k + 1] = s.signature()
                for i in same:
                    if i not in signatures:
                        signatures[i] = _collapsed_signature(history.residual(i))
                if signatures[k + 1] in (signatures[i] for i in same):
                    detected = k + 1
            same.append(k + 1)
    if cut is None:
        cut = s.prev_nonzero(mat_lo + 1), s.next_nonzero(mat_hi - 1)
    trace, arcs = [], []
    for i, ones in enumerate(found):
        ones, new_arcs = _over(ones, *cut)
        arcs += new_arcs
        trace.append(PassRecord(i, tuple(ones), tuple(new_arcs), history))
    return StepAResult(verdict, k, s.residual(), tuple(sorted(arcs)), tuple(trace), cut, detected)


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
    """Raise a QuiddityError naming validate(q)'s witness if it finds one, else err.

    Called once phase A has refused q, so only validate's band scan runs:
    phase A accepts only what the scan finds valid, so the scan's report is
    validate's.
    """
    report = _band_scan(q, DEFAULT_DEPTH)
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
