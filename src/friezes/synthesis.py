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
  whole tail periods are one period's excess times their number, and each
  whole period's fans are the previous one's shifted by the period's length
  and excess, so only the window's cut is visited: its whole periods as one
  block per side, its core and partial periods as single copies.

The shape of the upper index set is read off from which phases terminate:
phase A, then each side's fountain, endless on a tail with a value > 2.  Only
a bi-infinite boundary has an anchor, the one free choice (a twist class).
Residuals stay eventually periodic throughout, so passes are computed as
exact descriptor rewrites.  Both phases hold the residual as survivors: its
two tail periods and the sorted nonzero core positions with their values.  A
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
with an all-zero side, which has no end for its arc.  A pass that trips
none refuses a 1 at the core's edge facing a tail of 2s, which would eat
it until two 1s meet.  These rules decide validity: a run that trips none builds a strip whose triangle counts are q,
so psi needs no separate positivity check.  A window's cut is read off the
survivors, as zeroed positions never revive.  Each pass's 1s are recorded
once and read over the cut when asked for; the residual after a pass is
rebuilt from the recorded changes only when read.  Nontermination of phase
A is detected by recurrence, up to translation, of the residual with its
zeros collapsed away (zero positions are inert, and the gaps between
survivors grow, so the uncollapsed residual never recurs).  Past one
certified period every pass is an earlier one translated, so a recurring
run costs the same at any distance from the core.  run_step_a argues both,
and that every run ends within passes bounded by its word's length.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, compress, count, cycle, islice, repeat
from math import inf
from operator import ne
from typing import NoReturn

# validate is unused here since _refuse scans directly, but perfbench's tracer
# still patches friezes.synthesis.validate and counts it missing if absent
from .quiddity import (DEFAULT_DEPTH, QuiddityDescriptor, QuiddityError, _band_scan,
                       validate)
from .strip import (M2Class, M2_BI_INFINITE, M2_EMPTY, M2_NAT_LEFT,
                    M2_NAT_RIGHT, StripTriangulation, m2_finite)

class Residual(QuiddityDescriptor):
    """Working copy of a quiddity sequence during synthesis.

    The same eventually periodic word as QuiddityDescriptor, except that 0
    is allowed: a value counts the triangles still missing at that lower
    point, and 0 marks a consumed one.  Values are never negative, as a pass
    zeroes the removed positions and only decrements nonzero ones.
    """

    MIN_VALUE = 0


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


def _signature(left: tuple[int, ...], core: tuple[int, ...], right: tuple[int, ...]):
    """Canonical form, up to index translation, of a zero-free residual word."""
    a, c, b, _ = _trim(left, core, right, 0)
    if not c and a and a == b:
        rotations = [a[i:] + a[:i] for i in range(len(a))]
        return ("pure", min(rotations))
    return ("mixed", a, c, b)


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

    def __init__(self, left: tuple, core: Sequence[int], right: tuple, start: int):
        self.left, self.right = left, right
        self.cs, self.ce = start, start + len(core)
        self.pos = list(compress(count(start), core))
        self.vals = list(filter(None, core))
        self.ones = [i for i, v in zip(self.pos, self.vals) if v == 1]

    @classmethod
    def of(cls, res: QuiddityDescriptor) -> "_Survivors":
        return cls(res.left_period, res.core, res.right_period, res.core_start)

    def residual(self) -> Residual:
        core = [0] * (self.ce - self.cs)
        for i, v in zip(self.pos, self.vals):
            core[i - self.cs] = v
        return Residual(self.left, core, self.right, self.cs)

    def signature(self):
        """_signature of residual() with its zeros collapsed away."""
        return _signature(tuple(filter(None, self.left)), tuple(self.vals),
                          tuple(filter(None, self.right)))

    def core_length(self) -> int:
        """The length of signature()'s core, found without building it."""
        vals, n = self.vals, len(self.vals)
        a, b = (_primitive(tuple(filter(None, t))) for t in (self.left, self.right))
        k = _agreement(vals, n, a)
        return n - k - _agreement(islice(reversed(vals), n - k), n - k, b[::-1])

    def moved(self, dl: int, dr: int, x: int) -> "_Survivors":
        """A copy whose positions below x move by dl and the rest by dr; the
        left tail moves with cs by dl and the right tail with ce by dr."""
        t = object.__new__(_Survivors)
        t.left, t.right, t.cs, t.ce = self.left, self.right, self.cs + dl, self.ce + dr
        k = bisect_left(self.pos, x)
        t.pos = [i + dl for i in self.pos[:k]] + [i + dr for i in self.pos[k:]]
        t.vals = self.vals[:]
        t.ones = [i + (dl if i < x else dr) for i in self.ones]
        return t

    def has_one(self) -> bool:
        return bool(self.ones) or 1 in self.left or 1 in self.right

    def pieces(self, lo: int, hi: int) -> tuple[tuple[int, int], slice, tuple[int, int]]:
        """lo..hi split as residual()._pieces splits it, (phase, count) per
        tail, but with the core as the slice of pos and vals in lo..hi."""
        first = max(lo, self.ce)  # a count is 0 where lo..hi misses that tail
        return (((lo - self.cs) % len(self.left), max(min(hi + 1, self.cs) - lo, 0)),
                slice(bisect_left(self.pos, lo), bisect_right(self.pos, hi)),
                ((first - self.ce) % len(self.right), max(hi + 1 - first, 0)))

    def excess(self, lo: int, hi: int) -> int:
        """Sum of max(v - 2, 0) over indices lo..hi; 0 when lo > hi.

        Whole tail periods count as one period's excess times their number,
        so the cost does not grow with hi - lo.
        """
        (lp, ln), core, (rp, rn) = self.pieces(lo, hi)
        return (_tail_excess(self.left, lp, ln) + _excess(self.vals[core])
                + _tail_excess(self.right, rp, rn))

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
        (lp, ln), core, (rp, rn) = self.pieces(lo, hi)
        return not (core.start < core.stop or any(_rotate(self.left, lp)[:ln])
                    or any(_rotate(self.right, rp)[:rn]))

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
        # a 1 at the core's edge facing a tail of 2s (and 0s) is refused, after the rule
        fan = next((pos[k] for k, t in ((0, left), (-1, right))
                    if vals and vals[k] == 1 and 2 in t and set(t) <= {0, 2}), None)
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
        if fan is not None:
            raise QuiddityError(f"residual 1 at {fan} starts a fan into a tail of 2s, which no "
                                "finite value closes; the input is not the quiddity "
                                "sequence of an infinite frieze")

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
    left = right = ()
    if lones:
        left = sorted((i - t * L, (p - t * L, n - t * L)) for i, (p, n) in lones
                      for t in range(max(0, -((hi + L - i) // L)), (i - lo + L) // L + 1))
    if rones:
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
    found, _ = _Survivors.of(res).step()
    return _over(found, lo, hi)


def step_a_pass(res: Residual) -> Residual:
    """Apply one simultaneous pass to the residual descriptor.

    Tail values that the pass changes next to the core join it; the rest
    see pure tail context and follow the rewritten periods.  The result's
    fields are trimmed as _trim trims them.
    """
    s = _Survivors.of(res)
    s.step()
    return s.residual()


def _at_least(y: int, d: int, t: int) -> tuple[float, float]:
    """The integers m with y + m*d >= t, as bounds (low, high); d != 0."""
    return (-((y - t) // d), inf) if d > 0 else (-inf, (y - t) // -d)


class _Jump:
    """The passes of a recurring run past a certified translation T.

    T moves positions below x by dl and the rest by dr (dl < 0 < dr), and
    S(b + p) == T(S(b)) was checked.  So pass b + m*p + r, 0 <= r < p, is
    pass b + r moved m times: states[r] and the core 1s found[r], each
    position moved by its own front's shift.  Every state is zero on
    (g, x), g the last nonzero position below x, or None.
    """

    def __init__(self, b: int, states: list[_Survivors], found: list, dl: int, dr: int,
                 x: int, g: int | None):
        self.b, self.states, self.found = b, states, found
        self.dl, self.dr, self.x, self.g = dl, dr, x, g

    @classmethod
    def certify(cls, states: list[_Survivors], found: list, s: _Survivors, b: int):
        """The translation from states[0] (after pass b) to s, one period of
        len(states) passes later, if S(b + p) == T(S(b)) holds exactly and
        the shapes keep T a shift of canonical survivors; else None."""
        a = states[0]
        dl, dr = s.cs - a.cs, s.ce - a.ce
        if not dl < 0 < dr or a.vals != s.vals:
            return None
        j = next((k for k, (u, v) in enumerate(zip(a.pos, s.pos)) if v - u != dl), len(a.pos))
        ends = _nonzero_ends(a.right)
        x = a.pos[j] if j < len(a.pos) else a.ce + (ends[0] if ends else 0)
        g = a.prev_nonzero(x)
        t = a.moved(dl, dr, x)
        if (t.left, t.cs, t.pos, t.ce, t.right) != (s.left, s.cs, s.pos, s.ce, s.right):
            return None
        # cs stays left of the gap and ce right of it, so trims move with their fronts;
        # tails hold no 1 (a tail 1 would shrink its period for good)
        if any(u.cs >= x or u.cs >= u.ce or (g is not None and u.ce - 1 <= g) for u in states):
            return None
        if any(lones or rones for _, (_, lones), (_, rones) in found):
            return None
        return cls(b, states, [core for core, _, _ in found], dl, dr, x, g)

    def _where(self, n: int) -> tuple[int, int, int]:
        m, r = divmod(n - self.b, len(self.states))
        return r, m * self.dl, m * self.dr

    def state(self, n: int) -> _Survivors:
        """The survivors after n passes."""
        r, dl, dr = self._where(n)
        return self.states[r].moved(dl, dr, self.x)

    def zero_on(self, n: int, lo: int, hi: int) -> bool:
        """Whether lo..hi is zero after n passes: the part left of x + dl is
        states[r]'s moved by dl, the part from x + dr on moved by dr, and
        between them lies the gap."""
        r, dl, dr = self._where(n)
        s, x = self.states[r], self.x
        return s.zero_on(lo - dl, min(hi - dl, x - 1)) and s.zero_on(max(lo - dr, x), hi - dr)

    def first(self, start: int, lo: int, hi: int) -> int:
        """The first pass count n >= start after which lo..hi is zero.

        Zeros never revive, so this is a bisection; from the m on for which
        (g + m*dl, x + m*dr) holds lo..hi, every state is zero there.
        """
        m = max(0, (hi - self.x) // self.dr + 1,
                (self.g - lo) // -self.dl + 1 if self.g is not None else 0)
        end = max(start, self.b + m * len(self.states))
        return start + bisect_left(range(start, end + 1), True,
                                   key=lambda n: self.zero_on(n, lo, hi))

    def arcs(self, lo: int, hi: int, end: int) -> list[tuple[int, int]]:
        """The arcs of the moved passes n < end that meet lo..hi.  An arc
        (u, v) of pass b + r meets it in pass b + m*p + r while v + m*dv >= lo
        and u + m*du <= hi, one range of m per arc."""
        p, x = len(self.states), self.x
        out = []
        for r, core in enumerate(self.found):
            last = (end - 1 - self.b - r) // p
            for _, (u, v) in core:
                du, dv = (self.dl if u < x else self.dr), (self.dl if v < x else self.dr)
                a1, b1 = _at_least(v, dv, lo)
                a2, b2 = _at_least(-u, -du, -hi)
                out += ((u + m * du, v + m * dv)
                        for m in range(max(1, a1, a2), min(last, b1, b2) + 1))
        return out

    def found_at(self, n: int):
        """Pass n's 1s with their arcs, as _Survivors.step gives them."""
        r, dl, dr = self._where(n)
        s, x = self.states[r], self.x
        move = lambda y: y + (dl if y < x else dr)
        core = [(move(i), (move(u), move(v))) for i, (u, v) in self.found[r]]
        return core, (s.left, []), (s.right, [])


class _History:
    """The survivors before the first pass and each stepped pass's changes:
    the survivors after any pass are rebuilt from them when they are read,
    or, past the stepped passes, moved off the run's _Jump."""

    def __init__(self, s: _Survivors):
        self._first = dict(zip(s.pos, s.vals))
        self._shapes = [(s.left, s.cs, s.ce, s.right)]
        self._changes: list[tuple[tuple[int, int], ...]] = []
        self._cursor = 0, dict(self._first)
        self._live = s  # the state after the last stepped pass
        self.jump: _Jump | None = None

    def add(self, s: _Survivors, changes: tuple[tuple[int, int], ...]) -> None:
        self._shapes.append((s.left, s.cs, s.ce, s.right))
        self._changes.append(changes)

    def state(self, k: int) -> _Survivors:
        """The survivors after k passes (the live state after the last one)."""
        if k >= len(self._changes):
            return self._live if k == len(self._changes) else self.jump.state(k)
        at, held = self._cursor
        if k < at:
            at, held = 0, dict(self._first)
        for changes in self._changes[at:k]:
            held.update(changes)  # 0 for a position no longer held, maybe outside the core
        self._cursor = k, held
        left, cs, ce, right = self._shapes[k]
        core = [0] * (ce - cs)
        for i, v in held.items():
            if v:
                core[i - cs] = v
        return _Survivors(left, core, right, cs)


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
        return self._history.state(self.index + 1).residual()


class _Trace(Sequence):
    """One PassRecord per pass, built when read: a stepped pass's from the
    1s it found, a moved pass's off the run's _Jump."""

    def __init__(self, found: list, history: _History, cut: tuple[int, int], length: int):
        self._found, self._history, self._cut, self._length = found, history, cut, length

    def _read(self, n: int) -> tuple[list[int], list[tuple[int, int]]]:
        found = self._found[n] if n < len(self._found) else self._history.jump.found_at(n)
        return _over(found, *self._cut)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, n):
        if isinstance(n, slice):
            return tuple(map(self.__getitem__, range(*n.indices(self._length))))
        if n < 0:
            n += self._length
        if not 0 <= n < self._length:
            raise IndexError("pass index out of range")
        ones, arcs = self._read(n)
        return PassRecord(n, tuple(ones), tuple(arcs), self._history)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every pass's arcs over the cut, sorted; the moved passes' are read
        off the translation arc by arc, not pass by pass."""
        jump = self._history.jump
        arcs = [arc for n in range(len(self._found)) for arc in self._read(n)[1]]
        if jump:
            arcs += jump.arcs(*self._cut, self._length)
        return tuple(sorted(arcs))


@dataclass(frozen=True)
class StepAResult:
    """A phase-A run.  Its cut is read off the survivors and holds
    mat_lo..mat_hi; its 1s and arcs are recorded once per pass and read
    over the cut, and like the final residual they are built when read."""

    verdict: str  # "terminated" | "nonterminating"
    passes: int
    trace: Sequence[PassRecord]
    cut: tuple[int, int]  # (r_lo, r_hi), the lower span of the cut polygon
    detected_at: int | None  # pass index where recurrence was seen
    _history: _History = field(repr=False, compare=False)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Sorted: every arc that meets the cut."""
        return self.trace.arcs()

    @cached_property
    def residual(self) -> Residual:
        """The residual after the last pass."""
        return self._history.state(self.passes).residual()


def run_step_a(q: QuiddityDescriptor | Residual, mat_lo: int, mat_hi: int) -> StepAResult:
    """Iterate phase-A passes until no 1 remains, or recurrence consumes
    mat_lo..mat_hi.

    The residual is held as survivors (_Survivors.step), so a pass costs
    about as much as its 1s and the periods, not the core.

    Every run that trips no rule ends, by termination or by recurrence:
    (a) a tail period that holds a 1 loses at least one nonzero value per
    pass, as its 1s are zeroed and the rule only decrements, so tails hold
    1s in finitely many passes; (b) after that a position joins the
    survivors only where a 1 at the core's edge consumes the tail value
    next to it, and that 1 leaves, so the survivor count never grows,
    except from 1 to 2 when a lone survivor 1 consumes both sides; (c)
    values never grow.  So there are finitely many collapsed states up to
    translation, and a run that neither trips a rule nor terminates repeats
    a signature, which the run sees, as it looks each pass's signature up
    among those of earlier passes whose collapsed cores are as long.

    (d) Those states grow with the values, but the passes need not: a
    value falls only where a 1 next to it is zeroed.  A 1 at the core's
    edge starts a front that eats the tail beside it, one value a pass
    while they are 2s, and the survivor behind it falls each pass; a tail
    of 2s (and 0s) would feed it for as many passes as that value, until
    two 1s meet, so a pass refuses such a front at once.  Other fronts stop
    within a period, and a new one starts only once a survivor is zeroed
    for good or, with two survivors, the other front has brought the edge
    to exactly 1.  So the passes are bounded by len(core), L and R alone.

    On recurrence of the collapsed residual at pass d against pass i, the
    run is known nonterminating, and window queries need the passes until
    mat_lo..mat_hi is zero.  With p = d - i, the run checks that
    S(b + p) == T(S(b)) exactly (positions, values and both periods) for
    the base b = i, the period it has just stepped, and failing that for
    b = d, d + p, ..., each after stepping one period more.  T moves the
    survivors below a split x (the first whose shift is not dl) by
    dl = cs(b + p) - cs(b), the rest by dr = ce(b + p) - ce(b), each tail
    with its end of the core, and dl < 0 < dr, so S(b) is zero on (g, x)
    and T keeps survivors in order; no pass of the period may find a 1 in
    a tail.  One check is enough.  A pass reads only each nonzero
    position's value and its nearest nonzero neighbours, and zeros are
    inert, so pass(T(S)) = T(pass(S)) on the word whenever T keeps the
    nonzero positions in order, arcs and changed values each moving with
    their own front; zeros never revive, so every later state is zero on
    (g, x) too.  The survivors are the canonical trim of the word: cs is its
    first position off the left period's pattern and ce - 1 its last off
    the right's.  Each state of the period has cs < x and ce - 1 > g,
    checked, so these move with T as well (a zero in the gap mismatches a
    pattern that is nonzero there), and T(S) as survivors is the survivors
    of T(S) as a word.  By induction S(b + m*p + r) = T^m(S(b + r)) for all
    m and r.

    Past a certified period nothing is stepped: the first pass that zeroes
    mat_lo + 1..mat_hi - 1, and the one that zeroes mat_lo..mat_hi, are
    bisected over moved states.  So the run costs and keeps O(survivors +
    period) at any distance from the core.  Trace records, arcs and
    residuals are built when read: a moved pass's 1s off the translation,
    and the moved arcs that meet the cut per arc of the certified period,
    from the range of m over which its image meets the cut.

    The cut is read off the survivors: the nearest nonzero positions around
    mat_lo + 1..mat_hi - 1 after the first pass that zeroes it (positions
    never revive), or after the last.  That pass removes the range's one
    nonzero value, a 1 whose arc is the cut: its ends stay nonzero, no
    earlier arc spans the 1 and no later one lies inside.  So the cut is
    the tightest arc (p, n) with p <= mat_lo and mat_hi <= n, or else the
    ends of the nearest bridging arcs.  This needs no 0 in the range before
    the first pass, as for every QuiddityDescriptor; a Residual with zeros
    there is out of scope.
    """
    s = _Survivors(*_trim(q.left_period, q.core, q.right_period, q.core_start))
    history = _History(s)
    # signatures are built only for passes whose collapsed cores are as long, so a long
    # core that never recurs is never copied; per length, the pass not yet built, or None
    lengths: dict[int, int | None] = {s.core_length(): 0}
    seen = {}  # signature -> the pass it was built for
    found = []
    cut = None
    detected: int | None = None
    period = 0
    since: list[_Survivors] = []  # the states of the period being checked
    while True:
        if cut is None and s.zero_on(mat_lo + 1, mat_hi - 1):
            cut = s.prev_nonzero(mat_lo + 1), s.next_nonzero(mat_hi - 1)
        k = len(found)
        verdict = ("terminated" if not s.has_one() else "nonterminating"
                   if detected is not None and s.zero_on(mat_lo, mat_hi) else None)
        if verdict:
            break
        if period:
            if len(since) == period:
                history.jump = _Jump.certify(since, found[k - period:], s, k - period)
                if history.jump:
                    break
                since = []
            since.append(s.moved(0, 0, 0))
        ones, changes = s.step()
        found.append(ones)
        history.add(s, changes)
        if detected is None:
            n = s.core_length()
            if n not in lengths:
                lengths[n] = k + 1
                continue
            if (i := lengths[n]) is not None:
                seen[history.state(i).signature()] = i
                lengths[n] = None
            i = seen.setdefault(s.signature(), k + 1)
            if i <= k:  # the period just stepped is the first one checked
                detected, period = k + 1, k + 1 - i
                since = [history.state(j) for j in range(i, k + 1)]
    jump = history.jump
    if jump:
        start = k + 1
        if cut is None:
            start = jump.first(start, mat_lo + 1, mat_hi - 1)
            t = jump.state(start)
            cut = t.prev_nonzero(mat_lo + 1), t.next_nonzero(mat_hi - 1)
        verdict, k = "nonterminating", jump.first(start, mat_lo, mat_hi)
    elif cut is None:
        cut = s.prev_nonzero(mat_lo + 1), s.next_nonzero(mat_hi - 1)
    return StepAResult(verdict, k, _Trace(found, history, cut, k), cut, detected, history)


@dataclass(frozen=True)
class StepBResult:
    bridging_arcs: tuple[tuple[int, int], ...]  # sorted (lower index, upper label)
    anchor: int | None  # bi_infinite's, or the one given; else None
    m2: M2Class


def step_b(res: Residual | _Survivors, window: tuple[int, int], mat_lo: int, mat_hi: int,
           anchor: int | None = None) -> StepBResult:
    """Plant upper marked points and bridging arcs on a terminated residual's survivors.

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
    with the distance from the core or the anchor.  Each piece of the cut
    (whole tail periods per side, partial periods at its ends, the core) has
    its first copy planted position by position; later whole periods are it
    shifted by (period length, excess), one C-level series per arc.

    The anchor, needed only on bi_infinite, defaults to the first value > 2
    from the window midpoint rightward; a given one must have value > 2.
    """
    s = _Survivors.of(res) if isinstance(res, QuiddityDescriptor) else res
    if s.has_one():
        raise QuiddityError("phase B requires a residual with no 1s")
    L, R = len(s.left), len(s.right)
    f_lo, f_hi = s.cs - L, s.ce + R - 1  # the footprint: the core and one period per side
    if not (s.pos or any(s.left) or any(s.right)):
        raise QuiddityError("residual vanished entirely; a valid frieze cannot reach this state")
    if anchor is not None and not s.excess(anchor, anchor):  # excess(y, y) > 0: value > 2
        raise QuiddityError(f"anchor {anchor} does not have residual value > 2")

    left, right = _excess(s.left) > 0, _excess(s.right) > 0
    if left and right:
        if anchor is None:  # within a period past the core, as the right tail has a value > 2
            anchor = next(y for y in count(sum(window) // 2) if s.excess(y, y))
        m2, first, at = M2_BI_INFINITE, 1, anchor
    elif left:
        m2, first, at = M2_NAT_LEFT, 0, f_hi + 1
    elif right:
        m2, first, at = M2_NAT_RIGHT, 0, f_lo
    else:
        m2, first, at = m2_finite(1 + s.excess(f_lo, f_hi)), 1, f_lo
    top = first + (s.excess(at, mat_lo - 1) if at <= mat_lo else -s.excess(mat_lo, at - 1))
    (lp, ln), core, (rp, rn) = s.pieces(mat_lo, mat_hi)
    lw, rw = _rotate(s.left, lp), _rotate(s.right, rp)  # from the cut's phase
    i, arcs = mat_lo, []
    for offsets, word, step, copies in (  # offsets from the piece's start
            (range(L), lw, L, ln // L), (range(ln % L), lw, ln % L, 1),
            ([p - mat_lo - ln for p in s.pos[core]], s.vals[core],
             mat_hi + 1 - mat_lo - ln - rn, 1),
            (range(R), rw, R, rn // R), (range(rn % R), rw, rn % R, 1)):
        if not copies:
            continue
        fans, u = [], top
        for p, v in zip(offsets, word):  # the first copy's fans
            if v >= 2:
                fans += zip(repeat(i + p), range(u, u + v - 1))
                u += v - 2
        e = u - top  # the piece's excess, as no value is 1
        arcs += fans
        if copies > 1:  # copy m is the first shifted by m * (step, e): one series per arc
            arcs += chain.from_iterable(islice(zip(*[zip(count(p + step, step), count(w + e, e))
                                                     for p, w in fans]), copies - 1))
        i, top = i + copies * step, top + copies * e
    return StepBResult(tuple(arcs), anchor, m2)


@dataclass(frozen=True)
class SynthesisOutcome:
    triangulation: StripTriangulation
    m2_class: M2Class
    step_a_verdict: str
    step_a_passes: int
    trace: Sequence[PassRecord]
    anchor: int | None  # bi_infinite's, or the one given; else None
    _step_a: StepAResult = field(repr=False, compare=False)

    @property
    def residual(self) -> Residual:
        """Phase A's final residual, built when first read."""
        return self._step_a.residual


def _refuse(q: QuiddityDescriptor, err: QuiddityError) -> NoReturn:
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


def psi(q: QuiddityDescriptor, window: tuple[int, int], *,
        anchor: int | None = None) -> SynthesisOutcome:
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
    a valid q trips no rule, and phase A always ends (run_step_a).  Raises
    QuiddityError on invalid input and StripError for a window with
    lo > hi.  A tripped rule is a QuiddityError naming a nonpositive entry
    when validate finds one at its default depth.  Past one certified
    period a recurring run's passes are read off a translation, not
    stepped, so phase A costs the same at any distance from the core; the
    strip still holds the window's cut, which on the zigzag reaches back
    across the core, about two arcs per position of distance.
    """
    lo, hi = window
    try:
        a = run_step_a(q, lo - 2, hi + 2)
    except QuiddityError as err:
        _refuse(q, err)
    r_lo, r_hi = a.cut
    margin = max(lo - r_lo, r_hi - hi)
    if a.verdict == "nonterminating":
        tri = StripTriangulation._from_sorted(window, margin, M2_EMPTY, a.arcs, ())
        return SynthesisOutcome(tri, M2_EMPTY, a.verdict, a.passes, a.trace, None, a)
    b = step_b(a._history.state(a.passes), window, r_lo, r_hi, anchor)
    tri = StripTriangulation._from_sorted(window, margin, b.m2, a.arcs, b.bridging_arcs)
    return SynthesisOutcome(tri, b.m2, a.verdict, a.passes, a.trace, b.anchor, a)
