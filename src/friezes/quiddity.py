"""Eventually periodic bi-infinite quiddity sequences.

A quiddity sequence (a_i), i ranging over all integers, determines an
infinite frieze through the recurrence t(p, q+1) = a_q * t(p, q) - t(p, q-1)
with t(p, p) = 0 and t(p, p+1) = 1.  Here we only handle sequences that are
eventually periodic on both sides, presented as a finite core window flanked
by two periodic tails.  Every worked example in the literature is of this
shape, and it is closed under the strip-synthesis rewriting.

Indexing convention: the core occupies indices core_start .. core_start +
len(core) - 1.  Below the core the left period tiles leftward so that its
last element sits at index core_start - 1; above the core the right period
tiles rightward so that its first element sits just after the core.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import suppress
from dataclasses import dataclass, replace
from math import log10
from typing import ClassVar


class QuiddityError(ValueError):
    """Raised for structurally invalid quiddity data."""


@dataclass(frozen=True)
class QuiddityDescriptor:
    """Finite presentation of a bi-infinite quiddity sequence.

    All values must be integers >= MIN_VALUE, which is 1 here and 0 for the
    synthesis residual.  Purely periodic sequences are the special case of an
    empty core with equal tails.
    """

    MIN_VALUE: ClassVar[int] = 1

    left_period: tuple[int, ...]
    core: tuple[int, ...]
    right_period: tuple[int, ...]
    core_start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "left_period", tuple(self.left_period))
        object.__setattr__(self, "core", tuple(self.core))
        object.__setattr__(self, "right_period", tuple(self.right_period))
        if not self.left_period or not self.right_period:
            raise QuiddityError("periodic tails must be nonempty")
        vals = (*self.left_period, *self.core, *self.right_period)
        # a long word takes a C-level check; a short one, or a bad value, the loop
        if len(vals) > 8 and set(map(type, vals)) <= {int} and min(vals) >= self.MIN_VALUE:
            return
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or v < self.MIN_VALUE:
                raise QuiddityError(
                    f"quiddity values must be integers >= {self.MIN_VALUE}, got {v!r}")

    @classmethod
    def constant(cls, c: int) -> "QuiddityDescriptor":
        return cls((c,), (), (c,), 0)

    @classmethod
    def periodic(cls, values: tuple[int, ...], core_start: int = 0) -> "QuiddityDescriptor":
        """Purely periodic sequence with values[0] at index core_start."""
        vals = tuple(values)
        return cls(vals, (), vals, core_start)

    def value_at(self, i: int) -> int:
        start, core = self.core_start, self.core
        if i < start:
            left = self.left_period
            return left[len(left) - 1 - ((start - 1 - i) % len(left))]
        if i < start + len(core):
            return core[i - start]
        right = self.right_period
        return right[(i - start - len(core)) % len(right)]

    def values(self, lo: int, hi: int) -> list[int]:
        """Values at indices lo..hi inclusive; empty when lo > hi."""
        (lp, ln), core, (rp, rn) = self._pieces(lo, hi)
        left, right = self.left_period, self.right_period  # a missing piece is (0, 0)
        return [*(left * -(-(lp + ln) // len(left)))[lp:lp + ln], *core,
                *(right * -(-(rp + rn) // len(right)))[rp:rp + rn]]

    def _pieces(self, lo: int, hi: int):
        """lo..hi split as (phase, count) in the left tail, the core values, and
        (phase, count) in the right tail; a tail piece starts at
        period[phase], and its count is 0 where lo..hi misses that tail."""
        start = self.core_start
        end = start + len(self.core)
        left = right = (0, 0)
        if lo > hi:
            return left, (), right
        if lo < start:
            left = (lo - start) % len(self.left_period), min(hi + 1, start) - lo
        if hi >= end:
            first = max(lo, end)
            right = (first - end) % len(self.right_period), hi + 1 - first
        return left, self.core[max(lo - start, 0):max(hi + 1 - start, 0)], right

    def shift(self, n: int) -> "QuiddityDescriptor":
        """Translate by n: shift(q, n).value_at(i) == q.value_at(i - n)."""
        return replace(self, core_start=self.core_start + n)

    def has_value(self, v: int) -> bool:
        return v in self.left_period or v in self.core or v in self.right_period


def continue_row(values: Iterable[int], prev: int, cur: int) -> Iterator[int]:
    """Yield t(p, q+1), t(p, q+2), ... from prev = t(p, q-1) and cur = t(p, q).

    One entry per value a_q, a_{q+1}, ... in values, by the frieze recurrence
    t(p, q+1) = a_q * t(p, q) - t(p, q-1); a row starts t(p, p) = 0, t(p, p+1) = 1.
    """
    for a in values:
        prev, cur = cur, a * cur - prev
        yield cur


Matrix = tuple[int, int, int, int]  # ((m[0], m[1]), (m[2], m[3])), row-major
IDENTITY: Matrix = (1, 0, 0, 1)


def _walk(m: Matrix, values: Iterable[int]) -> Matrix:
    """M(a_n) ... M(a_1) m for values a_1, ..., a_n."""
    w, x, y, z = m
    for a in values:
        w, x, y, z = a * w - y, a * x - z, w, x
    return w, x, y, z


def _chebyshev(trace: int, n: int) -> tuple[int, int]:
    """(U_{n-1}, U_n) for n >= 0, where U_{-1} = 0, U_0 = 1 and
    U_{k+1} = trace * U_k - U_{k-1}.

    By doubling, one bit of n at a time: with U_{k-2} = trace * U_{k-1} - U_k,
    U_{2k} = U_k^2 - U_{k-1}^2 and U_{2k-1} = U_{k-1} (U_k - U_{k-2}), two
    products of large integers per bit.
    """
    if not n:
        return 0, 1
    a, b = 1, trace  # (U_{k-1}, U_k) at k = 1, the leading bit of n
    for bit in bin(n)[3:]:
        a, b = a * (b - trace * a + b), (b - a) * (b + a)  # k -> 2k
        if bit == "1":
            a, b = b, trace * b - a  # k -> k + 1
    return a, b


def _tail(m: Matrix, period: tuple[int, ...], phase: int, count: int) -> Matrix:
    """m left-multiplied by the transfer of count tail values from period[phase].

    The period matrix P has det 1, so P^2 = tau P - I for its trace tau, and
    P^n = U_{n-1} P - U_{n-2} I with U as in _chebyshev: a whole-period power
    costs two products of large integers per bit of n.  When m is IDENTITY,
    as for a left tail piece, that combination of P and I is the answer;
    otherwise P^n m is the same combination of P m, a second walk of the
    period, and m, two more products per entry of m.
    """
    turned = period[phase:] + period[:phase]
    whole, rest = divmod(count, len(period))
    if whole:
        w, x, y, z = _walk(IDENTITY, turned)
        u0, u1 = _chebyshev(w + z, whole - 1)  # U_{whole-2}, U_{whole-1}
        if m == IDENTITY:
            m = u1 * w - u0, u1 * x, u1 * y, u1 * z - u0
        else:
            a, b, c, d = m
            w, x, y, z = _walk(m, turned)
            m = u1 * w - u0 * a, u1 * x - u0 * b, u1 * y - u0 * c, u1 * z - u0 * d
    return _walk(m, turned[:rest]) if rest else m


def transfer(q: QuiddityDescriptor, lo: int, hi: int) -> Matrix:
    """M(a_hi) ... M(a_lo) with M(a) = [[a, -1], [1, 0]]; IDENTITY when lo > hi.

    The frieze recurrence in matrix form: the product maps the column
    (t(p, lo), t(p, lo - 1)) to (t(p, hi + 1), t(p, hi)), so t(p, q) is
    transfer(q, p + 1, q - 1)[0].  The core values are multiplied out and
    whole tail periods are raised to a power by the Chebyshev recurrence of
    the period's trace (see _tail), so the number of products grows with the
    logarithm of the distance, not with the distance.  A range right of the
    core has no left piece and no core piece, so its right tail starts from
    IDENTITY too; an empty core piece is not walked.
    """
    (lp, ln), core, (rp, rn) = q._pieces(lo, hi)
    m = _tail(IDENTITY, q.left_period, lp, ln) if ln else IDENTITY
    m = _walk(m, core) if core else m
    return _tail(m, q.right_period, rp, rn) if rn else m


def digit_bound(q: QuiddityDescriptor, lo: int, hi: int) -> float:
    """log10 of the product of a_k + 1 over lo <= k <= hi; 0 when lo > hi.

    It bounds the digits of every entry whose open span lies in lo..hi:
    each continuant step has |c_n| <= a_n |c_{n-1}| + |c_{n-2}|, so by
    induction |t(p, r)| <= the product of a_k + 1 over p < k < r.  A whole
    tail period's logarithms are summed once, so the cost is O(core +
    periods) at any distance.
    """
    def tail(period: tuple[int, ...], phase: int, count: int) -> float:
        logs = [log10(a + 1) for a in period[phase:] + period[:phase]]
        whole, rest = divmod(count, len(period))
        return whole * sum(logs) + sum(logs[:rest])

    (lp, ln), core, (rp, rn) = q._pieces(lo, hi)
    return (tail(q.left_period, lp, ln) + sum(log10(a + 1) for a in core)
            + tail(q.right_period, rp, rn))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a positivity check up to band `depth`.

    status is "valid_to_depth" or "invalid"; an invalid report carries the
    first nonpositive entry (i, j, t(i, j)) in scan order (increasing band
    j - i, then increasing i), which validate's band scan names.  Phase A
    decides validity: when it accepts q (see validate), every entry is
    positive and the valid report does not depend on `depth`.  A valid
    report from the scan certifies only the bands up to `depth`.
    """

    status: str
    depth: int
    witness: tuple[int, int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "valid_to_depth"


DEFAULT_DEPTH = 64


def validate(q: QuiddityDescriptor, depth: int = DEFAULT_DEPTH) -> ValidationReport:
    """Check t(i, j) >= 1 for all i < j with j - i <= depth.

    Phase A of the strip synthesis decides first, over the whole word.  A
    run that trips no pass rule ends, terminating or recurring, and builds
    a strip triangulation whose triangle counts are q, and by the bijection
    between infinite friezes and admissible strip triangulations q is then
    the quiddity sequence of an infinite frieze: every entry is positive,
    and the answer is valid at any depth.  A 0 counts no triangles, so a
    Residual holding one goes straight to the scan.

    Otherwise, on a tripped rule, the band scan (_band_scan) names the first
    nonpositive entry up to depth, or reports valid_to_depth when there is
    none.  Phase A accepts only what the scan finds valid, so every report
    equals the scan's.
    """
    from .synthesis import run_step_a  # synthesis imports this module, so not at the top

    if depth < 2:
        raise QuiddityError("validation depth must be >= 2")
    if not q.has_value(0):
        with suppress(QuiddityError):  # a tripped pass rule: the scan names the witness
            run_step_a(q, q.core_start, q.core_start)
            return ValidationReport("valid_to_depth", depth)
    return _band_scan(q, depth)


def _band_scan(q: QuiddityDescriptor, depth: int) -> ValidationReport:
    """validate's report without phase A: the first t(i, j) <= 0 with
    j - i <= depth (depth >= 2), in band-major order, or valid_to_depth.

    Rows are scanned over one full period of each tail plus the core; by
    periodicity this covers every band position of the bi-infinite frieze.
    The scan is band by band, so the first nonpositive entry found is the
    first in band-major order.  At band d the rows i <= core_start - d read
    only left-tail values and repeat with its period L, so only the lowest L
    rows are kept: a row joins the others, with its representative's two
    latest entries, at the band where it first reads a core value.
    """
    L = len(q.left_period)
    row_lo = q.core_start - depth + 1 - L
    row_hi = q.core_start + len(q.core) + len(q.right_period)
    n = row_hi - row_lo + 1
    vals = q.values(row_lo, row_hi + depth - 1)  # a_k at vals[k - row_lo]
    # cur[k], prev[k]: t(i, i + d), t(i, i + d - 1) for the k-th kept row i,
    # which is row_lo + k for k < L, else row_lo + s + k - L
    s = depth - 1 + L  # offset of the lowest row past the repeated stretch (core_start at band 1)
    prev, cur = [0] * (L + n - s), [1] * (L + n - s)
    for d in range(2, depth + 1):
        s -= 1
        prev.insert(L, prev[s % L])
        cur.insert(L, cur[s % L])
        a = vals[d - 1:L + d - 1] + vals[s + d - 1:n + d - 1]  # a_{i+d-1} per kept row
        prev, cur = cur, [x * c - p for x, c, p in zip(a, cur, prev)]
        if min(cur) <= 0:
            k = next(k for k, v in enumerate(cur) if v <= 0)
            i = row_lo + (k if k < L else s + k - L)
            return ValidationReport("invalid", depth, (i, i + d, cur[k]))
    return ValidationReport("valid_to_depth", depth)
