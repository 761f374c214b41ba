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
from dataclasses import dataclass, replace
from operator import length_hint
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
        for v in (*self.left_period, *self.core, *self.right_period):
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
        """Values at indices lo..hi inclusive."""
        return [self.value_at(i) for i in range(lo, hi + 1)]

    def shift(self, n: int) -> "QuiddityDescriptor":
        """Translate by n: shift(q, n).value_at(i) == q.value_at(i - n)."""
        return replace(self, core_start=self.core_start + n)

    def footprint(self) -> tuple[int, int]:
        """Index range holding the core plus one period of each tail."""
        return (self.core_start - len(self.left_period),
                self.core_start + len(self.core) + len(self.right_period) - 1)

    def scan(self, i: int, step: int, bound: int, above: int = 0) -> int | None:
        """First j past i in direction step (+1 or -1), up to bound inclusive,
        whose value exceeds above; None when there is none."""
        for j in range(i + step, bound + step, step):
            if self.value_at(j) > above:
                return j
        return None

    def next_nonzero(self, i: int) -> int | None:
        # one whole right period past both the footprint and i
        R = len(self.right_period)
        return self.scan(i, 1, max(self.footprint()[1], i + R) + R + 1)

    def prev_nonzero(self, i: int) -> int | None:
        L = len(self.left_period)
        return self.scan(i, -1, min(self.footprint()[0], i - L) - L - 1)

    def max_zero_gap(self) -> int:
        """Upper bound on the distance from any position to a nonzero one."""
        w = self.left_period * 2 + self.core + self.right_period * 2
        best = run = 0
        for v in w:
            run = run + 1 if v == 0 else 0
            best = max(best, run)
        return best + 1

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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a depth-bounded positivity check.

    Positivity of every frieze entry is an infinite condition; a report can
    only certify the band of widths up to `depth`.  status is "valid_to_depth"
    or "invalid"; an invalid report carries the first nonpositive entry
    (i, j, t(i, j)) in scan order (increasing band j - i, then increasing i).
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

    Rows are scanned over one full period of each tail plus the core; by
    periodicity this covers every band position of the bi-infinite frieze.
    Each row t(i, i + d) runs through continue_row and stops at its first
    nonpositive entry; once one turns up at band d, later rows are only
    scanned below band d, so the report is the first in band-major order.
    """
    if depth < 2:
        raise QuiddityError("validation depth must be >= 2")
    core_end = q.core_start + len(q.core) - 1
    row_lo = q.core_start - depth + 1 - len(q.left_period)
    row_hi = core_end + len(q.right_period) + 1
    vals = q.values(row_lo, row_hi + depth - 1)  # a_k at vals[k - row_lo]
    witness = None
    top = depth
    for r in range(row_hi - row_lo + 1):
        values = iter(vals[r + 1:r + top])  # a_{i+1} .. a_{i+top-1}, i = row_lo + r
        for cur in continue_row(values, 0, 1):
            if cur <= 0:
                d = top - length_hint(values)  # one value consumed per entry
                witness, top = (row_lo + r, row_lo + r + d, cur), d - 1
                break
    if witness is not None:
        return ValidationReport("invalid", depth, witness)
    return ValidationReport("valid_to_depth", depth)
