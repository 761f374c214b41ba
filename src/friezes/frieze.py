"""Lazy evaluation of infinite frieze entries and their classical identities.

An infinite frieze is a map t on pairs of integers with zero diagonal, ones
on the superdiagonal, antisymmetry t(i, j) = -t(j, i), positivity above the
diagonal, and all adjacent 2x2 minors equal to 1.  It is determined by its
quiddity sequence a_i = t(i-1, i+1) via the three-term recurrence

    t(p, q+1) = a_q * t(p, q) - t(p, q-1).

The recurrence itself lives in quiddity: continue_row walks a row one entry
at a time, and transfer multiplies out its matrix form, the product of the
matrices [[a_k, -1], [1, 0]], with whole tail periods raised to a power by
the Chebyshev recurrence of the period's trace.  FriezeView walks and
memoizes each row out to band ROW_BAND, growing a memo row to at least
twice its band at a time, and answers entries farther from the diagonal by
one transfer product, which it does not store, so its memory stays
bounded.  A run of consecutive entries of one row is one walk from two
seeds.  The remaining operations are the row identities: the Ptolemy
relation, reconstruction of any entry from two rows, the continuant
(tridiagonal determinant) form, and the row-pair determinant coefficients
whose value does not depend on the evaluation position.  has_enough_ones
reads the 1-entries off the strip synthesis.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

from .quiddity import QuiddityDescriptor, continue_row, transfer
from .synthesis import psi

ROW_BAND = 256  # widest band j - i that FriezeView.entry walks and memoizes


class FriezeError(ValueError):
    """Raised when an identity precondition fails or input data is inconsistent."""


class FriezeView:
    """Memoized evaluator of the infinite frieze over a quiddity descriptor.

    Row i is memoized as the list [t(i, i), t(i, i+1), ...] walked so far,
    at most out to t(i, i + ROW_BAND).  A row that must grow grows to at
    least twice its band, so a scan along a row walks it about log2 of its
    length times, while a lone entry walks only out to itself.  A longer
    row is a new list stored with one assignment, never extended in place,
    so concurrent readers at worst recompute an entry.  Entries are exact
    Python integers; they grow without bound with the band width.
    """

    def __init__(self, quiddity: QuiddityDescriptor):
        self.quiddity = quiddity
        self._rows: dict[int, list[int]] = {}

    def entry(self, i: int, j: int) -> int:
        """t(i, j) for any integers i, j (antisymmetric below the diagonal)."""
        if i > j:
            return -self.entry(j, i)
        row = self._rows.get(i, [0, 1])
        n = len(row)
        if j - i < n:
            return row[j - i]
        if j - i > ROW_BAND:
            return transfer(self.quiddity, i + 1, j - 1)[0]
        band = min(ROW_BAND, max(j - i, 2 * (n - 1)))
        values = self.quiddity.values(i + n - 1, i + band - 1)
        row = self._rows[i] = [*row, *continue_row(values, row[-2], row[-1])]
        return row[j - i]

    def row(self, i: int, lo: int, hi: int) -> list[int]:
        """[t(i, lo), ..., t(i, hi)]; empty when lo > hi.

        One continue_row walk from the seeds t(i, lo - 1) and t(i, lo).
        Continuants satisfy the three-term recurrence on either side of the
        diagonal, for any integer word, so the walk may cross it.
        """
        if lo > hi:
            return []
        cur = self.entry(i, lo)  # first: a fresh memo row then walks out to lo only
        prev = self.entry(i, lo - 1)
        return [cur, *continue_row(self.quiddity.values(lo, hi - 1), prev, cur)]

    def continuant(self, p: int, q: int) -> int:
        """The tridiagonal determinant in a_{p+1}, ..., a_{q-1}; equals t(p, q).

        Requires q >= p + 2.  Off-diagonal entries of the matrix are 1, so the
        determinant satisfies D_k = a_k * D_{k-1} - D_{k-2}: the top-left
        entry of the transfer product, which keeps no row.
        """
        if q < p + 2:
            raise FriezeError(f"continuant needs q >= p + 2, got p={p}, q={q}")
        return transfer(self.quiddity, p + 1, q - 1)[0]

    def ptolemy_holds(self, i: int, j: int, p: int, q: int) -> bool:
        """t(i,p) t(j,q) == t(i,j) t(p,q) + t(i,q) t(j,p)."""
        t = self.entry
        return t(i, p) * t(j, q) == t(i, j) * t(p, q) + t(i, q) * t(j, p)

    def reconstruct_entry(self, i: int, j: int, p: int, q: int) -> int:
        """Recover t(p, q) from rows i and j: (t(i,p)t(j,q) - t(i,q)t(j,p)) / t(i,j).

        Raises FriezeError when t(i, j) = 0 (as for i == j), and when the
        division is not exact: the entries did not come from a genuine frieze.
        """
        t = self.entry
        den = t(i, j)
        if den == 0:
            raise FriezeError(f"t({i}, {j}) = 0: rows {i}, {j} cannot give t({p}, {q})")
        num = t(i, p) * t(j, q) - t(i, q) * t(j, p)
        quo, rem = divmod(num, den)
        if rem:
            raise FriezeError(
                f"non-exact division reconstructing t({p},{q}) from rows {i},{j}")
        return quo

    def c_coeff(self, i: int, j: int, k: int) -> int:
        """det [[t(i,k), t(i,k+1)], [t(j,k), t(j,k+1)]]; independent of k."""
        t = self.entry
        return t(i, k) * t(j, k + 1) - t(i, k + 1) * t(j, k)

    def d_coeff(self, i: int, j: int, k: int) -> int:
        """det [[t(k,i), t(k,j)], [t(k+1,i), t(k+1,j)]]; independent of k."""
        t = self.entry
        return t(k, i) * t(k + 1, j) - t(k, j) * t(k + 1, i)


def entry_from_fg(f_p: int, f_q: int, g_p: int, g_q: int) -> int:
    """t(p, q) from the rows f_i = t(-1, i) and g_i = t(0, i): f_p g_q - f_q g_p."""
    return f_p * g_q - f_q * g_p


def quiddity_from_f(f: dict[int, int], a_minus1: int) -> dict[int, int]:
    """Recover quiddity values from a window of the f-row, t(-1, s).

    a_s = (f_{s-1} + f_{s+1}) / f_s for s != -1; the value a_{-1} is not
    determined by the f-row and must be supplied (any a_{-1} >= 1 extends the
    same f-row to a different frieze).  Returns {s: a_s} for every s interior
    to the window.  Raises FriezeError if the anchors f_{-1} = 0, f_0 = 1,
    f_{-2} = -1 fail where present, on division failure, or if some a_s < 1.
    """
    if a_minus1 < 1:
        raise FriezeError("a_{-1} must be >= 1")
    for s, want in ((-1, 0), (0, 1), (-2, -1)):
        if s in f and f[s] != want:
            raise FriezeError(f"f_{s} must be {want}, got {f[s]}")
    out: dict[int, int] = {}
    for s in sorted(f):
        if s - 1 not in f or s + 1 not in f:
            continue
        if s == -1:
            out[s] = a_minus1
            continue
        if f[s] == 0:
            raise FriezeError(f"f_{s} = 0 but s != -1; not an f-row")
        quo, rem = divmod(f[s - 1] + f[s + 1], f[s])
        if rem:
            raise FriezeError(f"f_{s} does not divide f_{s-1} + f_{s+1}")
        if quo < 1:
            raise FriezeError(f"recovered a_{s} = {quo} < 1")
        out[s] = quo
    return out


@dataclass(frozen=True)
class EnoughOnes:
    """Answer "yes", or "no" with the first window pair no 1-entry dominates."""

    status: str
    witness: tuple[int, int] | None = None


def has_enough_ones(t: FriezeView, window: tuple[int, int]) -> EnoughOnes:
    """Decide whether every window pair i <= j is dominated by a 1-entry.

    A pair (i, j) is covered when t(i', j') = 1 for some i' <= i <= j <= j'.
    The strip synthesis decides this.  A frieze has enough ones exactly when
    its strip triangulation has an empty upper boundary (the source paper's
    corollary), and the class does not depend on the window, so psi on the
    one-point window at the core reads it: "yes" when it is empty.  Else
    the peripheral arcs of the window's strip are its 1-entries t(i, j),
    j >= i + 2, over window pairs, and pairs j <= i + 1 lie under
    t(i, i+1) = 1.  One running maximum of the arc ends, bisected per row,
    finds the first pair (i ascending, then j) under no arc: "no" carries
    it.  O(A + W log A) for A arcs and W window points.  Raises FriezeError
    when lo > hi, and psi's QuiddityError or InconclusiveError.
    """
    lo, hi = window
    if lo > hi:
        raise FriezeError("window lo must be <= hi")
    q = t.quiddity
    if psi(q, (q.core_start, q.core_start)).m2_class.kind == "empty":
        return EnoughOnes("yes")
    arcs = psi(q, window).triangulation.peripheral_arcs
    reach = list(accumulate(map(itemgetter(1), arcs), max))
    for i in range(lo, hi - 1):
        k = bisect_right(arcs, i, key=itemgetter(0))
        j = i + 2 if k == 0 else max(i + 2, reach[k - 1] + 1)
        if j <= hi:
            return EnoughOnes("no", (i, j))
    return EnoughOnes("yes")
