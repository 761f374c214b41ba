"""Independent oracles the tests check the library against.

These deliberately avoid the code paths under test: the determinant oracle
runs fraction-free Gaussian elimination on the full matrix rather than any
three-term recurrence, the transfer-matrix oracle multiplies 2x2 matrices
and raises a whole tail period to a power, the unimodular checker reads
entries pairwise, and the strip and chord checkers test every pair with the
crossing rule itself.
"""

from __future__ import annotations

from friezes import StripError, bridging, cross, peripheral


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact integer determinant by Bareiss elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def tridiagonal_matrix(diag: list[int]) -> list[list[int]]:
    n = len(diag)
    return [[diag[i] if i == j else 1 if abs(i - j) == 1 else 0
             for j in range(n)] for i in range(n)]


Matrix = tuple[tuple[int, int], tuple[int, int]]
IDENTITY: Matrix = ((1, 0), (0, 1))


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_pow(m: Matrix, e: int) -> Matrix:
    out = IDENTITY
    while e:
        if e & 1:
            out = mat_mul(out, m)
        m = mat_mul(m, m)
        e >>= 1
    return out


def transfer(values) -> Matrix:
    """M(a_n) ... M(a_1) for values a_1, ..., a_n, with M(a) = [[a, -1], [1, 0]]."""
    out = IDENTITY
    for a in values:
        out = mat_mul(((a, -1), (1, 0)), out)
    return out


def _tail_transfer(period: tuple[int, ...], phase: int, count: int) -> Matrix:
    """Transfer matrix of `count` tail values starting at period[phase]."""
    turned = period[phase:] + period[:phase]
    whole, rest = divmod(count, len(period))
    return mat_mul(transfer(turned[:rest]), mat_pow(transfer(turned), whole))


def transfer_entry(q, p: int, r: int) -> int:
    """t(p, r) as the top-left entry of M(a_{r-1}) ... M(a_{p+1}).

    Reads the descriptor's fields directly; whole tail periods are one
    matrix power, so the cost is logarithmic in the distance from the core.
    """
    if p > r:
        return -transfer_entry(q, r, p)
    if p == r:
        return 0
    lo, hi = p + 1, r - 1  # the values a_lo .. a_hi enter the product
    start, end = q.core_start, q.core_start + len(q.core)  # core is a_start .. a_{end-1}
    left = right = IDENTITY
    if lo < start:
        left = _tail_transfer(q.left_period, (lo - start) % len(q.left_period),
                              min(hi + 1, start) - lo)
    if hi >= end:
        first = max(lo, end)
        right = _tail_transfer(q.right_period, (first - end) % len(q.right_period),
                               hi + 1 - first)
    middle = transfer(q.core[max(lo - start, 0):max(hi + 1 - start, 0)])
    return mat_mul(right, mat_mul(middle, left))[0][0]


def unimodular_ok(entry, lo: int, hi: int) -> bool:
    """Check every adjacent 2x2 minor of entry(i, j) over a square window."""
    for i in range(lo, hi):
        for j in range(lo, hi):
            det = entry(i, j) * entry(i + 1, j + 1) - entry(i, j + 1) * entry(i + 1, j)
            if det != 1:
                return False
    return True


def chords_cross(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Whether two chords of a polygon cross in the interior."""
    a, b = sorted(c1)
    c, d = sorted(c2)
    return (a < c < b < d) or (c < a < d < b)


def noncrossing_oracle(t) -> None:
    """StripTriangulation.check_pairwise_noncrossing by testing all arc pairs."""
    arcs = sorted(t.arcs)
    for i, x in enumerate(arcs):
        for y in arcs[i + 1:]:
            if cross(x, y):
                raise StripError(f"arcs cross: {x} and {y}")


def maximality_oracle(t) -> None:
    """StripTriangulation.check_window_maximality by testing every candidate
    against every arc, in the library's candidate order."""
    lo, hi = t.window
    arcs = sorted(t.arcs)
    uppers = t.materialized_upper_labels()
    candidates = [peripheral(i, j) for i in range(lo, hi - 1) for j in range(i + 2, hi + 1)]
    candidates += [bridging(i, u) for i in range(lo, hi + 1) for u in uppers]
    for cand in candidates:
        if cand in t.arcs:
            continue
        if not any(cross(cand, a) for a in arcs):
            raise StripError(f"window not maximal: {cand} could be added")


def admissibility_oracle(t) -> bool:
    """StripTriangulation.is_admissible_window by testing every window pair."""
    lo, hi = t.window
    feet = [i for i, _ in t.bridging_arcs]
    return all(any(i <= m and n <= j for i, j in t.peripheral_arcs)
               or (feet and feet[0] <= m and feet[-1] >= n)
               for m in range(lo, hi) for n in range(m + 1, hi + 1))
