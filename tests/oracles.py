"""Independent oracles the tests check the library against.

These deliberately avoid the code paths under test: the determinant oracle
runs fraction-free Gaussian elimination on the full matrix rather than any
three-term recurrence, the unimodular checker reads entries pairwise, and
the strip and chord checkers test every pair with the crossing rule itself.
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
