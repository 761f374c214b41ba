"""Independent oracles the tests check the library against.

These deliberately avoid the code paths under test: the determinant oracle
runs fraction-free Gaussian elimination on the full matrix rather than any
three-term recurrence, the transfer-matrix oracle multiplies 2x2 matrices
and raises a whole tail period to a power, the unimodular checker reads
entries pairwise, the grid renderer evaluates every cell on its own, and
the strip and chord checkers test every pair with the crossing rule itself.
The validation oracle walks every row of the scan range on its own, reading
each value through value_at; the growth
certificate proves every entry positive from tail growth alone, with no
phase A; and the zero-gap oracle counts zero runs one value at a time.  The polygon oracles
split the polygon recursively at the triangle on its first side, propagate CC
labels by rescanning every face, count BCI tuples by backtracking, and cut
strips by scanning every arc; the star-cut oracle relabels the arcs at a
cut's lower points into a polygon and lets the polygon constructor check it.
The phase-B oracle walks the fountain position
by position from the anchor to the closed end of each terminating side,
labels the upper points it planted by rank, and reads the class off the
tails itself.  The strip rules oracle checks a strip's arcs one Arc tuple
at a time, each label against its class.  The dense phase-A oracle reads
every value of a range and rewrites the whole core on every pass, keeping
each residual, where the library touches only the survivors near the 1s; it
gives up at a pass bound of its own, as the library needs none.
The scanning phase-A oracle stops a recurring run only once an arc it
recorded spans the range, and the cut oracle takes the tightest recorded
arc over it.  The enough-ones oracle
searches frieze entries for 1s out to a depth and re-checks the pairs it
leaves uncovered against every peripheral arc of the window's strip.  The
reach maximality oracle walks every j from each i over per-point reach
tables, and bounds bridging labels by running extremes of the feet's labels.
The loader oracle reads a strip document one arc entry at a time through the
field and point checks, and always sorts the pairs it collects.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, count
from operator import sub

from friezes import (FriezeView, PolygonTriangulation, QuiddityError, StripError,
                     ValidationReport, bridging, cross, peripheral, psi)
from friezes.counting import CutError, PolygonCut
from friezes.polygon import PolygonError
from friezes.serialize import SchemaError, _int_list, _point_from_json, _require, m2_from_str
from friezes.strip import (M2_BI_INFINITE, M2_NAT_LEFT, M2_NAT_RIGHT, Arc, MarkedPoint,
                           StripTriangulation, m2_finite)
from friezes.synthesis import Residual, StepBResult, _primitive, _signature, _trim


def normalize(res: QuiddityDescriptor) -> Residual:
    """The descriptor as a Residual, with its fields passed through _trim."""
    return Residual(*_trim(res.left_period, res.core, res.right_period, res.core_start))


def collapsed(res: Residual) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The residual's three words with their zeros dropped."""
    drop = lambda w: tuple(v for v in w if v)
    return drop(res.left_period), drop(res.core), drop(res.right_period)


def collapsed_signature(res: Residual):
    """Canonical form of the zero-collapsed residual, up to index translation:
    what phase A's survivors compute without building the residual."""
    return _signature(*collapsed(res))


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


def transfer_matrix(q, lo: int, hi: int) -> Matrix:
    """M(a_hi) ... M(a_lo), IDENTITY when lo > hi.

    Reads the descriptor's fields directly; whole tail periods are one
    matrix power, so the cost is logarithmic in the distance from the core.
    """
    if lo > hi:
        return IDENTITY
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
    return mat_mul(right, mat_mul(middle, left))


def transfer_entry(q, p: int, r: int) -> int:
    """t(p, r) as the top-left entry of M(a_{r-1}) ... M(a_{p+1})."""
    if p > r:
        return -transfer_entry(q, r, p)
    if p == r:
        return 0
    return transfer_matrix(q, p + 1, r - 1)[0][0]


def validate_rows(q, depth: int) -> ValidationReport:
    """Row-major depth-bounded validation, the reference for quiddity.validate.

    Walks each row i of core_start - depth + 1 - L .. core_end + R + 1 out to
    band `depth` and stops it at its first nonpositive entry; once one turns
    up at band d, later rows are walked only below band d, so the witness is
    the first in band-major order (increasing band, then increasing i).
    """
    row_lo = q.core_start - depth + 1 - len(q.left_period)
    row_hi = q.core_start + len(q.core) + len(q.right_period)
    witness, top = None, depth
    for i in range(row_lo, row_hi + 1):
        prev, cur = 0, 1
        for d in range(2, top + 1):
            prev, cur = cur, q.value_at(i + d - 1) * cur - prev
            if cur <= 0:
                witness, top = (i, i + d, cur), d - 1
                break
    if witness is not None:
        return ValidationReport("invalid", depth, witness)
    return ValidationReport("valid_to_depth", depth)


SLIDES = 3  # how often the growth certificate moves its starting block before it gives up


def _row(values) -> list[int]:
    """t(p, p+1), t(p, p+2), ... for the values a_{p+1}, a_{p+2}, ..."""
    prev, cur = 0, 1
    out = [cur]
    for a in values:
        prev, cur = cur, a * cur - prev
        out.append(cur)
    return out


def climbs(xs: list[int], k: int, period: int, floor: int) -> bool:
    """Whether xs certifies x >= floor (floor >= 0) on xs and everywhere past it.

    xs holds x_f, x_{f+1}, ... of a solution x of the frieze recurrence
    whose values from index f + k on repeat with the given period R, one
    period's transfer having trace s >= 2.  Past f + k, Cayley-Hamilton
    gives x_{q+2R} = s x_{q+R} - x_q, so d_q = x_{q+R} - x_q obeys
    d_{q+R} = (s - 2) x_{q+R} + d_q.  Hence if x >= floor up to a block
    [Q, Q+R) with Q >= f + k and d >= 0 on that block, x never decreases
    along a residue class mod R from Q on.  Q starts at f + k and moves up
    by R at most SLIDES times, so xs needs k + (SLIDES + 2) * R entries.
    """
    if min(xs[:k], default=floor) < floor:
        return False
    for q in range(k, k + (SLIDES + 1) * period, period):
        block = xs[q:q + period]
        if min(block) < floor:
            return False
        if all(a <= b for a, b in zip(block, xs[q + period:q + 2 * period])):
            return True
    return False


def grows(q) -> bool:
    """Exact certificate that t(i, j) >= 1 for all i < j, from tail growth.

    A second oracle for the valid side of quiddity.validate, independent of
    phase A.  Both tails' one-period transfers must have trace >= 2, and
    climbs must certify, with the matching period:
    - each row of the left tail's own periodic frieze, which holds every
      entry t(p, c) with c <= P0 (the right tail's is rows B-1 .. B+R-2);
    - rows P0-L+1 .. B+R-2 of q, where B is the first right-tail index;
      rows from B-1 on are translates of the last R of them;
    - for p in (P0-L, P0], the difference t(p-L, c) - t(p, c) over columns
      c > P0, with floor 0.  Read down a column, t(., c) obeys the same
      recurrence with the left tail's values, so the column form of the
      climbs argument gives t(p, c) >= 1 for every row p <= P0.
    P0 starts at core_start - 1 and moves down by L, at most SLIDES times,
    while a difference fails.  With enough ones (psi's empty class) entries
    come back to 1 arbitrarily far from the diagonal, and the certificate
    fails.  It holds its whole row box, so it suits short cores only.
    """
    left, right = q.left_period, q.right_period
    L, R = len(left), len(right)
    for period in (left, right):
        (w, _), (_, z) = transfer(period)
        if w + z < 2:
            return False
    n = (SLIDES + 2) * L
    for r in range(L):
        turned = left[r:] + left[:r]
        if not climbs(_row(turned[i % L] for i in range(n - 1)), 0, L, 1):
            return False
    A = q.core_start
    B = A + len(q.core)
    lo, end = A - (SLIDES + 2) * L, B + (SLIDES + 3) * R - 2  # rows lo .. B+R-2
    vals = [q.value_at(i) for i in range(lo + 1, end)]
    rows = [_row(vals[k:]) for k in range(B + R - 1 - lo)]
    # rows[p - lo] holds t(p, p+1) .. t(p, end)
    top = B + R - 1  # rows from top on are certified
    for P0 in range(A - 1, A - 1 - (SLIDES + 1) * L, -L):
        if not all(climbs(rows[p - lo], max(B - p - 1, 0), R, 1)
                   for p in range(P0 - L + 1, top)):
            return False
        top = P0 - L + 1
        if all(climbs([a - b for a, b in zip(rows[p - L - lo][P0 - p + L:], rows[p - lo][P0 - p:])],
                      B - P0 - 1, R, 0) for p in range(P0 - L + 1, P0 + 1)):
            return True
    return False


def max_zero_gap(res) -> int:
    """Upper bound on the distance from any position of res to a nonzero one,
    read off the nonzero positions of two tail periods around the core."""
    w = res.left_period * 2 + res.core + res.right_period * 2
    nonzero = [-1, *compress(count(), w), len(w)]
    return max(map(sub, nonzero[1:], nonzero))


def max_zero_gap_loop(res) -> int:
    """Longest run of zeros over two copies of each tail period around the
    core, plus 1: the reference for max_zero_gap."""
    best = run = 0
    for v in res.left_period * 2 + res.core + res.right_period * 2:
        run = run + 1 if v == 0 else 0
        best = max(best, run)
    return best + 1


def trim_loop(left, core, right, start):
    """synthesis._trim as a value-by-value loop: primitive tails, core trimmed."""
    left, right, core = _primitive(left), _primitive(right), list(core)
    while core and left and core[0] == left[0]:
        core.pop(0)
        start += 1
        left = left[1:] + left[:1]
    while core and right and core[-1] == right[-1]:
        core.pop()
        right = right[-1:] + right[:-1]
    return left, tuple(core), right, start


def unimodular_ok(entry, lo: int, hi: int) -> bool:
    """Check every adjacent 2x2 minor of entry(i, j) over a square window."""
    for i in range(lo, hi):
        for j in range(lo, hi):
            det = entry(i, j) * entry(i + 1, j + 1) - entry(i, j + 1) * entry(i + 1, j)
            if det != 1:
                return False
    return True


def render_frieze_oracle(view: FriezeView, rows: tuple[int, int],
                         cols: tuple[int, int]) -> str:
    """render_frieze cell by cell: one FriezeView.entry per cell, every cell
    right-aligned to the widest string of the table, trailing blanks stripped."""
    (r_lo, r_hi), (c_lo, c_hi) = rows, cols
    table = [[""] + [f"({c})" for c in range(c_lo, c_hi + 1)]]
    for r in range(r_lo, r_hi + 1):
        table.append([f"({r})"] + [str(view.entry(r, c)) for c in range(c_lo, c_hi + 1)])
    width = max(len(cell) for row in table for cell in row)
    return "\n".join(" ".join(cell.rjust(width) for cell in row).rstrip()
                     for row in table) + "\n"


def chords_cross(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """Whether two chords of a polygon cross in the interior."""
    a, b = sorted(c1)
    c, d = sorted(c2)
    return (a < c < b < d) or (c < a < d < b)


def strip_rules_oracle(window: tuple[int, int], margin: int, m2, arcs) -> None:
    """The StripTriangulation checks arc by arc, as the constructor once ran them.

    Each arc is a pair of (boundary, index) points, read in the order given;
    an upper label is tested against the class one label at a time.
    """
    lo, hi = window
    if lo > hi:
        raise StripError("window lo must be <= hi")
    if margin < 0:
        raise StripError("margin must be >= 0")
    for arc in arcs:
        a, b = arc
        (a_end, i), (b_end, j) = a, b
        if not {a_end, b_end} <= {"L", "U"}:
            raise StripError(f"boundary must be 'L' or 'U': {arc}")
        if a_end == "U" == b_end:
            raise StripError("upper-upper arcs do not occur here")
        if a > b:
            raise StripError(f"arc endpoints must be sorted, lower first: {arc}")
        if b_end == "L" and j - i < 2:
            raise StripError("peripheral arcs must span at least 2 (shorter is contractible)")
        if b_end == "U" and not m2.contains_label(j):
            raise StripError(f"bridging arc to upper {j} outside class {m2}")


def strip_from_json_oracle(d):
    """serialize.strip_from_json as one loop body per arc entry.

    Every entry goes through the field and point checks, the smaller end
    first, and both pair lists are always sorted and deduplicated.
    """
    window = _int_list(_require(d, "window", "strip"), "strip.window")
    if len(window) != 2:
        raise SchemaError("strip.window: expected [lo, hi]")
    margin = _require(d, "margin", "strip")
    if not isinstance(margin, int) or isinstance(margin, bool):
        raise SchemaError("strip.margin: expected an integer")
    m2 = m2_from_str(_require(d, "m2_class", "strip"))
    raw = _require(d, "arcs", "strip")
    if not isinstance(raw, list):
        raise SchemaError("strip.arcs: expected a list")
    window, pairs = (window[0], window[1]), {"L": [], "U": []}
    try:
        for entry in raw:
            a = _point_from_json(_require(entry, "a", "strip.arcs[]"))
            b = _point_from_json(_require(entry, "b", "strip.arcs[]"))
            if b < a:
                a, b = b, a
            if a[0] != "L" or b[0] not in pairs:
                StripTriangulation(window, margin, m2, [Arc(MarkedPoint(*a), MarkedPoint(*b))])
            pairs[b[0]].append((a[1], b[1]))
        t = StripTriangulation.from_pairs(
            window, margin, m2, *(dict.fromkeys(sorted(p)) for p in pairs.values()))
        t.check_pairwise_noncrossing()
    except StripError as e:
        raise SchemaError(f"strip: {e}") from e
    return t


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


def maximality_reach_oracle(t) -> None:
    """StripTriangulation.check_window_maximality on a noncrossing strip, from
    reach tables and a walk over every j from each i.

    "Crosses nothing" is `cross` restated: a peripheral (i, j) is free when
    no lower point strictly inside it is a bridging foot, starts an arc ending
    beyond j or ends one starting before i; a bridging (i, u) is free when i
    lies strictly under no peripheral arc and u is at least every upper label
    of a foot left of i and at most every one right of i.  O(W^2 + W*U +
    A log A) for window width W, U materialized upper labels and A arcs.
    """
    lo, hi = t.window
    width = hi - lo + 1
    bridging_arcs = t.bridging_arcs
    feet = [i for i, _ in bridging_arcs]
    reach_right = [lo - 1] * width  # farthest end of an arc starting at p
    reach_left = [hi + 1] * width   # nearest start of an arc ending at p
    under = [0] * (width + 1)       # difference array: p strictly under an arc
    for i, j in t.peripheral_arcs:
        if lo <= i <= hi:
            reach_right[i - lo] = max(reach_right[i - lo], j)
        if lo <= j <= hi:
            reach_left[j - lo] = min(reach_left[j - lo], i)
        a, b = max(i + 1, lo), min(j - 1, hi)
        if a <= b:
            under[a - lo] += 1
            under[b - lo + 1] -= 1
    peripherals, footed = set(t.peripheral_arcs), set(feet)
    for i in range(lo, hi - 1):
        right, left = lo - 1, hi + 1
        for j in range(i + 2, hi + 1):
            p = j - 1 - lo
            right = max(right, reach_right[p])
            left = min(left, reach_left[p])
            if j - 1 in footed or left < i:
                break  # every longer candidate from i crosses the same arc
            if right <= j and (i, j) not in peripherals:
                raise StripError(f"window not maximal: {peripheral(i, j)} could be added")

    uppers = t.materialized_upper_labels()
    bridgings = set(bridging_arcs)
    labels = [u for _, u in bridging_arcs]
    before = [None, *accumulate(labels, max)]              # max label of feet [:k]
    after = [*accumulate(reversed(labels), min)][::-1] + [None]  # min label of feet [k:]
    covered = 0
    for i in range(lo, hi + 1):
        covered += under[i - lo]
        if covered:
            continue
        u_lo, u_hi = before[bisect_left(feet, i)], after[bisect_right(feet, i)]
        start = 0 if u_lo is None else bisect_left(uppers, u_lo)
        stop = len(uppers) if u_hi is None else bisect_right(uppers, u_hi)
        for u in uppers[start:stop]:
            if (i, u) not in bridgings:
                raise StripError(f"window not maximal: {bridging(i, u)} could be added")


def admissibility_oracle(t) -> bool:
    """StripTriangulation.is_admissible_window by testing every window pair."""
    lo, hi = t.window
    feet = [i for i, _ in t.bridging_arcs]
    return all(any(i <= m and n <= j for i, j in t.peripheral_arcs)
               or (feet and feet[0] <= m and feet[-1] >= n)
               for m in range(lo, hi) for n in range(m + 1, hi + 1))


def _is_edge(p: PolygonTriangulation, u: int, v: int) -> bool:
    return (u - v) % p.n in (1, p.n - 1) or tuple(sorted((u, v))) in p.chords


def faces_oracle(p: PolygonTriangulation) -> list[tuple[int, int, int]]:
    """PolygonTriangulation.faces by recursive splitting: the side (a, b) of a
    sub-polygon lies on one triangle, whose apex is found by testing edges."""
    out: list[tuple[int, int, int]] = []

    def split(ids: list[int]):
        if len(ids) < 3:
            return
        a, b = ids[0], ids[1]
        for k in range(2, len(ids)):
            c = ids[k]
            if _is_edge(p, a, c) and _is_edge(p, b, c):
                out.append(tuple(sorted((a, b, c))))
                split(ids[1:k + 1])
                split([ids[0]] + ids[k:])
                return
        raise AssertionError("no triangle on a boundary side")

    split(list(range(1, p.n + 1)))
    return sorted(out)


def cc_labels_oracle(p: PolygonTriangulation, a: int) -> dict[int, int]:
    """PolygonTriangulation.cc_labels by sweeping every face until all are labelled."""
    labels = {a: 0}
    for v in range(1, p.n + 1):
        if v != a and _is_edge(p, a, v):
            labels[v] = 1
    faces = faces_oracle(p)
    while len(labels) < p.n:
        progress = False
        for f in faces:
            known = [v for v in f if v in labels]
            if len(known) == 2:
                (x, y), (missing,) = known, [v for v in f if v not in labels]
                labels[missing] = labels[x] + labels[y]
                progress = True
        assert progress, "label propagation stalled"
    return labels


def bci_count_oracle(p: PolygonTriangulation, walk: list[int]) -> int:
    """PolygonTriangulation.bci_count on a valid walk, by backtracking over
    every choice of distinct faces."""
    if len(walk) == 1:
        return 0
    interior = walk[1:-1]
    faces = faces_oracle(p)
    incident = [[k for k, f in enumerate(faces) if v in f] for v in interior]
    used = [False] * len(faces)

    def count_from(pos: int) -> int:
        if pos == len(interior):
            return 1
        total = 0
        for k in incident[pos]:
            if not used[k]:
                used[k] = True
                total += count_from(pos + 1)
                used[k] = False
        return total

    return count_from(0)


def cut_polygon_oracle(t, i: int, j: int, route: str = "auto") -> PolygonCut:
    """A cut enclosing the stars of lower points i..j, by scanning every arc.

    Along the tightest peripheral arc over (i - 1, j + 1), or else between
    the nearest bridging arcs on each side; route forces one of the two.
    These were counting.cut_polygon's routes before the star cut: its counts
    must agree with theirs, and psi's margin is the smallest that holds this
    cut around the window.
    """
    if i > j:
        raise StripError("need i <= j")
    if route not in ("auto", "peripheral", "bridging"):
        raise StripError(f"unknown cut route {route!r}")
    over = [(x, y) for x, y in t.peripheral_arcs if x <= i - 1 and y >= j + 1]
    if route == "bridging":
        over = []
    if over:
        a0 = max(x for x, _ in over)
        b0 = min(y for x, y in over if x == a0)
        lower_map = {k: k - a0 + 1 for k in range(a0, b0 + 1)}
        chords = set()
        for x, y in t.peripheral_arcs:
            if a0 <= x and y <= b0 and (x, y) != (a0, b0):
                chords.add((lower_map[x], lower_map[y]))
        poly = PolygonTriangulation(b0 - a0 + 1, frozenset(chords))
        return PolygonCut(poly, lower_map, {})

    if route == "peripheral":
        raise CutError(f"no peripheral arc over ({i - 1}, {j + 1})")
    carriers = sorted({k for k, _ in t.bridging_arcs})
    left = [p for p in carriers if p <= i - 1]
    right = [q for q in carriers if q >= j + 1]
    if not left or not right:
        raise CutError(
            f"no peripheral arc over ({i - 1}, {j + 1}) and no flanking bridging "
            "arcs in the materialized region")
    p, q = left[-1], right[0]
    u = max(w for k, w in t.bridging_arcs if k == p)
    v = min(w for k, w in t.bridging_arcs if k == q)
    if u > v:
        raise StripError("flanking bridging arcs cross; triangulation is corrupt")
    n_low = q - p + 1
    lower_map = {k: k - p + 1 for k in range(p, q + 1)}
    upper_map = {w: n_low + (v - w) + 1 for w in range(u, v + 1)}
    n = n_low + (v - u + 1)
    chords = set()
    for x, y in t.peripheral_arcs:
        if p <= x and y <= q:
            chords.add((lower_map[x], lower_map[y]))
    for k, w in t.bridging_arcs:
        if p <= k <= q and u <= w <= v and (k, w) not in ((p, u), (q, v)):
            chords.add(tuple(sorted((lower_map[k], upper_map[w]))))
    if len(chords) != n - 3:
        raise CutError(
            f"cut region has {len(chords)} chords but needs {n - 3}; "
            "the strip does not materialize this cut completely")
    poly = PolygonTriangulation(n, frozenset(chords))
    return PolygonCut(poly, lower_map, upper_map)


def star_cut_oracle(t, i: int, j: int) -> PolygonCut:
    """The star cut of lower points i..j by relabelling and the polygon constructor.

    Its corners are i-1..j+1 and the far ends of the arcs at i..j (the lower
    ones ascending, then the upper ones descending); every side off the
    lower path must be a boundary segment or a materialized arc, and the
    arcs at i..j, relabelled, must be the n - 3 noncrossing chords of the
    polygon, else CutError.  This was counting.cut_polygon before the cut's
    faces came off the fans: star_faces must raise exactly where it does and
    keep its faces.
    """
    if i > j:
        raise StripError("need i <= j")
    per, bri = t.peripheral_arcs, t.bridging_arcs
    starting = [(x, y) for x, y in per if i <= x <= j]
    ending = [(x, y) for x, y in per if i <= y <= j]
    footed = [(k, u) for k, u in bri if i <= k <= j]
    left = sorted({x for x, _ in ending if x < i - 1})
    right = sorted({y for _, y in starting if y > j + 1})
    upper = sorted({u for _, u in footed})
    first, last = (left or [i - 1])[0], (right or [j + 1])[-1]
    if upper:
        closed = (last, upper[-1]) in bri and (first, upper[0]) in bri
    else:
        closed = (first, last) in per
    lower_sides = [*zip(left, [*left[1:], i - 1]), *zip([j + 1, *right], right)]
    if not (closed and all(b == a + 1 or (a, b) in per for a, b in lower_sides)
            and all(v == u + 1 for u, v in zip(upper, upper[1:]))):
        raise CutError(f"a side of the star cut of {i}..{j} is not a materialized arc")
    lower_map = {x: k for k, x in enumerate([*left, *range(i - 1, j + 2), *right], 1)}
    top = len(lower_map) + len(upper)
    upper_map = {u: top - k for k, u in enumerate(upper)}
    chords = {(lower_map[x], lower_map[y]) for x, y in (*starting, *ending)}
    chords |= {(lower_map[k], upper_map[u]) for k, u in footed}
    try:
        poly = PolygonTriangulation(top, frozenset(chords))
    except PolygonError as e:
        raise CutError(f"the star cut of {i}..{j} is not complete: {e}") from e
    return PolygonCut(poly, lower_map, upper_map)


def footprint(res) -> tuple[int, int]:
    """Index range holding the core plus one period of each tail."""
    return (res.core_start - len(res.left_period),
            res.core_start + len(res.core) + len(res.right_period) - 1)


def scan(res, i: int, step: int, bound: int, above: int = 0) -> int | None:
    """First j past i in direction step (+1 or -1), up to bound inclusive,
    whose value exceeds above; None when there is none."""
    for j in range(i + step, bound + step, step):
        if res.value_at(j) > above:
            return j
    return None


def next_nonzero(res, i: int) -> int | None:
    # one whole right period past both the footprint and i
    R = len(res.right_period)
    return scan(res, i, 1, max(footprint(res)[1], i + R) + R + 1)


def prev_nonzero(res, i: int) -> int | None:
    L = len(res.left_period)
    return scan(res, i, -1, min(footprint(res)[0], i - L) - L - 1)


def step_b_walk(res, window: tuple[int, int], mat_lo: int, mat_hi: int,
                anchor: int | None = None) -> StepBResult:
    """synthesis.step_b by walking the fountain from the anchor.

    Fans are planted position by position out to the closed end of each
    terminating side, on temporary coordinates, and labeled once all are
    known: by rank in a finite class, from the closed end of a half line,
    and from the anchor fan's leftmost point on a bi-infinite boundary.  Arcs
    are recorded at lower indices in [mat_lo, mat_hi] and on to those ends.
    """
    if res.has_value(1):
        raise QuiddityError("phase B requires a residual with no 1s")
    right_inf = any(v > 2 for v in res.right_period)
    left_inf = any(v > 2 for v in res.left_period)
    b1_term, b2_term = not right_inf, not left_inf
    f_lo, f_hi = footprint(res)
    n_value = 1 + sum(v - 2 for v in res.values(f_lo, f_hi) if v > 2)
    # a side whose tail holds a value > 2 runs its fountain forever
    m2 = {(True, True): m2_finite(n_value), (True, False): M2_NAT_LEFT,
          (False, True): M2_NAT_RIGHT, (False, False): M2_BI_INFINITE}[b1_term, b2_term]

    lo, hi = window
    mid = (lo + hi) // 2
    given = anchor
    if anchor is None:
        anchor = scan(res, mid - 1, 1, max(mid, f_hi) + len(res.right_period), above=2)
        if anchor is None:
            anchor = scan(res, mid, -1, min(mid, f_lo) - len(res.left_period), above=2)
    elif res.value_at(anchor) <= 2:
        raise QuiddityError(f"anchor {anchor} does not have residual value > 2")

    arcs: list[tuple[int, int]] = []  # (lower index, upper temp position)
    if anchor is None:
        # every position is 0 or 2: a single upper point serves them all
        arcs += [(i, 0) for i in range(mat_lo, mat_hi + 1) if res.value_at(i) == 2]
        labels = {0: 1}
    else:
        stop_lo = min(mat_lo, f_lo - len(res.left_period)) if b2_term else mat_lo
        stop_hi = max(mat_hi, f_hi + len(res.right_period)) if b1_term else mat_hi
        v0 = res.value_at(anchor)
        temps = list(range(v0 - 1))
        if stop_lo <= anchor <= stop_hi:
            arcs += [(anchor, t) for t in temps]

        def grow(step: int, edge: int, fresh_at: int, stop: int) -> None:
            pos = anchor
            while (nxt := scan(res, pos, step, stop, above=2)) is not None:
                arcs.extend((i, edge) for i in range(pos + step, nxt, step)
                            if mat_lo <= i <= mat_hi and res.value_at(i) == 2)
                fresh = list(range(fresh_at, fresh_at + step * (res.value_at(nxt) - 2), step))
                temps.extend(fresh)
                if stop_lo <= nxt <= stop_hi:
                    arcs.extend((nxt, t) for t in (edge, *fresh))
                edge, fresh_at, pos = fresh[-1], fresh[-1] + step, nxt
            end = mat_hi if step > 0 else mat_lo
            arcs.extend((i, edge) for i in range(pos + step, end + step, step)
                        if res.value_at(i) == 2)

        grow(1, v0 - 2, v0 - 1, stop_hi)
        grow(-1, 0, -1, stop_lo)

        temps_sorted = sorted(set(temps))
        if m2.kind == "finite":
            if len(temps_sorted) != n_value:
                raise AssertionError("upper point count disagrees with 1 + sum of excesses")
            labels = {t: r + 1 for r, t in enumerate(temps_sorted)}
        elif m2.kind == "nat_left":
            labels = {t: t - temps_sorted[-1] for t in temps_sorted}
        elif m2.kind == "nat_right":
            labels = {t: t - temps_sorted[0] for t in temps_sorted}
        else:
            labels = {t: t + 1 for t in temps_sorted}

    final_arcs = tuple(sorted({(i, labels[t]) for i, t in arcs}))
    # the walk starts from an anchor in every class; only bi_infinite reports it
    return StepBResult(final_arcs, anchor if m2 == M2_BI_INFINITE else given, m2)


def sweep(vals: list[int], base: int, lo: int, hi: int) -> tuple[list[int], list]:
    """One phase-A pass over lo..hi, read off dense values: vals[k] is the
    value at base + k, out to every nearest nonzero neighbour of lo..hi.

    Returns the values on lo..hi after the pass, and each 1 there with its
    arc (p, n) between its nearest nonzero neighbours.  Raises QuiddityError,
    with the library's messages, at the first position of lo..hi that trips
    a pass rule.
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
                raise QuiddityError(
                    f"residual 2 at {i} lies between two 1s; "
                    "the input is not the quiddity sequence of an infinite frieze")
            new[i - lo] -= (a == 1) + (b == 1)
    return new, ones


def dense_pass_arcs(res, lo: int, hi: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The 1s in lo..hi and the arcs meeting lo..hi of one pass, by one sweep
    over the 1s within max_zero_gap + 1 of lo..hi."""
    gap = max_zero_gap(res)
    base = lo - 2 * gap - 1
    _, found = sweep(res.values(base, hi + 2 * gap + 1), base, lo - gap - 1, hi + gap + 1)
    return ([i for i, _ in found if lo <= i <= hi],
            [(p, n) for _, (p, n) in found if n >= lo and p <= hi])


def dense_step_a_pass(res) -> Residual:
    """One pass as a dense descriptor rewrite: one sweep over the core and two
    period copies per side; the outermost copies see pure tail context and
    become the new periods, which a sweep over three copies confirms."""
    L, R = len(res.left_period), len(res.right_period)
    w_lo, w_hi = res.core_start - 2 * L, res.core_start + len(res.core) + 2 * R - 1
    gap = max_zero_gap(res)
    new, _ = sweep(res.values(w_lo - gap, w_hi + gap), w_lo - gap, w_lo, w_hi)
    left, core, right = new[:L], new[L:len(new) - R], new[len(new) - R:]
    for period, got in ((res.left_period, left), (res.right_period, right)):
        if got != sweep(list(period) * 3, -len(period), 0, len(period) - 1)[0]:
            raise AssertionError("tail rewrite deviated from its periodic context")
    # a pass that trips no rule still refuses a core edge 1 facing a tail
    # whose nonzero values are all 2
    nonzero = list(compress(count(res.core_start), res.core))
    for i, period in ((nonzero[:1], res.left_period), (nonzero[-1:], res.right_period)):
        if i and res.value_at(i[0]) == 1 and 2 in period and set(period) <= {0, 2}:
            raise QuiddityError(
                f"residual 1 at {i[0]} starts a fan into a tail of 2s, which no "
                "finite value closes; the input is not the quiddity sequence "
                "of an infinite frieze")
    return normalize(Residual(left, core, right, w_lo + L))


@dataclass(frozen=True)
class DensePassRecord:
    index: int
    ones: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]
    residual_after: Residual


@dataclass(frozen=True)
class DenseStepAResult:
    verdict: str
    passes: int
    residual: Residual
    arcs: tuple[tuple[int, int], ...]
    trace: tuple[DensePassRecord, ...]
    cut: tuple[int, int]
    detected_at: int | None


class PassBoundError(RuntimeError):
    """A dense phase-A oracle reached its own pass bound before it ended."""


def dense_run_step_a(q, mat_lo: int, mat_hi: int, bound: int = 2000) -> DenseStepAResult:
    """synthesis.run_step_a over dense residuals: every pass rewrites the whole
    core and is kept, recurrence is checked on every collapsed signature,
    the cut is found by bisect over the kept residuals, and each pass's 1s
    and arcs are swept again over the cut.  A run still going after bound
    passes raises PassBoundError, as every pass costs the whole core."""
    res = normalize(q)
    seen = {collapsed_signature(res)}
    residuals = [res]
    detected = None
    while True:
        k = len(residuals) - 1
        verdict = ("terminated" if not res.has_value(1)
                   else "nonterminating" if detected is not None
                   and not any(res.values(mat_lo, mat_hi)) else None)
        if verdict:
            break
        if k >= bound:
            raise PassBoundError(f"dense phase A still running after {bound} passes")
        res = dense_step_a_pass(res)
        residuals.append(res)
        if detected is None:
            sig = collapsed_signature(res)
            detected = k + 1 if sig in seen else None
            seen.add(sig)
    zeroed = bisect_left(residuals, True,
                         key=lambda r: not any(r.values(mat_lo + 1, mat_hi - 1)))
    at = residuals[min(zeroed, k)]
    cut = prev_nonzero(at, mat_lo + 1), next_nonzero(at, mat_hi - 1)
    trace, arcs = [], []
    for i, (before, after) in enumerate(zip(residuals, residuals[1:])):
        ones, new_arcs = dense_pass_arcs(before, *cut)
        arcs += new_arcs
        trace.append(DensePassRecord(i, tuple(ones), tuple(new_arcs), after))
    return DenseStepAResult(verdict, k, res, tuple(sorted(arcs)), tuple(trace), cut, detected)


def step_a_scanning_arcs(q, mat_lo: int, mat_hi: int, bound: int = 2000):
    """Phase A as synthesis.run_step_a runs it, with a two-clause stop rule.

    Each pass records the arcs that dense_pass_arcs finds over mat_lo..mat_hi; a
    recurring run stops once that range is zero and a recorded arc (a, b)
    has a <= mat_lo and mat_hi <= b.  Returns the pass count, the recorded
    arcs and the final residual; PassBoundError after bound passes.
    """
    res = normalize(q)
    seen = {collapsed_signature(res)}
    arcs: list[tuple[int, int]] = []
    detected = False
    passes = 0
    while res.has_value(1):
        if passes >= bound:
            raise PassBoundError(f"scanning phase A still running after {bound} passes")
        if detected and not any(res.values(mat_lo, mat_hi)) \
                and any(a <= mat_lo and mat_hi <= b for a, b in arcs):
            break
        arcs += dense_pass_arcs(res, mat_lo, mat_hi)[1]
        res = dense_step_a_pass(res)
        passes += 1
        sig = collapsed_signature(res)
        detected = detected or sig in seen
        seen.add(sig)
    return passes, arcs, res


def cut_region(arcs, res, lo: int, hi: int) -> tuple[int, int]:
    """Lower span of the polygon cut_polygon_oracle cuts around lo-1..hi+1.

    The tightest arc over (lo - 2, hi + 2), final once recorded as no later
    arc ends strictly inside an earlier one; failing that, the nearest
    bridging arcs, which sit at the nearest nonzero positions of the final
    residual res.
    """
    over = [(i, j) for i, j in arcs if i <= lo - 2 and hi + 2 <= j]
    if over:
        return max(over, key=lambda arc: (arc[0], -arc[1]))
    return prev_nonzero(res, lo - 1), next_nonzero(res, hi + 1)


def enough_ones_two_step(q, window: tuple[int, int], depth: int = 16):
    """(status, witness) of frieze.has_enough_ones by searching entries.

    Each window pair (i, j), j >= i + 2, is covered when some t(s, e) = 1
    with i - depth <= s <= i and j <= e <= j + depth.  Pairs left uncovered
    are re-checked against every peripheral arc of psi's strip, which holds
    the 1-entries over window pairs; the first pair (i, then j) under none
    is the witness.
    """
    t = FriezeView(q)
    lo, hi = window

    def covered(i: int, j: int) -> bool:
        return any(t.entry(s, e) == 1 for s in range(i, i - depth - 1, -1)
                   for e in range(max(j, s + 2), j + depth + 1))

    uncovered = [(i, j) for i in range(lo, hi + 1)
                 for j in range(i + 2, hi + 1) if not covered(i, j)]
    if not uncovered:
        return "yes", None
    arcs = psi(q, window).triangulation.peripheral_arcs
    for m, n in uncovered:
        if not any(i <= m and n <= j for i, j in arcs):
            return "no", (m, n)
    return "yes", None
