"""Independent output oracles for the benchmark.

Nothing here imports the library.  Descriptors are plain dicts in the
library's JSON quiddity format ({"left_period", "core", "right_period",
"core_start"}), and frieze entries are recomputed from the quiddity values by
2x2 matrix products, jumping over whole tail periods by matrix powers, so a
check costs O(log distance) multiplications and shares no code path with
FriezeView, validate or the polygon counting it checks.
"""

from __future__ import annotations


def desc(left, core, right, start=0) -> dict:
    return {"left_period": list(left), "core": list(core),
            "right_period": list(right), "core_start": start}


def shifted(d: dict, n: int) -> dict:
    """The descriptor translated by n: value(shifted(d, n), i) == value(d, i - n)."""
    return {**d, "core_start": d["core_start"] + n}


def value(d: dict, i: int) -> int:
    left, core, right, start = (d["left_period"], d["core"], d["right_period"],
                                d["core_start"])
    if i < start:
        return left[(i - start) % len(left)]
    if i < start + len(core):
        return core[i - start]
    return right[(i - start - len(core)) % len(right)]


def _mul(x, y):
    (a, b), (c, e) = x
    (p, q), (r, s) = y
    return ((a * p + b * r, a * q + b * s), (c * p + e * r, c * q + e * s))


_ID = ((1, 0), (0, 1))


def _power(m, n: int):
    out = _ID
    while n:
        if n & 1:
            out = _mul(m, out)
        m = _mul(m, m)
        n >>= 1
    return out


def _step(a: int):
    # (t(p, k+1), t(p, k)) = [[a_k, -1], [1, 0]] (t(p, k), t(p, k-1))
    return ((a, -1), (1, 0))


def _product(d: dict, lo: int, hi: int):
    """Matrix for applying the steps k = lo..hi in increasing order."""
    start = d["core_start"]
    end = start + len(d["core"])  # first index of the right tail
    m = _ID
    k = lo
    while k <= hi:
        if k < start or k >= end:
            period = len(d["left_period"]) if k < start else len(d["right_period"])
            seg_hi = min(hi, start - 1) if k < start else hi
            full = (seg_hi - k + 1) // period
            if full >= 2:
                one = _ID
                for j in range(k, k + period):
                    one = _mul(_step(value(d, j)), one)
                m = _mul(_power(one, full), m)
                k += full * period
                continue
        m = _mul(_step(value(d, k)), m)
        k += 1
    return m


def entry(d: dict, p: int, q: int) -> int:
    """t(p, q) of the infinite frieze with quiddity d (antisymmetric)."""
    if p == q:
        return 0
    if p > q:
        return -entry(d, q, p)
    m = _product(d, p + 1, q - 1)
    return m[0][0]  # applied to (t(p, p+1), t(p, p)) = (1, 0)


def fib(n: int) -> int:
    """Fibonacci number F_n (F_0 = 0, F_1 = 1), by fast doubling."""
    def pair(k: int) -> tuple[int, int]:
        if k == 0:
            return 0, 1
        a, b = pair(k >> 1)
        c = a * (2 * b - a)
        e = a * a + b * b
        return (e, c + e) if k & 1 else (c, e)
    return pair(n)[0]


def closed_form(d: dict, p: int, q: int) -> int | None:
    """t(p, q) in closed form for the constant friezes that have one."""
    if d["core"] or d["left_period"] != d["right_period"] or len(d["left_period"]) != 1:
        return None
    c = d["left_period"][0]
    if c == 2:
        return q - p
    if c == 3:
        return fib(2 * (q - p)) if q >= p else -fib(2 * (p - q))
    return None


def expected_entry(d: dict, p: int, q: int) -> int:
    """Oracle value of t(p, q); raises if the closed form and the product disagree."""
    t = entry(d, p, q)
    c = closed_form(d, p, q)
    if c is not None and c != t:
        raise AssertionError(f"oracle disagrees with closed form at ({p}, {q})")
    return t


def positive_to_depth(d: dict, depth: int) -> bool:
    """Whether every t(i, j) with 0 < j - i <= depth is >= 1.

    Rows far enough into a tail repeat with the tail period, so rows from one
    tail period plus depth left of the core to one period right of it cover
    every band position.
    """
    lo = d["core_start"] - depth - len(d["left_period"])
    hi = d["core_start"] + len(d["core"]) + len(d["right_period"]) + 1
    for i in range(lo, hi + 1):
        prev, cur = 0, 1
        for k in range(i + 1, i + depth):
            prev, cur = cur, value(d, k) * cur - prev
            if cur < 1:
                return False
    return True


def tail_class(d: dict) -> str:
    """Upper index class of a descriptor whose tails are (2,) or (3,).

    Such tails hold no 1, so phase A only rewrites the finite core region and
    terminates; phase B's fountain then runs forever exactly on the sides
    whose tail value exceeds 2.
    """
    left_inf = d["left_period"] == [3]
    right_inf = d["right_period"] == [3]
    return {(False, False): "finite", (True, False): "nat_left",
            (False, True): "nat_right", (True, True): "bi_infinite"}[(left_inf, right_inf)]


def strip_degrees(doc: dict) -> tuple[dict[int, int], int]:
    """Lower-point arc degrees and the number of bridging arcs of a strip JSON doc."""
    deg: dict[int, int] = {}
    bridging = 0
    for arc in doc["arcs"]:
        ends = (arc["a"], arc["b"])
        for boundary, index in ends:
            if boundary == "L":
                deg[index] = deg.get(index, 0) + 1
        if any(boundary == "U" for boundary, _ in ends):
            bridging += 1
    return deg, bridging


def phi_mismatch(doc: dict, d: dict) -> str | None:
    """Where 1 + lower degree differs from the quiddity over the strip window."""
    lo, hi = doc["window"]
    deg, _ = strip_degrees(doc)
    for i in range(lo, hi + 1):
        if 1 + deg.get(i, 0) != value(d, i):
            return f"phi({i}) = {1 + deg.get(i, 0)}, quiddity {value(d, i)}"
    return None


def shift_strip(doc: dict, n: int) -> dict:
    """A strip JSON doc with every lower index translated by n."""
    def point(p):
        return [p[0], p[1] + n] if p[0] == "L" else list(p)
    lo, hi = doc["window"]
    return {"window": [lo + n, hi + n], "margin": doc["margin"],
            "m2_class": doc["m2_class"],
            "arcs": [{"a": point(a["a"]), "b": point(a["b"])} for a in doc["arcs"]]}
