"""Randomized property checks: the heavier cross-cutting invariants."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from friezes import (FriezeView, M2Class, QuiddityDescriptor, QuiddityError,
                     StripError, StripTriangulation, bridging, cross, has_enough_ones,
                     peripheral, psi, run_step_a, step_b, validate)
from friezes.serialize import strip_dumps, strip_from_json, strip_to_json

import refdata
from corpus import bijection_corpus, enough_ones_corpus, log_offset, random_corpus
from oracles import (cut_region, det_bareiss, enough_ones_two_step, maximality_oracle,
                     maximality_reach_oracle, noncrossing_oracle, step_a_scanning_arcs,
                     step_b_walk, transfer_entry, tridiagonal_matrix)


def _random_descriptor(rng: random.Random) -> QuiddityDescriptor:
    def tail():
        length = rng.randint(1, 3)
        return tuple(rng.randint(1, 6) for _ in range(length))

    while True:
        try:
            return QuiddityDescriptor(tail(),
                                      tuple(rng.randint(1, 6)
                                            for _ in range(rng.randint(0, 5))),
                                      tail(), rng.randint(-3, 3))
        except QuiddityError:
            continue


def _brute_force_validity(q: QuiddityDescriptor, depth: int) -> tuple[bool, tuple | None]:
    """Positivity by scanning a window wide enough to cover all tail phases."""
    view = FriezeView(q)
    core_end = q.core_start + len(q.core) - 1
    lo = q.core_start - depth - 3 * len(q.left_period)
    hi = core_end + depth + 3 * len(q.right_period)
    for d in range(2, depth + 1):
        for i in range(lo, hi + 1):
            value = view.entry(i, i + d)
            if value <= 0:
                return False, (d, value)
    return True, None


def test_validate_agrees_with_brute_force_scan():
    rng = random.Random(7321)
    depth = 12
    seen_invalid = 0
    for _ in range(120):
        q = _random_descriptor(rng)
        report = validate(q, depth)
        ok, info = _brute_force_validity(q, depth)
        assert report.ok == ok, q
        if not ok:
            seen_invalid += 1
            i, j, value = report.witness
            assert FriezeView(q).entry(i, j) == value
            assert value <= 0
            # band-major minimality: no violation in any smaller band
            assert j - i <= info[0]
    assert seen_invalid >= 10  # the sample really exercised both verdicts


def test_entry_and_continuant_match_transfer_matrix_oracle():
    rng = random.Random(8803)
    for _ in range(60):
        q = _random_descriptor(rng)
        view = FriezeView(q)  # shared, so later calls extend memoized rows
        for p in (rng.randint(-40, 40), rng.randint(-10**6, 10**6)):
            for dist in (rng.randint(61, 1999), 0, 1, 2, rng.randint(3, 60), 2000):
                want = transfer_entry(q, p, p + dist)
                assert view.entry(p, p + dist) == want, (q, p, dist)
                assert view.entry(p + dist, p) == -want
                if dist >= 2:
                    assert FriezeView(q).continuant(p, p + dist) == want


def test_validate_matches_determinant_oracle():
    rng = random.Random(4409)
    seen_invalid = 0
    for _ in range(80):
        q = _random_descriptor(rng)
        start, end = q.core_start, q.core_start + len(q.core)
        # every tail phase of every band up to 10 occurs among these rows
        rows = range(start - 10 - 2 * len(q.left_period), end + 2 * len(q.right_period))
        least = {d: min(det_bareiss(tridiagonal_matrix(q.values(i + 1, i + d - 1)))
                        for i in rows) for d in range(2, 11)}
        for depth in range(2, 11):
            report = validate(q, depth)
            bad = [d for d in range(2, depth + 1) if least[d] <= 0]
            assert report.ok == (not bad), (q, depth)
            if bad:
                seen_invalid += 1
                i, j, value = report.witness
                assert j - i == bad[0]  # no smaller band is nonpositive
                assert value == det_bareiss(tridiagonal_matrix(q.values(i + 1, j - 1)))
                assert value <= 0
    assert seen_invalid >= 100  # of 720 verdicts; both kinds occur


def test_validate_witness_entry_matches_frieze():
    q = QuiddityDescriptor((2,), (1, 6), (2,), core_start=0)
    report = validate(q)
    assert not report.ok
    i, j, value = report.witness
    assert FriezeView(q).entry(i, j) == value <= 0


def test_synthesis_translation_equivariance():
    rng = random.Random(991)
    corpus = bijection_corpus()[:12] + enough_ones_corpus()[:4]
    def normal(t, off):
        return ({("P", i - off, j - off) for i, j in t.peripheral_arcs}
                | {("B", i - off, u) for i, u in t.bridging_arcs})
    for q in corpus:
        base = psi(q, (-4, 4)).triangulation
        for n in (rng.randint(-5, 5), rng.randint(-1000, 1000)):
            moved = psi(q.shift(n), (-4 + n, 4 + n)).triangulation
            assert normal(base, 0) == normal(moved, n), (q, n)


def _mirror(q: QuiddityDescriptor) -> QuiddityDescriptor:
    """The reflected sequence: value a_{-i} at index i."""
    return QuiddityDescriptor(q.right_period[::-1], q.core[::-1], q.left_period[::-1],
                              -(q.core_start + len(q.core) - 1))


def test_synthesis_mirror_symmetry():
    """psi commutes with the reflection i -> -i of the strip.

    Peripheral arcs (i, j) become (-j, -i); the nat classes swap; upper
    labels reverse as u -> N + 1 - u (finite), u -> -u (nat), and up to a
    Dehn twist on a bi-infinite boundary.  The corpora take four windows
    near the core; random descriptors take one far window each, out to
    10^9 (100 for the empty class, whose window cut grows with the distance).
    """
    swap = {"nat_left": "nat_right", "nat_right": "nat_left"}
    seen = set()
    near = ((-4, 4), (1, 9), (-43, -37), (37, 43))
    cases = [(q, near) for q in bijection_corpus() + enough_ones_corpus()]
    rng = random.Random(5501)
    for q in random_corpus(90, seed=4421):
        reach = 100 if psi(q, (-4, 4)).m2_class.kind == "empty" else 10**9
        mid, hw = log_offset(rng, reach), rng.randint(2, 8)
        cases.append((q, ((mid - hw, mid + hw),)))
    for q, windows in cases:
        m = _mirror(q)
        assert [m.value_at(-i) for i in range(-9, 10)] == q.values(-9, 9)
        for lo, hi in windows:
            out, ref = psi(q, (lo, hi)), psi(m, (-hi, -lo))
            t, r = out.triangulation, ref.triangulation
            assert (ref.step_a_verdict, ref.step_a_passes, r.margin) == (
                out.step_a_verdict, out.step_a_passes, t.margin), (q, lo, hi)
            kind = out.m2_class.kind
            assert ref.m2_class == M2Class(swap.get(kind, kind), out.m2_class.size)
            assert ({(-j, -i) for i, j in t.peripheral_arcs}
                    == set(r.peripheral_arcs)), (q, lo, hi)
            top = out.m2_class.size + 1 if kind == "finite" else 0
            mapped = {(-i, top - u) for i, u in t.bridging_arcs}
            if kind == "bi_infinite":
                arcs = {peripheral(i, j) for i, j in r.peripheral_arcs}
                arcs |= {bridging(i, u) for i, u in mapped}
                twisted = StripTriangulation(r.window, r.margin, r.m2_class, frozenset(arcs))
                assert r.dehn_equivalent(twisted) is not None, (q, lo, hi)
            else:
                assert mapped == set(r.bridging_arcs), (q, lo, hi)
            seen.add(kind)
    assert seen == {"empty", "finite", "nat_left", "nat_right", "bi_infinite"}


def test_corpus_covers_all_reachable_classes():
    kinds = set()
    for q in bijection_corpus():
        kinds.add(psi(q, (-4, 4)).m2_class.kind)
    for q in enough_ones_corpus():
        kinds.add(psi(q, (-4, 4)).m2_class.kind)
    assert {"finite", "nat_left", "nat_right", "bi_infinite", "empty"} <= kinds


def test_strip_json_round_trip_bi_infinite_and_nat_right():
    for q in (QuiddityDescriptor.constant(3), QuiddityDescriptor((2,), (), (3,), 0)):
        tri = psi(q, (-4, 4)).triangulation
        assert strip_from_json(strip_to_json(tri)) == tri


def _assert_strip_dumps_canonical(t: StripTriangulation) -> None:
    doc = strip_to_json(t)
    assert doc["arcs"] == [{"a": list(a), "b": list(b)} for a, b in sorted(t.arcs)]
    text = strip_dumps(t)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n", t
    assert strip_from_json(json.loads(text)) == t


def test_strip_dumps_matches_generic_encoder():
    """The template formatter writes the generic encoder's bytes and parses back.

    Corpus strips at windows near the core and 10^3 away from it (real far
    windows where phase A answers there, and translated copies for every
    descriptor), plus hand-built strips: no arcs, one bridging arc, and
    indices near -10^9.
    """
    kinds, negative_labels = set(), 0
    for q in bijection_corpus() + enough_ones_corpus():
        near = psi(q, (-4, 4))
        strips = [near.triangulation, psi(q, (-16, 16)).triangulation]
        strips += [psi(q.shift(n), (-4 + n, 4 + n)).triangulation for n in (-1000, 1000)]
        if near.m2_class.kind != "empty":  # far empty-class cuts grow with the distance
            strips += [psi(q, w).triangulation for w in ((996, 1004), (-1004, -996))]
        for t in strips:
            _assert_strip_dumps_canonical(t)
            kinds.add((t.m2_class.kind, bool(t.arcs)))
            negative_labels += any(u < 0 for _, u in t.bridging_arcs)
    assert {kind for kind, _ in kinds} == {
        "empty", "finite", "nat_left", "nat_right", "bi_infinite"}, kinds
    assert ("empty", True) in kinds and negative_labels

    far = -10**9
    hand_built = [
        StripTriangulation((0, 3), 0, M2Class("empty"), frozenset()),
        StripTriangulation((-2, 2), 1, M2Class("bi_infinite"),
                           frozenset({bridging(0, 5)})),
        StripTriangulation((far, far + 4), 2, M2Class("bi_infinite"), frozenset({
            peripheral(far - 1, far + 1), peripheral(far + 1, far + 3),
            bridging(far + 1, far), bridging(far + 3, far), bridging(far + 3, far + 1)})),
    ]
    for t in hand_built:
        _assert_strip_dumps_canonical(t)


def test_foot_order_is_the_order_of_sorted_arcs():
    """foot_order splices runs of either side by bisection; on seeded random
    pair sets (crossing or not) arc_triples and strip_dumps must list the
    arcs as sorted(t.arcs) does: by foot, a peripheral arc first."""
    rng = random.Random(6113)
    seen = Counter()
    for _ in range(1500):
        base = rng.choice((0, -10**9, -10**9 - 3))
        feet = [base + rng.randint(-4, rng.choice((4, 40))) for _ in range(rng.randint(1, 8))]
        other = feet if rng.random() < 0.7 else [f + 41 for f in feet]  # shared feet or not
        per = sorted({(i, i + rng.randint(2, 40))
                      for i in rng.choices(feet, k=rng.choice((0, rng.randint(1, 30))))})
        bri = sorted({(i, rng.randint(-20, 20))
                      for i in rng.choices(other, k=rng.choice((0, rng.randint(1, 30))))})
        t = StripTriangulation.from_pairs((base, base), 0, M2Class("bi_infinite"), per, bri)
        want = [(a.index, b.boundary, b.index) for a, b in sorted(t.arcs)]
        assert list(t.arc_triples) == want, (per, bri)
        doc = {"window": [base, base], "margin": 0, "m2_class": "bi_infinite",
               "arcs": [{"a": ["L", i], "b": [end, j]} for i, end, j in want]}
        assert strip_dumps(t) == json.dumps(doc, indent=2, sort_keys=True) + "\n", (per, bri)
        seen["one side empty" if not (per and bri) else "both"] += 1
        seen["shared foot"] += bool({i for i, _ in per} & {i for i, _ in bri})
        seen["3+ peripheral at a foot"] += max(Counter(i for i, _ in per).values(), default=0) >= 3
        seen["near -10^9"] += base < 0
    assert min(seen.values()) >= 100 and len(seen) == 5, seen


def test_psi_hands_its_pairs_to_the_strip_unchecked_only_where_from_pairs_agrees():
    """psi builds its strip without from_pairs' span, order and label scans,
    as its pairs are sorted, spanning and in class by construction.  On the
    corpora near the core and 10^3 away, from_pairs of the same pairs accepts
    them and gives an equal strip with the same bytes; a window with lo > hi
    is still refused."""
    for q in bijection_corpus() + enough_ones_corpus():
        runs = [(q, (-4, 4)), (q, (-16, 16))]
        runs += [(q.shift(n), (n - 4, n + 4)) for n in (-1000, 1000)]
        if psi(q, (-4, 4)).m2_class.kind != "empty":  # far empty-class cuts grow with the distance
            runs += [(q, w) for w in ((996, 1004), (-1004, -996))]
        for p, window in runs:
            t = psi(p, window).triangulation
            ref = StripTriangulation.from_pairs(t.window, t.margin, t.m2_class,
                                                t.peripheral_arcs, t.bridging_arcs)
            assert ref == t and strip_dumps(ref) == strip_dumps(t), (q, window)
        with pytest.raises(StripError, match="lo must be <= hi"):
            psi(q, (1, -1))


def test_dehn_equivalent_rejects_class_mismatch():
    bi = psi(QuiddityDescriptor.constant(3), (-4, 4)).triangulation
    fin = psi(refdata.LINEAR, (-4, 4)).triangulation
    with pytest.raises(Exception):
        bi.dehn_equivalent(fin)


def test_enough_ones_tail_adjacent_to_core_one_is_invalid():
    # left tail ends ... 5, 1 and the core starts with 1: adjacent ones
    q = QuiddityDescriptor((5, 1), (1, 3), (1, 5), core_start=0)
    assert not validate(q).ok


def _strip_error(check) -> str | None:
    try:
        check()
    except StripError as e:
        return str(e)
    return None


def test_strip_checks_match_pairwise_oracles():
    """The sweep and table checks decide exactly as the all-pairs oracles.

    Over corpus strips at three windows and seeded perturbations of each
    (one arc dropped, one random peripheral or bridging arc added): the same
    noncrossing verdict, a named crossing pair that `cross` confirms, and the
    same maximality message (the first addable candidate), which on a
    crossing strip is the noncrossing check's message.
    """
    rng = random.Random(4099)
    seen = Counter()
    for q in bijection_corpus() + enough_ones_corpus():
        for window in ((-4, 4), (3, 9), (-8, 8)):
            base = psi(q, window).triangulation
            arcs = sorted(base.arcs)
            lo, hi = window[0] - base.margin, window[1] + base.margin
            labels = base.materialized_upper_labels()
            strips = [base]
            for _ in range(3):
                changed = set(arcs)
                draw = rng.randrange(3 if labels else 2)
                if draw == 0:
                    changed.discard(rng.choice(arcs))
                elif draw == 1:
                    i = rng.randint(lo, hi - 2)
                    changed.add(peripheral(i, rng.randint(i + 2, hi)))
                else:
                    changed.add(bridging(rng.randint(lo, hi), rng.choice(labels)))
                strips.append(StripTriangulation(base.window, base.margin, base.m2_class,
                                                 frozenset(changed)))
            for t in strips:
                crossing = _strip_error(t.check_pairwise_noncrossing)
                assert (crossing is None) == (_strip_error(lambda: noncrossing_oracle(t)) is None), t
                if crossing:
                    named = {str(arc): arc for arc in t.arcs}
                    x, y = (named[s] for s in crossing.removeprefix("arcs cross: ").split(" and "))
                    assert cross(x, y), crossing
                missing = _strip_error(t.check_window_maximality)
                assert missing == (crossing or _strip_error(lambda: maximality_oracle(t))), t
                seen[crossing is None, missing is None] += 1
    assert min(seen[True, True], seen[False, False], seen[True, False]) >= 100, seen


def test_maximality_matches_reach_oracle_on_wide_windows():
    """On zigzag at +-60..+-480 and constant 3 at +-1000, each with 0-3 arcs
    dropped from the window, the same message as the reach-table oracle
    (the all-pairs oracle is cubic at these widths)."""
    rng = random.Random(5171)
    seen = Counter()
    cases = [(refdata.ZIGZAG, w) for w in (60, 120, 240, 480)]
    cases.append((QuiddityDescriptor.constant(3), 1000))
    for q, w in cases:
        base = psi(q, (-w, w)).triangulation
        per = [arc for arc in base.peripheral_arcs if arc[1] >= -w and arc[0] <= w]
        bri = [arc for arc in base.bridging_arcs if -w <= arc[0] <= w]
        for dropped in range(4):
            gone = set(rng.sample(per + bri, dropped))
            t = StripTriangulation.from_pairs(
                base.window, base.margin, base.m2_class,
                [arc for arc in base.peripheral_arcs if arc not in gone],
                [arc for arc in base.bridging_arcs if arc not in gone])
            missing = _strip_error(t.check_window_maximality)
            assert missing == _strip_error(lambda: maximality_reach_oracle(t)), (w, gone)
            seen[missing is None] += 1
    assert seen[True] >= 5 and seen[False] >= 10, seen


def test_wider_window_soak():
    for q in bijection_corpus()[:6]:
        out = psi(q, (-8, 8))
        tri = out.triangulation
        assert tri.quiddity_of() == {i: q.value_at(i) for i in range(-8, 9)}
        tri.check_pairwise_noncrossing()
        assert tri.special_upper_points() == []


@pytest.mark.parametrize("q,window", [
    # excess values recur in a tail period: the fountain side never closes
    (QuiddityDescriptor((2,), (3,), (2, 4), core_start=0), (-5, 5)),
    # excess on both tails around a core that phase A must consume first
    (QuiddityDescriptor((3, 2), (6, 1, 5), (2, 3), core_start=-1), (-5, 5)),
    # window entirely inside a periodic tail, far from the core
    (QuiddityDescriptor((2,), (3,), (2, 4), core_start=0), (7, 13)),
    (QuiddityDescriptor((2,), (5, 2, 2, 3, 2, 4), (2,), core_start=-3), (6, 14)),
])
def test_synthesis_stress_cases(q, window):
    from friezes import bci_entry, cc_entry
    assert validate(q).ok
    out = psi(q, window)
    tri = out.triangulation
    lo, hi = window
    assert tri.quiddity_of() == {i: q.value_at(i) for i in range(lo, hi + 1)}
    assert tri.special_upper_points() == []
    tri.check_pairwise_noncrossing()
    tri.check_window_maximality()
    view = FriezeView(q)
    for i in range(lo, hi + 1):
        for j in range(i, min(i + 6, hi) + 1):
            want = view.entry(i, j)
            assert cc_entry(tri, i, j) == want == bci_entry(tri, i, j), (i, j)


def _array_pass(vals: list[int], lo: int):
    """Direct simultaneous pass on a materialized residual array at lo.

    Returns the new values, and each 1 with the arc (p, n) between its
    nearest nonzero neighbours (None past an array end).
    """
    n = len(vals)
    out, ones = [], []
    for k, v in enumerate(vals):
        j = k - 1
        while j >= 0 and vals[j] == 0:
            j -= 1
        m = k + 1
        while m < n and vals[m] == 0:
            m += 1
        if v == 1:
            ones.append((lo + k, (lo + j if j >= 0 else None, lo + m if m < n else None)))
        if v <= 1:
            out.append(0)
            continue
        out.append(v - (j >= 0 and vals[j] == 1) - (m < n and vals[m] == 1))
    return out, ones


def test_symbolic_pass_matches_array_pass():
    """The descriptor rewrite and the window arcs agree with brute force.

    Descriptors are drawn near index 0 and shifted by up to +-1000, the
    array moving with them.  The finite array is only a sound oracle while
    both tails keep a nonzero value: once a tail dies, nearest-nonzero scans
    reach the array edge and its truncation artifacts (such inputs are
    invalid quiddities anyway, and the rewrite rejects them once a 1 has an
    all-zero side).  Artifacts creep in from the array ends by a
    few positions per pass, so only the middle of the array is compared.
    """
    from friezes.synthesis import Residual, pass_arcs, step_a_pass
    from oracles import collapsed

    rng = random.Random(60901)
    big, mid, sound = 300, 40, 150
    compared = arcs_compared = 0
    for draw in range(90):
        shift = 0 if draw % 3 == 0 else rng.randint(-1000, 1000)
        q = _random_descriptor(rng).shift(shift)
        lo, hi = shift - mid, shift + mid
        res = Residual(**vars(q))
        vals = res.values(shift - big, shift + big)
        for _pass in range(6):
            try:
                after = step_a_pass(res)
            except QuiddityError:
                break  # a pass rule refuses the input
            ones, arcs = pass_arcs(res, lo, hi)
            res = after
            vals, want_ones = _array_pass(vals, shift - big)
            want_ones = [(i, pn) for i, pn in want_ones if abs(i - shift) <= sound]
            case = (q, _pass)
            assert ones == [i for i, _ in want_ones if lo <= i <= hi], case
            assert arcs == [(p, n) for _, (p, n) in want_ones if n >= lo and p <= hi], case
            arcs_compared += len(arcs)
            left, _, right = collapsed(res)
            if not left or not right:
                break
            assert res.values(lo, hi) == vals[big - mid:big + mid + 1], case
            compared += 1
    assert compared >= 100 and arcs_compared >= 400, (compared, arcs_compared)


def test_enough_ones_iff_empty_upper_boundary():
    """Every pair of an empty-class window lies under a peripheral arc of
    psi's strip; the windows of every other class have an uncovered pair."""
    rng = random.Random(4409)
    kinds = Counter()
    for q in bijection_corpus()[:10] + enough_ones_corpus() + random_corpus(40, seed=4421):
        for hw in (3, 6):
            mid = q.core_start + rng.randint(-20, 20)
            lo, hi = window = (mid - hw, mid + hw)
            out = psi(q, window)
            verdict = has_enough_ones(FriezeView(q), window).status
            kind = out.m2_class.kind
            assert (verdict == "yes") == (kind == "empty"), (q, window)
            if kind == "empty":
                arcs = out.triangulation.peripheral_arcs
                assert all(any(i <= m and n <= j for i, j in arcs)
                           for m in range(lo, hi - 1) for n in range(m + 2, hi + 1)), (q, window)
            kinds[kind == "empty"] += 1
    assert kinds[True] >= 4 and kinds[False] >= 40, kinds


def test_has_enough_ones_matches_two_step_search():
    """The synthesis-only decision agrees with the entry search plus strip
    check it replaced, verdict and witness, near the core of the corpora,
    random descriptors and a descriptor whose 1-entry t(0, 42) lies beyond
    the search depth."""
    rng = random.Random(6029)
    beyond = QuiddityDescriptor((3,), (43, 1) + (2,) * 40 + (4,), (3,))
    cases = [(beyond, w) for w in ((20, 22), (38, 40), (40, 46), (30, 50), (-4, 4))]
    for q in bijection_corpus() + enough_ones_corpus() + random_corpus(60, seed=6047):
        for hw in (2, 5):
            mid = q.core_start + rng.randint(-10, 10)
            cases.append((q, (mid - hw, mid + hw)))
    verdicts = Counter()
    for q, window in cases:
        got = has_enough_ones(FriezeView(q), window)
        assert (got.status, got.witness) == enough_ones_two_step(q, window), (q, window)
        verdicts[got.status] += 1
    assert verdicts["yes"] >= 6 and verdicts["no"] >= 100, verdicts


def test_finite_class_counts_every_upper_point():
    q = QuiddityDescriptor((2,), (5, 2, 2, 3, 2, 4), (2,), core_start=-3)
    out = psi(q, (-6, 6))
    assert out.m2_class.kind == "finite"
    assert out.m2_class.size == 1 + (5 - 2) + (3 - 2) + (4 - 2)
    used = {u for _, u in out.triangulation.bridging_arcs}
    assert used == set(range(1, out.m2_class.size + 1))


def _cut_shape(res, r_lo: int, r_hi: int) -> list[str]:
    """Which pieces of the residual the cut r_lo..r_hi holds, and whether a
    tail period of the residual holds a zero."""
    L, R = len(res.left_period), len(res.right_period)
    cs, ce = res.core_start, res.core_start + len(res.core)
    ln, rn = max(min(r_hi + 1, cs) - r_lo, 0), max(r_hi + 1 - max(r_lo, ce), 0)
    return [name for name, hit in (
        ("two whole periods per side", ln >= 2 * L and rn >= 2 * R),
        ("partial left period", ln % L), ("partial right period", rn % R),
        ("cut end in the core", cs <= r_lo < ce or cs <= r_hi < ce),
        ("zero in a tail period", 0 in res.left_period + res.right_period)) if hit]


def test_step_b_matches_walking_oracle():
    """step_b's prefix sums equal the walking fountain on the window's cut.

    Corpora plus random descriptors with 1-bearing tails.  Narrow windows
    have half-width 0..12, near the core or at offsets up to +-3000.  Wide
    ones have half-width 64..300, at offsets up to +-3000 or with one end
    inside the core, and each is shifted through every phase of both tail
    periods.  So the cuts hold two or more whole periods per side, partial
    periods at either end, or end inside the core, and some residuals have
    zeros inside a tail period.  Anchors: the default and explicit ones
    within 150 of the window, inside and outside the cut.  The walk also
    records fans beyond the cut, so its arcs are compared on the cut's
    lower indices only.
    """
    rng = random.Random(6151)
    seen, shapes = Counter(), Counter()
    cases = []
    for q in bijection_corpus() + enough_ones_corpus() + random_corpus():
        if run_step_a(q, -2, 2).verdict != "terminated":
            continue  # phase B never runs
        for _ in range(4):
            hw = rng.randint(0, 12)
            cases.append((q, hw, rng.choice((rng.randint(-20, 20), rng.randint(-3000, 3000)))))
        if rng.random() < 0.4:
            hw = rng.randint(64, 300)
            end = q.core_start + rng.randint(0, len(q.core))
            mid = rng.choice((rng.randint(-3000, 3000), end + hw, end - hw))
            phases = len(q.left_period) * len(q.right_period)
            cases += [(q, hw, mid + k) for k in range(phases)]
    for q, hw, mid in cases:
        lo, hi = mid - hw, mid + hw
        a = run_step_a(q, lo - 2, hi + 2)
        r_lo, r_hi = a.cut
        res = a.residual
        excess_at = [p for p, v in enumerate(res.values(lo - 150, hi + 150), lo - 150) if v > 2]
        inside = [p for p in excess_at if r_lo <= p <= r_hi]
        outside = [p for p in excess_at if not r_lo <= p <= r_hi]
        anchors = [None] + [rng.choice(ps) for ps in (inside, outside) if ps]
        for anchor in anchors:
            got = step_b(res, (lo, hi), r_lo, r_hi, anchor)
            want = step_b_walk(res, (lo, hi), r_lo, r_hi, anchor)
            case = (q, lo, hi, anchor)
            assert got.bridging_arcs == tuple(
                (i, u) for i, u in want.bridging_arcs if r_lo <= i <= r_hi), case
            assert (got.m2, got.anchor) == (want.m2, want.anchor), case
            seen[got.m2.kind] += 1
            seen["explicit anchor" if anchor is not None else "default anchor"] += 1
        if hw >= 64:
            shapes.update(_cut_shape(res, r_lo, r_hi))
    assert min(seen.values()) >= 50 and len(seen) == 6, seen
    assert shapes["two whole periods per side"] >= 50 and min(shapes.values()) >= 20 \
        and len(shapes) == 5, shapes


def test_cut_read_off_the_residuals_matches_the_arc_scan():
    """run_step_a's cut, read off its residuals, is the tightest arc over the
    range that an arc-scanning run records, or else its fallback; and
    stopping once the range is zero takes as many passes as also waiting
    for a recorded arc to span it.

    Corpora windows of half-width 0..12 near the core or at offsets up to
    +-300, and empty-class windows of half-width 0..256 at offsets up to
    +-300, where the stop rule decides the pass count.
    """
    rng = random.Random(7727)
    empty = [refdata.ZIGZAG, QuiddityDescriptor((5, 1), (3, 2), (1, 5), core_start=-1),
             QuiddityDescriptor((3,), (1, 2), (3,), core_start=-1)]
    cases = [(q, rng.randint(0, 12), rng.choice((rng.randint(-20, 20), rng.randint(-300, 300))))
             for q in bijection_corpus() + enough_ones_corpus() + random_corpus()]
    cases += [(rng.choice(empty), rng.choice((rng.randint(0, 16), rng.randint(0, 256))),
               rng.randint(-300, 300)) for _ in range(12)]
    verdicts = Counter()
    for q, hw, mid in cases:
        lo, hi = mid - hw, mid + hw
        a = run_step_a(q, lo - 2, hi + 2)
        passes, arcs, res = step_a_scanning_arcs(q, lo - 2, hi + 2)
        case = (q, lo, hi)
        assert a.passes == passes, case
        if a.verdict != "cap_reached":
            assert a.cut == cut_region(arcs, res, lo, hi), case
            assert set(arcs) <= set(a.arcs), case
        verdicts[a.verdict] += 1
    assert verdicts["nonterminating"] >= 12 and verdicts["terminated"] >= 100, verdicts
