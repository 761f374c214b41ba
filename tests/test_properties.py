"""Randomized property checks: the heavier cross-cutting invariants."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from friezes import (FriezeView, M2Class, QuiddityDescriptor, QuiddityError,
                     StripError, StripTriangulation, bridging, cross, peripheral,
                     psi, run_step_a, step_b, validate)
from friezes.serialize import strip_dumps, strip_from_json, strip_to_json
from friezes.synthesis import _cut_region

import refdata
from corpus import bijection_corpus, enough_ones_corpus, log_offset, random_corpus
from oracles import (det_bareiss, maximality_oracle, noncrossing_oracle, step_b_walk,
                     transfer_entry, tridiagonal_matrix)


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
    10^9 (100 for the empty class, whose pass cap bounds the distance).
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
        if near.m2_class.kind != "empty":  # far empty-class windows exhaust the pass cap
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
    same maximality message (the first addable candidate).
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
                assert missing == _strip_error(lambda: maximality_oracle(t)), t
                seen[crossing is None, missing is None] += 1
    assert min(seen[True, True], seen[False, True], seen[True, False]) >= 100, seen


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

    Returns the new values, each 1 with the arc (p, n) between its nearest
    nonzero neighbours (None past an array end), and the indices that lost
    two slots at once.
    """
    n = len(vals)
    out, ones, doubles = [], [], []
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
        dec = (j >= 0 and vals[j] == 1) + (m < n and vals[m] == 1)
        if dec == 2:
            doubles.append(lo + k)
        out.append(v - dec)
    return out, ones, doubles


def test_symbolic_pass_matches_array_pass():
    """The descriptor rewrite and the window arcs agree with brute force.

    Descriptors are drawn near index 0 and shifted by up to +-1000, the
    array moving with them.  The finite array is only a sound oracle while
    both tails keep a nonzero value: once a tail dies, nearest-nonzero scans
    reach the array edge and its truncation artifacts (such inputs are
    invalid quiddities anyway, and the full pipeline rejects them when an
    orphaned 1 needs an arc).  Artifacts creep in from the array ends by a
    few positions per pass, so only the middle of the array is compared.
    """
    from friezes.synthesis import Residual, _collapsed, pass_arcs, step_a_pass

    rng = random.Random(60901)
    big, mid, sound = 300, 40, 150
    compared = arcs_compared = 0
    for draw in range(90):
        shift = 0 if draw % 3 == 0 else rng.randint(-1000, 1000)
        q = _random_descriptor(rng).shift(shift)
        lo, hi = shift - mid, shift + mid
        res = Residual.from_descriptor(q)
        vals = res.values(shift - big, shift + big)
        for _pass in range(6):
            try:
                after, double = step_a_pass(res)
            except QuiddityError:
                break  # adjacent ones; the rewrite refuses such inputs
            ones, arcs = pass_arcs(res, lo, hi)
            res = after
            vals, want_ones, doubles = _array_pass(vals, shift - big)
            want_ones = [(i, pn) for i, pn in want_ones if abs(i - shift) <= sound]
            case = (q, _pass)
            assert ones == [i for i, _ in want_ones if lo <= i <= hi], case
            assert arcs == [(p, n) for _, (p, n) in want_ones if n >= lo and p <= hi], case
            assert double == any(abs(i - shift) <= sound for i in doubles), case
            arcs_compared += len(arcs)
            left, _, right = _collapsed(res)
            if not left or not right:
                break
            assert res.values(lo, hi) == vals[big - mid:big + mid + 1], case
            compared += 1
    assert compared >= 100 and arcs_compared >= 400, (compared, arcs_compared)


def test_enough_ones_iff_empty_upper_boundary():
    from friezes import has_enough_ones
    sample = bijection_corpus()[:10] + enough_ones_corpus()
    for q in sample:
        out = psi(q, (-4, 4))
        verdict = has_enough_ones(FriezeView(q), (-4, 4), depth=14)
        assert verdict.status in ("yes", "no")
        assert (verdict.status == "yes") == (out.m2_class.kind == "empty"), q


def test_finite_class_counts_every_upper_point():
    q = QuiddityDescriptor((2,), (5, 2, 2, 3, 2, 4), (2,), core_start=-3)
    out = psi(q, (-6, 6))
    assert out.m2_class.kind == "finite"
    assert out.n_value == 1 + (5 - 2) + (3 - 2) + (4 - 2)
    used = {u for _, u in out.triangulation.bridging_arcs}
    assert used == set(range(1, out.n_value + 1))


def test_step_b_matches_walking_oracle():
    """step_b's prefix sums equal the walking fountain on the window's cut.

    Corpora plus random descriptors with 1-bearing tails; windows of
    half-width 0..12 near the core or at offsets up to +-3000; the default
    anchor and explicit anchors within 150 of the window, inside and outside
    the cut.  The walk also records fans beyond the cut, so its arcs are
    compared on the cut's lower indices only.
    """
    rng = random.Random(6151)
    seen = Counter()
    for q in bijection_corpus() + enough_ones_corpus() + random_corpus():
        if run_step_a(q, -2, 2).verdict != "terminated":
            continue  # phase B never runs
        for _ in range(4):
            hw = rng.randint(0, 12)
            mid = rng.choice((rng.randint(-20, 20), rng.randint(-3000, 3000)))
            lo, hi = mid - hw, mid + hw
            a = run_step_a(q, lo - 2, hi + 2)
            r_lo, r_hi = _cut_region(a, lo, hi)
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
                assert (got.m2, got.n_value, got.anchor, got.b1_terminated, got.b2_terminated) \
                    == (want.m2, want.n_value, want.anchor, want.b1_terminated,
                        want.b2_terminated), case
                seen[got.m2.kind] += 1
                seen["explicit anchor" if anchor is not None else "default anchor"] += 1
    assert min(seen.values()) >= 50 and len(seen) == 6, seen
