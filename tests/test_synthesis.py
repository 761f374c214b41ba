"""The quiddity-to-strip synthesis: phase traces, classification, round trips."""

from __future__ import annotations

import json
import random

import pytest

from friezes import (FriezeView, QuiddityDescriptor, QuiddityError, StripTriangulation,
                     bci_entry, bridging, cc_entry, cli, peripheral, psi, run_step_a,
                     step_a_pass, step_b, validate)
from friezes.serialize import dumps, quiddity_to_json
from friezes.strip import M2_EMPTY
from friezes.synthesis import Residual, _Survivors, _trim, pass_arcs

import refdata
from corpus import W68, enough_ones_corpus, fan_word, polygon_word
from oracles import collapsed_signature, cut_polygon_oracle, dense_run_step_a, normalize, trim_loop

# MIXED_TAILS reflected: nat_right, with its closed end on the left
MIRROR_TAILS = QuiddityDescriptor((2,), (4, 2, 1, 6), (3,), core_start=-3)


def _incident(tri, lo, hi):
    """Arcs with a lower endpoint in [lo, hi]."""
    return {arc for arc in tri.arcs if any(lo <= e <= hi for end, e in arc if end == "L")}


def test_worked_example_pass_by_pass():
    out = psi(refdata.MIXED_TAILS, (-8, 8))
    assert out.step_a_verdict == "terminated" and out.step_a_passes == 2
    first, second = out.trace
    assert first.ones == (-1,) and first.arcs == ((-2, 0),)
    assert first.residual_after.values(-5, 2) == [3, 3, 4, 1, 0, 5, 2, 2]
    assert second.ones == (-2,) and second.arcs == ((-3, 0),)
    assert second.residual_after.values(-5, 2) == [3, 3, 3, 0, 0, 4, 2, 2]


def test_worked_example_classification_and_shape():
    out = psi(refdata.MIXED_TAILS, (-8, 8))
    assert out.m2_class.kind == "nat_left"
    tri = out.triangulation
    # anchor vertex (0,0): two peripheral arcs plus a fan of three bridging arcs
    star = tri.lower_star(0)
    assert [(i, j) for (_, i), (end, j) in star if end == "L"] == [(-3, 0), (-2, 0)]
    assert sorted(u for _, (end, u) in star if end == "U") == [-2, -1, 0]
    # the right tail shares the single right fountain, labeled 0
    for i in range(1, 9):
        assert [b for _, b in tri.lower_star(i)] == [("U", 0)]
    # each left-tail vertex hangs from two consecutive upper points
    assert sorted(u for _, (end, u) in tri.lower_star(-3) if end == "U") == [-3, -2]
    assert sorted(u for _, (end, u) in tri.lower_star(-4) if end == "U") == [-4, -3]


def test_worked_example_round_trip_and_cleanliness():
    out = psi(refdata.MIXED_TAILS, (-8, 8))
    tri = out.triangulation
    quid = tri.quiddity_of()
    assert quid == {i: refdata.MIXED_TAILS.value_at(i) for i in range(-8, 9)}
    assert tri.special_upper_points() == []
    assert tri.is_admissible_window()
    tri.check_pairwise_noncrossing()


def test_constant_two_single_fountain():
    out = psi(refdata.LINEAR, (-5, 5))
    assert out.step_a_passes == 0
    assert out.m2_class.kind == "finite" and out.m2_class.size == 1
    tri = out.triangulation
    assert not tri.peripheral_arcs
    assert all(u == 1 for _, u in tri.bridging_arcs)
    assert tri.quiddity_of() == {i: 2 for i in range(-5, 6)}


def test_bumped_quiddity_gives_two_upper_points():
    out = psi(refdata.BUMPED, (-5, 5))
    assert out.m2_class.kind == "finite" and out.m2_class.size == 2
    tri = out.triangulation
    assert [b for _, b in tri.lower_star(-1)] == [("U", 1), ("U", 2)]
    assert all(b == ("U", 2) for _, b in tri.lower_star(2))
    assert all(b == ("U", 1) for _, b in tri.lower_star(-4))
    assert tri.quiddity_of() == {i: refdata.BUMPED.value_at(i) for i in range(-5, 6)}


def test_constant_three_is_bi_infinite():
    out = psi(QuiddityDescriptor.constant(3), (-4, 4))
    assert out.m2_class.kind == "bi_infinite"
    assert out.anchor == 0  # the first value > 2 from the window midpoint rightward
    tri = out.triangulation
    for i in range(-4, 5):
        ups = sorted(u for _, (end, u) in tri.lower_star(i) if end == "U")
        assert len(ups) == 2 and ups[1] == ups[0] + 1
    assert tri.quiddity_of() == {i: 3 for i in range(-4, 5)}


def test_zigzag_nonterminating_empty_upper_boundary():
    out = psi(refdata.ZIGZAG, (-5, 5))
    assert out.step_a_verdict == "nonterminating"
    assert out.m2_class.kind == "empty"
    tri = out.triangulation
    assert not tri.bridging_arcs
    assert tri.quiddity_of() == {i: refdata.ZIGZAG.value_at(i) for i in range(-5, 6)}
    assert tri.is_admissible_window()
    tri.check_pairwise_noncrossing()
    # the printed strip picture: ladder arcs around the bend
    arcs = set(tri.peripheral_arcs)
    assert {(-2, 0), (-2, 1), (1, 3), (-2, 3), (-4, -2), (-4, 3), (-4, 5), (3, 5)} <= arcs
    # a wide window: the run stops once the window's cut is final;
    # 1-free tails whose 3s the core's 1s consume are nonterminating too
    eaten = QuiddityDescriptor((3,), (1, 2), (3,), core_start=-1)
    for q, window in ((refdata.ZIGZAG, (-128, 128)), (eaten, (-5, 5)), (eaten, (30, 40))):
        wide = psi(q, window)
        assert wide.step_a_verdict == "nonterminating" and wide.m2_class.kind == "empty"
        lo, hi = window
        assert wide.triangulation.quiddity_of() == {i: q.value_at(i) for i in range(lo, hi + 1)}


def test_enough_ones_corpus_classes():
    # 1-bearing tails alone do not empty the upper class
    kinds = [psi(q, (-3, 3)).m2_class.kind for q in enough_ones_corpus()]
    assert kinds == ["empty", "finite", "bi_infinite", "empty", "bi_infinite", "finite"]


def test_zigzag_collapsed_recurrence_detected():
    result = run_step_a(refdata.ZIGZAG, -10, 10)
    assert result.verdict == "nonterminating"
    assert result.detected_at is not None and result.detected_at <= 6


def test_zigzag_far_window_matches_the_dense_run():
    # zigzag recurs at pass 3, and its window 10^3 out takes 1011 passes and
    # answers as the pass-by-pass run does
    out = psi(refdata.ZIGZAG, (992, 1008))
    dense = dense_run_step_a(refdata.ZIGZAG, 990, 1010)
    assert (out.step_a_verdict, out.step_a_passes) == (dense.verdict, dense.passes) \
        == ("nonterminating", 1011)
    assert out.triangulation.peripheral_arcs == dense.arcs
    assert out.triangulation.quiddity_of() == dict(enumerate(refdata.ZIGZAG.values(992, 1008), 992))


def test_step_a_pass_simultaneous_update():
    res = normalize(Residual(**vars(refdata.ZIGZAG)))
    after = step_a_pass(res)
    # the 5s between two 1s lose both slots in one pass
    assert after.values(-4, 4) == [3, 0, 3, 0, 1, 2, 0, 3, 0]


def test_step_a_pass_rejects_adjacent_ones():
    res = Residual((2,), (1, 1), (2,), 0)
    with pytest.raises(QuiddityError, match="adjacent through zeros"):
        step_a_pass(res)


def test_pass_arcs_rejects_a_one_without_nonzero_neighbour():
    # the left tail is consumed, so the 1 at 0 has no arc end on its left
    res = Residual((0,), (1, 2), (2,), 0)
    with pytest.raises(QuiddityError, match=r"residual 1 at 0 has no nonzero neighbour"):
        pass_arcs(res, -2, 2)
    # the rewrite refuses it too, rather than zeroing it without an arc
    with pytest.raises(QuiddityError, match=r"residual 1 at 0 has no nonzero neighbour"):
        step_a_pass(res)


def test_step_a_pass_rejects_a_two_between_ones():
    # K(1, 2, 1) = 0: the 2 would drop to 0 without an arc
    res = Residual((3,), (1, 2, 1), (3,), 0)
    with pytest.raises(QuiddityError, match=r"residual 2 at 1 lies between two 1s"):
        step_a_pass(res)


def test_step_a_terminates_immediately_without_ones():
    result = run_step_a(QuiddityDescriptor.constant(4), -5, 5)
    assert result.verdict == "terminated" and result.passes == 0 and not result.arcs


def test_step_b_requires_terminated_residual():
    with pytest.raises(QuiddityError):
        step_b(Residual((2,), (1,), (2,), 0), (-2, 2), -4, 4)


def test_step_b_anchor_override_must_have_excess():
    res = Residual((2,), (), (2,), 0)
    with pytest.raises(QuiddityError):
        step_b(res, (-2, 2), -6, 6, anchor=0)


def test_trim_matches_the_value_by_value_loop():
    rng = random.Random(5119)
    word = lambda n: tuple(rng.randint(0, 2) for _ in range(n))
    for _ in range(3000):
        # empty, repeated (not primitive) and zero-bearing tails; cores that
        # continue a tail for a while on either side, or all the way
        left, right = word(rng.randint(0, 3)) * rng.randint(1, 3), word(rng.randint(0, 3))
        core = word(rng.randint(0, 6))
        if left and rng.random() < 0.6:
            k = rng.randrange(len(left))
            core = ((left[k:] + left[:k]) * 5)[:rng.randint(0, 12)] + core
        if right and rng.random() < 0.6:
            core += (right * 5)[:rng.randint(0, 12)]
        args = (left, core, right, rng.randint(-5, 5))
        assert _trim(*args) == trim_loop(*args), args
    # a core that continues its left tail for 40000 values
    assert _trim((3,), (3,) * 40000 + (1, 2, 4), (3, 3), 0) == ((3,), (1, 2, 4), (3,), 40000)


def test_collapsed_signature_ignores_shift_and_zeros():
    # phase A's survivors give the signature of the zero-collapsed residual
    signature = lambda res: _Survivors.of(res).signature()
    a = Residual((3, 0), (1, 0, 0, 2), (0, 3), 0)
    b = Residual((3, 0), (1, 0, 0, 0, 0, 2), (0, 3), -7)
    assert signature(a) == signature(b) == collapsed_signature(a) == collapsed_signature(b)
    c = Residual((3, 0), (2, 0, 0, 1), (0, 3), 0)
    assert signature(a) != signature(c) == collapsed_signature(c)


def test_psi_rejects_invalid_quiddity():
    # a witness within validate's default depth is named in the message
    with pytest.raises(QuiddityError, match=r"not a valid quiddity sequence: t\(-1, 2\) = 0"):
        psi(QuiddityDescriptor((2,), (1, 1), (2,), 0), (-3, 3))
    rng = random.Random(4099)
    for n in (4, 5, 9, 30, 66, 90):
        w = polygon_word(rng, n)
        for q in (QuiddityDescriptor.periodic(w), QuiddityDescriptor((2,), w, (3,), -n // 2)):
            with pytest.raises(QuiddityError):
                psi(q, (-8, 8))


@pytest.mark.parametrize("q", [QuiddityDescriptor.periodic(fan_word(70)),
                               QuiddityDescriptor((3,), W68, (3,), 0)],
                         ids=["fan70", "w68"])
def test_polygon_words_past_the_default_depth_are_rejected(q, tmp_path, capsys):
    # both pass validate at its default depth; the pass rules catch them
    assert validate(q).ok
    with pytest.raises(QuiddityError, match="between two 1s"):
        psi(q, (-8, 8))
    f = tmp_path / "q.json"
    f.write_text(dumps(quiddity_to_json(q)))
    assert cli.main(["synthesize", "--window=-8..8", str(f)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "invalid"


def test_dehn_invariance_of_quiddity():
    out = psi(QuiddityDescriptor.constant(3), (-4, 4))
    tri = out.triangulation
    base = tri.quiddity_of()
    for n in range(-3, 4):
        assert tri.dehn_twist(n).quiddity_of() == base


def test_two_anchors_are_dehn_equivalent_with_predicted_shift():
    q = QuiddityDescriptor.constant(3)
    run0 = psi(q, (-4, 4), anchor=0).triangulation
    run2 = psi(q, (-4, 4), anchor=2).triangulation
    n = run0.dehn_equivalent(run2)
    # moving the anchor right by two excess-1 positions shifts labels down by 2
    assert n == -2
    assert run0.dehn_twist(n).dehn_equivalent(run2) == 0
    # an anchor outside the window's cut: the fans walked past still count
    assert run0.dehn_equivalent(psi(q, (-4, 4), anchor=10).triangulation) == -10


def test_half_line_anchor_outside_the_window_cut():
    base = psi(refdata.MIXED_TAILS, (-43, -37)).triangulation
    for anchor in (-60, -30, -5):
        tri = psi(refdata.MIXED_TAILS, (-43, -37), anchor=anchor).triangulation
        assert _incident(tri, -43, -37) == _incident(base, -43, -37), anchor
        assert tri.special_upper_points() == [], anchor


def test_phase_b_answers_far_from_the_core_and_the_anchor():
    # the closed end lies 10^9 positions right of the window: labels near -10^9
    far_core = QuiddityDescriptor((3,), (4, 2, 1, 6), (2,), core_start=10**9)
    out = psi(far_core, (0, 8))
    assert out.m2_class.kind == "nat_left"
    tri = out.triangulation
    assert tri.quiddity_of() == {i: 3 for i in range(0, 9)}
    assert tri.special_upper_points() == []
    assert len(tri.arcs) < 50
    assert all(-10**9 - 10 < u < -10**9 + 10 for _, u in tri.bridging_arcs)
    # the same strip as the core-side window translated by 10^9, labels shifted too
    near = psi(far_core.shift(-10**9), (-10**9, -10**9 + 8)).triangulation
    assert tri.bridging_arcs == tuple((i + 10**9, u) for i, u in near.bridging_arcs)
    # an anchor 10^9 positions out is the default one twisted by -10^9
    q = QuiddityDescriptor.constant(3)
    base = psi(q, (-4, 4), anchor=0).triangulation
    assert base.dehn_equivalent(psi(q, (-4, 4), anchor=10**9).triangulation) == -10**9


def test_margin_stability_default_pipeline():
    # psi's one build agrees with both phases run over a range 10x wider
    lo, hi = -4, 4
    for q in (refdata.LINEAR, refdata.BUMPED, refdata.MIXED_TAILS, MIRROR_TAILS,
              QuiddityDescriptor.constant(3), refdata.ZIGZAG):
        tri = psi(q, (lo, hi)).triangulation
        wide = 5 * (hi - lo + 1 + 2 * tri.margin)
        a = run_step_a(q, lo - wide, hi + wide)
        arcs = {peripheral(i, j) for i, j in a.arcs}
        m2 = M2_EMPTY
        if a.verdict == "terminated":
            b = step_b(a.residual, (lo, hi), lo - wide, hi + wide)
            arcs |= {bridging(i, u) for i, u in b.bridging_arcs}
            m2 = b.m2
        ref = StripTriangulation((lo, hi), wide, m2, frozenset(arcs))
        assert _incident(tri, lo, hi) == _incident(ref, lo, hi), q
        assert tri.quiddity_of() == ref.quiddity_of(), q


@pytest.mark.parametrize("q, window, kind", [
    (refdata.MIXED_TAILS, (-43, -37), "nat_left"),
    (refdata.MIXED_TAILS, (-1008, -992), "nat_left"),
    (MIRROR_TAILS, (37, 43), "nat_right"),
    (MIRROR_TAILS, (992, 1008), "nat_right")])
def test_far_side_windows_of_half_lines(q, window, kind):
    lo, hi = window
    out = psi(q, window)
    assert out.m2_class.kind == kind
    tri = out.triangulation
    assert tri.quiddity_of() == {i: q.value_at(i) for i in range(lo, hi + 1)}
    assert tri.special_upper_points() == []
    # labels are absolute: a window reaching over the core has the same arcs here
    wide = psi(q, (min(lo, -4), max(hi, 4))).triangulation
    assert _incident(tri, lo, hi) == _incident(wide, lo, hi)


def test_zigzag_window_beyond_the_bend_counts_every_entry():
    tri = psi(refdata.ZIGZAG, (36, 44)).triangulation
    view = FriezeView(refdata.ZIGZAG)
    for i in range(36, 45):
        for j in range(i, 45):
            assert cc_entry(tri, i, j) == view.entry(i, j), (i, j)
            if j - i <= 6:
                assert bci_entry(tri, i, j) == view.entry(i, j), (i, j)


def test_margin_is_the_smallest_holding_the_window_cut():
    from corpus import bijection_corpus
    for q in bijection_corpus()[:16] + [MIRROR_TAILS, refdata.ZIGZAG]:
        for lo, hi in ((-4, 4), (-43, -37), (37, 43)):
            tri = psi(q, (lo, hi)).triangulation
            cut = cut_polygon_oracle(tri, lo - 1, hi + 1)
            assert tri.margin == max(lo - min(cut.lower_map), max(cut.lower_map) - hi), (q, lo)


@pytest.mark.parametrize("q", [refdata.LINEAR, refdata.BUMPED,
                               refdata.MIXED_TAILS, refdata.ZIGZAG,
                               QuiddityDescriptor.constant(3)])
def test_outputs_are_noncrossing_and_window_maximal(q):
    tri = psi(q, (-5, 5)).triangulation
    tri.check_pairwise_noncrossing()
    tri.check_window_maximality()


def test_nat_right_class_and_labels():
    q = QuiddityDescriptor((2,), (), (3,), 0)
    out = psi(q, (-4, 4))
    assert out.m2_class.kind == "nat_right" and out.anchor is None
    tri = out.triangulation
    assert min(u for _, u in tri.bridging_arcs) == 0  # leftmost label
    assert tri.quiddity_of() == {i: q.value_at(i) for i in range(-4, 5)}
    assert tri.special_upper_points() == []


def test_window_away_from_core_has_no_anchor():
    out = psi(refdata.MIXED_TAILS, (2, 9))
    assert out.anchor is None  # a half line has no twist to fix
    assert out.m2_class.kind == "nat_left"
    assert out.triangulation.quiddity_of() == {
        i: refdata.MIXED_TAILS.value_at(i) for i in range(2, 10)}


def test_purely_periodic_two_three():
    q = QuiddityDescriptor.periodic((2, 3))
    out = psi(q, (-4, 4))
    assert out.m2_class.kind == "bi_infinite"
    tri = out.triangulation
    assert tri.quiddity_of() == {i: q.value_at(i) for i in range(-4, 5)}
    tri.check_pairwise_noncrossing()
    tri.check_window_maximality()


def test_lower_stars_agree_across_windows():
    small = psi(refdata.ZIGZAG, (-3, 3)).triangulation
    large = psi(refdata.ZIGZAG, (-6, 6)).triangulation
    for i in range(-3, 4):
        assert small.lower_star(i) == large.lower_star(i), i
    assert small.quiddity_of() == large.quiddity_of((-3, 3))


def test_peripheral_arc_iff_entry_one_on_goldens():
    from friezes import FriezeView
    for q in (refdata.LINEAR, refdata.BUMPED, refdata.MIXED_TAILS, refdata.ZIGZAG):
        tri = psi(q, (-5, 5)).triangulation
        view = FriezeView(q)
        peripherals = set(tri.peripheral_arcs)
        for i in range(-5, 6):
            for j in range(i + 2, 6):
                assert (view.entry(i, j) == 1) == ((i, j) in peripherals), (q, i, j)


def test_bridging_arcs_extend_both_ways():
    # a lower point carrying a bridging arc has such neighbours on both sides
    for q in (refdata.BUMPED, refdata.MIXED_TAILS, QuiddityDescriptor.constant(3)):
        tri = psi(q, (-5, 5)).triangulation
        carriers = sorted({i for i, _ in tri.bridging_arcs})
        lo, hi = tri.window
        for j in carriers:
            if lo <= j <= hi:
                assert any(p < j for p in carriers), (q, j)
                assert any(p > j for p in carriers), (q, j)


def test_corpus_outputs_are_clean():
    from corpus import bijection_corpus
    for k, q in enumerate(bijection_corpus()):
        tri = psi(q, (-4, 4)).triangulation
        tri.check_pairwise_noncrossing()
        if k < 20:
            tri.check_window_maximality()
