"""Whole-pipeline soak: drawn descriptors and far windows all get an answer.

Every window drawn here must answer, with the class the descriptor has at
its core, and must pass the checks a strip of the window promises.  Windows
of non-empty classes are drawn out to 10^9 from the core; windows of the
empty class stay within 100 of it, as phase A consumes a window one pass
per tail period of distance and its pass cap bounds that.
"""

from __future__ import annotations

import random
from collections import Counter

from friezes import FriezeView, bci_entry, cc_entry, has_enough_ones, psi

from corpus import bijection_corpus, enough_ones_corpus, log_offset, random_corpus
from oracles import transfer_entry


def test_far_windows_answer_and_pass_every_check():
    rng = random.Random(7919)
    kinds = Counter()
    for q in bijection_corpus() + enough_ones_corpus() + random_corpus(90, seed=4421):
        kind = psi(q, (-4, 4)).m2_class.kind
        reach = 100 if kind == "empty" else 10**9
        for k in range(3):
            hw = rng.randint(2, 6 if k == 0 else 12)
            mid = log_offset(rng, reach)
            lo, hi = mid - hw, mid + hw
            case = (q, lo, hi)
            out = psi(q, (lo, hi))
            assert out.m2_class.kind == kind, case
            tri = out.triangulation
            assert tri.quiddity_of() == dict(enumerate(q.values(lo, hi), lo)), case
            tri.check_pairwise_noncrossing()
            tri.check_window_maximality()
            assert tri.is_admissible_window(), case
            assert tri.special_upper_points() == [], case
            i = rng.randint(lo, hi - 2)
            j = rng.randint(i + 2, min(i + 8, hi))
            assert cc_entry(tri, i, j) == bci_entry(tri, i, j) == transfer_entry(q, i, j), case
            if k == 0:
                verdict = has_enough_ones(FriezeView(q), (lo, hi), depth=8).status
                assert (verdict == "yes") == (kind == "empty"), case
            kinds[kind] += 1
    assert set(kinds) == {"empty", "finite", "nat_left", "nat_right", "bi_infinite"}, kinds


def test_far_windows_translate_by_whole_tail_periods():
    """A window moved k tail periods out, to about 10^9, has the same arcs.

    They translate with it, and the labels shift by one constant: on the
    open side of a half line by the k periods' excess, the number of upper
    points they plant; anywhere else by 0.
    """
    pairs = Counter()
    for q in bijection_corpus() + enough_ones_corpus():
        kind = psi(q, (-4, 4)).m2_class.kind
        if kind == "empty":
            continue
        for side in (-1, 1):
            near = psi(q, (side * 1000 - 6, side * 1000 + 6))
            period = len(q.right_period if side > 0 else q.left_period)
            k = 10**9 // period
            d = side * k * period
            far = psi(q, (side * 1000 - 6 + d, side * 1000 + 6 + d))
            assert far.m2_class == near.m2_class and near.m2_class.kind == kind, q
            a, b = near.triangulation, far.triangulation
            assert b.margin == a.margin, q
            assert b.peripheral_arcs == tuple((i + d, j + d) for i, j in a.peripheral_arcs), q
            open_side = {"nat_left": -1, "nat_right": 1}.get(kind)
            excess = sum(v - 2 for v in near.residual.values(1000 * side, 1000 * side + period - 1)
                         if v > 2)
            shift = side * k * excess if side == open_side else 0
            assert b.bridging_arcs == tuple((i + d, u + shift) for i, u in a.bridging_arcs), q
            pairs[shift != 0] += 1
    assert pairs[True] >= 10 and pairs[False] >= 50, pairs
