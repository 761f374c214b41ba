"""Entry evaluation and the row identities of infinite friezes."""

from __future__ import annotations

import math
import random
import time
import tracemalloc

import pytest

from friezes import (FriezeError, FriezeView, QuiddityDescriptor, QuiddityError, Residual,
                     entry_from_fg, has_enough_ones, quiddity_from_f)
from friezes.frieze import ROW_BAND

import refdata
from corpus import (bijection_corpus, enough_ones_corpus, log_offset, random_corpus,
                    random_descriptor)
from oracles import det_bareiss, transfer_entry, tridiagonal_matrix, unimodular_ok

GRIDS = [(refdata.LINEAR, refdata.LINEAR_GRID),
         (refdata.BUMPED, refdata.BUMPED_GRID),
         (refdata.ZIGZAG, refdata.ZIGZAG_GRID)]


@pytest.mark.parametrize("q,grid", GRIDS)
def test_entry_reproduces_reference_windows(q, grid):
    view = FriezeView(q)
    for i in range(-5, 6):
        for j in range(-5, 6):
            assert view.entry(i, j) == refdata.grid_entry(grid, i, j), (i, j)


def test_entry_examples():
    assert FriezeView(refdata.LINEAR).entry(-5, 5) == 10
    assert FriezeView(refdata.BUMPED).entry(-2, 0) == 3
    assert FriezeView(refdata.ZIGZAG).entry(-5, -1) == 15
    for q in (refdata.LINEAR, refdata.ZIGZAG):
        assert all(FriezeView(q).entry(k, k) == 0 for k in range(-10, 11))


def test_antisymmetry_and_zero_diagonal():
    view = FriezeView(refdata.ZIGZAG)
    for i in range(-12, 13):
        for j in range(-12, 13):
            assert view.entry(i, j) == -view.entry(j, i)


def test_unimodular_rule_on_window():
    for q, _ in GRIDS:
        assert unimodular_ok(FriezeView(q).entry, -21, 21)


def test_continuant_examples():
    assert FriezeView(refdata.LINEAR).continuant(0, 4) == 4
    view = FriezeView(refdata.MIXED_TAILS)
    for p in range(-8, 8):
        assert view.continuant(p, p + 2) == view.quiddity.value_at(p + 1)
    # 2x2 case by hand: det [[a_{-1}, 1], [1, a_0]] = 1 * 6 - 1
    assert view.continuant(-2, 1) == 5


def test_continuant_against_determinant_oracle():
    for q, _ in GRIDS + [(refdata.MIXED_TAILS, None)]:
        view = FriezeView(q)
        for p in range(-8, 7):
            for width in range(2, 16):
                diag = [q.value_at(s) for s in range(p + 1, p + width)]
                assert view.continuant(p, p + width) == det_bareiss(
                    tridiagonal_matrix(diag))


def test_continuant_matches_entry():
    for q, _ in GRIDS:
        view = FriezeView(q)
        for p in range(-10, 10):
            for d in range(2, 16):
                assert view.continuant(p, p + d) == view.entry(p, p + d)


def _peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_continuant_keeps_no_row():
    # the row up to t(0, 2*10^4) would take about 40 MB
    for method in ("continuant", "entry"):
        view = FriezeView(QuiddityDescriptor.constant(3))
        assert _peak_traced_bytes(lambda: getattr(view, method)(0, 2 * 10**4)) < 10**6


def test_far_entry_is_fast_and_small():
    # t(0, 10^5) = F_{2 * 10^5}, about 139 000 bits; walking the row took 1.3 s
    q = QuiddityDescriptor.constant(3)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        FriezeView(q).entry(0, 10**5)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.07
    assert _peak_traced_bytes(lambda: FriezeView(q).entry(0, 10**5)) < 10**6


def test_far_entries_match_transfer_matrix_oracle():
    rng = random.Random(1361)
    for q in bijection_corpus():
        view = FriezeView(q)
        for p in (q.core_start + rng.randint(-50, 50), rng.randint(-10**6, 10**6)):
            far = round(math.exp(rng.uniform(math.log(200), math.log(10**5))))
            dists = [ROW_BAND, ROW_BAND + 1, far]
            if q.left_period == q.right_period == (2,):
                dists.append(10**5)  # entries grow linearly: cheap at any distance
            for dist in dists:
                want = transfer_entry(q, p, p + dist)
                assert view.entry(p, p + dist) == want, (q, p, dist)
                assert view.entry(p + dist, p) == -want
                assert view.continuant(p, p + dist) == want
        assert all(len(row) <= ROW_BAND + 1 for row in view._rows.values())


def _row_ranges(rng: random.Random, i: int) -> list[tuple[int, int]]:
    """Row ranges of row i: across the diagonal, wholly below or above it,
    farther than ROW_BAND from it on one or both ends, and empty."""
    far = ROW_BAND + rng.randint(1, 300)
    return [(i - rng.randint(0, 40), i + rng.randint(0, 40)),
            (i - far, i - far + rng.randint(0, 30)),
            (i + far, i + far + rng.randint(0, 30)),
            (i - far, i + rng.randint(-5, 5)),
            (i + rng.randint(-3, 3), i + ROW_BAND + rng.randint(-2, 5)),
            (i + rng.randint(-5, 5), i - rng.randint(-5, 5) - 11),
            (i + 3, i + 2)]


def test_row_matches_transfer_oracle():
    rng = random.Random(5813)
    qs = [*bijection_corpus(20), *enough_ones_corpus(), *random_corpus(20)]
    qs += [random_descriptor(rng) for _ in range(20)]
    for q in qs:
        q = q.shift(log_offset(rng, 10**9))
        view = FriezeView(q)
        for _ in range(2):
            i = q.core_start + rng.randint(-20, 20)
            for lo, hi in _row_ranges(rng, i):
                got = (view if rng.random() < 0.5 else FriezeView(q)).row(i, lo, hi)
                assert got == [transfer_entry(q, i, j) for j in range(lo, hi + 1)], (q, i, lo, hi)
        assert all(len(row) <= ROW_BAND + 1 for row in view._rows.values())


def test_row_over_zeros_matches_entries():
    # a Residual may hold 0s: the walk still crosses the diagonal and far bands
    rng = random.Random(3391)
    for _ in range(60):
        left, core, right = (tuple(rng.randint(0, 4) for _ in range(rng.randint(k, 4)))
                             for k in (1, 0, 1))
        q = Residual(left, core, right, log_offset(rng, 10**9))
        view = FriezeView(q)
        i = q.core_start + rng.randint(-10, 10)
        for lo, hi in _row_ranges(rng, i):
            row = view.row(i, lo, hi)
            assert len(row) == max(0, hi - lo + 1)
            for j, got in zip(range(lo, hi + 1), row):
                assert got == view.entry(i, j) == transfer_entry(q, i, j), (q, i, j)


def test_memo_rows_grow_geometrically():
    calls = []

    class Recording(QuiddityDescriptor):
        def values(self, lo, hi):
            calls.append((lo, hi))
            return super().values(lo, hi)

    rng = random.Random(727)
    for q in (QuiddityDescriptor.constant(3), refdata.MIXED_TAILS, refdata.ZIGZAG):
        q = Recording(q.left_period, q.core, q.right_period, q.core_start)
        i = rng.randint(-50, 50)
        calls.clear()
        view = FriezeView(q)
        assert [view.entry(i, j) for j in range(i, i + 201)] == \
            [transfer_entry(q, i, j) for j in range(i, i + 201)]
        assert len(calls) <= math.ceil(math.log2(200)) + 2, calls
        for j in range(i + 201, i + ROW_BAND + 40):
            view.entry(i, j)
        for _ in range(200):
            a, b = rng.randint(-400, 400), rng.randint(-400, 400)
            assert view.entry(a, b) == transfer_entry(q, a, b)
        assert all(len(row) <= ROW_BAND + 1 for row in view._rows.values())
        # a lone entry still walks only out to itself; the next one doubles the
        # band, up to ROW_BAND
        lone = FriezeView(q)
        for j, band in ((100, 100), (101, 200), (201, ROW_BAND)):
            assert lone.entry(i, i + j) == transfer_entry(q, i, i + j)
            assert len(lone._rows[i]) == band + 1


def test_continuant_precondition():
    with pytest.raises(FriezeError):
        FriezeView(refdata.LINEAR).continuant(0, 1)


def test_entry_from_fg_examples():
    assert entry_from_fg(4, 6, 3, 5) == 2       # linear frieze t(3, 5)
    assert entry_from_fg(7, 7, 3, 3) == 0       # equal columns
    assert entry_from_fg(2, 5, 1, 4) == 3       # bumped frieze t(1, 4)


@pytest.mark.parametrize("q,grid", GRIDS)
def test_entry_from_fg_matches_entry(q, grid):
    view = FriezeView(q)
    f = {i: view.entry(-1, i) for i in range(-16, 17)}
    g = {i: view.entry(0, i) for i in range(-16, 17)}
    for p in range(-15, 16):
        for r in range(-15, 16):
            assert entry_from_fg(f[p], f[r], g[p], g[r]) == view.entry(p, r)


def test_ptolemy_examples_and_random_quadruples():
    linear = FriezeView(refdata.LINEAR)
    assert linear.ptolemy_holds(0, 1, 2, 3)  # 2*2 == 1*1 + 3*1
    for q, _ in GRIDS:
        view = FriezeView(q)
        assert all(view.ptolemy_holds(i, i, p, p + 1)
                   for i in range(-5, 6) for p in range(-5, 5))
        rng = random.Random(451)
        for _ in range(1000):
            i, j, p, r = (rng.randint(-20, 20) for _ in range(4))
            assert view.ptolemy_holds(i, j, p, r)


def test_reconstruct_entry_examples():
    assert FriezeView(refdata.LINEAR).reconstruct_entry(-1, 0, 2, 5) == 3
    assert FriezeView(refdata.BUMPED).reconstruct_entry(-1, 0, -4, 2) == 15
    view = FriezeView(refdata.ZIGZAG)
    assert view.reconstruct_entry(-1, 0, -1, -1) == 0
    rng = random.Random(99)
    for _ in range(300):
        i, j = rng.randint(-10, 10), rng.randint(-10, 10)
        if i == j:
            continue
        p, r = rng.randint(-12, 12), rng.randint(-12, 12)
        assert view.reconstruct_entry(i, j, p, r) == view.entry(p, r)


def test_reconstruct_entry_rejects_equal_rows():
    with pytest.raises(FriezeError):
        FriezeView(refdata.LINEAR).reconstruct_entry(3, 3, 0, 1)


def test_reconstruct_entry_rejects_rows_with_zero_entry():
    view = FriezeView(QuiddityDescriptor.constant(1))
    assert view.entry(0, 3) == 0
    with pytest.raises(FriezeError):
        view.reconstruct_entry(0, 3, 1, 2)


def test_row_pair_coefficients_independent_of_position():
    for q, _ in GRIDS:
        view = FriezeView(q)
        for i, j in [(-1, 1), (0, 3), (-4, 2), (5, 5), (2, -3)]:
            cs = {view.c_coeff(i, j, k) for k in range(-10, 11)}
            ds = {view.d_coeff(i, j, k) for k in range(-10, 11)}
            assert len(cs) == 1 and len(ds) == 1
    linear = FriezeView(refdata.LINEAR)
    assert all(linear.c_coeff(-1, 1, k) == 2 for k in range(0, 11))
    assert all(linear.c_coeff(i, i + 1, 4) == 1 for i in range(-6, 6))
    assert all(linear.d_coeff(j, j, k) == 0 for j in range(-5, 6) for k in (0, 3))


def test_quiddity_from_f_linear_row():
    f = {s: s + 1 for s in range(-2, 7)}
    out = quiddity_from_f(f, 2)
    assert out == {s: 2 for s in range(-1, 6)}
    out3 = quiddity_from_f(f, 3)
    assert out3[-1] == 3 and all(out3[s] == 2 for s in range(0, 6))


def test_quiddity_from_f_round_trip():
    view = FriezeView(refdata.ZIGZAG)
    f = {s: view.entry(-1, s) for s in range(-6, 8)}
    out = quiddity_from_f(f, refdata.ZIGZAG.value_at(-1))
    for s in range(-5, 7):
        assert out[s] == refdata.ZIGZAG.value_at(s)


def test_quiddity_from_f_rejects_non_divisible():
    with pytest.raises(FriezeError):
        quiddity_from_f({0: 1, 1: 2, 2: 2, 3: 7}, 1)
    with pytest.raises(FriezeError):
        quiddity_from_f({-1: 5}, 1)
    with pytest.raises(FriezeError):
        quiddity_from_f({0: 1, 1: 0, 2: 1}, 1)  # zero off the -1 position
    with pytest.raises(FriezeError):
        quiddity_from_f({0: 1}, 0)  # a_{-1} below 1


def test_has_enough_ones_verdicts():
    assert has_enough_ones(FriezeView(refdata.ZIGZAG), (-4, 4)).status == "yes"
    verdict = has_enough_ones(FriezeView(refdata.LINEAR), (-4, 4))
    assert verdict.status == "no"
    i, j = verdict.witness
    assert i <= j
    # the witness pair really is uncovered: no 1-entry within 20 of it dominates it
    view = FriezeView(refdata.LINEAR)
    assert not any(view.entry(s, e) == 1
                   for s in range(i - 20, i + 1)
                   for e in range(max(j, s + 2), j + 21))
    assert has_enough_ones(FriezeView(refdata.MIXED_TAILS), (-3, 3)).status == "no"


def test_has_enough_ones_answers_far_windows_and_raises_psis_errors():
    # the empty class answers at any offset, without synthesizing the window
    for mid in (10**3, -10**6, 10**9):
        assert has_enough_ones(FriezeView(refdata.ZIGZAG), (mid - 8, mid + 8)).status == "yes"
    verdict = has_enough_ones(FriezeView(refdata.MIXED_TAILS), (10**9 - 8, 10**9 + 8))
    assert verdict.status == "no" and 10**9 - 8 <= verdict.witness[0] <= 10**9 + 8
    with pytest.raises(QuiddityError):
        has_enough_ones(FriezeView(QuiddityDescriptor((2,), (1, 1), (2,))), (-4, 4))
    with pytest.raises(FriezeError):
        has_enough_ones(FriezeView(refdata.LINEAR), (1, 0))


def test_has_enough_ones_sees_ones_beyond_search_depth():
    # t(0, 42) = 1 covers every pair of both windows, 20 or more columns
    # farther out than a depth-16 entry search reaches; the window's strip
    # holds the arc (0, 42), so the answer needs no search at all
    q = QuiddityDescriptor((3,), (43, 1) + (2,) * 40 + (4,), (3,))
    view = FriezeView(q)
    assert view.entry(0, 42) == 1
    assert has_enough_ones(view, (20, 22)).status == "yes"
    assert has_enough_ones(view, (38, 40)).status == "yes"
    # a window reaching past t(0, 42) keeps a genuine witness inside it
    verdict = has_enough_ones(view, (40, 46))
    assert verdict.status == "no"
    i, j = verdict.witness
    assert 40 <= i <= j <= 46
    assert not any(view.entry(s, e) == 1
                   for s in range(i - 60, i + 1) for e in range(max(j, s + 2), j + 61))


def test_memo_consistency():
    view = FriezeView(refdata.MIXED_TAILS)
    first = [view.entry(-7, j) for j in range(-7, 20)]
    second = [view.entry(-7, j) for j in range(-7, 20)]
    assert first == second
