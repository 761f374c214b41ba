"""Descriptor indexing, shifting, and depth-bounded validation."""

from __future__ import annotations

import random
import time

import pytest

from friezes import QuiddityDescriptor, QuiddityError, Residual, ValidationReport, psi, validate
from friezes.quiddity import IDENTITY, _tail, transfer
from friezes.synthesis import run_step_a

import refdata
from corpus import (W68, bijection_corpus, enough_ones_corpus, fan_word, polygon_word,
                    random_corpus, random_descriptor)
from oracles import (_tail_transfer, grows, mat_mul, max_zero_gap, max_zero_gap_loop,
                     transfer as transfer_oracle, transfer_matrix, validate_rows)


def test_constant_descriptor_value_at():
    assert refdata.LINEAR.value_at(7) == 2
    assert refdata.LINEAR.value_at(-1000) == 2


def test_mixed_tails_values():
    q = refdata.MIXED_TAILS
    assert q.value_at(-1) == 1
    assert q.value_at(-5) == 3
    assert q.values(-5, 2) == [3, 3, 4, 2, 1, 6, 2, 2]


def test_zigzag_window_values():
    assert refdata.ZIGZAG.values(-4, 4) == [5, 1, 5, 1, 2, 3, 1, 5, 1]


def test_tail_periodicity_and_core_agreement():
    rng = random.Random(7)
    for q in (refdata.MIXED_TAILS, refdata.ZIGZAG, refdata.BUMPED):
        core_end = q.core_start + len(q.core) - 1
        for _ in range(100):
            i = rng.randint(-200, 200)
            if q.core_start <= i <= core_end:
                assert q.value_at(i) == q.core[i - q.core_start]
            elif i < q.core_start:
                assert q.value_at(i) == q.value_at(i - len(q.left_period))
            else:
                assert q.value_at(i) == q.value_at(i + len(q.right_period))


def test_shift_moves_values():
    assert refdata.LINEAR.shift(5).value_at(0) == 2
    shifted = refdata.MIXED_TAILS.shift(1)
    assert shifted.value_at(0) == 1  # a_{-1} moved to index 0
    for i in range(-10, 11):
        assert shifted.value_at(i) == refdata.MIXED_TAILS.value_at(i - 1)


def test_shift_zero_is_identity_pointwise():
    q = refdata.ZIGZAG
    assert all(q.shift(0).value_at(i) == q.value_at(i) for i in range(-20, 21))


def test_shift_composes():
    q = refdata.MIXED_TAILS
    rng = random.Random(3)
    for _ in range(20):
        m, n = rng.randint(-9, 9), rng.randint(-9, 9)
        lhs = q.shift(m).shift(n)
        rhs = q.shift(m + n)
        assert lhs.values(-15, 15) == rhs.values(-15, 15)


def test_rejects_nonpositive_values_and_empty_tails():
    with pytest.raises(QuiddityError):
        QuiddityDescriptor((2,), (0,), (2,))
    with pytest.raises(QuiddityError):
        QuiddityDescriptor((), (1,), (2,))
    with pytest.raises(QuiddityError):
        QuiddityDescriptor((2,), (-3,), (2,))


@pytest.mark.parametrize("bad", [True, 2.0, "3", -3])
def test_rejects_values_that_are_not_plain_ints(bad):
    want = f"quiddity values must be integers >= 1, got {bad!r}"
    long_core = (2,) * 9 + (bad,) + (3, 4)  # long enough for the C-level check
    for left, core in (((2,), (bad,)), ((2,), long_core), ((bad, 2), (1,) * 12)):
        with pytest.raises(QuiddityError) as err:
            QuiddityDescriptor(left, core, (2,))
        assert str(err.value) == want
    with pytest.raises(QuiddityError) as err:
        Residual((0,), long_core, (0,))
    assert str(err.value) == want.replace(">= 1", ">= 0")


def test_residual_accepts_zero():
    for core in ((0,), (0,) * 12, (1, 0, 2) * 5):
        assert Residual((0,), core, (0, 3)).core == core


def test_max_zero_gap_matches_loop_oracle():
    rng = random.Random(8123)

    def word(n, zeros):
        return tuple(0 if rng.random() < zeros else rng.randint(1, 5) for _ in range(n))

    for k in range(600):
        zeros = rng.choice((0.0, 0.5, 0.9, 1.0))  # 0.9 and 1.0: zero-heavy tails
        left, right = word(rng.randint(1, 5), zeros), word(rng.randint(1, 5), zeros)
        core = word(rng.randint(0, 12), 1.0 if k % 3 == 0 else zeros)  # all-zero cores
        if k % 3 == 1:  # zero runs wrap from one tail copy into the next, and into the core
            left, core, right = (0, *left, 0), (0, *core, 0), (0, *right, 0)
        res = Residual(left, core, right, rng.randint(-10**6, 10**6))
        assert max_zero_gap(res) == max_zero_gap_loop(res), res
    assert max_zero_gap(Residual((0,), (0, 0, 0), (0,))) == 8
    assert max_zero_gap(Residual((0, 2, 0), (), (0, 3, 0))) == 3
    assert max_zero_gap(Residual((1,), (), (1,))) == 1


def test_validate_constant_two_to_depth_fifty():
    report = validate(refdata.LINEAR, 50)
    assert report.ok and report.depth == 50 and report.witness is None


@pytest.mark.parametrize("c", [2, 3, 4, 5])
@pytest.mark.parametrize("depth", [8, 32, 64])
def test_validate_constants_at_various_depths(c, depth):
    assert validate(QuiddityDescriptor.constant(c), depth).ok


def test_adjacent_ones_invalid_with_band3_witness():
    q = QuiddityDescriptor((2,), (1, 1), (2,), core_start=0)
    report = validate(q)
    assert not report.ok
    i, j, value = report.witness
    assert j - i == 3 and value == 0
    assert (i, j) == (-1, 2)  # a_0 a_1 - 1 = 0, first in band-major scan order


def test_all_ones_invalid_at_band3():
    report = validate(QuiddityDescriptor.constant(1))
    assert not report.ok
    i, j, value = report.witness
    assert j - i == 3 and value == 0


def test_validate_scan_order_deterministic():
    q = QuiddityDescriptor((2,), (1, 1), (2,), core_start=0)
    assert validate(q).witness == validate(q).witness == (-1, 2, 0)


def test_validate_golden_descriptors():
    for q in (refdata.LINEAR, refdata.BUMPED, refdata.ZIGZAG, refdata.MIXED_TAILS):
        assert validate(q).ok


def test_residual_zero_is_scanned_not_consumed():
    # phase A reads a 0 as a consumed position; the frieze entry over it is 0
    for q in (Residual((3,), (0,), (3,)), Residual((3, 0), (), (3, 0))):
        assert _phase_a_accepts(q)
        report = validate(q)
        assert not report.ok and report == validate_rows(q, 64), q


def test_validate_rejects_shallow_depth():
    with pytest.raises(QuiddityError):
        validate(refdata.LINEAR, 1)


def test_long_two_run_before_a_one_is_caught():
    # continuant(2^k, 1, 6) = 5 - k turns negative, so a left 2-tail feeding
    # a lone 1 cannot belong to any infinite frieze
    q = QuiddityDescriptor((2,), (1, 6), (2,), core_start=0)
    assert not validate(q).ok


def _random_word(rng: random.Random, cls, core_start: int):
    low = cls.MIN_VALUE
    tail = lambda: tuple(rng.randint(low, 6) for _ in range(rng.randint(1, 4)))
    core = tuple(rng.randint(low, 6) for _ in range(rng.randint(0, 6)))
    return cls(tail(), core, tail(), core_start)


def test_values_match_value_at():
    rng = random.Random(5113)
    for cls in (QuiddityDescriptor, Residual):
        for _ in range(300):
            start = rng.choice((0, rng.randint(-30, 30), -10**9, 10**9))
            q = _random_word(rng, cls, start)
            end = start + len(q.core)
            for lo, hi in ((start - rng.randint(1, 60), start - 1),    # left tail
                           (start - rng.randint(10, 60), start - rng.randint(1, 9)),
                           (end, end + rng.randint(0, 60)),              # right tail
                           (end + rng.randint(1, 9), end + rng.randint(10, 60)),
                           (start - rng.randint(0, 20), end + rng.randint(0, 20)),
                           (start + 1, end - 2),                         # inside the core
                           (rng.randint(-3, 3), rng.randint(-3, 3) + 40)):  # near 0
                assert q.values(lo, hi) == [q.value_at(i) for i in range(lo, hi + 1)], \
                    (q, lo, hi)
            for lo in (start - 5, start, end, end + 7, rng.randint(-10**9, 10**9)):
                assert q.values(lo, lo - rng.randint(1, 50)) == []  # empty ranges


def test_transfer_matches_matrix_product_oracle():
    rng = random.Random(6029)
    for cls in (QuiddityDescriptor, Residual):
        for _ in range(200):
            start = rng.choice((rng.randint(-10, 10), -10**9, 10**9))
            q = _random_word(rng, cls, start)
            lo = start + rng.randint(-40, 40)
            for hi in (lo + rng.randint(0, 80), lo, lo - 1, lo - rng.randint(2, 9)):
                (a, b), (c, d) = transfer_oracle(q.value_at(i) for i in range(lo, hi + 1))
                assert transfer(q, lo, hi) == (a, b, c, d), (q, lo, hi)
    assert transfer(refdata.LINEAR, 5, 4) == IDENTITY


def _flat(m) -> tuple[int, int, int, int]:
    (a, b), (c, d) = m
    return a, b, c, d


def test_tail_power_matches_squaring_oracle():
    # the Chebyshev recurrence of the period's trace against repeated squaring,
    # over every phase; values from 0, since M(0) has det 1 too
    rng = random.Random(8123)
    for _ in range(100):
        period = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 4)))
        n = len(period)
        m = tuple(rng.randint(-9, 9) for _ in range(4))
        far = round(10 ** rng.uniform(0, 5))  # log-uniform up to 10^5 values
        counts = {w * n + e for w in (0, 1, 2, 3, 8, 2**rng.randint(4, 9)) for e in (-1, 0, 1)}
        for phase in range(n):
            for count in sorted(c for c in counts | {far} if c >= 0):
                want = _tail_transfer(period, phase, count)
                assert _tail(IDENTITY, period, phase, count) == _flat(want), (period, phase, count)
                assert _tail(m, period, phase, count) == _flat(mat_mul(want, (m[:2], m[2:]))), \
                    (period, phase, count, m)


def test_transfer_far_in_the_tails_matches_squaring_oracle():
    # transfer at log-uniform distances up to 10^5, through either tail and across the core
    rng = random.Random(4409)
    for _ in range(120):
        left, right = (tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 4))) for _ in "lr")
        core = tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 5)))
        q = Residual(left, core, right, rng.randint(-10**9, 10**9))
        for _ in range(3):
            back = round(10 ** rng.uniform(0, 5)) if rng.random() < 0.5 else 0
            lo = q.core_start + rng.randint(-20, 20) - back
            hi = lo + round(10 ** rng.uniform(0, 5)) - 1
            assert transfer(q, lo, hi) == _flat(transfer_matrix(q, lo, hi)), (q, lo, hi)


def _phase_a_accepts(q) -> bool:
    """Whether phase A over q's core terminates or recurs without tripping a rule."""
    try:
        a = run_step_a(q, q.core_start, q.core_start)
    except QuiddityError:
        return False
    return a.verdict == "terminated" or a.detected_at is not None


def test_validate_matches_row_major_oracle():
    rng = random.Random(7717)
    invalid = deep = 0
    for k in range(400):
        start = rng.choice((0, rng.randint(-50, 50), rng.randint(-10**9, 10**9)))
        q = _random_word(rng, QuiddityDescriptor, start)
        depth = 256 if k % 100 == 0 else rng.choice((2, 3, rng.randint(2, 64), rng.randint(2, 64)))
        report = validate(q, depth)
        assert report == validate_rows(q, depth), (q, depth)
        invalid += not report.ok
        if k % 50 == 0 and _phase_a_accepts(q):  # deep bands, where validate skips its scan
            deep += 1
            for depth in (256, 512):
                assert validate(q, depth) == validate_rows(q, depth), (q, depth)
    assert 50 <= invalid <= 350  # both verdicts, and witnesses, were compared
    assert deep >= 2


def _certificate_draws(rng: random.Random):
    """(descriptor, known_invalid) pairs for the growth certificate."""
    for _ in range(60):
        yield random_descriptor(rng), False
    for _ in range(40):  # a zero at band n, periodic or inside constant tails
        w = polygon_word(rng, rng.randint(3, 24))
        yield QuiddityDescriptor.periodic(w, rng.randint(-9, 9)), True
        left, right = rng.choice(((2,), (3,))), rng.choice(((2,), (3,)))
        yield QuiddityDescriptor(left, w, right, rng.randint(-30, 5)), True
    for w in (W68, fan_word(70)):
        for tail in ((2,), (3,)):
            yield QuiddityDescriptor(tail, w, tail, -len(w) // 2), True
    for _ in range(20):
        tail = lambda: tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
        yield Residual(tail(), tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 5))),
                       tail(), rng.randint(-9, 9)), False


def test_growth_certificate_holds_only_on_valid_descriptors():
    rng = random.Random(9151)
    held = 0
    for q, known_invalid in _certificate_draws(rng):
        if not grows(q):
            continue
        assert not known_invalid, q
        assert validate_rows(q, 300).ok, q
        _assert_depth_free(q)
        plain = QuiddityDescriptor(q.left_period, q.core, q.right_period, q.core_start)
        out = psi(plain, (q.core_start - 3, q.core_start + 3))
        assert out.m2_class.kind != "empty", q  # certified friezes have no enough ones
        held += 1
    assert held >= 15


def test_growth_certificate_covers_every_class_but_empty():
    for q in (QuiddityDescriptor.constant(3), refdata.LINEAR, refdata.MIXED_TAILS,
              refdata.BUMPED):  # the descriptors of the frieze benchmark
        assert grows(q), q
        _assert_depth_free(q)
    kinds = set()
    for q in bijection_corpus() + random_corpus() + enough_ones_corpus():
        kind = psi(q, (-4, 4)).m2_class.kind
        assert grows(q) == (kind != "empty"), (q, kind)
        if kind != "empty":
            _assert_depth_free(q)
        kinds.add(kind)
    assert kinds == {"empty", "finite", "nat_left", "nat_right", "bi_infinite"}
    assert not grows(refdata.ZIGZAG)


def _best_ms(fn, *args, repeat: int = 7) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _assert_depth_free(q) -> None:
    # the scan to band 10^6 would not finish, so phase A must answer
    depth = 10**6
    assert validate(q, depth) == ValidationReport("valid_to_depth", depth), q
    assert _best_ms(validate, q, depth, repeat=3) < 5, q


def test_certified_validation_is_depth_free():
    for q in (QuiddityDescriptor.constant(3), refdata.MIXED_TAILS, refdata.ZIGZAG):
        assert _phase_a_accepts(q), q
        _assert_depth_free(q)


# tails with 1s, whose friezes may have enough ones, and tails whose entries grow
SOUNDNESS_TAILS = ((5, 1), (4, 1), (6, 1), (3, 1, 4), (4, 1, 4),
                   (2,), (3,), (4,), (2, 3), (3, 3, 2, 4))


def _soundness_draw(rng: random.Random) -> QuiddityDescriptor:
    """A random_descriptor draw over SOUNDNESS_TAILS, its core replaced half
    the time by a polygon word (a zero at band n), bumped at one value half
    of those times."""
    q = random_descriptor(rng, SOUNDNESS_TAILS, max_core=10)
    if rng.random() < 0.5:
        return q
    core = list(polygon_word(rng, rng.randint(3, 12)))
    if rng.random() < 0.5:
        core[rng.randrange(len(core))] += 1
    return QuiddityDescriptor(q.left_period, tuple(core), q.right_period, q.core_start)


def test_phase_a_acceptance_is_sound():
    """Every descriptor phase A accepts is valid to band 120 by the row-major
    oracle, and validate's report equals the oracle's up to band 64."""
    rng = random.Random(2317)
    accepted = rejected = 0
    for _ in range(900):
        q = _soundness_draw(rng)
        if _phase_a_accepts(q):
            assert validate_rows(q, 120).ok, q
            accepted += 1
        depth = rng.choice((2, 3, rng.randint(2, 64), 64))
        report = validate(q, depth)
        assert report == validate_rows(q, depth), (q, depth)
        rejected += not report.ok
    assert accepted >= 250 and rejected >= 300  # both sides were compared
