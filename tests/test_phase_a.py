"""Phase A on survivors against the dense oracle, on ear-grown cores and on
runs read off a translation past recurrence; its linear cost in the window
width, and phase B's cost, flat in it."""

from __future__ import annotations

import random
from collections import Counter

from friezes import (InconclusiveError, QuiddityDescriptor, QuiddityError, psi, run_step_a,
                     step_b)
from friezes import synthesis

import refdata
from corpus import (bijection_corpus, enough_ones_corpus, log_offset, random_corpus,
                    random_descriptor)
from oracles import dense_run_step_a
from workcount import lines_run


def _fields(res):
    return res.left_period, res.core, res.right_period, res.core_start


def _outcome(run, q, lo: int, hi: int, cap: int = synthesis.DEFAULT_CAP):
    """Everything a phase-A run reports, or the error it raises."""
    try:
        a = run(q, lo, hi, cap)
    except (QuiddityError, InconclusiveError) as err:
        return type(err), str(err)
    return (a.verdict, a.passes, a.detected_at, a.cut, a.arcs, _fields(a.residual),
            [(r.index, r.ones, r.arcs, _fields(r.residual_after)) for r in a.trace])


def _half_width(rng: random.Random, most: int) -> int:
    return round((most + 1) ** rng.random()) - 1


def test_survivor_runs_match_the_dense_oracle():
    """run_step_a on survivors reports what the dense oracle does: verdict,
    passes, detected_at, cut, sorted arcs, every pass's 1s, arcs and
    residual_after, and the final residual; or the same error.

    Corpora and 400 random_descriptor draws, valid or not, with half-widths
    0..256 and offsets up to +-10^3, both log-uniform.  The dense oracle
    rewrites the whole core on every pass, so runs that go on for hundreds
    of passes get narrow windows: a recurring run consumes its window one
    front step at a time, whatever its width.
    """
    rng = random.Random(90121)
    draws = bijection_corpus() + enough_ones_corpus() + random_corpus()
    draws += [random_descriptor(rng) for _ in range(400)]
    seen = Counter()
    for q in draws:
        hw, mid = _half_width(rng, 256), log_offset(rng, 1000)
        lo, hi = mid - hw - 2, mid + hw + 2
        got = _outcome(run_step_a, q, lo, hi)
        if got[0] in ("nonterminating", "cap_reached") and hw + abs(mid) > 64:
            # a long recurring run: keep its offset, shrink its window
            hw = rng.randint(0, 4)
            lo, hi = mid - hw - 2, mid + hw + 2
            got = _outcome(run_step_a, q, lo, hi)
        assert got == _outcome(dense_run_step_a, q, lo, hi), (q, lo, hi)
        seen[got[0] if isinstance(got[0], str) else "refused"] += 1
        seen["wide"] += hw >= 64
        seen["far"] += abs(mid) >= 300
    assert seen["terminated"] >= 300 and seen["refused"] >= 60, seen
    assert seen["nonterminating"] + seen["cap_reached"] >= 4, seen
    assert seen["wide"] >= 40 and seen["far"] >= 40, seen


EATEN = QuiddityDescriptor((3,), (1, 2), (3,), core_start=-1)


def test_recurring_runs_match_the_dense_oracle_far_out_and_past_the_cap():
    """The cap counts only passes before recurrence, so these runs answer
    past it; the dense oracle counts every pass and gets a cap above them."""
    empty = [refdata.ZIGZAG, QuiddityDescriptor((5, 1), (3, 2), (1, 5), core_start=-1), EATEN]
    cases = [(q, hw, mid, cap) for q in empty
             for hw, mid, cap in ((0, 0, 1000), (256, 0, 1000), (8, 300, 1000), (8, 0, 3),
                                  (100, 100, 60))]
    # recurrence is seen at once, and 1000 passes do not consume this window
    cases.append((EATEN, 8, -600, 1000))
    seen = Counter()
    for q, hw, mid, cap in cases:
        lo, hi = mid - hw - 2, mid + hw + 2
        got = _outcome(run_step_a, q, lo, hi, cap)
        assert got == _outcome(dense_run_step_a, q, lo, hi, 2000), (q, lo, hi, cap)
        seen[got[0]] += 1
        seen["past the cap"] += got[1] > cap
    assert seen["nonterminating"] == len(cases) and seen["past the cap"] >= 7, seen


def _empty_class_draws(rng: random.Random) -> list[QuiddityDescriptor]:
    """The corpora's empty-class descriptors, EATEN, and ear-grown copies of
    them, whose runs may settle into translation a period or two after
    recurrence is seen."""
    corpora = bijection_corpus() + enough_ones_corpus() + random_corpus()
    empty = [q for q in corpora if psi(q, (-4, 4)).m2_class.kind == "empty"] + [EATEN]
    return empty + [_grow_ears(rng, rng.choice(empty), rng.randint(1, 30)) for _ in range(8)]


def test_translated_runs_match_the_dense_oracle_record_by_record():
    """Past recurrence a run steps one period, checks it against a
    translation and reads every later pass off it: each pass's 1s, arcs and
    residual_after, and the verdict, passes, cut and final residual, are
    the pass-by-pass oracle's, out to log-uniform offsets of +-10^3."""
    rng = random.Random(90127)
    seen = Counter()
    draws = _empty_class_draws(rng)
    for k, q in enumerate(draws):
        far = [rng.choice((-1, 1)) * rng.randint(300, 1000)] if k < 2 else []
        for mid in (0, log_offset(rng, 1000), *far):
            hw = rng.randint(0, 6)
            lo, hi = mid - hw - 2, mid + hw + 2
            got = _outcome(run_step_a, q, lo, hi)
            assert got[0] == "nonterminating", (q, lo, hi)
            assert got == _outcome(dense_run_step_a, q, lo, hi, cap=got[1] + 1), (q, lo, hi)
            a = run_step_a(q, lo, hi)
            jump = a._history.jump
            seen["moved"] += jump is not None
            seen["retried"] += jump is not None and jump.b >= a.detected_at
    assert seen["moved"] >= 20 and seen["retried"] >= 1, seen


def test_zigzag_steps_as_many_passes_at_any_offset(monkeypatch):
    """A +-8 zigzag window steps the same passes at offsets 0 to 10^9: the
    rest are read off the translation, and the last pass's 1 and arc move
    with their fronts, two positions per two passes.  psi's strip holds the
    window's cut, about two arcs per position of distance, so it is checked
    at 10^4: its triangle counts are q's and both strip checks hold, after
    as many steps."""
    steps = []
    step = synthesis._Survivors.step

    def counted(self):
        steps[-1] += 1
        return step(self)

    monkeypatch.setattr(synthesis._Survivors, "step", counted)
    runs = {}
    for mid in (0, 10**3, 10**6, 10**9):
        steps.append(0)
        runs[mid] = run_step_a(refdata.ZIGZAG, mid - 10, mid + 10)
    assert len(set(steps)) == 1 and steps[0] < 12, steps
    for mid, a in runs.items():
        assert (a.verdict, a.detected_at, a.passes) == ("nonterminating", 3, max(mid + 11, 12)), mid
        assert a.cut == (-mid - 10, mid + 11) and len(a.trace) == a.passes, mid
        if not mid:
            continue  # the left front consumes a window around the core last
        last = a.trace[-1]
        assert (last.ones, last.arcs) == ((mid + 9,), ((-mid - 10, mid + 11),)), mid
    steps.append(0)
    tri = psi(refdata.ZIGZAG, (10**4 - 8, 10**4 + 8)).triangulation
    assert steps[-1] == steps[0], steps
    assert tri.quiddity_of() == dict(enumerate(refdata.ZIGZAG.values(*tri.window), tri.window[0]))
    tri.check_pairwise_noncrossing()
    tri.check_window_maximality()


def _nested_ears(n: int) -> QuiddityDescriptor:
    """n + 1 ears, each glued onto the one before, inside constant-3 tails:
    phase A removes one per pass."""
    return QuiddityDescriptor((3,), (n + 3, 1) + (2,) * n + (4,), (3,), 0)


def _grow_ears(rng: random.Random, q: QuiddityDescriptor, ears: int) -> QuiddityDescriptor:
    """q with ears glued on at random: each turns two neighbours a, b of its
    core and one period per side into a + 1, 1, b + 1.  The new triangle
    leaves the upper boundary, and so the class, as it was."""
    L = len(q.left_period)
    lo = q.core_start - L
    word = q.values(lo, q.core_start + len(q.core) + len(q.right_period) - 1)
    for _ in range(ears):
        i = rng.randrange(len(word) - 1)
        word[i:i + 2] = [word[i] + 1, 1, word[i + 1] + 1]
    return QuiddityDescriptor(q.left_period, tuple(word), q.right_period, lo)


def test_nested_ear_cores_answer_at_the_default_cap():
    rng = random.Random(4441)
    for n in sorted({100, 999, *(round(10 ** rng.uniform(2, 3)) for _ in range(3))}):
        n = min(n, 999)
        q = _nested_ears(n)
        out = psi(q, (-8, 8))
        assert out.m2_class.kind == "bi_infinite", n
        assert out.step_a_verdict == "terminated" and out.step_a_passes == n + 1, n
        if n <= 200:
            assert _outcome(run_step_a, q, -10, 10) == _outcome(dense_run_step_a, q, -10, 10)


def test_random_ear_insertions_keep_the_class():
    rng = random.Random(4447)
    bases = bijection_corpus() + enough_ones_corpus() + random_corpus()
    kinds = Counter()
    for k in range(12):
        q = rng.choice(bases)
        ears = round(10 ** rng.uniform(2, 3)) if k % 3 else rng.randint(100, 200)
        grown = _grow_ears(rng, q, min(ears, 999))
        out = psi(grown, (-8, 8))
        assert out.m2_class == psi(q, (-8, 8)).m2_class, (q, ears)
        if ears <= 200:
            assert (_outcome(run_step_a, grown, -10, 10)
                    == _outcome(dense_run_step_a, grown, -10, 10)), (q, ears)
            kinds["compared"] += 1
        kinds[out.m2_class.kind] += 1
    assert kinds["compared"] >= 4 and len(kinds) >= 3, kinds


def test_zigzag_run_work_is_linear_in_the_window_width():
    # a run of about hw passes that each reread the core would take ~4x per doubling
    work = {hw: lines_run(lambda: run_step_a(refdata.ZIGZAG, -hw - 2, hw + 2))
            for hw in (128, 256, 512)}
    assert work[512] < 2.3 * work[256] < 2.3 ** 2 * work[128], work
    assert work[512] < 400 * 1024, work


def test_step_b_work_does_not_grow_with_the_window():
    # each piece of the cut has its first copy planted position by position and its
    # later whole tail periods emitted as C-level series, so the lines run are flat
    for q in (QuiddityDescriptor.constant(3), refdata.BUMPED, refdata.MIXED_TAILS):
        work = {}
        for hw in (64, 512, 4096):
            a = run_step_a(q, -hw - 2, hw + 2)
            (r_lo, r_hi), res = a.cut, a.residual
            work[hw] = lines_run(lambda: step_b(res, (-hw, hw), r_lo, r_hi))
        assert len(set(work.values())) == 1, (q, work)
