"""Error contract: psi answers exactly the valid descriptors, and fails cleanly.

psi decides validity with its own pass rules, so its verdict is compared
with validate at a depth past every witness in the draw: the band n of a
triangulated n-gon's zero, and 64 for the random words, whose witnesses
reach band 16 at most over 6000 draws of this shape (checked at depth 300).
An answer must have the window's quiddity and pass the strip checks
(noncrossing, maximality, admissibility); a refusal must be a
QuiddityError.  A few draws go through the CLI, which must exit with a
documented code, never 4 (internal error).  Two extreme cores (one value
10^4, and 3000 values) must give strips that pass every strip check.
"""

from __future__ import annotations

import json
import random

import pytest

from friezes import (QuiddityDescriptor, QuiddityError, StripError, cli, psi, synthesis,
                     validate)
from friezes.serialize import dumps, quiddity_to_json

from corpus import W68, RANDOM_TAILS, fan_word, polygon_word, random_descriptor

TAILS = RANDOM_TAILS + ((1, 3), (2, 1, 4), (1, 4, 2, 3))
RANDOM_DEPTH = 64


def _check(q: QuiddityDescriptor, window: tuple[int, int], depth: int) -> bool:
    """psi's verdict on q matches validate(q, depth), and an answer's strip
    passes every check; True when psi answered."""
    lo, hi = window
    try:
        tri = psi(q, window).triangulation
    except QuiddityError:
        answered = False
    else:
        answered = True
        assert tri.quiddity_of() == dict(enumerate(q.values(lo, hi), lo)), (q, window)
        tri.check_pairwise_noncrossing()
        tri.check_window_maximality()
        assert tri.is_admissible_window(), (q, window)
    assert answered == validate(q, depth).ok, (q, window)
    return answered


def _polygon_draws(rng: random.Random):
    """(descriptor, depth) for ear-inserted n-gon words, periodic and as cores."""
    for n in range(4, 141, 2):
        w = polygon_word(rng, n + rng.randrange(4))
        yield QuiddityDescriptor.periodic(w), len(w)
        left, right = rng.choice((2, 3)), rng.choice((2, 3))
        yield QuiddityDescriptor((left,), w, (right,), -rng.randrange(len(w))), len(w)


def test_polygon_words_are_always_refused():
    rng = random.Random(8111)
    for q, depth in _polygon_draws(rng):
        mid = q.core_start + rng.randrange(-20, len(q.core) + 20)
        assert not _check(q, (mid - 8, mid + 8), depth)


def test_random_words_answer_iff_valid():
    rng = random.Random(8123)
    verdicts = [_check(random_descriptor(rng, TAILS, 10), (-8, 8), RANDOM_DEPTH)
                for _ in range(1000)]
    # both sides of the contract are exercised
    assert 300 < sum(verdicts) < 700


def test_cli_exits_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(8147)
    draws = [q for q, _ in _polygon_draws(rng)][::24]
    draws += [random_descriptor(rng, TAILS, 10) for _ in range(8)]
    f = tmp_path / "q.json"
    for q in draws:
        f.write_text(dumps(quiddity_to_json(q)))
        code = cli.main(["synthesize", "--window=-8..8", str(f)])
        out = capsys.readouterr().out
        assert code in (0, 1), (q, out)
        if code == 1:
            assert json.loads(out)["error"]["kind"] == "invalid", (q, out)


@pytest.mark.parametrize("shift", [0, 10**18, -10**18])
def test_extremes_raise_documented_errors(shift):
    rng = random.Random(8161)
    q = QuiddityDescriptor((5, 1), (2, 3), (1, 5), shift)
    adjacent_ones = QuiddityDescriptor((2,), (1, 1), (2,), shift)  # refused by the first pass
    polygon = QuiddityDescriptor.periodic(polygon_word(rng, 12)).shift(shift)
    with pytest.raises(StripError, match="lo must be <= hi"):
        psi(q, (shift + 1, shift - 1))
    assert psi(q, (shift, shift)).triangulation.quiddity_of() == {shift: 2}
    far = (shift + 500, shift + 508)
    assert psi(q, far).triangulation.quiddity_of() == dict(enumerate(q.values(*far), far[0]))
    with pytest.raises(QuiddityError, match="not a valid quiddity sequence"):
        psi(adjacent_ones, (shift - 8, shift + 8))
    with pytest.raises(QuiddityError, match="not a valid quiddity sequence"):
        psi(polygon, (shift - 8, shift + 8))


def test_refused_psi_runs_phase_a_once(monkeypatch):
    """A refusal scans for validate's witness without a second phase-A run,
    and says what validate(q) at its default depth would have it say."""
    rng = random.Random(8167)
    draws = [q for q, _ in _polygon_draws(rng)][::6]
    draws += [q for q in (random_descriptor(rng, TAILS, 10) for _ in range(200))
              if not validate(q).ok]
    draws += [QuiddityDescriptor.periodic(fan_word(70)), QuiddityDescriptor((3,), W68, (3,), 0),
              QuiddityDescriptor((2,), (1, 1), (2,), 0),
              QuiddityDescriptor.periodic(polygon_word(rng, 12))]
    expected = []
    for q in draws:
        report = validate(q)
        expected.append(None if report.ok else
                        f"not a valid quiddity sequence: t{report.witness[:2]} = "
                        f"{report.witness[2]}")
    calls = []
    run_step_a = synthesis.run_step_a

    def recording(*args, **kwargs):
        calls.append(args[0])
        return run_step_a(*args, **kwargs)

    monkeypatch.setattr(synthesis, "run_step_a", recording)
    for q, message in zip(draws, expected):
        calls.clear()
        with pytest.raises(QuiddityError) as refused:
            psi(q, (-8, 8))
        assert calls == [q], q
        if message is None:  # no witness up to the default depth: the run's own error
            assert "not a valid" not in str(refused.value), q
        else:
            assert type(refused.value) is QuiddityError and str(refused.value) == message, q
    assert sum(m is None for m in expected) >= 3 and len(expected) > 40


def _long_core(rng: random.Random, n: int) -> tuple[int, ...]:
    """n values from 2..5 with a 1 at every seventh place, both its neighbours at least 4."""
    core = [rng.randint(2, 5) for _ in range(n)]
    for k in range(1, n - 1, 7):
        core[k - 1], core[k], core[k + 1] = max(core[k - 1], 4), 1, max(core[k + 1], 4)
    return tuple(core)


@pytest.mark.parametrize("q", [
    QuiddityDescriptor((2,), (10**4,), (2,), 0),
    QuiddityDescriptor((2,), _long_core(random.Random(8179), 3000), (3,), -1500),
], ids=["core_value_1e4", "core_of_3000"])
def test_extreme_cores_give_checked_strips(q):
    """One huge core value, or a core of thousands of values, in a +-8 window."""
    lo, hi = window = (-8, 8)
    tri = psi(q, window).triangulation
    assert tri.quiddity_of() == dict(enumerate(q.values(lo, hi), lo))
    tri.check_pairwise_noncrossing()
    tri.check_window_maximality()
    assert tri.is_admissible_window()
