"""Seeded descriptor corpora for the bijection and identity suites."""

from __future__ import annotations

import random

from friezes import QuiddityDescriptor, validate

import refdata


def bijection_corpus(count: int = 56, seed: int = 1147) -> list[QuiddityDescriptor]:
    """At least `count` validated descriptors: constant 2/3 tails, random cores.

    Cores have length <= 8 and values <= 6; invalid draws are discarded, so
    the corpus only contains descriptors that pass the depth-64 check.
    """
    rng = random.Random(seed)
    out: list[QuiddityDescriptor] = [
        refdata.LINEAR,
        QuiddityDescriptor.constant(3),
        refdata.BUMPED,
        refdata.MIXED_TAILS,
    ]
    seen = {(q.left_period, q.core, q.right_period, q.core_start) for q in out}
    while len(out) < count:
        left = rng.choice(((2,), (3,)))
        right = rng.choice(((2,), (3,)))
        core = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 8)))
        q = QuiddityDescriptor(left, core, right, -(len(core) // 2))
        key = (q.left_period, q.core, q.right_period, q.core_start)
        if key in seen or not validate(q).ok:
            continue
        seen.add(key)
        out.append(q)
    return out


def enough_ones_corpus(seed: int = 2291) -> list[QuiddityDescriptor]:
    """Validated descriptors whose tails contain 1s (candidates for empty M2)."""
    rng = random.Random(seed)
    candidates = [
        refdata.ZIGZAG,
        QuiddityDescriptor.periodic((4, 1)),
        QuiddityDescriptor.periodic((5, 1)),
        QuiddityDescriptor((4, 1), (2, 3), (1, 4), core_start=0),
        QuiddityDescriptor((5, 1), (3, 2), (1, 5), core_start=-1),
    ]
    for _ in range(8):
        tail = rng.choice(((4, 1), (5, 1), (6, 1)))
        core = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4)))
        candidates.append(QuiddityDescriptor(tail, core, tail[::-1],
                                             core_start=-(len(core) // 2)))
    return [q for q in candidates if validate(q).ok]


# tail periods for random draws, read in either direction and any rotation;
# the 1-bearing ones let phase A consume tail values
RANDOM_TAILS = ((2,), (2,), (3,), (4,), (2, 3), (2, 2, 3), (3, 3, 2, 4),
                (4, 1), (5, 1), (3, 1, 4), (6, 1, 2))


def random_corpus(count: int = 150, seed: int = 3307) -> list[QuiddityDescriptor]:
    """`count` distinct validated descriptors with tails from RANDOM_TAILS.

    A third of the draws mirror the left tail on the right, as the zigzag
    does; cores have length <= 6 and values <= 6.  Invalid draws are
    discarded, so every descriptor passes the depth-64 check.
    """
    rng = random.Random(seed)

    def tail() -> tuple[int, ...]:
        t = rng.choice(RANDOM_TAILS)
        k = rng.randrange(len(t))
        t = t[k:] + t[:k]
        return t[::-1] if rng.random() < 0.5 else t

    out: list[QuiddityDescriptor] = []
    seen = set()
    while len(out) < count:
        left = tail()
        right = left[::-1] if rng.random() < 1 / 3 else tail()
        core = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 6)))
        q = QuiddityDescriptor(left, core, right, rng.randint(-4, 4) - len(core) // 2)
        if q in seen or not validate(q).ok:
            continue
        seen.add(q)
        out.append(q)
    return out
