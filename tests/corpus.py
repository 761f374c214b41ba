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
    """Validated descriptors whose tails contain 1s.

    Six descriptors; only two have enough ones for psi's empty upper class:
    the zigzag (5,1),(2,3),(1,5) and (5,1),(3,2),(1,5).  Periodic (4,1) and
    (4,1),(5,),(1,4) are finite; periodic (5,1) and (6,1),(3,),(1,6) are
    bi_infinite.  test_synthesis pins each class.
    """
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


def random_descriptor(rng: random.Random, tails=RANDOM_TAILS,
                      max_core: int = 6) -> QuiddityDescriptor:
    """One unvalidated draw: tails from `tails`, read in either direction and
    any rotation, the right one mirroring the left a third of the time, as
    the zigzag does; cores of length <= max_core with values <= 6."""
    def tail() -> tuple[int, ...]:
        t = rng.choice(tails)
        k = rng.randrange(len(t))
        t = t[k:] + t[:k]
        return t[::-1] if rng.random() < 0.5 else t

    left = tail()
    right = left[::-1] if rng.random() < 1 / 3 else tail()
    core = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, max_core)))
    return QuiddityDescriptor(left, core, right, rng.randint(-4, 4) - len(core) // 2)


def random_corpus(count: int = 150, seed: int = 3307) -> list[QuiddityDescriptor]:
    """`count` distinct validated random_descriptor draws.

    Invalid draws are discarded, so every descriptor passes the depth-64
    check.
    """
    rng = random.Random(seed)
    out: list[QuiddityDescriptor] = []
    seen = set()
    while len(out) < count:
        q = random_descriptor(rng)
        if q in seen or not validate(q).ok:
            continue
        seen.add(q)
        out.append(q)
    return out


def polygon_word(rng: random.Random, n: int) -> tuple[int, ...]:
    """Quiddity of a random triangulated n-gon (n >= 3), randomly rotated.

    Built by ear insertion (Conway-Coxeter): from the triangle (1, 1, 1),
    each step glues a triangle onto a side, adding 1 to its two ends and
    inserting a new vertex of value 1 between them.  The continuant of any
    n - 1 cyclically consecutive values is 0, so the word puts a zero at
    band n, repeated with period n or as a core, and is never a valid
    infinite quiddity.
    """
    w = [1, 1, 1]
    while len(w) < n:
        i = rng.randrange(len(w))
        w[i] += 1
        w[(i + 1) % len(w)] += 1
        w.insert(i + 1, 1)
    k = rng.randrange(n)
    return tuple(w[k:] + w[:k])


def fan_word(n: int) -> tuple[int, ...]:
    """Quiddity of the n-gon triangulated by the fan from one vertex."""
    return (n - 2, 1) + (2,) * (n - 3) + (1,)


# a triangulated 68-gon: inside constant 3 tails its first zero is
# t(-3, 62), at band 65, just past validate's default depth
W68 = tuple(int(v) for v in """
    3 1 4 2 2 1 5 1 8 1 3 3 2 2 2 2 1 8 2 2 1 6 1 2 9 1 4 1 2 6 1 3 1 8
    1 3 1 4 2 1 5 1 5 1 4 1 2 12 1 6 1 2 3 2 3 1 2 5 4 2 1 5 2 1 6 1 2 4
    """.split())


def log_offset(rng: random.Random, reach: int) -> int:
    """A signed offset, log-uniform in magnitude up to reach."""
    return rng.choice((-1, 1)) * round(reach ** rng.random())
