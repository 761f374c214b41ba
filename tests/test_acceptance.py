"""Acceptance criteria: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is exact
(integer equality); each criterion also enforces its runtime budget.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from friezes import (FriezeView, bci_entry, cc_entry, all_triangulations,
                     has_enough_ones, polygon_from_quiddity, psi,
                     random_triangulation)
from friezes.cli import main
from friezes.serialize import dumps, quiddity_to_json

import refdata
from corpus import bijection_corpus, enough_ones_corpus
from oracles import unimodular_ok


def _criterion(num: int, label: str, limit_s: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"\nCRITERION {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nCRITERION {num} ({label}): PASS  [{elapsed:.2f}s, budget {limit_s:.0f}s]")
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s, budget {limit_s}s"


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"CLI {argv} exited {code}"
    return buf.getvalue()


def _parse_grid(text: str) -> dict[tuple[int, int], int]:
    lines = text.splitlines()
    cols = [int(tok.strip("()")) for tok in lines[0].split()]
    cells = {}
    for line in lines[1:]:
        toks = line.split()
        row = int(toks[0].strip("()"))
        for col, tok in zip(cols, toks[1:]):
            cells[(row, col)] = int(tok)
    return cells


def test_criterion_1_golden_grids(tmp_path):
    def body():
        for name, q, grid in [("linear", refdata.LINEAR, refdata.LINEAR_GRID),
                              ("bumped", refdata.BUMPED, refdata.BUMPED_GRID),
                              ("zigzag", refdata.ZIGZAG, refdata.ZIGZAG_GRID)]:
            t0 = time.perf_counter()
            path = tmp_path / f"{name}.json"
            path.write_text(dumps(quiddity_to_json(q)))
            out = _cli(["frieze", "print", "--rows=-5..5", "--cols=-5..5", str(path)])
            cells = _parse_grid(out)
            for i in range(-5, 6):
                for j in range(-5, 6):
                    assert cells[(i, j)] == refdata.grid_entry(grid, i, j), (name, i, j)
            assert time.perf_counter() - t0 < 1.0, f"{name} grid exceeded 1s"

    _criterion(1, "golden grids", 3.0, body)


def test_criterion_2_heptagon(tmp_path):
    def body():
        from friezes.serialize import polygon_to_json
        p = polygon_from_quiddity(refdata.HEPTAGON_QUIDDITY)
        path = tmp_path / "heptagon.json"
        path.write_text(dumps(polygon_to_json(p)))
        doc = json.loads(_cli(["polygon", "frieze", str(path)]))
        fund = {(a, b): v for a, b, v in doc["fundamental"]}
        for b, want in refdata.HEPTAGON_CC_FROM_1.items():
            assert fund[(1, b)] == want
        for b, want in refdata.HEPTAGON_CC_FROM_2.items():
            assert fund[(2, b)] == want
        fp = p.frieze_pattern()
        for (i, j), want in refdata.HEPTAGON_BAND.items():
            assert fp.entry(i, j) == want, (i, j)
        labels1 = p.cc_labels(1)
        for x in range(2, 8):
            assert fp.entry(x, 8) == labels1[x]

    _criterion(2, "heptagon frieze pattern", 1.0, body)


def test_criterion_3_cc_equals_bci():
    def body():
        def check(p):
            for a in range(1, p.n + 1):
                labels = p.cc_labels(a)
                for b in range(1, p.n + 1):
                    if a == b:
                        continue
                    for direction in (1, -1):
                        walk = p.boundary_walk(a, b, direction)
                        assert p.bci_count(walk) == labels[b], (p.chords, a, b)

        for n in range(3, 9):
            for p in all_triangulations(n):
                check(p)
        rng = random.Random(8128)
        for n in range(9, 13):
            for _ in range(50):
                check(random_triangulation(n, rng))

    _criterion(3, "CC equals BCI both walks", 60.0, body)


def test_criterion_4_algorithm_trace():
    def body():
        out = psi(refdata.MIXED_TAILS, (-8, 8))
        assert out.step_a_verdict == "terminated" and out.step_a_passes == 2
        first, second = out.trace
        assert first.arcs == ((-2, 0),)
        assert first.residual_after.values(-5, 2) == [3, 3, 4, 1, 0, 5, 2, 2]
        assert second.arcs == ((-3, 0),)
        assert second.residual_after.values(-5, 2) == [3, 3, 3, 0, 0, 4, 2, 2]
        assert out.m2_class.kind == "nat_left"
        assert out.triangulation.quiddity_of() == {
            i: refdata.MIXED_TAILS.value_at(i) for i in range(-8, 9)}

    _criterion(4, "algorithm trace", 1.0, body)


def test_criterion_5_bijection_properties():
    corpus = bijection_corpus()
    assert len(corpus) >= 50

    def body():
        window = (-6, 6)
        lo, hi = window
        for q in corpus:
            out = psi(q, window)
            tri = out.triangulation
            view = FriezeView(q)
            assert tri.quiddity_of() == {i: q.value_at(i) for i in range(lo, hi + 1)}
            assert tri.is_admissible_window(), q
            assert tri.special_upper_points() == [], q
            peripherals = set(tri.peripheral_arcs)
            for i in range(lo, hi + 1):
                for j in range(i + 2, hi + 1):
                    assert (view.entry(i, j) == 1) == ((i, j) in peripherals), (q, i, j)
            for i in range(lo, hi + 1):
                for j in range(i, min(i + 8, hi) + 1):
                    want = view.entry(i, j)
                    assert cc_entry(tri, i, j) == want, (q, i, j)
                    assert bci_entry(tri, i, j) == want, (q, i, j)

    _criterion(5, "bijection property corpus", 300.0, body)


def test_criterion_6_dehn_invariance_and_equivalence():
    corpus = bijection_corpus()

    def body():
        window = (-5, 5)
        bi_infinite = []
        for q in corpus:
            out = psi(q, window)
            if out.m2_class.kind == "bi_infinite":
                bi_infinite.append((q, out))
        assert bi_infinite, "corpus lacks bi-infinite instances"
        for q, out in bi_infinite:
            tri = out.triangulation
            base = tri.quiddity_of()
            for n in range(-3, 4):
                assert tri.dehn_twist(n).quiddity_of() == base
        for q, out in bi_infinite[:10]:
            res = out.residual
            first = out.anchor
            second = res.next_nonzero(first)
            while second is not None and res.value_at(second) <= 2:
                second = res.next_nonzero(second)
            if second is None:
                continue
            other = psi(q, window, anchor=second)
            predicted = -sum(max(res.value_at(v) - 2, 0)
                             for v in range(first, second))
            got = out.triangulation.dehn_equivalent(other.triangulation)
            assert got == predicted, (q, first, second)

    _criterion(6, "Dehn invariance and equivalence", 30.0, body)


def test_criterion_7_identity_suite():
    friezes = [refdata.LINEAR, refdata.BUMPED, refdata.ZIGZAG, refdata.MIXED_TAILS]

    def body():
        for q in friezes:
            view = FriezeView(q)
            assert unimodular_ok(view.entry, -21, 21)
            rng = random.Random(31415)
            for _ in range(1000):
                i, j, p, r = (rng.randint(-20, 20) for _ in range(4))
                assert view.ptolemy_holds(i, j, p, r)
            f = {s: view.entry(-1, s) for s in range(-16, 17)}
            g = {s: view.entry(0, s) for s in range(-16, 17)}
            for p in range(-15, 16):
                for r in range(-15, 16):
                    from friezes import entry_from_fg
                    assert entry_from_fg(f[p], f[r], g[p], g[r]) == view.entry(p, r)
            for _ in range(500):
                i, j = rng.randint(-12, 12), rng.randint(-12, 12)
                if i == j:
                    continue
                p, r = rng.randint(-15, 15), rng.randint(-15, 15)
                assert view.reconstruct_entry(i, j, p, r) == view.entry(p, r)
            for p in range(-15, 15):
                for d in range(2, 16):
                    assert view.continuant(p, p + d) == view.entry(p, p + d)
            for i, j in [(-1, 1), (0, 3), (-4, 2), (2, -3)]:
                assert len({view.c_coeff(i, j, k) for k in range(-10, 11)}) == 1
                assert len({view.d_coeff(i, j, k) for k in range(-10, 11)}) == 1

    _criterion(7, "identity suite", 60.0, body)


def test_criterion_8_enough_ones():
    def body():
        zig = psi(refdata.ZIGZAG, (-4, 4))
        assert zig.m2_class.kind == "empty"
        assert has_enough_ones(FriezeView(refdata.ZIGZAG), (-4, 4)).status == "yes"
        lin = psi(refdata.LINEAR, (-4, 4))
        assert lin.m2_class.kind == "finite" and lin.m2_class.size == 1
        assert has_enough_ones(FriezeView(refdata.LINEAR), (-4, 4)).status == "no"
        for q in bijection_corpus() + enough_ones_corpus():
            out = psi(q, (-4, 4))
            if out.m2_class.kind == "empty":
                assert q.has_value(1), q

    _criterion(8, "enough ones correspondence", 30.0, body)
