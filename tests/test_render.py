"""Rendering: grid text against committed goldens, SVG determinism."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from friezes import FriezeView, polygon_from_quiddity, psi
from friezes.render import render_frieze, render_polygon_svg, render_strip_svg

import refdata

GOLDEN = Path(__file__).parent / "golden"


def parse_grid(text: str) -> dict[tuple[int, int], int]:
    """Read the rendered grid back into {(row, col): value}."""
    lines = text.splitlines()
    cols = [int(tok.strip("()")) for tok in lines[0].split()]
    out = {}
    for line in lines[1:]:
        toks = line.split()
        row = int(toks[0].strip("()"))
        for col, tok in zip(cols, toks[1:]):
            out[(row, col)] = int(tok)
    return out


@pytest.mark.parametrize("name,q,grid", [
    ("linear", refdata.LINEAR, refdata.LINEAR_GRID),
    ("bumped", refdata.BUMPED, refdata.BUMPED_GRID),
    ("zigzag", refdata.ZIGZAG, refdata.ZIGZAG_GRID),
])
def test_grid_renders_match_goldens_and_reference_values(name, q, grid):
    rendered = render_frieze(FriezeView(q), (-5, 5), (-5, 5))
    assert rendered == (GOLDEN / f"{name}_grid.txt").read_text()
    cells = parse_grid(rendered)
    for i in range(-5, 6):
        for j in range(-5, 6):
            assert cells[(i, j)] == refdata.grid_entry(grid, i, j)


def test_empty_window_renders_header_only():
    out = render_frieze(FriezeView(refdata.LINEAR), (1, 0), (-2, 2))
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].split() == ["(-2)", "(-1)", "(0)", "(1)", "(2)"]


def test_grid_cells_are_fixed_width():
    out = render_frieze(FriezeView(refdata.ZIGZAG), (-5, 5), (-5, 5))
    body = out.splitlines()[1:]
    widths = {len(line) for line in body}
    assert len(widths) == 1  # right-aligned constant-width rows


def test_strip_svg_matches_golden():
    tri = psi(refdata.MIXED_TAILS, (-6, 6)).triangulation
    svg = render_strip_svg(tri)
    assert svg == (GOLDEN / "mixed_tails_strip.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # one straight segment per bridging arc, one path per peripheral arc
    assert svg.count("<path") == len(tri.peripheral_arcs)


def test_polygon_svg_matches_golden():
    p = polygon_from_quiddity(refdata.HEPTAGON_QUIDDITY)
    svg = render_polygon_svg(p)
    assert svg == (GOLDEN / "heptagon.svg").read_text()
    assert svg.count('stroke="blue"') == len(p.chords)


def test_renders_are_deterministic():
    tri = psi(refdata.ZIGZAG, (-4, 4)).triangulation
    assert render_strip_svg(tri) == render_strip_svg(tri)


def test_polygon_svg_at_a_huge_scale_has_finite_coordinates():
    # the label offset divides before it multiplies, so no radius-sized product overflows
    p = polygon_from_quiddity((1, 3, 1, 2, 2))
    svg = render_polygon_svg(p, 1e200)
    coords = [float(v) for v in re.findall(r'\b(?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', svg)]
    # two per line end, vertex dot and label
    assert len(coords) == 4 * (p.n + len(p.chords)) + 4 * p.n
    assert all(map(math.isfinite, coords))
