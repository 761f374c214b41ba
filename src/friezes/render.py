"""Deterministic text and SVG renderings.

The frieze grid follows the matrix convention: the row index increases from
top to bottom, the column index from left to right, with parenthesized index
labels on the first row and column.  Cells are right-aligned to the widest
entry in the requested window.

SVG output places the strip's lower boundary at the bottom and the upper
boundary at the top, drawing peripheral arcs as semicircles bulging into the
strip and bridging arcs as straight segments.  Polygons are drawn on a
circle.  All coordinates are formatted with fixed precision so identical
inputs give byte-identical files; a scale so large that one is not finite
is a ValueError.
"""

from __future__ import annotations

import math

from .frieze import FriezeView
from .polygon import PolygonTriangulation
from .strip import LOWER, UPPER, StripTriangulation


def render_frieze(view: FriezeView, rows: tuple[int, int],
                  cols: tuple[int, int]) -> str:
    """ASCII grid of t(r, c) for r in rows, c in cols (inclusive, maybe empty).

    Rows r_lo - 1 and r_lo are FriezeView.row walks; each later row comes
    from the two above it by the column recurrence t(r, c) = a_{r-1}
    t(r-1, c) - t(r-2, c), the row recurrence read through antisymmetry, on
    either side of the diagonal.  Cells take the width of the widest label,
    str(max) or str(min), and each line is one %-template.
    """
    (r_lo, r_hi), (c_lo, c_hi) = rows, cols
    grid = []
    if r_lo <= r_hi:
        cur = view.row(r_lo, c_lo, c_hi)
        prev = view.row(r_lo - 1, c_lo, c_hi) if r_lo < r_hi else []
        grid.append(cur)
        for a in view.quiddity.values(r_lo, r_hi - 1):
            prev, cur = cur, [a * x - y for x, y in zip(cur, prev)]
            grid.append(cur)
    labels = [f"({c})" for c in range(c_lo, c_hi + 1)]
    heads = [f"({r})" for r in range(r_lo, r_hi + 1)]
    width = max(map(len, labels + heads), default=0)
    if grid and labels:
        width = max(width, len(str(max(map(max, grid)))), len(str(min(map(min, grid)))))
    header = (f"%{width}s" + f" %{width}s" * len(labels)) % ("", *labels)
    line = f"%{width}s" + f" %{width}d" * len(labels)
    return "\n".join([header.rstrip(), *(line % (head, *cells)
                                        for head, cells in zip(heads, grid))]) + "\n"


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("a coordinate is not finite; the scale is too large")
    return f"{x:.2f}"


def _svg_document(body: list[str], width: float, height: float) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_strip_svg(t: StripTriangulation, scale: float = 40.0) -> str:
    """The arcs of a strip triangulation whose lower span meets the window.

    Arcs living entirely in the margin are not drawn (materializations can
    reach far outside the window); clipped arc endpoints extend the view.
    """
    lo, hi = t.window
    pad = scale
    arcs = [(i, end, j) for i, end, j in t.arc_triples
            if i <= hi + 2 and (j if end == LOWER else i) >= lo - 2]
    lowers = sorted({i for i, _, _ in arcs} | {j for _, end, j in arcs if end == LOWER}
                    | set(range(lo, hi + 1)))
    used_here = {u for _, end, u in arcs if end == UPPER}
    used_anywhere = {u for _, u in t.bridging_arcs}
    uppers = [u for u in t.materialized_upper_labels()
              if u in used_here or u not in used_anywhere]  # keep special points
    x_min = min([lowers[0]] + uppers) if uppers else lowers[0]
    x_max = max([lowers[-1]] + uppers) if uppers else lowers[-1]
    # long arcs may pass over the window; clamp the canvas, they get clipped
    x_min = max(x_min, lo - 3)
    x_max = min(x_max, hi + 3)
    lowers = [i for i in lowers if x_min <= i <= x_max]
    uppers = [u for u in uppers if x_min <= u <= x_max]

    def x_of(i: int) -> float:
        return pad + (i - x_min) * scale

    y_low = pad + scale
    y_up = pad
    body = [f'<line x1="{_fmt(x_of(x_min) - pad / 2)}" y1="{_fmt(y_low)}" '
            f'x2="{_fmt(x_of(x_max) + pad / 2)}" y2="{_fmt(y_low)}" stroke="black"/>']
    if t.m2_class.kind != "empty":
        body.append(f'<line x1="{_fmt(x_of(x_min) - pad / 2)}" y1="{_fmt(y_up)}" '
                    f'x2="{_fmt(x_of(x_max) + pad / 2)}" y2="{_fmt(y_up)}" stroke="black"/>')
    for i, end, j in arcs:
        if end == LOWER:
            x1, x2 = x_of(i), x_of(j)
            r = (x2 - x1) / 2
            ry = min(r, scale * 0.9)
            body.append(f'<path d="M {_fmt(x1)} {_fmt(y_low)} '
                        f'A {_fmt(r)} {_fmt(ry)} 0 0 1 {_fmt(x2)} {_fmt(y_low)}" '
                        f'fill="none" stroke="blue"/>')
        else:
            body.append(f'<line x1="{_fmt(x_of(i))}" y1="{_fmt(y_low)}" '
                        f'x2="{_fmt(x_of(j))}" y2="{_fmt(y_up)}" '
                        f'stroke="green"/>')
    for i in lowers:
        body.append(f'<circle cx="{_fmt(x_of(i))}" cy="{_fmt(y_low)}" r="2" fill="black"/>')
        body.append(f'<text x="{_fmt(x_of(i))}" y="{_fmt(y_low + 14)}" '
                    f'font-size="9" text-anchor="middle">{i}</text>')
    for u in uppers:
        body.append(f'<circle cx="{_fmt(x_of(u))}" cy="{_fmt(y_up)}" r="2" fill="black"/>')
        body.append(f'<text x="{_fmt(x_of(u))}" y="{_fmt(y_up - 5)}" '
                    f'font-size="9" text-anchor="middle">{u}</text>')
    return _svg_document(body, 2 * pad + (x_max - x_min) * scale, 2 * pad + scale)


def render_polygon_svg(p: PolygonTriangulation, scale: float = 200.0) -> str:
    """The polygon on a circle, sides black, chords blue, vertices labeled."""
    pad = 20.0
    cx = cy = pad + scale / 2
    r = scale / 2

    def pos(v: int) -> tuple[float, float]:
        ang = -math.pi / 2 + 2 * math.pi * (v - 1) / p.n
        return (cx + r * math.cos(ang), cy + r * math.sin(ang))

    body = []
    for v in range(1, p.n + 1):
        x1, y1 = pos(v)
        x2, y2 = pos(v % p.n + 1)
        body.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                    f'y2="{_fmt(y2)}" stroke="black"/>')
    for u, v in sorted(p.chords):
        x1, y1 = pos(u)
        x2, y2 = pos(v)
        body.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                    f'y2="{_fmt(y2)}" stroke="blue"/>')
    for v in range(1, p.n + 1):
        x, y = pos(v)
        # divide first: (r + 12) * (x - cx) overflows for a scale above about 1e154
        lx = cx + (x - cx) / r * (r + 12)
        ly = cy + (y - cy) / r * (r + 12)
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2" fill="black"/>')
        body.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="11" '
                    f'text-anchor="middle">{v}</text>')
    return _svg_document(body, 2 * pad + scale, 2 * pad + scale)
