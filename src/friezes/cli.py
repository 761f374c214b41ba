"""Command line surface.

Subcommands: quiddity, frieze, polygon, strip, synthesize, count, roundtrip.
Exit codes: 0 success, 1 validation failure, 2 inconclusive (the phase-A
pass cap was hit), 3 I/O or schema error (a malformed command line too),
4 internal error (an exception the program does not expect, which is a
bug).  Failures print one JSON object {"error": {"kind", "message"}}.

Defaults for the validation depth and the pass cap may also come from the
environment (FRIEZE_DEPTH, FRIEZE_CAP); an explicit flag wins over the
environment.  main(argv) may be called repeatedly in one process; it builds
its argument parser once, on the first call.

`frieze print` prints at most MAX_GRID_CELLS cells, the row count times the
column count, with an empty range counting as one (its labels still print);
a larger grid is a schema error naming --rows/--cols, raised before any
entry is evaluated.  `synthesize` and `roundtrip` take a --window of at most
MAX_WINDOW points; a wider one is a schema error naming --window, raised
before any synthesis.

Output files (-o, --svg) are overwritten in place, not atomically: the
file keeps its inode, so a symlink is followed and hard links and the mode
are kept.  A write that fails partway leaves the new bytes followed by the
rest of the old file (see _write_text).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
import traceback
from pathlib import Path
from typing import NoReturn

from . import counting, serialize, synthesis
from .frieze import FriezeView
from .quiddity import DEFAULT_DEPTH, QuiddityError, validate
from .render import render_frieze, render_polygon_svg, render_strip_svg
from .serialize import SchemaError
from .strip import StripError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

MAX_GRID_CELLS = 10**6  # largest grid `frieze print` renders
MAX_WINDOW = 10**5  # most lower points a `synthesize` or `roundtrip` window holds


def _setting(flag: int | None, option: str | None, env: str, default: int, least: int) -> int:
    """The flag's value if given, else the environment's, else default; a
    flag or variable below least is a SchemaError that names it."""
    raw = os.environ.get(env)
    if flag is not None:
        value, source = flag, option
    elif raw is None:
        return default
    else:
        source = f"environment variable {env}"
        try:
            value = int(raw)
        except ValueError:
            raise SchemaError(f"{source} must be an integer, got {raw!r}")
    if value < least:
        raise SchemaError(f"{source} must be >= {least}, got {value}")
    return value


def _draw(render, obj, scale: float) -> str:
    """render(obj, scale), or a SchemaError naming --scale unless it is
    finite, > 0 and small enough that every coordinate stays finite."""
    if not 0 < scale < math.inf:  # nan fails both comparisons
        raise SchemaError(f"--scale must be finite and > 0, got {scale}")
    try:
        return render(obj, scale)
    except ValueError as e:
        raise SchemaError(f"--scale is too large to draw, got {scale}") from e


def _fail(kind: str, message: str, code: int) -> int:
    print(serialize.dumps({"error": {"kind": kind, "message": message}}), end="")
    return code


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}")
    return serialize.loads(text)


def _open_untruncated(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)  # open()'s own mode; os.open's is 0o777


def _write_text(path: str, text: str) -> None:
    """Write text to path in place, as Path.write_text would, without O_TRUNC.

    Opening with O_TRUNC empties an existing file first; on ext4 that marks
    it for writeback on close (auto_da_alloc's replace-via-truncate), which
    costs more than writing a strip document.  So the file is opened as it
    is, written, and then cut to the written length: a regular file only,
    as a device, FIFO or tty takes no ftruncate.  A temporary file renamed
    over the target would meet ext4's replace-via-rename flush instead, and
    unlinking first would break symlinks and hard links.

    The bytes, encoding, inode and mode are those of Path.write_text; a new
    file gets 0o666 & ~umask.  What differs is a write that fails partway:
    it leaves the new bytes followed by the old file's rest, where O_TRUNC
    left a prefix of the new ones.  Neither is crash-safe, as neither calls
    fsync.
    """
    try:
        with open(path, "w", opener=_open_untruncated) as f:
            f.write(text)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except OSError as e:
        raise SchemaError(f"cannot write {path}: {e}")


def _parse_range(spec: str, what: str) -> tuple[int, int]:
    # negative bounds need the --flag=LO..HI form, or argparse eats the value
    try:
        lo, hi = spec.split("..", 1)
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise SchemaError(f"{what}: expected LO..HI, got {spec!r}")
    if hi - lo >= sys.maxsize:  # no sequence can hold that many indices
        raise SchemaError(f"{what}: spans more than {sys.maxsize} indices, got {spec!r}")
    return lo, hi


def _parse_window(spec: str) -> tuple[int, int]:
    """--window's range, or a SchemaError when it holds more than MAX_WINDOW points."""
    lo, hi = _parse_range(spec, "--window")
    if hi - lo + 1 > MAX_WINDOW:
        raise SchemaError(f"--window: a window of {hi - lo + 1} points is more than "
                          f"{MAX_WINDOW}, got {spec!r}")
    return lo, hi


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # a usage error, not exit 2 (inconclusive)
        raise SchemaError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="friezes",
        description="Infinite friezes, quiddity sequences, and strip triangulations.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quiddity", help="operations on quiddity descriptors")
    qs = p.add_subparsers(dest="subcommand", required=True)
    v = qs.add_parser("validate", help="positivity check: phase A decides, at any depth; "
                      "when it refuses, a band scan up to --depth names the first witness")
    v.add_argument("--depth", type=int, default=None,
                   help=f"band width to verify, >= 2 (env FRIEZE_DEPTH, default {DEFAULT_DEPTH})")
    v.add_argument("file")

    p = sub.add_parser("frieze", help="evaluate and print infinite friezes")
    fs = p.add_subparsers(dest="subcommand", required=True)
    fp = fs.add_parser("print", help="aligned integer grid of frieze entries, "
                       f"at most {MAX_GRID_CELLS} cells")
    fp.add_argument("--rows", required=True, help="row range LO..HI")
    fp.add_argument("--cols", required=True, help="column range LO..HI")
    fp.add_argument("file")

    p = sub.add_parser("polygon", help="triangulated polygons and counting")
    ps = p.add_subparsers(dest="subcommand", required=True)
    pf = ps.add_parser("frieze", help="rank-n frieze pattern fundamental region")
    pf.add_argument("file")
    pc = ps.add_parser("cc", help="label-propagation counts from a vertex")
    pc.add_argument("--from", dest="source", type=int, required=True)
    pc.add_argument("file")
    pb = ps.add_parser("bci", help="triangle tuple count along a boundary walk")
    pb.add_argument("--walk", required=True, help="comma separated vertices")
    pb.add_argument("file")
    pr = ps.add_parser("render", help="SVG drawing of the polygon")
    pr.add_argument("--svg", required=True, help="output file")
    pr.add_argument("--scale", type=float, default=200.0, help="diameter, finite and > 0")
    pr.add_argument("file")

    p = sub.add_parser("strip", help="strip triangulation queries")
    ss = p.add_subparsers(dest="subcommand", required=True)
    sp = ss.add_parser("phi", help="window quiddity of a triangulation")
    sp.add_argument("file")
    sd = ss.add_parser("dehn", help="apply a Dehn twist power")
    sd.add_argument("--n", type=int, required=True)
    sd.add_argument("-o", "--output", default=None)
    sd.add_argument("file")
    sc = ss.add_parser("check", help="noncrossing, admissibility and special points")
    sc.add_argument("file")
    sr = ss.add_parser("render", help="SVG drawing of the strip")
    sr.add_argument("--svg", required=True, help="output file")
    sr.add_argument("--scale", type=float, default=40.0, help="unit length, finite and > 0")
    sr.add_argument("file")

    p = sub.add_parser("synthesize", help="strip triangulation realizing a quiddity")
    p.add_argument("--window", required=True,
                   help=f"lower index range LO..HI, at most {MAX_WINDOW} points")
    p.add_argument("--cap", type=int, default=None,
                   help=f"phase-A pass cap (env FRIEZE_CAP, default {synthesis.DEFAULT_CAP})")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("file")

    p = sub.add_parser("count", help="frieze entries by counting in the strip")
    p.add_argument("method", choices=["cc", "bci"])
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("file")

    p = sub.add_parser("roundtrip", help="validate, synthesize, and cross-check")
    p.add_argument("--window", default="-6..6",
                   help=f"lower index range LO..HI, at most {MAX_WINDOW} points")
    p.add_argument("file")
    return ap


def _cmd_quiddity(args) -> int:
    depth = _setting(args.depth, "--depth", "FRIEZE_DEPTH", DEFAULT_DEPTH, 2)
    q = serialize.quiddity_from_json(_read_json(args.file))
    report = validate(q, depth)
    out = {"status": report.status, "depth": report.depth}
    if report.witness:
        i, j, value = report.witness
        out["witness"] = {"i": i, "j": j, "value": value}
    print(serialize.dumps(out), end="")
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_frieze(args) -> int:
    q = serialize.quiddity_from_json(_read_json(args.file))
    rows = _parse_range(args.rows, "--rows")
    cols = _parse_range(args.cols, "--cols")
    n_rows, n_cols = (max(1, hi - lo + 1) for lo, hi in (rows, cols))
    if n_rows * n_cols > MAX_GRID_CELLS:
        raise SchemaError(f"--rows/--cols: a grid of {n_rows} x {n_cols} cells is more "
                          f"than {MAX_GRID_CELLS}, got {args.rows!r} and {args.cols!r}")
    print(render_frieze(FriezeView(q), rows, cols), end="")
    return EXIT_OK


def _cmd_polygon(args) -> int:
    p = serialize.polygon_from_json(_read_json(args.file))
    if args.subcommand == "frieze":
        print(serialize.dumps(serialize.frieze_pattern_to_json(p.frieze_pattern())),
              end="")
    elif args.subcommand == "cc":
        labels = p.cc_labels(args.source)
        print(serialize.dumps({"from": args.source,
                               "labels": [labels[v] for v in range(1, p.n + 1)]}),
              end="")
    elif args.subcommand == "bci":
        try:
            walk = [int(v) for v in args.walk.split(",")]
        except ValueError:
            raise SchemaError(f"--walk: expected comma separated integers, got {args.walk!r}")
        print(serialize.dumps({"walk": walk, "count": p.bci_count(walk)}), end="")
    else:
        _write_text(args.svg, _draw(render_polygon_svg, p, args.scale))
        print(serialize.dumps({"written": args.svg}), end="")
    return EXIT_OK


def _cmd_strip(args) -> int:
    t = serialize.strip_from_json(_read_json(args.file))
    if args.subcommand == "phi":
        quid = t.quiddity_of()
        lo, hi = t.window
        print(serialize.dumps({"window": [lo, hi],
                               "values": [quid[i] for i in range(lo, hi + 1)]}), end="")
    elif args.subcommand == "dehn":
        twisted = t.dehn_twist(args.n)
        doc = serialize.strip_dumps(twisted)
        if args.output:
            _write_text(args.output, doc)
            print(serialize.dumps({"written": args.output}), end="")
        else:
            print(doc, end="")
    elif args.subcommand == "check":
        # strip_from_json has already rejected crossing arcs
        specials = [p.index for p in t.special_upper_points()]
        out = {"noncrossing": True,
               "admissible_window": t.is_admissible_window(),
               "special_upper_points": specials}
        print(serialize.dumps(out), end="")
        return EXIT_OK if out["admissible_window"] else EXIT_INVALID
    else:
        _write_text(args.svg, _draw(render_strip_svg, t, args.scale))
        print(serialize.dumps({"written": args.svg}), end="")
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    q = serialize.quiddity_from_json(_read_json(args.file))
    window = _parse_window(args.window)
    cap = _setting(args.cap, "--cap", "FRIEZE_CAP", synthesis.DEFAULT_CAP, 1)
    outcome = synthesis.psi(q, window, cap=cap)
    doc = serialize.strip_dumps(outcome.triangulation)
    if args.output:
        _write_text(args.output, doc)
    if args.svg:
        _write_text(args.svg, render_strip_svg(outcome.triangulation))
    summary = {
        "m2_class": serialize.m2_to_str(outcome.m2_class),
        "step_a": outcome.step_a_verdict,
        "passes": outcome.step_a_passes,
        "written": args.output,
    }
    print(serialize.dumps(summary) if args.output else doc, end="")
    return EXIT_OK


def _cmd_count(args) -> int:
    t = serialize.strip_from_json(_read_json(args.file))
    fn = counting.cc_entry if args.method == "cc" else counting.bci_entry
    value = fn(t, args.i, args.j)
    print(serialize.dumps({"method": args.method, "i": args.i, "j": args.j,
                           "value": value}), end="")
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    q = serialize.quiddity_from_json(_read_json(args.file))
    window = _parse_window(args.window)
    lo, hi = window
    depth = _setting(None, None, "FRIEZE_DEPTH", DEFAULT_DEPTH, 2)
    cap = _setting(None, None, "FRIEZE_CAP", synthesis.DEFAULT_CAP, 1)
    checks: list[tuple[str, bool, str]] = []

    report = validate(q, depth)
    checks.append(("validate", report.ok,
                   f"depth {report.depth}" if report.ok else f"witness {report.witness}"))
    if not report.ok:
        _print_roundtrip(checks)
        return EXIT_INVALID

    outcome = synthesis.psi(q, window, cap=cap)
    tri = outcome.triangulation
    quid = tri.quiddity_of()
    phi_ok = all(quid[i] == q.value_at(i) for i in range(lo, hi + 1))
    checks.append(("phi_roundtrip", phi_ok,
                   f"m2_class {serialize.m2_to_str(outcome.m2_class)}"))
    specials = tri.special_upper_points()
    checks.append(("no_special_upper_points", not specials, f"{len(specials)} found"))
    checks.append(("admissible_window", tri.is_admissible_window(), ""))
    view = FriezeView(q)
    spots = [(i, j) for i in range(lo, hi + 1) for j in range(i, min(i + 4, hi) + 1)]
    cc_ok = all(counting.cc_entry(tri, i, j) == view.entry(i, j) for i, j in spots)
    bci_ok = all(counting.bci_entry(tri, i, j) == view.entry(i, j) for i, j in spots)
    checks.append(("cc_spot_checks", cc_ok, f"{len(spots)} pairs"))
    checks.append(("bci_spot_checks", bci_ok, f"{len(spots)} pairs"))
    _print_roundtrip(checks)
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_INVALID


def _print_roundtrip(checks: list[tuple[str, bool, str]]) -> None:
    for name, ok, note in checks:
        suffix = f"  ({note})" if note else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "quiddity": _cmd_quiddity,
        "frieze": _cmd_frieze,
        "polygon": _cmd_polygon,
        "strip": _cmd_strip,
        "synthesize": _cmd_synthesize,
        "count": _cmd_count,
        "roundtrip": _cmd_roundtrip,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SchemaError as e:
        return _fail("schema", str(e), EXIT_IO)
    except QuiddityError as e:
        return _fail("invalid", str(e), EXIT_INVALID)
    except synthesis.InconclusiveError as e:
        return _fail("inconclusive", str(e), EXIT_INCONCLUSIVE)
    except (StripError, ValueError) as e:
        return _fail("invalid", str(e), EXIT_INVALID)
    except Exception as e:  # a bug: the traceback goes to stderr, the JSON error to stdout
        traceback.print_exc()
        return _fail("internal", f"{type(e).__name__}: {e}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
