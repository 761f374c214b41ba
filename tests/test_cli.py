"""Command line behaviour: outputs, exit codes, config precedence."""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from friezes import FriezeView, QuiddityDescriptor, cli, polygon_from_quiddity, psi
from friezes.cli import main
from friezes.serialize import (dumps, polygon_to_json, quiddity_to_json, strip_dumps,
                               strip_from_json, strip_to_json)

import refdata

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def qfile(tmp_path):
    def write(q, name="q.json"):
        path = tmp_path / name
        path.write_text(dumps(quiddity_to_json(q)))
        return str(path)
    return write


@pytest.fixture()
def input_for(qfile, tmp_path):
    """The file a command line reads: a heptagon for polygon commands, a
    constant-3 strip for strip and count commands, else constant 3's
    quiddity, whose validation is depth-free."""
    def write(argv):
        c3 = QuiddityDescriptor.constant(3)
        if argv[0] == "polygon":
            doc = dumps(polygon_to_json(polygon_from_quiddity(refdata.HEPTAGON_QUIDDITY)))
        elif argv[0] in ("strip", "count"):
            doc = strip_dumps(psi(c3, (-2, 2)).triangulation)
        else:
            return qfile(c3)
        path = tmp_path / f"{argv[0]}.json"
        path.write_text(doc)
        return str(path)
    return write


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_quiddity_validate_ok(qfile, capsys):
    assert main(["quiddity", "validate", qfile(refdata.LINEAR)]) == 0
    out = _json_out(capsys)
    assert out["status"] == "valid_to_depth" and out["depth"] == 64


def test_quiddity_validate_invalid_exit_code(qfile, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(dumps({"left_period": [2], "core": [1, 1],
                          "right_period": [2], "core_start": 0}))
    assert main(["quiddity", "validate", str(bad)]) == 1
    out = _json_out(capsys)
    assert out["status"] == "invalid" and out["witness"]["value"] == 0


def test_quiddity_validate_depth_flag_beats_env(qfile, capsys, monkeypatch):
    monkeypatch.setenv("FRIEZE_DEPTH", "10")
    assert main(["quiddity", "validate", qfile(refdata.LINEAR)]) == 0
    assert _json_out(capsys)["depth"] == 10
    assert main(["quiddity", "validate", "--depth", "7", qfile(refdata.LINEAR)]) == 0
    assert _json_out(capsys)["depth"] == 7


def test_frieze_print_matches_golden(qfile, capsys):
    assert main(["frieze", "print", "--rows=-5..5", "--cols=-5..5",
                 qfile(refdata.BUMPED)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "bumped_grid.txt").read_text()


def test_frieze_print_bad_range_is_schema_error(qfile, capsys):
    assert main(["frieze", "print", "--rows=oops", "--cols=0..1",
                 qfile(refdata.LINEAR)]) == 3
    assert "error" in _json_out(capsys)


def test_polygon_subcommands(tmp_path, capsys):
    from friezes import polygon_from_quiddity
    from friezes.serialize import polygon_to_json
    p = polygon_from_quiddity(refdata.HEPTAGON_QUIDDITY)
    pf = tmp_path / "hept.json"
    pf.write_text(dumps(polygon_to_json(p)))

    assert main(["polygon", "cc", "--from", "1", str(pf)]) == 0
    out = _json_out(capsys)
    assert out["labels"] == [0, 1, 2, 5, 3, 4, 1]

    assert main(["polygon", "bci", "--walk", "1,2,3", str(pf)]) == 0
    assert _json_out(capsys)["count"] == 2

    assert main(["polygon", "frieze", str(pf)]) == 0
    fund = {(a, b): v for a, b, v in _json_out(capsys)["fundamental"]}
    assert fund[(1, 4)] == 5 and fund[(2, 5)] == 2

    svg = tmp_path / "hept.svg"
    assert main(["polygon", "render", "--svg", str(svg), str(pf)]) == 0
    assert svg.read_text().startswith("<svg")


def test_synthesize_strip_and_count_pipeline(qfile, tmp_path, capsys):
    tri_path = tmp_path / "tri.json"
    assert main(["synthesize", "--window=-6..6",
                 "-o", str(tri_path), qfile(refdata.MIXED_TAILS)]) == 0
    summary = _json_out(capsys)
    assert summary["m2_class"] == "nat_left" and summary["passes"] == 2

    tri = strip_from_json(json.loads(tri_path.read_text()))
    assert tri.window == (-6, 6)

    assert main(["strip", "phi", str(tri_path)]) == 0
    phi = _json_out(capsys)
    assert phi["values"] == [refdata.MIXED_TAILS.value_at(i) for i in range(-6, 7)]

    assert main(["count", "cc", "--i", "0", "--j", "3", str(tri_path)]) == 0
    assert _json_out(capsys)["value"] == 3
    assert main(["count", "bci", "--i", "-4", "--j", "-1", str(tri_path)]) == 0
    assert _json_out(capsys)["value"] == 7

    assert main(["strip", "check", str(tri_path)]) == 0
    check = _json_out(capsys)
    assert check["noncrossing"] and check["admissible_window"]
    assert check["special_upper_points"] == []

    svg = tmp_path / "strip.svg"
    assert main(["strip", "render", "--svg", str(svg), str(tri_path)]) == 0
    assert svg.read_text().startswith("<svg")


def test_strip_dehn_twist_cli(qfile, tmp_path, capsys):
    tri_path = tmp_path / "t3.json"
    q3 = qfile(refdata.LINEAR, "c3.json")
    Path(q3).write_text(dumps({"left_period": [3], "core": [],
                               "right_period": [3], "core_start": 0}))
    assert main(["synthesize", "--window=-4..4", "-o", str(tri_path), q3]) == 0
    capsys.readouterr()
    assert main(["strip", "dehn", "--n", "2", str(tri_path)]) == 0
    twisted = strip_from_json(json.loads(capsys.readouterr().out))
    original = strip_from_json(json.loads(tri_path.read_text()))
    assert original.dehn_equivalent(twisted) == 2


def test_synthesize_document_matches_golden(qfile, tmp_path, capsys):
    golden = (GOLDEN / "mixed_tails_strip.json").read_bytes()
    out = tmp_path / "tri.json"
    q = qfile(refdata.MIXED_TAILS)
    assert main(["synthesize", "--window=-6..6", "-o", str(out), q]) == 0
    assert out.read_bytes() == golden
    capsys.readouterr()
    assert main(["synthesize", "--window=-6..6", q]) == 0
    assert capsys.readouterr().out.encode() == golden


def test_strip_dehn_document_bytes(qfile, tmp_path, capsys):
    tri_path, out = tmp_path / "t3.json", tmp_path / "twisted.json"
    q3 = qfile(refdata.LINEAR, "c3.json")
    Path(q3).write_text(dumps({"left_period": [3], "core": [],
                               "right_period": [3], "core_start": 0}))
    assert main(["synthesize", "--window=-4..4", "-o", str(tri_path), q3]) == 0
    twisted = strip_from_json(json.loads(tri_path.read_text())).dehn_twist(2)
    want = dumps(strip_to_json(twisted))
    capsys.readouterr()
    assert main(["strip", "dehn", "--n", "2", str(tri_path)]) == 0
    assert capsys.readouterr().out.encode() == want.encode()
    assert main(["strip", "dehn", "--n", "2", "-o", str(out), str(tri_path)]) == 0
    assert _json_out(capsys) == {"written": str(out)}
    assert out.read_bytes() == want.encode()


@pytest.fixture()
def synth_to(qfile, capsys):
    """synthesize constant 3 over a window into a path; exits 0."""
    q = qfile(QuiddityDescriptor.constant(3), "c3.json")

    def run(window, out):
        assert main(["synthesize", f"--window={window}", "-o", str(out), q]) == 0
        assert _json_out(capsys)["written"] == str(out)
    return run


def test_overwriting_a_longer_document_leaves_no_old_tail(synth_to, tmp_path):
    fresh, out = tmp_path / "fresh.json", tmp_path / "out.json"
    synth_to("-2..2", fresh)
    synth_to("-64..64", out)
    assert out.stat().st_size > 10 * fresh.stat().st_size
    synth_to("-2..2", out)
    assert out.read_bytes() == fresh.read_bytes()


def test_overwriting_keeps_links_inode_and_mode(synth_to, tmp_path):
    fresh, target = tmp_path / "fresh.json", tmp_path / "target.json"
    link, hard = tmp_path / "link.json", tmp_path / "hard.json"
    synth_to("-2..2", fresh)
    synth_to("-64..64", target)
    target.chmod(0o600)
    link.symlink_to(target)
    os.link(target, hard)
    inode = target.stat().st_ino
    synth_to("-2..2", link)
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()
    assert hard.read_bytes() == fresh.read_bytes()
    assert target.stat().st_ino == inode and stat.S_IMODE(target.stat().st_mode) == 0o600


def test_new_output_file_mode_follows_umask(synth_to, tmp_path):
    umask = os.umask(0o027)
    try:
        synth_to("-2..2", tmp_path / "new.json")
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o666 & ~0o027


def test_output_to_a_device_is_written_untruncated(synth_to):
    synth_to("-2..2", os.devnull)  # ftruncate on a character device would fail


@pytest.mark.parametrize("target", [".", "missing/out.json"])
def test_unwritable_output_is_schema_error(qfile, tmp_path, capsys, target):
    out = str(tmp_path / target)
    assert main(["synthesize", "--window=-2..2", "-o", out, qfile(refdata.LINEAR)]) == 3
    error = _json_out(capsys)["error"]
    assert error["kind"] == "schema" and error["message"].startswith(f"cannot write {out}: ")


def test_roundtrip_command(qfile, capsys):
    assert main(["roundtrip", "--window=-5..5", qfile(refdata.MIXED_TAILS)]) == 0
    out = capsys.readouterr().out
    assert "PASS phi_roundtrip" in out and "FAIL" not in out


def test_roundtrip_invalid_input(qfile, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(dumps({"left_period": [1], "core": [], "right_period": [1],
                          "core_start": 0}))
    assert main(["roundtrip", str(bad)]) == 1
    assert "FAIL validate" in capsys.readouterr().out


def test_missing_file_is_io_error(capsys):
    assert main(["quiddity", "validate", "/nonexistent.json"]) == 3
    assert _json_out(capsys)["error"]["kind"] == "schema"


def test_synthesize_cap_reached_is_inconclusive(qfile, capsys, monkeypatch):
    # force an absurdly small pass cap through the environment
    monkeypatch.setenv("FRIEZE_CAP", "1")
    assert main(["synthesize", "--window=-4..4", qfile(refdata.ZIGZAG)]) == 2
    assert _json_out(capsys)["error"]["kind"] == "inconclusive"


def test_bad_env_value_is_schema_error(qfile, capsys, monkeypatch):
    monkeypatch.setenv("FRIEZE_DEPTH", "many")
    assert main(["quiddity", "validate", qfile(refdata.LINEAR)]) == 3
    assert _json_out(capsys)["error"]["kind"] == "schema"


@pytest.mark.parametrize("argv, env, named", [
    (["quiddity", "validate", "--depth", "1"], {}, "--depth must be >= 2, got 1"),
    (["quiddity", "validate", "--depth", "0"], {}, "--depth must be >= 2, got 0"),
    (["quiddity", "validate", "--depth=-5"], {}, "--depth must be >= 2, got -5"),
    (["quiddity", "validate"], {"FRIEZE_DEPTH": "1"},
     "environment variable FRIEZE_DEPTH must be >= 2, got 1"),
    (["roundtrip"], {"FRIEZE_DEPTH": "1"},
     "environment variable FRIEZE_DEPTH must be >= 2, got 1"),
    (["roundtrip"], {"FRIEZE_CAP": "0"}, "environment variable FRIEZE_CAP must be >= 1, got 0"),
    (["synthesize", "--window=-4..4", "--cap", "0"], {}, "--cap must be >= 1, got 0"),
    (["synthesize", "--window=-4..4"], {"FRIEZE_CAP": "-2"},
     "environment variable FRIEZE_CAP must be >= 1, got -2"),
    (["polygon", "render", "--svg", "p.svg", "--scale", "0"], {},
     "--scale must be finite and > 0, got 0.0"),
    (["polygon", "render", "--svg", "p.svg", "--scale=-3"], {},
     "--scale must be finite and > 0, got -3.0"),
    (["polygon", "render", "--svg", "p.svg", "--scale", "nan"], {},
     "--scale must be finite and > 0, got nan"),
    (["strip", "render", "--svg", "s.svg", "--scale", "0"], {},
     "--scale must be finite and > 0, got 0.0"),
    (["strip", "render", "--svg", "s.svg", "--scale=-1e-3"], {},
     "--scale must be finite and > 0, got -0.001"),
    (["strip", "render", "--svg", "s.svg", "--scale", "inf"], {},
     "--scale must be finite and > 0, got inf"),
    (["strip", "render", "--svg", "s.svg", "--scale=1e308"], {},
     "--scale is too large to draw, got 1e+308"),
    (["strip", "render", "--svg", "s.svg", "--scale", "1e308"], {},
     "--scale is too large to draw, got 1e+308"),
    # a malformed command line too, never argparse's exit 2, which means inconclusive
    (["quiddity", "validate", "--depth", "x"], {}, "argument --depth: invalid int value: 'x'"),
    (["quiddity", "validate", "--deep=3"], {}, "unrecognized arguments: --deep=3"),
    (["synthesize"], {}, "the following arguments are required: --window"),
    (["polygon", "render", "--svg", "p.svg", "--scale", "wide"], {},
     "argument --scale: invalid float value: 'wide'"),
    # a range no sequence can hold, checked before any work
    (["synthesize", f"--window=0..{10**30}"], {},
     f"--window: spans more than {sys.maxsize} indices, got '0..{10**30}'"),
    (["frieze", "print", f"--rows=0..{10**30}", "--cols=0..3"], {},
     f"--rows: spans more than {sys.maxsize} indices, got '0..{10**30}'"),
    # a grid past cli.MAX_GRID_CELLS, refused before any entry is evaluated
    (["frieze", "print", f"--rows=0..{10**12}", "--cols=0..3"], {},
     f"--rows/--cols: a grid of {10**12 + 1} x 4 cells is more than 1000000, "
     f"got '0..{10**12}' and '0..3'"),
    (["frieze", "print", "--rows=-500..500", "--cols=0..999"], {},
     "--rows/--cols: a grid of 1001 x 1000 cells is more than 1000000, "
     "got '-500..500' and '0..999'"),
    (["frieze", "print", "--rows=7..6", f"--cols=-{10**6}..0"], {},
     "--rows/--cols: a grid of 1 x 1000001 cells is more than 1000000, "
     f"got '7..6' and '-{10**6}..0'"),
    # a window past cli.MAX_WINDOW points, refused before any synthesis
    (["synthesize", f"--window=0..{10**12}"], {},
     f"--window: a window of {10**12 + 1} points is more than 100000, got '0..{10**12}'"),
    (["synthesize", "--window=0..100000", "--svg", "s.svg"], {},
     "--window: a window of 100001 points is more than 100000, got '0..100000'"),
    (["roundtrip", "--window=-50000..50000"], {},
     "--window: a window of 100001 points is more than 100000, got '-50000..50000'"),
    (["roundtrip", f"--window={-10**12}..{10**12}"], {"FRIEZE_DEPTH": "10"},
     f"--window: a window of {2 * 10**12 + 1} points is more than 100000, "
     f"got '{-10**12}..{10**12}'"),
    # a grid past cli.MAX_GRID_DIGITS: 200001 cells of constant 3 of up to 10^5 digits
    (["frieze", "print", "--rows=0..0", "--cols=0..200000"], {},
     "--rows/--cols: a grid of 1 x 200001 cells of up to 120412 digits is more than "
     "100000000 digits, got '0..0' and '0..200000'"),
    (["frieze", "print", "--rows=200000..200000", "--cols=0..999"], {},
     "--rows/--cols: a grid of 1 x 1000 cells of up to 120412 digits is more than "
     "100000000 digits, got '200000..200000' and '0..999'"),
    # reversed ranges, refused before any synthesis or counting
    (["synthesize", "--window=3..0"], {}, "--window: LO must be <= HI, got '3..0'"),
    (["roundtrip", "--window=0..-1"], {}, "--window: LO must be <= HI, got '0..-1'"),
    (["count", "cc", "--i", "5", "--j", "0"], {}, "--i/--j: need i <= j, got 5 and 0"),
    (["count", "bci", "--i=-1", f"--j=-{10**30}"], {},
     f"--i/--j: need i <= j, got -1 and -{10**30}"),
])
def test_out_of_range_setting_is_schema_error(input_for, tmp_path, capsys, monkeypatch,
                                              argv, env, named):
    # a bad setting is the caller's error, not a verdict on the quiddity
    monkeypatch.chdir(tmp_path)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert main([*argv, input_for(argv)]) == 3
    assert _json_out(capsys)["error"] == {"kind": "schema", "message": named}
    assert not list(tmp_path.glob("*.svg"))


def test_window_bound_is_checked_before_any_synthesis(qfile, capsys, monkeypatch):
    q = qfile(QuiddityDescriptor.constant(3))
    monkeypatch.setattr(cli, "MAX_WINDOW", 9)
    assert main(["synthesize", "--window=-4..4", q]) == 0  # at the bound
    assert strip_from_json(_json_out(capsys)).window == (-4, 4)

    def unreachable(*args, **kwargs):
        raise AssertionError("synthesis ran")

    monkeypatch.setattr(cli.synthesis, "psi", unreachable)
    monkeypatch.setattr(cli, "validate", unreachable)
    for argv in (["synthesize", "--window=-4..5"], ["roundtrip", "--window=-5..4"]):
        assert main([*argv, q]) == 3
        assert _json_out(capsys)["error"]["message"].startswith(
            "--window: a window of 10 points is more than 9")


def test_digit_bound_is_checked_before_any_entry(qfile, capsys, monkeypatch):
    # 11 cells of constant 3 whose widest span, t(0, 10) = 6765, is bounded by
    # 4^9, a bound of 9 log10(4) = 5.42 digits: 59.6 digits in all
    q = qfile(QuiddityDescriptor.constant(3))
    monkeypatch.setattr(cli, "MAX_GRID_DIGITS", 60)
    assert main(["frieze", "print", "--rows=0..0", "--cols=0..10", q]) == 0
    assert capsys.readouterr().out.split()[-1] == "6765"
    monkeypatch.setattr(cli, "MAX_GRID_DIGITS", 59)
    assert main(["frieze", "print", "--rows=0..0", "--cols=0..10", q]) == 3
    assert _json_out(capsys)["error"]["message"].startswith(
        "--rows/--cols: a grid of 1 x 11 cells of up to 6 digits is more than 59 digits")

    def unreachable(*args, **kwargs):
        raise AssertionError("an entry was evaluated")

    monkeypatch.undo()
    monkeypatch.setattr(cli, "render_frieze", unreachable)
    start = time.perf_counter()
    assert main(["frieze", "print", "--rows=0..0", "--cols=0..200000", q]) == 3
    assert time.perf_counter() - start < 0.1
    assert _json_out(capsys)["error"]["kind"] == "schema"


def test_entry_past_the_int_to_str_limit_is_schema_error(qfile, tmp_path, capsys):
    # constant 3's t(0, c) = F_2c has 3762 digits at c = 9000, 4293 at 10270,
    # 4300 at 10288, 4301 at 10289 and 4305 at 10300, against a limit of 4300
    # digits; the digit bound (6183 digits at 10270) decides nothing here
    q = qfile(QuiddityDescriptor.constant(3))
    view = FriezeView(QuiddityDescriptor.constant(3))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for c in (9000, 10270, 10288):
            assert main(["frieze", "print", "--rows=0..0", f"--cols={c}..{c}", q]) == 0
            assert capsys.readouterr().out.split()[-1] == str(view.entry(0, c))
        # the first entry past the limit in row-major order is named
        for rows, cols, cell in (("0..0", "10289..10289", "t(0, 10289)"),
                                 ("0..0", "10300..10300", "t(0, 10300)"),
                                 ("-1..0", "10286..10289", "t(-1, 10288)")):
            assert main(["frieze", "print", f"--rows={rows}", f"--cols={cols}", q]) == 3
            assert _json_out(capsys)["error"] == {"kind": "schema", "message": (
                f"--rows/--cols: {cell} has more than 4300 digits, Python's limit for "
                f"printing an int (PYTHONINTMAXSTRDIGITS raises it), got {rows!r} and "
                f"{cols!r}")}
    finally:
        sys.set_int_max_str_digits(old)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONINTMAXSTRDIGITS": "4400"}
    raised = subprocess.run([sys.executable, "-m", "friezes", "frieze", "print", "--rows=0..0",
                             "--cols=10300..10300", q], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert raised.returncode == 0, raised.stderr
    assert len(raised.stdout.split()[-1]) == 4305


def test_count_past_the_int_to_str_limit_is_schema_error(tmp_path, capsys):
    # constant 3's t(0, j) = F_2j has 4300 digits at j = 10288 and 4301 at 10289
    path = tmp_path / "c3.json"
    path.write_text(strip_dumps(psi(QuiddityDescriptor.constant(3), (-10, 12010)).triangulation))
    view = FriezeView(QuiddityDescriptor.constant(3))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for method in ("cc", "bci"):
            for j in (10288,):
                assert main(["count", method, "--i=0", f"--j={j}", str(path)]) == 0
                assert _json_out(capsys)["value"] == view.entry(0, j)
            for j in (10289, 12000):
                assert main(["count", method, "--i=0", f"--j={j}", str(path)]) == 3
                assert _json_out(capsys)["error"] == {"kind": "schema", "message": (
                    f"--i/--j: t(0, {j}) has more than 4300 digits, Python's limit for "
                    f"printing an int (PYTHONINTMAXSTRDIGITS raises it), got 0 and {j}")}
    finally:
        sys.set_int_max_str_digits(old)


def test_input_integer_past_the_str_to_int_limit_is_schema_error(tmp_path, capsys):
    big = "9" * 4301
    quid = tmp_path / "q.json"
    quid.write_text('{"left_period": [3], "core": [], "right_period": [3], "core_start": %s}'
                    % big)
    strip = tmp_path / "s.json"
    strip.write_text('{"window": [-2, 2], "margin": 1, "m2_class": "empty", '
                     '"arcs": [{"a": ["L", %s], "b": ["L", 2]}]}' % big)
    message = ("an integer in the JSON has more than 4300 digits, Python's limit for reading "
               "an int (PYTHONINTMAXSTRDIGITS raises it)")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (["quiddity", "validate", str(quid)], ["strip", "check", str(strip)],
                     ["count", "cc", "--i=0", "--j=1", str(strip)]):
            assert main(argv) == 3
            assert _json_out(capsys)["error"] == {"kind": "schema", "message": message}
    finally:
        sys.set_int_max_str_digits(old)


def test_undecodable_input_file_is_schema_error(tmp_path, capsys):
    # 0xff is no UTF-8; under another locale encoding the JSON decoder refuses it instead
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"left_period": [3], "core": [], "right_period": [3], "core_start": \xff}')
    for argv in (["quiddity", "validate", str(path)], ["strip", "check", str(path)]):
        assert main(argv) == 3
        assert _json_out(capsys)["error"]["kind"] == "schema"


def test_polygon_render_draws_any_finite_scale(input_for, tmp_path, capsys, monkeypatch):
    # the labels sit 12 units past the circle at every scale, with no overflow on the way
    monkeypatch.chdir(tmp_path)
    argv = ["polygon", "render", "--svg", "p.svg", "--scale", "1e308"]
    assert main([*argv, input_for(argv)]) == 0
    svg = (tmp_path / "p.svg").read_text()
    assert "inf" not in svg and "nan" not in svg and svg.count("<text") == 7


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["quiddity", "validate", "--help"]):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0 and "usage: friezes" in capsys.readouterr().out


def test_settings_fuzz_never_escapes_the_exit_codes(input_for, tmp_path, capsys, monkeypatch):
    """Every flag and variable that takes a number, and the grid's and the
    window's ranges, driven with edge values.

    Each value lands in each command's flag or variable, in either flag
    form, with the other variable set at random.  Every case exits 0-3 with
    no SystemExit, a failure prints the JSON error, and no output or SVG
    holds inf or nan beyond the echo of an input.
    """
    rng = random.Random(21)
    monkeypatch.chdir(tmp_path)
    values = ["0", "1", "-1", "2", str(10**30), "1e308", "nan", "inf", "-inf", "word", "",
              "0..3", "3..0", f"0..{10**12}", f"{-10**30}..0"]
    # --window's own edges: past cli.MAX_WINDOW points either way, and reversed
    windows = ["-2..2", "0..0", "0", "word", "", f"0..{cli.MAX_WINDOW}",
               f"{-cli.MAX_WINDOW}..0", f"0..{10**12}", f"{-10**30}..0", "3..0", "0..-1"]
    commands = [(["quiddity", "validate"], "--depth", ["FRIEZE_DEPTH"]),
                (["frieze", "print", "--cols=-2..2"], "--rows", []),
                (["frieze", "print", "--rows=-2..2"], "--cols", []),
                (["synthesize", "--window=-2..2"], "--cap", ["FRIEZE_CAP"]),
                (["roundtrip", "--window=-1..1"], None, ["FRIEZE_DEPTH", "FRIEZE_CAP"]),
                (["synthesize"], "--window", []),
                (["roundtrip"], "--window", []),
                (["count", "cc", "--j=1"], "--i", []),
                (["polygon", "render", "--svg", "out.svg"], "--scale", []),
                (["strip", "render", "--svg", "out.svg"], "--scale", [])]
    files = {argv[0]: input_for(argv) for argv, _, _ in commands}
    svg = tmp_path / "out.svg"
    started, codes = time.perf_counter(), set()
    cases = [(c, v) for c in commands for v in (windows if c[1] == "--window" else values)]
    for (argv, flag, variables), value in cases * 2:
        env = {var: rng.choice([None, *values]) for var in ("FRIEZE_DEPTH", "FRIEZE_CAP")}
        argv = list(argv)
        if flag and (not variables or rng.random() < 0.5):
            argv += rng.choice([[flag, value], [f"{flag}={value}"]])
        else:
            env[rng.choice(variables)] = value
        for var, raw in env.items():
            if raw is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, raw)
        case = (argv, env)
        try:
            code = main([*argv, files[argv[0]]])
        except SystemExit as e:
            pytest.fail(f"SystemExit({e.code}) on {case}")
        out = capsys.readouterr().out
        assert code in range(4), case
        if code:
            assert set(json.loads(out)["error"]) == {"kind", "message"}, case
        text = out + (svg.read_text() if svg.exists() else "")
        for raw in sorted(filter(None, {value, *env.values()}), key=len, reverse=True):
            text = text.replace(raw, "")
        assert not re.search(r"\b(inf|infinity|nan)\b", text, re.IGNORECASE), case
        svg.unlink(missing_ok=True)
        codes.add((argv[0], code))
    # each command both succeeds and refuses a setting; none is inconclusive
    assert codes == {(argv[0], code) for argv, _, _ in commands for code in (0, 3)}, codes
    assert time.perf_counter() - started < 2.0


def test_lowest_settings_are_accepted(qfile, capsys, monkeypatch):
    monkeypatch.setenv("FRIEZE_DEPTH", "2")
    assert main(["quiddity", "validate", qfile(refdata.LINEAR)]) == 0
    assert _json_out(capsys) == {"status": "valid_to_depth", "depth": 2}
    assert main(["synthesize", "--window=-2..2", "--cap", "1", qfile(refdata.LINEAR)]) == 0


def test_count_on_a_thousand_vertex_cut(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(strip_dumps(psi(QuiddityDescriptor.constant(2), (-600, 600)).triangulation))
    for method in ("cc", "bci"):
        assert main(["count", method, "--i=-500", "--j=500", str(path)]) == 0
        assert _json_out(capsys)["value"] == 1000


def test_unexpected_exception_is_internal_error(qfile, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_quiddity", broken)
    assert main(["quiddity", "validate", qfile(refdata.LINEAR)]) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": {"kind": "internal",
                                                  "message": "RuntimeError: boom"}}
    assert "Traceback" in captured.err


def test_repeated_main_calls_share_a_parser_and_no_state(qfile, tmp_path, capsys, monkeypatch):
    q, lin = qfile(refdata.MIXED_TAILS), qfile(refdata.LINEAR, "lin.json")
    out = tmp_path / "tri.json"
    assert main(["synthesize", "--window=-6..6", "-o", str(out), q]) == 0
    assert _json_out(capsys)["written"] == str(out)
    assert main(["synthesize", "--window=-6..6", q]) == 0
    assert capsys.readouterr().out == out.read_text()  # the document, not the summary

    assert main(["quiddity", "validate", "--depth", "7", lin]) == 0
    assert _json_out(capsys)["depth"] == 7
    monkeypatch.setenv("FRIEZE_DEPTH", "10")
    assert main(["quiddity", "validate", lin]) == 0
    assert _json_out(capsys)["depth"] == 10

    assert main(["synthesize", lin]) == 3  # --window is required
    assert "--window" in _json_out(capsys)["error"]["message"]
    assert main(["strip", "check", str(out)]) == 0
    assert _json_out(capsys)["admissible_window"]

    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["quiddity", "validate", lin]) == 0  # warm-up
    built.clear()
    for argv in (["quiddity", "validate", lin], ["strip", "check", str(out)],
                 ["synthesize", "--window=-6..6", q],
                 ["count", "cc", "--i", "0", "--j", "3", str(out)]):
        assert main(argv) == 0
    assert built == []


def test_one_shot_processes_match_in_process_main(qfile, tmp_path, capsys):
    qfile(refdata.MIXED_TAILS)  # q.json in tmp_path
    (tmp_path / "out.json").write_text(" " * 10**5)  # overwritten, not appended to
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "friezes", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    synth = run("synthesize", "--window=-8..8", "-o", "out.json", "q.json")
    assert synth.returncode == 0, synth.stderr
    check = run("strip", "check", "out.json")
    assert check.returncode == 0, check.stderr
    assert json.loads(check.stdout)["special_upper_points"] == []
    count = run("count", "cc", "--i", "0", "--j", "3", "out.json")
    assert count.returncode == 0, count.stderr
    assert json.loads(count.stdout)["value"] == FriezeView(refdata.MIXED_TAILS).entry(0, 3)

    in_process = tmp_path / "in_process.json"
    assert main(["synthesize", "--window=-8..8", "-o", str(in_process),
                 str(tmp_path / "q.json")]) == 0
    assert (tmp_path / "out.json").read_bytes() == in_process.read_bytes()
