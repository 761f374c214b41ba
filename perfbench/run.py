"""Benchmark of the friezes library.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ./src and
nowhere else, so a directory without the sources fails at once.  Each
workload is one client in a closed loop, one operation at a time in this
single process.  The set-up (building the inputs) is repeated and timed,
then passes over the workload's fixed operation list repeat until the next
pass would overrun --seconds.  Every output is checked by an independent
oracle outside the timed region.

Times are normalized for machine speed.  On a shared machine the speed of
one core drifts by up to 2x over tens of seconds, which no number of repeats
inside a 30 s run averages out.  So a fixed pure-Python kernel that never
touches the library (`calibrate`) is timed before and after every
operation, and each operation's wall time is scaled by
CAL_REFERENCE_S / (mean of the two kernel times): the time the operation
would take on a machine that runs the kernel in CAL_REFERENCE_S.  A library
change cannot move the kernel, so it moves the normalized times exactly as
it moves the wall times.  The report and the records also keep the raw
wall times.

End-to-end metrics (--trace 0):
    setup_s        median time of one set-up
    run_s          median over passes of the summed operation times
    op_ms.geomean  geometric mean over operations of their median time
    op_ms.tail10   mean of the ten slowest operation medians
    peak_rss_mb    peak resident set size of this process

--trace 1 spends half of the time untraced and half with spans installed
around the library's public functions (tracing.py), and reports per-layer
self times and counters averaged per pass, plus trace.overhead_s, the
traced minus the untraced median pass time.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report.  Per-operation records (and, when traced, the spans) are
written under perfbench/_runs/ for later runs to diff against.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("synth", "audit", "count", "frieze")
OK = "ok"
CAL_REFERENCE_S = 0.0025  # kernel time that defines the reference machine speed

# ROADMAP baseline rows, measured before the benchmark existed (one process,
# wall clock).  Shown next to the matching operation.
ROADMAP_BASELINE = {
    "psi zigzag +-8": "36 ms", "psi zigzag +-32": "380 ms", "psi zigzag +-64": "1.26 s",
    "bci t(0,12)": "18 ms", "bci t(0,14)": "103 ms",
    "validate 64": "3 ms", "validate 256": "44 ms",
}


class Sample(NamedTuple):
    seconds: float  # normalized to the reference machine speed
    wall: float     # as measured
    kind: str       # outcome kind, see workloads.py
    detail: str


def import_library(root: Path = ROOT):
    """Import friezes from root/src, refusing any other installed copy."""
    package = root / "src" / "friezes"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {package}")
    sys.path.insert(0, str(root / "src"))
    import friezes
    if Path(friezes.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported friezes from {friezes.__file__}, not {package}")
    return friezes


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel (objects, sorting, dicts, big-int recurrence).

    The cyclic collector is paused, or the kernel would pay for collecting
    the garbage of the operation before it.
    """
    gc.disable()
    try:
        return _kernel()
    finally:
        gc.enable()


def _kernel() -> float:
    start = perf_counter()
    seen: dict[tuple[int, int], int] = {}
    pts = [_Point(i * 7919 % 1009, i) for i in range(1500)]
    pts.sort(key=lambda p: (p.x, p.y))
    acc = 1
    for p in pts:
        key = (p.x % 97, p.y % 13)
        seen[key] = seen.get(key, 0) + p.y
        acc = acc * 3 + p.x if acc < 1 << 256 else acc % 1000003
    x, y = 1, 0
    for k in range(2500):  # the three-term recurrence, up to ~3000-bit integers
        x, y = (3 + (k & 1)) * x - y, x
    return perf_counter() - start


def timed_setup(setup, seed: int, work: Path, min_reps: int = 5,
                budget_s: float = 1.0, max_reps: int = 50):
    """Run the set-up repeatedly; return the last workload and every normalized duration."""
    times, wall = [], 0.0
    before = calibrate()
    while True:
        gc.collect()
        start = perf_counter()
        workload = setup(seed, work)
        elapsed = perf_counter() - start
        after = calibrate()
        times.append(elapsed * 2 * CAL_REFERENCE_S / (before + after))
        wall, before = wall + elapsed, after
        if len(times) >= max_reps or (len(times) >= min_reps and wall >= budget_s):
            return workload, times


def run_pass(workload, tracer=None, pass_no: int = 0) -> list[Sample]:
    """One pass over the op list, one Sample per op."""
    from workloads import classify_error
    gc.collect()
    ctx = workload.new_pass()
    out = []
    before = calibrate()
    for op in workload.ops:
        if tracer is not None:
            tracer.token = (pass_no, op.id)
        start = perf_counter()
        try:
            result = op.run(ctx)
            error = None
        except Exception as exc:  # every failure is an outcome to record, not a crash
            error = exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.token = None
        after = calibrate()
        speed = 2 * CAL_REFERENCE_S / (before + after)
        before = after
        if tracer is not None:
            tracer.speed[(pass_no, op.id)] = speed
        kind, detail = classify_error(error) if error is not None else op.judge(result)
        out.append(Sample(elapsed * speed, elapsed, kind, detail))
    return out


def run_passes(workload, budget_s: float, tracer=None) -> list[list[Sample]]:
    """Passes until the next one would overrun the budget (at least one)."""
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(workload, tracer, len(passes)))
        last = perf_counter() - t0
        if perf_counter() - start + last > budget_s:
            return passes


def pass_seconds(passes, field: str = "seconds") -> list[float]:
    return [sum(getattr(s, field) for s in p) for p in passes]


def op_medians_ms(passes, field: str = "seconds") -> list[float]:
    return [statistics.median(getattr(p[k], field) for p in passes) * 1e3
            for k in range(len(passes[0]))]


def end_to_end(setup_times, passes) -> dict:
    medians = op_medians_ms(passes)
    slowest = sorted(medians, reverse=True)[:10]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(pass_seconds(passes)), "s"),
        "op_ms.geomean": (math.exp(statistics.fmean(math.log(m) for m in medians)), "ms"),
        "op_ms.tail10": (statistics.fmean(slowest), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# Self-time spans reported as per-layer metrics, with their metric name.
SPAN_METRICS = {
    "cli.main": "cli.main.self_ms", "quiddity.validate": "quiddity.validate.ms",
    "frieze.entry": "frieze.entry.ms", "frieze.continuant": "frieze.continuant.ms",
    "frieze.identity": "frieze.identity.ms", "synthesis.psi": "synthesis.psi.ms",
    "synthesis.step_a": "synthesis.step_a.ms", "synthesis.step_a_pass": "synthesis.step_a_pass.ms",
    "synthesis.pass_arcs": "synthesis.pass_arcs.ms", "synthesis.step_b": "synthesis.step_b.ms",
    "strip.construct": "strip.construct.ms", "strip.noncrossing": "strip.noncrossing.ms",
    "strip.admissible": "strip.admissible.ms", "strip.special_points": "strip.special_points.ms",
    "strip.quiddity_of": "strip.quiddity_of.ms", "strip.maximality": "strip.maximality.ms",
    "serialize.dump": "serialize.dump.ms", "serialize.load": "serialize.load.self_ms",
    "counting.cut": "counting.cut.ms", "counting.cc": "counting.cc.ms",
    "counting.bci": "counting.bci.ms", "polygon.construct": "polygon.construct.ms",
    "polygon.faces": "polygon.faces.ms", "polygon.cc_labels": "polygon.cc_labels.ms",
    "polygon.bci_count": "polygon.bci_count.ms",
}
COUNTERS = {"synthesis.step_a.passes": "count", "synthesis.step_a.passes_after_detect": "count",
            "synthesis.arcs_materialized": "count", "strip.arcs": "count",
            "serialize.dump.bytes": "bytes", "counting.cut.polygon_n": "count"}


def _psi_buckets(tracer, ops, n_passes: int) -> dict:
    """psi inclusive time by offset and by width: the ROADMAP target shape."""
    psi_ms = {op.id: 0.0 for op in ops if "half_width" in op.params}
    for (pass_no, op_id), ms in tracer.psi_ms.items():
        psi_ms[op_id] += ms * tracer.speed[(pass_no, op_id)] / n_passes
    by_id = {op.id: op.params for op in ops if op.id in psi_ms}
    far_keys = {(p["descriptor"], p["half_width"]) for p in by_id.values() if p["offset"]}
    near = [psi_ms[i] for i, p in by_id.items()
            if not p["offset"] and (p["descriptor"], p["half_width"]) in far_keys]
    far = [psi_ms[i] for i, p in by_id.items() if p["offset"]]

    def mean(vals):
        return statistics.fmean(vals) if vals else 0.0

    def per_point(hw):
        return mean([psi_ms[i] / (2 * hw + 1) for i, p in by_id.items() if p["half_width"] == hw])
    return {
        "synthesis.psi.ms.near": (mean(near), "ms"),
        "synthesis.psi.ms.far": (mean(far), "ms"),
        "synthesis.psi.ms_per_point.w8": (per_point(8), "ms"),
        "synthesis.psi.ms_per_point.w256": (per_point(256), "ms"),
    }


def per_layer(tracer, ops, traced, untraced) -> dict:
    n = len(traced)
    self_s, calls = tracer.self_times()
    out = {}
    for span, metric in SPAN_METRICS.items():
        out[metric] = (self_s.get(span, 0.0) * 1e3 / n, "ms")
        out[f"{span}.calls"] = (calls.get(span, 0) / n, "count")
    for name, unit in COUNTERS.items():
        out[name] = (tracer.counters.get(name, 0.0) / n, unit)
    psi_calls = calls.get("synthesis.psi", 0)
    out["synthesis.psi.builds"] = (calls.get("synthesis.step_a", 0) / psi_calls if psi_calls else 0.0,
                                   "count")
    arcs = tracer.counters.get("synthesis.arcs_materialized", 0.0)
    out["synthesis.window_arc_share"] = (
        tracer.counters.get("synthesis.window_arcs", 0.0) / arcs if arcs else 0.0, "ratio")
    out.update(_psi_buckets(tracer, ops, n))
    out["trace.overhead_s"] = (statistics.median(pass_seconds(traced))
                               - statistics.median(pass_seconds(untraced)), "s")
    out["trace.missing"] = (len(tracer.missing), "count")
    return out


def outcomes(passes) -> list[str]:
    """Worst outcome of each op over the passes (anything but ok wins)."""
    kinds = []
    for k in range(len(passes[0])):
        bad = [p[k].kind for p in passes if p[k].kind != OK]
        kinds.append(bad[0] if bad else OK)
    return kinds


def _first_failure(passes, k: int) -> Sample | None:
    return next((p[k] for p in passes if p[k].kind != OK), None)


def write_records(path: Path, args, workload, passes, metrics, tracer=None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    ops = []
    for k, op in enumerate(workload.ops):
        times = [p[k].seconds * 1e3 for p in passes]
        bad = _first_failure(passes, k)
        ops.append({"id": op.id, "workload": args.workload, "kind": op.kind, "params": op.params,
                    "ms": times, "wall_ms": [p[k].wall * 1e3 for p in passes],
                    "median_ms": statistics.median(times),
                    "outcome": bad.kind if bad else OK, "detail": bad.detail if bad else ""})
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "passes": len(passes),
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "missing": sorted(tracer.missing) if tracer else [], "ops": ops}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    if tracer is not None:
        with gzip.open(path.with_suffix(".spans.jsonl.gz"), "wt", compresslevel=1) as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def report(args, workload, passes, timed, metrics, missing) -> None:
    """Readable summary; op medians (baseline rows) come from the untraced passes."""
    kinds = outcomes(passes)
    attempted = len(passes) * len(workload.ops)
    failed = sum(1 for p in passes for s in p if s.kind != OK)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(workload.ops)}  passes {len(passes)}")
    print(f"  attempted {attempted}  failed {failed}  fail_share {failed / attempted:.4f}  "
          + "  ".join(f"{k} {kinds.count(k)}" for k in ("cap", "margin", "wrong", "other")))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"  wall run_s {statistics.median(pass_seconds(timed, 'wall')):.4f} s, speed factor "
          f"{statistics.median(pass_seconds(timed)) / statistics.median(pass_seconds(timed, 'wall')):.3f}")
    if missing:
        print(f"  missing (not traced): {', '.join(sorted(missing))}")
    for op, median in zip(workload.ops, op_medians_ms(timed, "wall")):
        if op.baseline:
            print(f"  baseline {op.baseline:18s} ROADMAP {ROADMAP_BASELINE[op.baseline]:>8s}"
                  f"   here {median:10.2f} ms wall  ({op.id})")
    for k, (op, kind) in enumerate(zip(workload.ops, kinds)):
        if kind != OK:
            detail = _first_failure(passes, k).detail
            print(f"  {kind:6s} {op.id} {json.dumps(op.params)[:160]} {detail[:160]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, setup_times = timed_setup(workloads.SETUP[args.workload], args.seed, work)
        tracer = None
        untraced = run_passes(workload, args.seconds / (2 if args.trace else 1))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, workload.ops, traced, untraced)
            passes = untraced + traced
            correct = outcomes(traced) == outcomes(untraced)
        else:
            metrics = end_to_end(setup_times, untraced)
            passes = untraced
            correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    correct = correct and "wrong" not in outcomes(passes)
    report(args, workload, passes, untraced, metrics, tracer.missing if tracer else ())
    write_records(HERE / "_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                  args, workload, passes, metrics, tracer)
    result = {
        "correct": correct,
        "attempted": len(passes) * len(workload.ops),
        "failed": sum(1 for p in passes for s in p if s.kind != OK),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
