"""Write the frozen strip fixtures that the audit and count workloads read.

    python3 perfbench/make_fixtures.py

Each fixture is psi's output for one representative over a window centred on
the core, checked before it is written: the window quiddity read back from
the arcs (1 + lower degree) must equal the input, the upper class must be
the expected one, and the strip must be noncrossing, admissible on the window
and free of special upper points.  Freezing them means a change to synthesis
cannot change what audit and count read.
"""

from __future__ import annotations

import gzip
import json
import sys

from run import import_library


def main() -> int:
    import_library()
    from friezes import serialize, synthesis

    import oracles
    from workloads import FIXTURE_DIR, FIXTURES, REPRESENTATIVES, to_quiddity

    FIXTURE_DIR.mkdir(exist_ok=True)
    for name, (rep, hw) in sorted(FIXTURES.items()):
        d, kind = REPRESENTATIVES[rep]
        tri = synthesis.psi(to_quiddity(d), (-hw, hw)).triangulation
        doc = serialize.strip_to_json(tri)
        problem = oracles.phi_mismatch(doc, d)
        if doc["m2_class"].split(":")[0] != kind:
            problem = f"class {doc['m2_class']}, expected {kind}"
        tri.check_pairwise_noncrossing()
        if not tri.is_admissible_window() or tri.special_upper_points():
            problem = "not admissible, or special upper points"
        if problem:
            print(f"{name}: {problem}", file=sys.stderr)
            return 1
        payload = json.dumps({"descriptor": d, "class": kind, "strip": doc},
                             separators=(",", ":")).encode()
        with open(FIXTURE_DIR / f"{name}.json.gz", "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(payload)
        print(f"{name}: {len(doc['arcs'])} arcs, {doc['m2_class']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
