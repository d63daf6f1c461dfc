#!/usr/bin/env python3
"""Report how the work counters of two bench JSON files differ.

    python3 tools/bench_diff.py BEFORE.json AFTER.json

Prints the top-level `counters` totals, then every row's `gate_evals` and
`omission_frames` (the sum over the row's stages), each as before, after and
delta. Rows present in only one file are listed with a blank side. The
report never fails on a difference; it exits non-zero only when a file
cannot be read.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def row_counters(doc):
    rows = {}
    for e in doc.get("entries", []):
        frames = sum(st["counters"].get("omission_frames", 0) for st in e.get("stages", []))
        rows[e["name"]] = {"gate_evals": e.get("gate_evals", 0), "omission_frames": frames}
    return rows


def line(name, before, after):
    if before is None or after is None:
        b = "" if before is None else before
        a = "" if after is None else after
        return f"  {name:<40} {b:>14} {a:>14}"
    delta = after - before
    pct = f"{100.0 * delta / before:+.1f}%" if before else ""
    return f"  {name:<40} {before:>14} {after:>14} {delta:>+14} {pct:>8}"


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: " + __doc__.strip().splitlines()[2].strip())
    before, after = load(argv[1]), load(argv[2])
    print(f"{'':<42} {'before':>14} {'after':>14} {'delta':>14}")
    print("counters")
    cb, ca = before.get("counters", {}), after.get("counters", {})
    for k in list(cb) + [k for k in ca if k not in cb]:
        print(line(k, cb.get(k), ca.get(k)))
    rb, ra = row_counters(before), row_counters(after)
    for key in ("gate_evals", "omission_frames"):
        print(key)
        for name in list(rb) + [n for n in ra if n not in rb]:
            b, a = rb.get(name), ra.get(name)
            print(line(name, b and b[key], a and a[key]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
