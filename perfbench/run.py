#!/usr/bin/env python3
"""Build the uniscan benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stuck_gen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

The program is configured and built with CMake into the directory named by
CARGO_TARGET_DIR (default .bench_build), relative to the repository root.
Build output goes to stderr; the program's last line of stdout is the result
JSON. The exit code is non-zero when the build fails or an output check
fails. UNISCAN_* environment overrides are removed so the program runs with
its default options.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build() -> Path:
    out = build_dir() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", "uniscan_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / "uniscan_perfbench"


def run(binary: Path, workload: str, args) -> int:
    scratch = build_dir() / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("UNISCAN_")}
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus-dir", str(ROOT / "corpus"), "--scratch-dir", str(scratch)]
    if args.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="drop one vector of every final sequence (the check must fail)")
    args = p.parse_args()
    if not (ROOT / "src").is_dir() or not (ROOT / "corpus" / "manifest.tsv").is_file():
        sys.exit("perfbench: run from a uniscan checkout (src/ and corpus/ not found)")
    binary = build()
    if args.workload != "all":
        return run(binary, args.workload, args)
    rc = 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (x["name"] for x in spec["workloads"]):
        print(f"== {w}", flush=True)
        status = run(binary, w, args)
        rc = rc or status
    return rc


if __name__ == "__main__":
    sys.exit(main())
