#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload decode_sweep|wide_mt|serve_mix \
        --seed N --seconds S --trace 0|1

Builds libtss and the tss_perfbench program from the checkout's sources
into $CARGO_TARGET_DIR (default .bench_build)/perfbench, then runs one
workload. Build output goes to stderr; the last line of stdout is the
JSON result. Spans, per-run records and the determinism ledger are
written under <build dir>/perfbench/results.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "core" / "system.hh").is_file():
        sys.exit("perfbench: no simulator sources under src/; run from "
                 "the root of a full checkout")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "tss_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "tss_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["decode_sweep", "wide_mt", "serve_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(results)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
