#!/usr/bin/env python3
"""Reproduce both benchmark sweeps end to end and leave the CSVs behind.

Runs four fxattn commands into one directory: gen-data (the synthetic
dataset), make-weights (the analytic weights), sweep-precision over the full
quantization grid (int 6..10 x frac 0..16) and sweep-reuse on the VU13P
profile. Each prints its own summary line. Everything is seeded; run it
twice and diff the outputs if you doubt that.

Usage:
    python scripts/run_paper_sweeps.py [--out results] [--n 10000] [--seed 20240601] [--jobs 4]
"""
import argparse
import sys
from pathlib import Path

from fxattn import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--n", type=int, default=10_000, help="synthetic jets")
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--jobs", type=int, default=1, help="sweep worker processes")
    args = ap.parse_args()

    out = ["--out", args.out]
    inputs = ["--weights", str(Path(args.out) / "weights.json"),
              "--data", str(Path(args.out) / "dataset.csv")]
    steps = [
        ["gen-data", "--n", str(args.n), "--seed", str(args.seed), *out],
        ["make-weights", *out],
        ["sweep-precision", *inputs, "--int-bits", "6-10",
         "--frac-bits", "0,2,4,6,8,10,12,14,16", "--jobs", str(args.jobs), *out],
        ["sweep-reuse", "--rf", "1,2,4", "--fmt", "fixed<20,10>", "--device", "vu13p", *out],
    ]
    for argv in steps:
        code = cli.main(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
