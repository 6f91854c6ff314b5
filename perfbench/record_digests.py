#!/usr/bin/env python3
"""Record the output digests that run.py checks every op against.

    python3 perfbench/record_digests.py --seeds 20240601,424242,1-10

Runs each workload's set-up and one op per seed, each in a fresh process,
and writes perfbench/digests.json with the sha256 of the fxattn sources they
came from. Run it only at a commit whose outputs are known good: the digests
define "bit-exact" for every later commit.
"""
import argparse
import json
import subprocess
import sys

import run
import workloads as wl
from spread import parse_seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default=f"{run.DEFAULT_SEED}")
    args = ap.parse_args()
    table = {}
    for workload in wl.WORKLOADS:
        table[workload] = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--digest-only"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
            table[workload][str(seed)] = json.loads(proc.stdout.strip().splitlines()[-1])["digest"]
            print(workload, seed, table[workload][str(seed)], flush=True)
    doc = {"commit": run.git_commit(run.ROOT), "src_sha256": run.src_sha256(run.ROOT),
           "platform": wl.platform(), "digests": table}
    wl.DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
