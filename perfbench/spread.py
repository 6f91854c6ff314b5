#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one fresh process per run.

    python3 perfbench/spread.py --workloads infer-q20,stream-q20 --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --record "seed commit"

For each workload it runs run.py once per seed and reports, per metric, the
median and the quartiles of the runs (statistics.quantiles, n=4) and the
interquartile distance as a share of the median, next to the metric's bound
in BENCHMARK.json. --record appends the figures, with the machine and
commit, as a new entry of perfbench/trajectory.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as run_py

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values),
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--record", metavar="LABEL", help="append to trajectory.json")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    table, steady, environment = {}, True, None
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds) for seed in seeds]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            print(f"{workload}: a run failed its output check", file=sys.stderr)
            steady = False
        table[workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {m: summarize([r["metrics"][m]["value"] for r in runs])
                        for m in bounds}}
        print(f"{workload} ({len(runs)} runs, seeds {args.seeds})")
        for m, s in table[workload]["metrics"].items():
            flag = "" if m == "setup_s" or s["spread"] < bounds[m] / 3 else "  > bound/3"
            steady = steady and bool(m == "setup_s" or s["spread"] <= bounds[m])
            print(f"  {m:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bounds[m]}){flag}")
        sys.stdout.flush()
        environment = environment or json.loads(
            run_py.results_path(workload, seeds[-1], 0).read_text())["environment"]
    if args.record:
        entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
        environment.pop("seed", None)
        entries.append({"label": args.record, "environment": environment,
                        "run_seconds": args.seconds, "seeds": seeds, "workloads": table})
        TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
