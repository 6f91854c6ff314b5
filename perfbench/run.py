#!/usr/bin/env python3
"""Emulator benchmark: one workload per fresh process, host wall time, bit-exact outputs.

    python3 perfbench/run.py --workload infer-q20 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all       # every workload, one process each

With --trace 0 the run reports the end-to-end metrics jets_per_s,
jet_ms_p90, setup_s and peak_rss_mb; it also prints jet_ms_p50 and
failed_share, which carry no bound (failed_share is failed/attempted in the
JSON line, and the median latency flips with the host's speed, see
README.md). With --trace 1 it reports the per-layer metrics of spans.py
instead, from spans around the calls into fxattn.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. A results file with the machine, versions, commit and
seed goes to .perfbench/results/. The exit code is 2, with no result, when
the checkout holds no fxattn sources.
"""
import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20240601
RUN_SECONDS = 12  # BENCHMARK.json's run_seconds
MIN_OPS = 3
SETUP_SAMPLES = 3  # this process plus two fresh set-up-only processes
CHILD_TIMEOUT_S = 150

E2E_UNITS = {"jets_per_s": "1/s", "jet_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def measure(workload, seconds: float, min_ops: int, tracer=None):
    """Run ops for `seconds` (and at least `min_ops`); check each outside its
    timed interval. Returns (times of good ops, failed count, attempted count).
    A mismatch or an exception fails the op and its time is dropped."""
    samples, failed, attempted = [], 0, 0
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start < seconds:
        attempted += 1
        try:
            t = time.perf_counter()
            if tracer is None:
                out = workload.op()
            else:
                out = tracer.root(f"op{attempted}", workload.op)
            dt = time.perf_counter() - t
            ok = workload.check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if tracer is not None:
            tracer.collect_workers()
        if ok:
            samples.append(dt)
        else:
            failed += 1
    return samples, failed, attempted


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_in_child(name: str, seed: int) -> float:
    """Set-up time of one fresh process that stops before its first timed op."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit(root: Path):
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fxattn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {"nproc": wl.nproc(), **wl.platform(), "python": platform.python_version(),
            "commit": git_commit(ROOT), "src_sha256": src_sha256(ROOT), "seed": seed}


def jets_per_s(workload, samples: list[float]) -> float:
    """Jets through the model per second spent in good ops.

    Summed time, not the median op: the host's speed drifts between two
    levels over seconds, and a median flips between them where a sum
    moves smoothly."""
    return workload.jets_per_op * len(samples) / sum(samples) if samples else 0.0


def p90(values: list[float]) -> float:
    """Linear-interpolation 90th percentile."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, samples: list[float], setups: list[float], rss: float):
    """(bounded end-to-end metrics, the median jet latency)."""
    per_jet_ms = [t / workload.jets_per_op * 1e3 for t in samples]
    values = {
        "jets_per_s": (jets_per_s(workload, samples), len(samples)),
        "jet_ms_p90": (p90(per_jet_ms), len(samples)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (rss, 1),
    }
    p50 = {"value": statistics.median(per_jet_ms) if samples else 0.0, "unit": "ms",
           "samples": len(samples)}
    return ({name: {"value": v, "unit": E2E_UNITS[name], "samples": n}
             for name, (v, n) in values.items()}, {"jet_ms_p50": p50})


def run_one(args, fx: dict, work: Path) -> dict:
    workload = wl.make(args.workload)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(work / "spool")
        missing = tracer.install(fx)
        for name in missing:
            print(f"warning: {name} not found; its metrics read 0", file=sys.stderr)
        tracer.root("setup", lambda: workload.setup(fx, args.seed, work))
    else:
        workload.setup(fx, args.seed, work)
    warm = workload.op()  # untimed warm-up op
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        return {"setup_s": setup_s}
    if args.digest_only:
        return {"digest": wl.digest(workload.recordable(warm))}
    warm_ok = workload.warm_check(warm)
    del warm

    if tracer is None:
        samples, failed, attempted = measure(workload, args.seconds, MIN_OPS)
        rss = peak_rss_mb()
        setups = [setup_s] + [setup_in_child(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        metrics, unbounded = end_to_end(workload, samples, setups, rss)
        attribution_gap = 0.0
    else:
        half = args.seconds / 2.0
        plain, f1, a1 = measure(workload, half, 2)
        traced, f2, a2 = measure(workload, half, 2, tracer=tracer)
        samples, failed, attempted = plain + traced, f1 + f2, a1 + a2
        metrics, unbounded = traced_metrics(workload, tracer, plain, traced), {}
        attribution_gap = spans.check_attribution(tracer.spans)
        for name in spans.varying_counts(tracer.spans):
            print(f"warning: {name} differs between ops", file=sys.stderr)
    correct = warm_ok and failed == 0 and attribution_gap < 1e-6
    return {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "environment": environment(args.seed), "warm_up_ok": warm_ok,
            "expected_digest": workload.expected,
            "digest_recorded": wl.recorded_digest(args.workload, args.seed) is not None,
            "failed_share": failed / attempted, "attribution_gap_s": attribution_gap,
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "unbounded": unbounded}


def traced_metrics(workload, tracer, plain: list[float], traced: list[float]) -> dict:
    units = spans.metric_units()
    values = spans.layer_metrics(tracer.spans, workload.jobs)
    n_ops = len({s[0] for s in tracer.spans} - {"setup"})
    rate_plain = jets_per_s(workload, plain)
    rate_traced = jets_per_s(workload, traced)
    values["bench.jets_per_s_untraced"] = rate_plain
    values["bench.jets_per_s_traced"] = rate_traced
    values["bench.trace_overhead_share"] = 1.0 - rate_traced / rate_plain if rate_plain else 0.0
    counts = {"bench.jets_per_s_untraced": len(plain), "bench.jets_per_s_traced": len(traced),
              "bench.trace_overhead_share": len(traced)}
    for name in units:
        counts.setdefault(name, 1 if name.rsplit(".", 1)[0] in spans.SETUP_ONLY else n_ops)
    return {name: {"value": values[name], "unit": units[name], "samples": counts[name]}
            for name in units}


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {env['seed']}  trace {result['trace']}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})")
    for name, m in result["unbounded"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']}, no bound)")
    print(f"  {'failed_share':<40} {result['failed_share']:>14.6g} {'ratio':<6} "
          f"({result['failed']}/{result['attempted']} ops, no bound)")
    if not result["correct"]:
        print("  OUTPUT CHECK FAILED", file=sys.stderr)


def last_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()}})


def results_path(workload: str, seed: int, trace: int) -> Path:
    return ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def run_all(args) -> int:
    """Each workload in its own fresh process; a summary table at the end."""
    results, ok = {}, True
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(results_path(name, args.seed, args.trace).read_text())
        ok = ok and results[name]["correct"]
    if not args.trace:
        keys = [*E2E_UNITS, "jet_ms_p50"]
        print("\n" + "workload".ljust(14) + "".join(k.rjust(14) for k in keys)
              + "failed_share".rjust(14))
        for name, r in results.items():
            row = {**r["metrics"], **r["unbounded"]}
            print(name.ljust(14) + "".join(f"{row[k]['value']:>14.6g}" for k in keys)
                  + f"{r['failed_share']:>14.6g}")
    print(json.dumps({
        "correct": ok, "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--digest-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        fx = wl.load_fxattn(ROOT)
    except wl.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run_one(args, fx, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.setup_only or args.digest_only:
        print(json.dumps(result))
        return 0
    out = results_path(args.workload, args.seed, args.trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print_report(result)
    print(last_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
