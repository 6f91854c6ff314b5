"""Command-line front end: data generation, inference, sweeps, reports.

Every command writes deterministic artifacts into the --out directory and
prints a one-line summary. Figures are emitted as CSVs matching the sweep
axes; plotting is left to external scripts. Verbosity comes from the
FXATTN_LOG environment variable (debug/info/warning/error).
"""
from __future__ import annotations

import argparse
import csv
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from fxattn import costmodel as cm
from fxattn import data as dat
from fxattn import fxp
from fxattn import metrics
from fxattn import model as mdl
from fxattn import sweeps

log = logging.getLogger("fxattn")

DEFAULT_INT_BITS = "6,7,8,9,10"
DEFAULT_FRAC_BITS = "0,2,4,6,8,10,12,14,16"


def _fmt_help(prog: str) -> argparse.HelpFormatter:
    return argparse.HelpFormatter(prog, width=96)


def int_at_least(text: str, lo: int = 1) -> int:
    """An int no smaller than ``lo``. Every refusal is an ArgumentTypeError,
    so argparse prints its message as is and exits 2, partial or not."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < lo:
        raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
    return value


def parse_int_list(text: str, lo: int = 1) -> list[int]:
    """Comma-separated ints >= ``lo``, each item either N or an inclusive range A-B."""
    out: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "-" in item[1:]:
            lo_i, hi_i = (int_at_least(end, lo) for end in item.split("-", 1))
            if hi_i < lo_i:
                raise argparse.ArgumentTypeError(f"empty range {item!r}")
            out.extend(range(lo_i, hi_i + 1))
        else:
            out.append(int_at_least(item, lo))
    if not out:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return out


def _fixed_format(text: str) -> fxp.FxFormat:
    try:
        return fxp.parse_format(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fxattn", formatter_class=_fmt_help,
        description="Fixed-point streaming-transformer emulator and benchmark harness.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def add_out(sp):
        sp.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (created if missing)")

    sp = sub.add_parser("gen-data", formatter_class=_fmt_help,
                        help="generate a synthetic jet dataset CSV")
    sp.add_argument("--n", type=int_at_least, default=10000, help="number of jets")
    sp.add_argument("--seed", type=functools.partial(int_at_least, lo=0), default=1,
                    help="generator seed")
    add_out(sp)

    sp = sub.add_parser("make-weights", formatter_class=_fmt_help,
                        help="write the analytic (training-free) weight file")
    sp.add_argument("--feature", choices=dat.FEATURES, default="sd0",
                    help="track feature the b-class logit follows")
    add_out(sp)

    sp = sub.add_parser("infer", formatter_class=_fmt_help,
                        help="run inference and write per-jet class probabilities")
    sp.add_argument("--weights", required=True, metavar="FILE", help="weight JSON file")
    sp.add_argument("--data", required=True, metavar="FILE", help="dataset CSV")
    sp.add_argument("--fmt", type=_fixed_format, default=None, metavar="fixed<W,I>",
                    help="fixed-point format; omit for float64")
    add_out(sp)

    sp = sub.add_parser("sweep-precision", formatter_class=_fmt_help,
                        help="AUC-ratio sweep over integer/fractional bit widths")
    sp.add_argument("--weights", required=True, metavar="FILE")
    sp.add_argument("--data", required=True, metavar="FILE")
    sp.add_argument("--int-bits", type=parse_int_list, default=DEFAULT_INT_BITS,
                    metavar="LIST", help=f"e.g. 6,8,10 or 6-10 (default {DEFAULT_INT_BITS})")
    sp.add_argument("--frac-bits", type=functools.partial(parse_int_list, lo=0),
                    default=DEFAULT_FRAC_BITS,
                    metavar="LIST", help=f"default {DEFAULT_FRAC_BITS}")
    sp.add_argument("--jobs", type=int_at_least, default=1, metavar="N",
                    help="parallel worker processes")
    add_out(sp)

    sp = sub.add_parser("sweep-reuse", formatter_class=_fmt_help,
                        help="resource/latency estimates per reuse factor")
    sp.add_argument("--rf", type=parse_int_list, default="1,2,4", metavar="LIST",
                    help="reuse factors (default 1,2,4)")
    sp.add_argument("--fmt", type=_fixed_format, default="fixed<20,10>",
                    metavar="fixed<W,I>", help="datapath width (default fixed<20,10>)")
    sp.add_argument("--device", default="vu13p", metavar="NAME",
                    help="vu13p or custom:<profile.json>")
    add_out(sp)

    sp = sub.add_parser("report-resources", formatter_class=_fmt_help,
                        help="per-layer multiplier/DSP/LUT/FF/BRAM table for one rf")
    sp.add_argument("--rf", type=int_at_least, default=1, help="reuse factor")
    sp.add_argument("--fmt", type=_fixed_format, default="fixed<20,10>",
                    metavar="fixed<W,I>", help="datapath width (default fixed<20,10>)")
    sp.add_argument("--device", default="vu13p", metavar="NAME",
                    help="vu13p or custom:<profile.json>")
    add_out(sp)
    return p


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    ds = dat.generate_synthetic(args.n, seed=args.seed)
    path = _outdir(args) / "dataset.csv"
    dat.save_csv(path, ds)
    counts = ds.class_counts()
    print(f"gen-data: wrote {len(ds)} jets (b={counts['b']} c={counts['c']} "
          f"light={counts['light']}) seed={args.seed} -> {path}")
    return 0


def cmd_make_weights(args) -> int:
    cfg = mdl.ModelConfig()
    w = mdl.make_analytic_weights(cfg, feature_index=dat.FEATURES.index(args.feature))
    path = _outdir(args) / "weights.json"
    mdl.save_weights(path, cfg, w)
    n = mdl.param_count(cfg)
    print(f"make-weights: analytic model on '{args.feature}', {n} parameters "
          f"(published reference: {mdl.PUBLISHED_PARAM_COUNT}) -> {path}")
    return 0


def cmd_infer(args) -> int:
    cfg, w = mdl.load_weights(args.weights)
    ds = dat.load_csv(args.data)
    if not len(ds):
        raise ValueError(f"{args.data}: empty dataset")
    probs = mdl.forward_batch(cfg, w, ds.feature_tensor(), fmt=args.fmt)
    path = _outdir(args) / "predictions.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["jet_id", "label", "p_b", "p_c", "p_light"])
        rows = zip(ds.labels().tolist(), probs.tolist())
        writer.writerows([i, label, *p] for i, (label, p) in enumerate(rows))
    mode = "float64" if args.fmt is None else args.fmt.spec()
    acc = float(np.mean(np.array(dat.LABELS)[probs.argmax(axis=1)] == ds.labels()))
    print(f"infer: {len(ds)} jets in {mode}, argmax accuracy {acc:.4f} -> {path}")
    return 0


def cmd_sweep_precision(args) -> int:
    cfg, w = mdl.load_weights(args.weights)
    ds = dat.load_csv(args.data)
    result = sweeps.sweep_precision(cfg, w, ds, args.int_bits, args.frac_bits,
                                    jobs=args.jobs)
    path = _outdir(args) / "precision_sweep.csv"
    result.write_csv(path)
    ratios = result.column("auc_ratio")
    print(f"sweep-precision: {len(result.rows)} points over int={args.int_bits} "
          f"frac={args.frac_bits}, auc_ratio in [{min(ratios):.4f}, {max(ratios):.4f}] "
          f"-> {path}")
    return 0


def cmd_sweep_reuse(args) -> int:
    dev = cm.device_by_name(args.device)
    cfg = mdl.ModelConfig()
    result = sweeps.sweep_reuse(cfg, args.rf, args.fmt, dev)
    path = _outdir(args) / "reuse_sweep.csv"
    result.write_csv(path)
    for row in result.rows:
        rf, latency_us = row[0], row[5]
        ref = cm.PUBLISHED_LATENCY_US.get(rf)
        beside = "" if ref is None else \
            f" (published {ref} us, deviation {abs(latency_us - ref) / ref:.1%})"
        print(f"  rf={rf}: dsp={row[1]} latency={latency_us:.6g} us{beside}")
    print(f"sweep-reuse: rf={args.rf} on {dev.name} -> {path}")
    return 0


def cmd_report_resources(args) -> int:
    dev = cm.device_by_name(args.device)
    cfg = mdl.ModelConfig()
    rep = cm.estimate_resources(cfg, args.fmt, args.rf, dev)
    path = _outdir(args) / "resources.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rep.to_csv_rows())
    print(rep.summary())
    print(f"report-resources: {len(rep.layers)} layers -> {path}")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "make-weights": cmd_make_weights,
    "infer": cmd_infer,
    "sweep-precision": cmd_sweep_precision,
    "sweep-reuse": cmd_sweep_reuse,
    "report-resources": cmd_report_resources,
}


def main(argv=None) -> int:
    level = os.environ.get("FXATTN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
