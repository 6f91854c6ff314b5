"""The two benchmark sweeps: quantization precision and reuse factor.

Precision sweep: for each (int_bits, frac_bits) the whole dataset runs
through the fixed-point model; the metric is the macro-averaged
one-vs-rest AUC divided by the float model's macro AUC. Per-class AUCs are
emitted alongside. Reuse sweep: resource and latency estimates per rf.

Sweep points are independent; with jobs > 1 they run in a process pool and
are merged back in axis order, so output bytes never depend on scheduling.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from fxattn import costmodel as cm
from fxattn import metrics
from fxattn.data import LABELS, Dataset
from fxattn.fxp import FxFormat
from fxattn.model import ModelConfig, ModelWeights, forward_batch

PRECISION_CSV_HEADER = ["int_bits", "frac_bits", "auc_b", "auc_c", "auc_light",
                        "auc_macro", "auc_ratio"]
REUSE_CSV_HEADER = ["rf", "dsp", "lut", "ff", "bram", "latency_us", "ii_ns"]


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def column(self, name: str) -> list:
        k = self.columns.index(name)
        return [row[k] for row in self.rows]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([v if isinstance(v, (int, str)) else repr(float(v))
                                 for v in row])


def _macro_aucs(probs: np.ndarray, labels: np.ndarray) -> tuple[dict, float]:
    per_class = metrics.one_vs_rest_aucs(probs, labels, LABELS)
    return per_class, float(np.mean(list(per_class.values())))


def _precision_point(args) -> tuple:
    cfg, weights, x, labels, macro_float, int_bits, frac_bits = args
    fmt = FxFormat(int_bits, frac_bits)
    probs = forward_batch(cfg, weights, x, fmt=fmt)
    per_class, macro = _macro_aucs(probs, labels)
    return (int_bits, frac_bits, per_class["b"], per_class["c"], per_class["light"],
            macro, macro / macro_float)


def sweep_precision(cfg: ModelConfig, weights: ModelWeights, dataset: Dataset,
                    int_bits_list, frac_bits_list, jobs: int = 1) -> SweepResult:
    counts = dataset.class_counts()
    if min(counts.values()) == 0:
        raise ValueError(f"dataset is missing classes: {counts}")
    x = dataset.feature_tensor()
    labels = dataset.labels()
    _, macro_float = _macro_aucs(forward_batch(cfg, weights, x), labels)

    grid = [(cfg, weights, x, labels, macro_float, ib, fb)
            for ib in int_bits_list for fb in frac_bits_list]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_precision_point, grid))
    else:
        rows = [_precision_point(g) for g in grid]
    return SweepResult(columns=tuple(PRECISION_CSV_HEADER), rows=tuple(rows))


def sweep_reuse(cfg: ModelConfig, rfs, fmt: FxFormat, dev: cm.DeviceProfile) -> SweepResult:
    rows = []
    for rf in rfs:
        res = cm.estimate_resources(cfg, fmt, rf, dev)
        lat = cm.estimate_latency(cfg, rf, dev)
        rows.append((int(rf), res.dsp, res.lut, res.ff, res.bram,
                     lat.latency_us, lat.ii_ns))
    return SweepResult(columns=tuple(REUSE_CSV_HEADER), rows=tuple(rows))
