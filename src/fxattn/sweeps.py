"""The two benchmark sweeps: quantization precision and reuse factor.

Precision sweep: for each (int_bits, frac_bits) the whole dataset runs
through the fixed-point model; the metric is the macro-averaged
one-vs-rest AUC divided by the float model's macro AUC. Per-class AUCs are
emitted alongside. Reuse sweep: resource and latency estimates per rf.

The precision grid runs one frac column at a time, int widths ascending,
each pass under :func:`fxp.overflow_watch`. A pass at ``fixed<I+F,I>`` that
counts no overflow event proves every wider int width in its column: table
bins, table entries and rounding depend on F alone, every kernel is exact,
and every intermediate already fits I bits, so a wider format computes the
same raws bit for bit. Those points reuse the proven pass's AUCs instead of
running. Each column is one task that carries the sweep's inputs, run in
the caller or, with jobs > 1, in a process pool; rows merge back in the
caller's grid order, so output bytes never depend on scheduling.
"""
from __future__ import annotations

import csv
import functools
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from fxattn import costmodel as cm
from fxattn import fxp, metrics
from fxattn.data import LABELS, Dataset
from fxattn.fxp import FxFormat
from fxattn.model import ModelConfig, ModelWeights, forward_batch

PRECISION_CSV_HEADER = ["int_bits", "frac_bits", "auc_b", "auc_c", "auc_light",
                        "auc_macro", "auc_ratio"]
REUSE_CSV_HEADER = ["rf", *cm.RESOURCES, "latency_us", "ii_ns"]

log = logging.getLogger(__name__)


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


def _precision_point(inputs: tuple, fmt: FxFormat,
                     proof: tuple | None) -> tuple[tuple, tuple | None]:
    """(CSV row, proof) at one grid point.

    ``inputs`` is the sweep's (cfg, weights, x, labels, float macro AUC).
    ``proof`` holds the AUCs of a narrower pass in ``fmt``'s frac column that
    counted no overflow event, and the row reuses them; without one, the
    point runs under the watch and becomes the proof if it counts none.
    """
    if proof is None:
        cfg, weights, x, labels, macro_float = inputs
        with fxp.overflow_watch() as watch:
            probs = forward_batch(cfg, weights, x, fmt=fmt)
        per_class, macro = _macro_aucs(probs, labels)
        aucs = (per_class["b"], per_class["c"], per_class["light"], macro, macro / macro_float)
        proof = None if watch.events else aucs
    else:
        aucs = proof
    return (fmt.int_bits, fmt.frac_bits, *aucs), proof


def _column(inputs: tuple, fmts: tuple[FxFormat, ...]) -> tuple[list[tuple], int]:
    """Rows of one frac column, int widths ascending, and how many passes ran."""
    rows, proof, ran = [], None, 0
    for fmt in fmts:
        ran += proof is None
        row, proof = _precision_point(inputs, fmt, proof)
        rows.append(row)
    return rows, ran


def sweep_precision(cfg: ModelConfig, weights: ModelWeights, dataset: Dataset,
                    int_bits_list, frac_bits_list, jobs: int = 1) -> SweepResult:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    # every point is a format, valid or not, before any pass runs
    fmts = {(ib, fb): FxFormat(ib, fb) for ib in int_bits_list for fb in frac_bits_list}
    counts = dataset.class_counts()
    if min(counts.values()) == 0:
        raise ValueError(f"dataset is missing classes: {counts}")
    x = dataset.feature_tensor()
    labels = dataset.labels()
    # The float pass runs here, before the pool, and not as one more pool task
    # with the ratio taken at the merge: on 600 jets with jobs=2 (2-vCPU VM, 4
    # alternations of 12 sweeps) that read 0.34-0.38 s per sweep against
    # 0.30-0.33 s, and 0.33-0.36 s against 0.27-0.35 s with each task
    # passed the inputs, as the column tasks are.
    _, macro_float = _macro_aucs(forward_batch(cfg, weights, x), labels)

    run_column = functools.partial(_column, (cfg, weights, x, labels, macro_float))
    columns = [tuple(fmts[ib, fb] for ib in sorted(set(int_bits_list)))
               for fb in dict.fromkeys(frac_bits_list)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(run_column, columns))
    else:
        done = list(map(run_column, columns))
    ran = sum(n for _, n in done)
    log.info("precision sweep: %d of %d points ran, %d reused a narrower pass "
             "that counted no overflow", ran, len(fmts), len(fmts) - ran)
    by_point = {row[:2]: row for rows, _ in done for row in rows}
    rows = [by_point[ib, fb] for ib in int_bits_list for fb in frac_bits_list]
    return SweepResult(columns=tuple(PRECISION_CSV_HEADER), rows=tuple(rows))


def sweep_reuse(cfg: ModelConfig, rfs, fmt: FxFormat, dev: cm.DeviceProfile) -> SweepResult:
    rows = []
    for rf in rfs:
        res = cm.estimate_resources(cfg, fmt, rf, dev)
        lat = cm.estimate_latency(cfg, rf, dev)
        rows.append((int(rf), *res.totals.values(), lat.latency_us, lat.ii_ns))
    return SweepResult(columns=tuple(REUSE_CSV_HEADER), rows=tuple(rows))
