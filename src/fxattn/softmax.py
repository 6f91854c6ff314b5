"""Softmax without runtime transcendentals: one exp table, one reciprocal table.

The fixed-point path mirrors the hardware strategy. Inputs are shifted so
the row maximum lands at 0, every shifted element indexes an exp table over
[exp_lo, 0), the exact sum of the looked-up terms indexes a reciprocal table
over [1, n_max), and each output is a single fixed-point multiply of the two
table entries. Out-of-range lookups clamp to the edge bins, and the shift
saturates in wrap-around formats too; nothing wraps.
Bin indices come from the raw integers by exact integer arithmetic, as
hardware takes them from bit slices.

Table entries are sampled at bin left edges and quantized into the I/O
format, so tables are immutable integer arrays after construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from fxattn import fxp
from fxattn.fxp import FxArray, FxFormat


@dataclass(frozen=True)
class LutTable:
    """Uniform lookup table over [lo, hi): entries[k] = quantize(f(lo + k*width))."""

    lo: float
    hi: float
    entries_raw: np.ndarray  # int64 raws in `fmt`, which also holds the lookup keys
    fmt: FxFormat

    @property
    def size(self) -> int:
        return int(self.entries_raw.shape[0])

    @cached_property
    def _index_map(self) -> tuple[int, int, int, bool]:
        """``(p, r, q, fits_int64)``: the bin of raw ``x`` is ``(x*p - r) // q``.

        The bin is floor((x * 2**-frac - lo) * size / (hi - lo)). Every float
        is a dyadic rational, so p/q (bins per raw step) and r/q (``lo`` in
        bins) are exact fractions and the index needs no float arithmetic.
        """
        span = Fraction(self.hi) - Fraction(self.lo)
        per_raw = Fraction(self.size, 1 << self.fmt.frac_bits) / span
        offset = Fraction(self.lo) * self.size / span
        q = math.lcm(per_raw.denominator, offset.denominator)
        p = per_raw.numerator * (q // per_raw.denominator)
        r = offset.numerator * (q // offset.denominator)
        # in-range raws have |x| <= 2**(total_bits - 1)
        fits = (p << (self.fmt.total_bits - 1)) + abs(r) < 1 << 63
        return p, r, q, fits

    def index_of(self, raw: np.ndarray | int) -> np.ndarray:
        """clamp(floor((raw * 2**-frac - lo) * size / (hi - lo)), 0, size - 1), exactly."""
        p, r, q, fits = self._index_map
        raw = np.asarray(raw)
        if raw.dtype == object or not fits:
            raw = raw.astype(object)
        i = np.asarray(raw * p, dtype=raw.dtype)
        i -= r
        np.floor_divide(i, q, out=i)
        np.clip(i, 0, self.size - 1, out=i)
        return i.astype(np.int64, copy=False)

    def lookup_raw(self, raw: np.ndarray | int) -> np.ndarray:
        return self.entries_raw[self.index_of(raw)]


def _build_table(f: Callable[[np.ndarray], np.ndarray], size: int,
                 lo: float, hi: float, fmt: FxFormat) -> LutTable:
    if size < 1 or (size & (size - 1)) != 0:
        raise ValueError(f"table size must be a power of two, got {size}")
    if not lo < hi:
        raise ValueError(f"invalid table range [{lo}, {hi})")
    edges = lo + np.arange(size, dtype=np.float64) * (hi - lo) / size
    entries = fxp.quantize_array(f(edges), fmt)
    return LutTable(lo=lo, hi=hi, entries_raw=np.asarray(entries.raw), fmt=fmt)


def build_exp_table(size: int, lo: float, hi: float, fmt: FxFormat) -> LutTable:
    return _build_table(np.exp, size, lo, hi, fmt)


def build_inv_table(size: int, lo: float, hi: float, fmt: FxFormat) -> LutTable:
    if lo <= 0.0:
        raise ValueError(f"reciprocal table range must start above zero, got lo={lo}")
    return _build_table(lambda x: 1.0 / x, size, lo, hi, fmt)


@dataclass(frozen=True)
class SoftmaxConfig:
    exp_table: LutTable
    inv_table: LutTable
    io_format: FxFormat


def make_softmax_config(fmt: FxFormat, n_max: float, table_size: int = 1024,
                        exp_lo: float = -8.0) -> SoftmaxConfig:
    """Tables for vectors of length < n_max; after max-subtraction the exp sum
    lies in [1, n], hence the reciprocal domain [1, n_max)."""
    return SoftmaxConfig(
        exp_table=build_exp_table(table_size, exp_lo, 0.0, fmt),
        inv_table=build_inv_table(table_size, 1.0, float(n_max), fmt),
        io_format=fmt,
    )


def softmax_lut(cfg: SoftmaxConfig, v: FxArray,
                keep: np.ndarray | None = None) -> FxArray:
    """Table-based softmax along the last axis (batched shapes welcome).

    ``keep`` (bool, one entry per element of the last axis) marks the
    elements that take part. The row maximum is taken over kept elements
    only and the exp terms of the others are zeroed before the sum, as a
    hardware valid bit would, so a masked element gets weight exactly 0 and
    the kept ones equal the softmax of the kept sub-vector.

    The shift ``x - max`` saturates into the I/O format in every overflow
    mode, wrap-around included: a difference past ``raw_min`` is far below
    the exp table's range and takes its bottom bin, where a wrapped one
    would land near 0 and take almost the full weight. A masked element's
    difference can be positive; it saturates at ``raw_max``, and its exp
    term is zeroed.
    """
    if v.shape[-1] == 0:
        raise ValueError("softmax of an empty vector")
    fmt = cfg.io_format
    if v.fmt != fmt:
        raise ValueError(f"input format {v.fmt.spec()} != table format {fmt.spec()}")
    raw = v.raw
    kept = raw if keep is None else np.where(keep, raw, fmt.raw_min)
    shifted = raw - kept.max(axis=-1, keepdims=True)
    np.clip(shifted, fmt.raw_min, fmt.raw_max, out=shifted)
    e_raw = cfg.exp_table.lookup_raw(shifted)
    del shifted  # as large as the scores; free it before the products
    if keep is not None:
        e_raw = np.where(keep, e_raw, 0)
    e = FxArray(e_raw, fmt)
    s = fxp.fx_sum(e, axis=-1)
    inv_raw = cfg.inv_table.lookup_raw(s.raw)
    inv = FxArray(np.expand_dims(np.asarray(inv_raw), -1), fmt)
    return fxp.fx_mul_array(e, inv)


def softmax_exact(v: np.ndarray) -> np.ndarray:
    """Numerically stable float softmax along the last axis."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] == 0:
        raise ValueError("softmax of an empty vector")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
