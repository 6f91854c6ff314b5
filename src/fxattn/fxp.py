"""Q-format signed fixed-point arithmetic emulating HLS ``ap_fixed`` behavior.

A value is an integer ``raw`` scaled by ``2**-frac_bits``, stored in
``int_bits + frac_bits`` two's-complement bits (``int_bits`` includes the
sign bit). Overflow is handled by saturation or wrap-around, rounding by
truncation toward negative infinity or round-to-nearest-even.

Two layers live here:

* scalar :class:`FxValue` operations, written with exact Python integers;
* :class:`FxArray` kernels over numpy arrays of raw integers, used by the
  linear-algebra and attention code. The array kernels run on ``int64``
  when the exact intermediate provably fits in 64 bits and transparently
  fall back to arbitrary-precision object arrays otherwise, so both layers
  are bit-identical by construction (and tested to be).

Accumulation discipline: dot products accumulate the exact double-width
integer sum and round once at the end. Bias terms are added afterwards as
exact raw additions followed by overflow handling, never inside the
rounded accumulator.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class Overflow(enum.Enum):
    SATURATE = "saturate"
    WRAP = "wrap"


class Rounding(enum.Enum):
    # truncation drops bits below the binary point (floor, HLS AP_TRN)
    TRUNCATE = "truncate"
    # round to nearest, ties to even (HLS AP_RND_CONV)
    ROUND_EVEN = "round_even"


_FMT_RE = re.compile(r"^fixed<(\d+),(\d+)>$")


@dataclass(frozen=True)
class FxFormat:
    """Signed Q-format: ``int_bits`` integer bits (sign included) + ``frac_bits``."""

    int_bits: int
    frac_bits: int
    overflow: Overflow = Overflow.SATURATE
    rounding: Rounding = Rounding.ROUND_EVEN

    def __post_init__(self) -> None:
        if self.int_bits < 1:
            raise ValueError(f"int_bits must be >= 1, got {self.int_bits}")
        if self.frac_bits < 0:
            raise ValueError(f"frac_bits must be >= 0, got {self.frac_bits}")
        if self.int_bits + self.frac_bits > 64:
            raise ValueError(
                f"total width {self.int_bits + self.frac_bits} exceeds the 64-bit cap"
            )

    @property
    def total_bits(self) -> int:
        return self.int_bits + self.frac_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return math.ldexp(self.raw_min, -self.frac_bits)

    @property
    def max_value(self) -> float:
        return math.ldexp(self.raw_max, -self.frac_bits)

    @property
    def step(self) -> float:
        """Quantization step, 2**-frac_bits."""
        return math.ldexp(1.0, -self.frac_bits)

    def spec(self) -> str:
        """Serialize as ``fixed<TOTAL,INT>`` (HLS width/integer notation)."""
        return f"fixed<{self.total_bits},{self.int_bits}>"

    def __str__(self) -> str:
        return self.spec()


def parse_format(
    text: str,
    overflow: Overflow = Overflow.SATURATE,
    rounding: Rounding = Rounding.ROUND_EVEN,
) -> FxFormat:
    """Parse a ``fixed<TOTAL,INT>`` string, e.g. ``fixed<20,10>`` = 10 int + 10 frac bits."""
    m = _FMT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"bad fixed-point format {text!r}, expected fixed<TOTAL,INT>")
    total, int_bits = int(m.group(1)), int(m.group(2))
    if int_bits > total:
        raise ValueError(f"integer bits {int_bits} exceed total width {total} in {text!r}")
    return FxFormat(int_bits=int_bits, frac_bits=total - int_bits,
                    overflow=overflow, rounding=rounding)


@dataclass(frozen=True)
class FxValue:
    """One fixed-point number: integer ``raw`` = value * 2**frac_bits."""

    raw: int
    fmt: FxFormat

    def __post_init__(self) -> None:
        if not (self.fmt.raw_min <= self.raw <= self.fmt.raw_max):
            raise ValueError(
                f"raw {self.raw} outside {self.fmt.spec()} range "
                f"[{self.fmt.raw_min}, {self.fmt.raw_max}]"
            )

    @property
    def value(self) -> float:
        return math.ldexp(self.raw, -self.fmt.frac_bits)

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# exact integer helpers (shared by scalar and array layers)
# ---------------------------------------------------------------------------

def _shift_round_int(p: int, shift: int, rounding: Rounding) -> int:
    """Round p / 2**shift to an integer per the rounding mode (exact)."""
    if shift == 0:
        return p
    q = p >> shift  # arithmetic shift == floor division
    if rounding is Rounding.TRUNCATE:
        return q
    r = p - (q << shift)
    half = 1 << (shift - 1)
    if r > half or (r == half and (q & 1)):
        q += 1
    return q


def _handle_overflow_int(v: int, fmt: FxFormat) -> int:
    if fmt.overflow is Overflow.SATURATE:
        if v > fmt.raw_max:
            return fmt.raw_max
        if v < fmt.raw_min:
            return fmt.raw_min
        return v
    half = 1 << (fmt.total_bits - 1)
    return ((v + half) & ((1 << fmt.total_bits) - 1)) - half


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------

def quantize(x: float, fmt: FxFormat) -> FxValue:
    """Nearest representable value of ``x`` per the format's rounding mode.

    Out-of-range inputs saturate or wrap per the overflow mode. NaN is
    rejected; infinities clamp to the format bounds in both modes.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("cannot quantize NaN")
    if math.isinf(x):
        return FxValue(fmt.raw_max if x > 0 else fmt.raw_min, fmt)
    scaled = math.ldexp(x, fmt.frac_bits)  # exact unless it overflows float range
    if math.isinf(scaled):
        # |x| >= 2**(1024 - frac_bits): x is integer-valued, scale exactly
        exact = int(x) << fmt.frac_bits
        return FxValue(_handle_overflow_int(exact, fmt), fmt)
    if fmt.rounding is Rounding.ROUND_EVEN:
        r = round(scaled)  # float round is exact half-to-even
    else:
        r = math.floor(scaled)
    return FxValue(_handle_overflow_int(r, fmt), fmt)


def dequantize(v: FxValue) -> float:
    """raw * 2**-frac_bits."""
    return v.value


def fx_add(a: FxValue, b: FxValue) -> FxValue:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt.spec()} vs {b.fmt.spec()}")
    return FxValue(_handle_overflow_int(a.raw + b.raw, a.fmt), a.fmt)


def fx_sub(a: FxValue, b: FxValue) -> FxValue:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt.spec()} vs {b.fmt.spec()}")
    return FxValue(_handle_overflow_int(a.raw - b.raw, a.fmt), a.fmt)


def fx_mul(a: FxValue, b: FxValue) -> FxValue:
    """Double-width product, one right shift with rounding, then overflow handling."""
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt.spec()} vs {b.fmt.spec()}")
    fmt = a.fmt
    q = _shift_round_int(a.raw * b.raw, fmt.frac_bits, fmt.rounding)
    return FxValue(_handle_overflow_int(q, fmt), fmt)


def exact_value(v: FxValue) -> Fraction:
    """The exact rational value, for oracles and error accounting."""
    return Fraction(v.raw, 1 << v.fmt.frac_bits)


# ---------------------------------------------------------------------------
# array layer
# ---------------------------------------------------------------------------

# int64 intermediates are considered safe below this magnitude; anything that
# could exceed it is recomputed on arbitrary-precision object arrays.
_INT64_SAFE = 1 << 62


@dataclass
class FxArray:
    """A tensor of raw integers sharing one format (dtype int64 or object)."""

    raw: np.ndarray
    fmt: FxFormat

    @property
    def shape(self) -> tuple[int, ...]:
        return self.raw.shape

    @property
    def ndim(self) -> int:
        return self.raw.ndim

    def to_float(self) -> np.ndarray:
        return self.raw.astype(np.float64) * self.fmt.step

    def __getitem__(self, idx) -> "FxArray":
        return FxArray(np.asarray(self.raw[idx]), self.fmt)

    def reshape(self, *shape) -> "FxArray":
        return FxArray(self.raw.reshape(*shape), self.fmt)

    def swapaxes(self, axis1: int, axis2: int) -> "FxArray":
        return FxArray(self.raw.swapaxes(axis1, axis2), self.fmt)


def _as_object(a: np.ndarray) -> np.ndarray:
    if a.dtype == object:
        return a
    return np.array([int(v) for v in a.flat], dtype=object).reshape(a.shape)


def _max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max(abs(int(v)) for v in a.flat)
    return int(np.max(np.abs(a)))


def _shift_round_array(p: np.ndarray, shift: int, rounding: Rounding) -> np.ndarray:
    if shift == 0:
        return p
    q = p >> shift
    if rounding is Rounding.TRUNCATE:
        return q
    r = p - (q << shift)
    half = 1 << (shift - 1)
    inc = (r > half) | ((r == half) & ((q & 1) == 1))
    if p.dtype == object:
        return q + np.where(inc.astype(bool), 1, 0)
    return q + inc.astype(np.int64)


def _handle_overflow_array(v: np.ndarray, fmt: FxFormat) -> np.ndarray:
    if fmt.overflow is Overflow.SATURATE:
        out = np.minimum(np.maximum(v, fmt.raw_min), fmt.raw_max)
    else:
        half = 1 << (fmt.total_bits - 1)
        out = ((v + half) & ((1 << fmt.total_bits) - 1)) - half
    if v.dtype == object and fmt.total_bits <= 60:
        return out.astype(np.int64)
    return out


def quantize_array(x: np.ndarray, fmt: FxFormat) -> FxArray:
    """Vectorized :func:`quantize`; bit-identical to the scalar path."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("cannot quantize NaN")
    scaled = x * math.ldexp(1.0, fmt.frac_bits)
    # fast path needs the rounded integers to be exact in float64 and castable
    if fmt.total_bits <= 52 and np.all(np.abs(scaled) < float(_INT64_SAFE)):
        r = np.rint(scaled) if fmt.rounding is Rounding.ROUND_EVEN else np.floor(scaled)
        raw = _handle_overflow_array(r.astype(np.int64), fmt)
        return FxArray(raw, fmt)
    flat = np.array([quantize(float(v), fmt).raw for v in x.flat], dtype=object)
    raw = _handle_overflow_array(flat.reshape(x.shape), fmt)
    return FxArray(raw, fmt)


def _check_fmt(a: FxArray, b: FxArray) -> FxFormat:
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt.spec()} vs {b.fmt.spec()}")
    return a.fmt


def fx_add_array(a: FxArray, b: FxArray) -> FxArray:
    fmt = _check_fmt(a, b)
    ar, br = a.raw, b.raw
    if ar.dtype != object and br.dtype != object:
        if _max_abs(ar) + _max_abs(br) >= _INT64_SAFE or fmt.total_bits > 60:
            ar, br = _as_object(ar), _as_object(br)
    return FxArray(_handle_overflow_array(ar + br, fmt), fmt)


def fx_mul_array(a: FxArray, b: FxArray) -> FxArray:
    """Elementwise fx_mul with broadcasting."""
    fmt = _check_fmt(a, b)
    ar, br = a.raw, b.raw
    if ar.dtype != object and br.dtype != object:
        if _max_abs(ar) * max(_max_abs(br), 1) >= _INT64_SAFE or fmt.total_bits > 60:
            ar, br = _as_object(ar), _as_object(br)
    q = _shift_round_array(ar * br, fmt.frac_bits, fmt.rounding)
    return FxArray(_handle_overflow_array(q, fmt), fmt)


def fx_matmul(a: FxArray, b: FxArray) -> FxArray:
    """Matrix product with exact accumulation and a single final rounding.

    Accepts any shapes ``np.matmul`` accepts. Each output element is the
    exact integer dot product (double-width semantics), shifted back by
    frac_bits with the format's rounding, then overflow-handled. This is
    the dot-product kernel every matrix-vector product in the model uses.
    """
    fmt = _check_fmt(a, b)
    ar, br = a.raw, b.raw
    k = ar.shape[-1]
    if ar.dtype != object and br.dtype != object:
        bound = _max_abs(ar) * max(_max_abs(br), 1) * max(k, 1)
        if bound >= _INT64_SAFE or fmt.total_bits > 60:
            ar, br = _as_object(ar), _as_object(br)
    acc = ar @ br
    q = _shift_round_array(np.asarray(acc), fmt.frac_bits, fmt.rounding)
    return FxArray(_handle_overflow_array(q, fmt), fmt)


def fx_sum(a: FxArray, axis: int = -1) -> FxArray:
    """Exact sum along an axis followed by one overflow handling (no rounding)."""
    ar = a.raw
    n = ar.shape[axis] if ar.ndim else 1
    if ar.dtype != object:
        if _max_abs(ar) * max(n, 1) >= _INT64_SAFE or a.fmt.total_bits > 60:
            ar = _as_object(ar)
    s = ar.sum(axis=axis)
    return FxArray(_handle_overflow_array(np.asarray(s), a.fmt), a.fmt)


def fx_relu(a: FxArray) -> FxArray:
    return FxArray(np.maximum(a.raw, 0), a.fmt)
