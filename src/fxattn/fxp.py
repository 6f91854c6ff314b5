"""Q-format signed fixed-point arithmetic emulating HLS ``ap_fixed`` behavior.

A value is an integer ``raw`` scaled by ``2**-frac_bits``, stored in
``int_bits + frac_bits`` two's-complement bits (``int_bits`` includes the
sign bit). Overflow is handled by saturation or wrap-around, rounding by
truncation toward negative infinity or round-to-nearest-even.

All arithmetic is done by :class:`FxArray` kernels over numpy arrays of raw
integers (0-d arrays serve as scalars): :func:`quantize_array`,
:func:`fx_add_array`, :func:`fx_mul_array`, :func:`fx_matmul`,
:func:`fx_sum` and :func:`fx_relu`. The tests hold them to an independent
exact-rational oracle.

Accumulation discipline: dot products accumulate the exact double-width
integer sum and round once at the end. Bias terms are added afterwards as
exact raw additions followed by overflow handling, never inside the
rounded accumulator.

Arithmetic runs in the cheapest of three tiers that holds every
intermediate exactly:

* float64, when a sum of products is bounded below 2**53: then every
  partial sum is an integer float64 represents exactly, in any summation
  order, so BLAS products and ``np.rint``/``np.floor`` give the exact
  bits. Products and rounding run in this tier up to 24 bits for
  90-term dot products and up to 27 bits for elementwise products;
* int64, below 2**62, with shift-based rounding;
* arbitrary-precision Python ints in object arrays, otherwise; formats
  above 60 bits always run here.

The tiers rest on one invariant: every raw of an :class:`FxArray` lies in
its format's range, so ``|raw| <= 2**(total_bits - 1)``. From it the
format width and the reduction length bound each intermediate without
looking at the data. Only products in formats too wide for that bound
(up to 60 bits) scan their operands, once, to pick float64 or int64.
A format's width and bounds are computed once, and every kernel reuses them.

:func:`overflow_watch` counts the calling thread's overflow events while it
is open, at two sites: the input check of :func:`quantize_array` and the
overflow step that every kernel and :func:`saturate` end in. The precision
sweep uses it to prove sweep points identical without running them.
"""
from __future__ import annotations

import contextlib
import contextvars
import enum
import math
import re
from dataclasses import dataclass, field

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
    # Set by __post_init__, outside equality and hashing. ``bounds`` is
    # (raw_min, raw_max) as np.int64 up to 60 bits, where raws are int64, so
    # np.clip takes it without an np.iinfo lookup; as Python ints above.
    total_bits: int = field(init=False, repr=False, compare=False)
    raw_min: int = field(init=False, repr=False, compare=False)
    raw_max: int = field(init=False, repr=False, compare=False)
    bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.int_bits < 1:
            raise ValueError(f"int_bits must be >= 1, got {self.int_bits}")
        if self.frac_bits < 0:
            raise ValueError(f"frac_bits must be >= 0, got {self.frac_bits}")
        total = self.int_bits + self.frac_bits
        if total > 64:
            raise ValueError(f"total width {total} exceeds the 64-bit cap")
        half = 1 << (total - 1)
        object.__setattr__(self, "total_bits", total)
        object.__setattr__(self, "raw_min", -half)
        object.__setattr__(self, "raw_max", half - 1)
        as_raw = np.int64 if total <= 60 else int
        object.__setattr__(self, "bounds", (as_raw(-half), as_raw(half - 1)))

    @property
    def step(self) -> float:
        """Quantization step, 2**-frac_bits."""
        return math.ldexp(1.0, -self.frac_bits)

    def spec(self) -> str:
        """Serialize as ``fixed<TOTAL,INT>`` (HLS width/integer notation)."""
        return f"fixed<{self.total_bits},{self.int_bits}>"


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


# Exact integer intermediates fit float64 below _FLOAT_EXACT and int64 below
# _INT64_SAFE; anything that may exceed both runs on object arrays.
_FLOAT_EXACT = 1 << 53
_INT64_SAFE = 1 << 62


@dataclass
class FxArray:
    """A tensor of raw integers sharing one format (dtype int64 or object).

    Invariant: every raw lies in ``[fmt.raw_min, fmt.raw_max]``. The kernels
    rely on it to bound their intermediates from the format width alone, and
    every producer in this package (:func:`quantize_array` and each kernel)
    keeps it. Raws are int64 up to 60 bits and Python ints above.
    """

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
    return int(np.max(np.abs(a))) if a.size else 0


def _product_dtype(a: np.ndarray, b: np.ndarray, fmt: FxFormat, k: int):
    """The cheapest exact dtype for sums of ``k`` products of ``a`` and ``b``.

    float64 when the sum is bounded below 2**53, so that every partial sum
    is an integer float64 holds exactly in any summation order; int64 below
    2**62; object otherwise. The format width proves the float64 bound
    without looking at the data while 2**(2*total_bits - 2) * k < 2**53;
    past that, up to 60 bits, one scan of both operands decides.
    """
    if a.dtype == object or b.dtype == object or fmt.total_bits > 60:
        return object
    k = max(k, 1)
    if k << (2 * fmt.total_bits - 2) < _FLOAT_EXACT:
        return np.float64
    bound = _max_abs(a) * max(_max_abs(b), 1) * k
    if bound < _FLOAT_EXACT:
        return np.float64
    return np.int64 if bound < _INT64_SAFE else object


def _scaled(a: np.ndarray, fmt: FxFormat) -> np.ndarray:
    """``a * 2**-frac_bits`` in float64, exact for integers below 2**53."""
    return a * math.ldexp(1.0, -fmt.frac_bits)


def _shift_round_array(p: np.ndarray, shift: int, rounding: Rounding) -> np.ndarray:
    if shift == 0:
        return p
    if rounding is Rounding.TRUNCATE:
        return p >> shift
    # adding half - 1 carries into bit `shift` exactly when the remainder
    # exceeds half; the kept part's low bit decides a tie towards even
    return (p + ((1 << (shift - 1)) - 1) + ((p >> shift) & 1)) >> shift


@dataclass
class OverflowWatch:
    """Overflow events of the thread that opened :func:`overflow_watch`,
    counted while it is open, at two sites: overflow steps that saturated or
    wrapped a value (every kernel's and :func:`saturate`'s), and
    :func:`quantize_array` calls with an input outside
    ``[-2**(int_bits - 1), 2**(int_bits - 1))``, infinities included. A pass
    that counts none computes the same raws at any wider int width, provided
    it computes them all itself: a quantization or table cached from an
    earlier pass would carry no count. Events are counted per call, and a
    chunked batch pass (:func:`fxattn.model.forward_batch`) makes each call
    once per chunk, so the count grows with the number of chunks: only zero
    against nonzero carries the proof."""

    events: int = 0


# the innermost open OverflowWatch of the running context; a new thread has none
_watch = contextvars.ContextVar("overflow_watch", default=None)


@contextlib.contextmanager
def overflow_watch():
    """Count the calling thread's overflow events while the block runs; yields
    the :class:`OverflowWatch`. A thread started inside the block sees the
    watch only when it runs in a copy of this context. With no watch open,
    each event site costs one lookup and one ``None`` check."""
    token = _watch.set(OverflowWatch())
    try:
        yield _watch.get()
    finally:
        _watch.reset(token)


def saturate(v: np.ndarray, fmt: FxFormat) -> None:
    """Clamp the raws ``v`` into ``fmt``'s range in place, in every overflow
    mode; a clamp that changes a value is an overflow event."""
    _handle_overflow_array(v, fmt, Overflow.SATURATE)


def _handle_overflow_array(v: np.ndarray, fmt: FxFormat,
                           overflow: Overflow | None = None) -> np.ndarray:
    """Saturate or wrap ``v`` into ``fmt``'s range, in place: ``v`` is consumed.
    ``overflow``, if given, overrides the format's mode."""
    # a ufunc hands back a 0-d result as a scalar, and a bare int must stay
    # a Python int above 60 bits
    v = np.asarray(v, dtype=object if fmt.total_bits > 60 else None)
    watch = _watch.get()
    if watch is not None and v.size and (v.min() < fmt.raw_min or v.max() > fmt.raw_max):
        watch.events += 1
    if (overflow or fmt.overflow) is Overflow.SATURATE:
        v.clip(*fmt.bounds, out=v)
    else:
        half = 1 << (fmt.total_bits - 1)
        v += half
        v &= (1 << fmt.total_bits) - 1
        v -= half
    if v.dtype == object and fmt.total_bits <= 60:
        return v.astype(np.int64)
    return v


def _round_products(p: np.ndarray, fmt: FxFormat) -> np.ndarray:
    """Exact integer products (``2 * frac_bits`` fraction bits) rounded to raws of ``fmt``."""
    return _handle_overflow_array(_shift_round_array(p, fmt.frac_bits, fmt.rounding), fmt)


def _round_scaled(x: np.ndarray, fmt: FxFormat) -> np.ndarray:
    """Exact float64 products, already scaled by ``2**-frac_bits``, rounded to raws."""
    q = np.empty(x.shape, dtype=np.int64)
    rnd = np.rint if fmt.rounding is Rounding.ROUND_EVEN else np.floor
    rnd(x, out=q, casting="unsafe")  # |x| < 2**53, so the cast is exact
    return _handle_overflow_array(q, fmt)


def quantize_array(x: np.ndarray, fmt: FxFormat) -> FxArray:
    """Nearest representable raws of ``x`` per the format's rounding mode.

    NaN is rejected. Saturation first clips ``x`` at +-2**(int_bits - 1),
    wrap-around first takes it modulo 2**int_bits; both are exact in float64
    and neither changes the resulting raw. The scaled values then lie within
    2**total_bits, so scaling and rounding them is exact and int64 holds
    them up to 62 bits. Infinities clamp to the format bounds in both modes.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("cannot quantize NaN")
    top = math.ldexp(1.0, fmt.int_bits - 1)
    # a clip below -top reaches raw_min with no raw overflow, so it counts here
    watch = _watch.get()
    if watch is not None and x.size and (x.min() < -top or x.max() >= top):
        watch.events += 1
    if fmt.overflow is Overflow.SATURATE:
        bounded = np.clip(x, -top, top)
    else:
        bounded = np.fmod(np.where(np.isinf(x), 0.0, x), 2 * top)
    rnd = np.rint if fmt.rounding is Rounding.ROUND_EVEN else np.floor
    r = np.asarray(rnd(bounded * math.ldexp(1.0, fmt.frac_bits)))
    r = r.astype(np.int64) if fmt.total_bits <= 62 else _as_object(r)
    raw = _handle_overflow_array(r, fmt)
    raw[x == np.inf] = fmt.raw_max
    raw[x == -np.inf] = fmt.raw_min
    return FxArray(raw, fmt)


def _check_fmt(a: FxArray, b: FxArray) -> FxFormat:
    if a.fmt is not b.fmt and a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt.spec()} vs {b.fmt.spec()}")
    return a.fmt


def fx_add_array(a: FxArray, b: FxArray) -> FxArray:
    fmt = _check_fmt(a, b)
    ar, br = a.raw, b.raw
    if fmt.total_bits > 60:  # up to 60 bits two in-range raws sum far below 2**62
        ar, br = _as_object(ar), _as_object(br)
    return FxArray(_handle_overflow_array(ar + br, fmt), fmt)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if b.dtype != np.float64:  # int64 or object tier
        return a @ b
    a = a.astype(np.float64)
    # one gemm over many rows would start BLAS threads, which contend with the
    # worker processes of a sweep; a stack of row products stays on this thread
    return (a[:, None, :] @ b)[:, 0] if a.ndim == 2 else a @ b


def _exact_product(a: FxArray, b: FxArray, k: int, op) -> FxArray:
    """``op(a, b)``, each element a sum of ``k`` exact products, rounded once
    in the tier :func:`_product_dtype` picks, then overflow-handled."""
    fmt = _check_fmt(a, b)
    ar, br = a.raw, b.raw
    dtype = _product_dtype(ar, br, fmt, k)
    if dtype is np.float64:
        return FxArray(_round_scaled(op(ar, _scaled(br, fmt)), fmt), fmt)
    if dtype is object:
        ar, br = _as_object(ar), _as_object(br)
    return FxArray(_round_products(op(ar, br), fmt), fmt)


def fx_mul_array(a: FxArray, b: FxArray) -> FxArray:
    """Elementwise product with broadcasting: one rounding shift, then overflow."""
    return _exact_product(a, b, 1, np.multiply)


def fx_matmul(a: FxArray, b: FxArray) -> FxArray:
    """Matrix product with exact accumulation and a single final rounding.

    Accepts any shapes ``np.matmul`` accepts. Each output element is the
    exact integer dot product (double-width semantics), shifted back by
    frac_bits with the format's rounding, then overflow-handled. This is
    the dot-product kernel every matrix-vector product in the model uses.
    """
    return _exact_product(a, b, a.shape[-1], _matmul)


def fx_sum(a: FxArray, axis: int = -1) -> FxArray:
    """Exact sum along an axis followed by one overflow handling (no rounding)."""
    ar = a.raw
    n = max(ar.shape[axis] if ar.ndim else 1, 1)
    if a.fmt.total_bits > 60 or n << (a.fmt.total_bits - 1) >= _INT64_SAFE:
        ar = _as_object(ar)
    s = ar.sum(axis=axis)
    return FxArray(_handle_overflow_array(s, a.fmt), a.fmt)


def fx_relu(a: FxArray) -> FxArray:
    return FxArray(np.maximum(a.raw, 0), a.fmt)
