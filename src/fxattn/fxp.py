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

Raws are int64 at every width, and arithmetic runs in the cheapest of three
tiers that holds every intermediate exactly:

* float64, when a sum of products is bounded below 2**53: then every
  partial sum is an integer float64 represents exactly, in any summation
  order, so BLAS products and ``np.rint``/``np.floor`` give the exact
  bits. Products and rounding run in this tier up to 24 bits for
  90-term dot products and up to 27 bits for elementwise products;
* int64, below 2**62, with shift-based rounding;
* 22-bit limbs, otherwise; formats above 60 bits always run here. Each
  raw splits into three limbs, each limb product lies below 2**44, and
  the products that share a shift sum exactly in float64 (blocks of at
  most 170 terms) or int64. One int64 pass over base-2**22 digits then
  rounds, decides overflow exactly and forms the result.

The tiers rest on one invariant: every raw of an :class:`FxArray` lies in
its format's range, so ``|raw| <= 2**(total_bits - 1)``. From it the
format width and the reduction length bound each intermediate without
looking at the data. Only products in formats too wide for that bound
(up to 60 bits) scan their operands, once, to pick float64, int64 or limbs.
A format's width and bounds are computed once, and every kernel reuses them.

:func:`overflow_watch` counts the calling thread's overflow events while it
is open, at two sites: the input check of :func:`quantize_array` and the
overflow step that every kernel and :func:`saturate_difference` end in. The
precision sweep uses it to prove sweep points identical without running them.
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
    # (raw_min, raw_max) as np.int64, the dtype of every raw, so np.clip
    # takes it without an np.iinfo lookup.
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
        object.__setattr__(self, "bounds", (np.int64(-half), np.int64(half - 1)))

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
# _INT64_SAFE; anything that may exceed both runs on limbs of _LIMB bits. A
# limb product lies below 2**44, and a shift group adds at most three per
# term, so up to _LIMB_TERMS terms sum below 2**53.
_FLOAT_EXACT = 1 << 53
_INT64_SAFE = 1 << 62
_LIMB = 22
_LIMB_MASK = (1 << _LIMB) - 1
_LIMB_TERMS = 170
# _floor_shift clamps its Horner sums here: far outside every raw range, and
# still in int64 after a shift by _LIMB
_CLAMP = 1 << 40


@dataclass
class FxArray:
    """A tensor of int64 raw integers sharing one format.

    Invariant: every raw lies in ``[fmt.raw_min, fmt.raw_max]``. The kernels
    rely on it to bound their intermediates from the format width alone, and
    every producer in this package (:func:`quantize_array` and each kernel)
    keeps it.
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


def _max_abs(a: np.ndarray) -> int:
    return int(np.max(np.abs(a))) if a.size else 0


def _product_dtype(a: np.ndarray, b: np.ndarray, fmt: FxFormat, k: int):
    """The cheapest exact dtype for sums of ``k`` products of ``a`` and ``b``.

    float64 when the sum is bounded below 2**53, so that every partial sum
    is an integer float64 holds exactly in any summation order; int64 below
    2**62; None otherwise, for limbs. The format width proves the float64
    bound without looking at the data while 2**(2*total_bits - 2) * k < 2**53;
    past that, up to 60 bits, one scan of both operands decides.
    """
    if fmt.total_bits > 60:
        return None
    k = max(k, 1)
    if k << (2 * fmt.total_bits - 2) < _FLOAT_EXACT:
        return np.float64
    bound = _max_abs(a) * max(_max_abs(b), 1) * k
    if bound < _FLOAT_EXACT:
        return np.float64
    return np.int64 if bound < _INT64_SAFE else None


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
    wrapped a value (every kernel's and :func:`saturate_difference`'s), and
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


def saturate_difference(a: np.ndarray, b: np.ndarray, fmt: FxFormat) -> np.ndarray:
    """Raws ``a - b`` clamped into ``fmt``'s range in every overflow mode; a
    clamp that changes a value is an overflow event."""
    if fmt.total_bits < 64:  # two in-range raws differ by less than 2**63
        return _handle_overflow_array(a - b, fmt, Overflow.SATURATE)
    return _round_groups([x - y for x, y in zip(_limbs(a), _limbs(b))], fmt, 0,
                         Overflow.SATURATE)


def _handle_overflow_array(v: np.ndarray, fmt: FxFormat,
                           overflow: Overflow | None = None) -> np.ndarray:
    """Saturate or wrap ``v`` into ``fmt``'s range, in place: ``v`` is consumed.
    ``overflow``, if given, overrides the format's mode. The exact values
    must fit int64; wrap-around then needs 63 bits or fewer."""
    v = np.asarray(v)  # a ufunc hands back a 0-d result as a scalar
    watch = _watch.get()
    if watch is not None and v.size and (v.min() < fmt.raw_min or v.max() > fmt.raw_max):
        watch.events += 1
    if (overflow or fmt.overflow) is Overflow.SATURATE:
        v.clip(*fmt.bounds, out=v)
    else:
        # v + half may wrap in int64; the low total_bits bits stay exact
        half = 1 << (fmt.total_bits - 1)
        v += half
        v &= (1 << fmt.total_bits) - 1
        v -= half
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


# ---------------------------------------------------------------------------
# the limb tier: exact integers of any size as int64 sums of shifted groups
# ---------------------------------------------------------------------------

def _limbs(x: np.ndarray) -> np.ndarray:
    """``(3, *x.shape)`` int64 limbs of the raws ``x``:
    ``x = l0 + l1 * 2**22 + l2 * 2**44``, ``l0`` and ``l1`` in [0, 2**22)."""
    return np.stack([x & _LIMB_MASK, (x >> _LIMB) & _LIMB_MASK, x >> 2 * _LIMB])


def _shift_groups(p) -> list:
    """The nine limb products ``p(i, j)`` of two raws, summed into the five
    groups that share the shift ``22 * (i + j)``."""
    return [p(0, 0), p(0, 1) + p(1, 0), p(0, 2) + p(1, 1) + p(2, 0), p(1, 2) + p(2, 1), p(2, 2)]


def _mul_groups(ar: np.ndarray, br: np.ndarray) -> list:
    """Shift groups of the elementwise product, from int64 limb products."""
    a, b = _limbs(ar), _limbs(br)
    return _shift_groups(lambda i, j: a[i] * b[j])


def _matmul_groups(ar: np.ndarray, br: np.ndarray) -> list:
    """Shift groups of ``ar @ br`` (shapes as ``np.matmul``), from float64
    limb products through :func:`_matmul`: each block of up to _LIMB_TERMS
    terms sums exactly, and the blocks add in int64."""
    if br.ndim == 1:  # a column, dropped from the result
        return [g[..., 0] for g in _matmul_groups(ar, br[:, None])]
    if ar.ndim == 1:  # a row, dropped from the result
        return [g[..., 0, :] for g in _matmul_groups(ar[None], br)]
    k, n = br.shape[-2:]
    lead = (*np.broadcast_shapes(ar.shape[:-2], br.shape[:-2]), ar.shape[-2])
    a = _limbs(ar[(None,) * (br.ndim - ar.ndim)]).astype(np.float64)
    b = np.concatenate(_limbs(br), axis=-1).astype(np.float64)  # (..., k, 3n)
    groups = None
    for lo in range(0, max(k, 1), _LIMB_TERMS):
        ab, bb = a[..., lo:lo + _LIMB_TERMS], b[..., lo:lo + _LIMB_TERMS, :]
        # with a 2-D b, every row of every limb goes through one row-product stack
        rows = ab.reshape(math.prod(ab.shape[:-1]), ab.shape[-1]) if b.ndim == 2 else ab
        p = _matmul(rows, bb).reshape(3, *lead, 3, n)
        block = [x.astype(np.int64) for x in _shift_groups(lambda i, j: p[i, ..., j, :])]
        groups = block if groups is None else [g + x for g, x in zip(groups, block)]
    return groups


def _digits(d: list) -> list:
    """Turn the int64 arrays ``d``, ``T = sum(d[s] << 22*s)``, into T's
    base-2**22 digits, in place: each in [0, 2**22) but the last, which
    keeps the sign and the rest of T."""
    for x, y in zip(d, d[1:]):
        y += x >> _LIMB
        x &= _LIMB_MASK
    return d


def _floor_shift(d: list, s: int, clamp: bool) -> np.ndarray:
    """``floor(T / 2**s)`` of the digits ``d``: modulo 2**64, consuming the
    digits above the one that holds bit s; or, with ``clamp``, exact where it
    lies within 2**40 and beyond 2**40, with its sign, elsewhere."""
    q = min(s // _LIMB, len(d) - 1)
    r = s - _LIMB * q
    out = d[q] >> r
    if q < len(d) - 1:  # Horner over the digits above digit q
        u = d[-1]
        for x in d[-2:q:-1]:
            u = u.clip(-_CLAMP, _CLAMP) if clamp else u
            u <<= _LIMB
            u += x
        u = u.clip(-_CLAMP, _CLAMP) if clamp else u
        u <<= _LIMB - r
        out += u
    return out


def _round_groups(g: list, fmt: FxFormat, shift: int,
                  overflow: Overflow | None = None) -> np.ndarray:
    """Raws of ``fmt`` from the exact ``T = sum(g[s] << 22*s)`` of int64
    arrays ``g`` of one shape, however large T is: ``T >> shift`` rounded per
    the format, then saturated or wrapped and counted as
    :func:`_handle_overflow_array` does. ``g`` is consumed, and
    ``overflow`` overrides the format's mode."""
    shape = np.shape(g[0])
    d = _digits([np.ravel(x) for x in g])  # 1-d: no numpy scalar arithmetic
    if shift and fmt.rounding is Rounding.ROUND_EVEN:
        # as _shift_round_array: add half - 1 and the kept part's low bit
        q, r = divmod(shift, _LIMB)
        d[0] += (d[q] >> r) & 1
        half = (1 << (shift - 1)) - 1
        for i in range((shift - 1) // _LIMB + 1):
            d[i] += (half >> _LIMB * i) & _LIMB_MASK
        _digits(d)
    # the rounded value lies in range exactly when this is 0 or -1
    top = _floor_shift(d, shift + fmt.total_bits - 1, clamp=True)
    raw = _floor_shift(d, shift, clamp=False)
    over = top != top >> 63
    if over.any():
        watch = _watch.get()
        if watch is not None:
            watch.events += 1
        if (overflow or fmt.overflow) is Overflow.SATURATE:
            raw[over] = np.where(top[over] < 0, *fmt.bounds)
        else:  # the low total_bits bits, sign-extended
            raw <<= 64 - fmt.total_bits
            raw >>= 64 - fmt.total_bits
    return raw.reshape(shape)


def quantize_array(x: np.ndarray, fmt: FxFormat) -> FxArray:
    """Nearest representable raws of ``x`` per the format's rounding mode.

    NaN is rejected. Saturation first clips ``x`` at +-2**(int_bits - 1),
    wrap-around first takes it modulo 2**int_bits; both are exact in float64
    and neither changes the resulting raw. The scaled values then lie within
    2**total_bits, so scaling and rounding them is exact and int64 holds
    them up to 62 bits; wider, they split into limbs exactly. Infinities
    clamp to the format bounds in both modes.
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
    if fmt.total_bits <= 62:
        raw = _handle_overflow_array(r.astype(np.int64), fmt)
    else:  # |r| reaches 2**63; r = lo + hi * 2**44, both exact in float64
        hi = np.floor(r * math.ldexp(1.0, -2 * _LIMB))
        lo = r - hi * math.ldexp(1.0, 2 * _LIMB)
        raw = _round_groups([lo.astype(np.int64), hi.astype(np.int64) << _LIMB], fmt, 0)
    raw[x == np.inf] = fmt.raw_max
    raw[x == -np.inf] = fmt.raw_min
    return FxArray(raw, fmt)


def _check_fmt(a: FxArray, b: FxArray) -> FxFormat:
    if a.fmt is not b.fmt and a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt.spec()} vs {b.fmt.spec()}")
    return a.fmt


def fx_add_array(a: FxArray, b: FxArray) -> FxArray:
    fmt = _check_fmt(a, b)
    if fmt.total_bits < 64:  # two in-range raws sum within int64
        return FxArray(_handle_overflow_array(a.raw + b.raw, fmt), fmt)
    return FxArray(_round_groups([x + y for x, y in zip(_limbs(a.raw), _limbs(b.raw))],
                                 fmt, 0), fmt)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if b.dtype != np.float64:  # int64 tier
        return a @ b
    a = a.astype(np.float64, copy=False)
    # one gemm over many rows would start BLAS threads, which contend with the
    # worker processes of a sweep; a stack of row products stays on this thread.
    # Against a b with batch axes the stack would pair a's rows with them.
    return (a[:, None, :] @ b)[:, 0] if a.ndim == 2 and b.ndim <= 2 else a @ b


def _exact_product(a: FxArray, b: FxArray, k: int, op, limb_groups) -> FxArray:
    """``op(a, b)``, each element a sum of ``k`` exact products, rounded once
    in the tier :func:`_product_dtype` picks, then overflow-handled;
    ``limb_groups`` forms the product's shift groups in the limb tier."""
    fmt = _check_fmt(a, b)
    ar, br = a.raw, b.raw
    dtype = _product_dtype(ar, br, fmt, k)
    if dtype is np.float64:
        return FxArray(_round_scaled(op(ar, _scaled(br, fmt)), fmt), fmt)
    if dtype is np.int64:
        return FxArray(_round_products(op(ar, br), fmt), fmt)
    return FxArray(_round_groups(limb_groups(ar, br), fmt, fmt.frac_bits), fmt)


def fx_mul_array(a: FxArray, b: FxArray) -> FxArray:
    """Elementwise product with broadcasting: one rounding shift, then overflow."""
    return _exact_product(a, b, 1, np.multiply, _mul_groups)


def fx_matmul(a: FxArray, b: FxArray) -> FxArray:
    """Matrix product with exact accumulation and a single final rounding.

    Accepts any shapes ``np.matmul`` accepts. Each output element is the
    exact integer dot product (double-width semantics), shifted back by
    frac_bits with the format's rounding, then overflow-handled. This is
    the dot-product kernel every matrix-vector product in the model uses.
    """
    return _exact_product(a, b, a.shape[-1], _matmul, _matmul_groups)


def fx_sum(a: FxArray, axis: int = -1) -> FxArray:
    """Exact sum along an axis followed by one overflow handling (no rounding)."""
    ar = a.raw
    n = max(ar.shape[axis] if ar.ndim else 1, 1)
    if n << (a.fmt.total_bits - 1) >= _INT64_SAFE:  # the sum may leave int64
        return FxArray(_round_groups([x.sum(axis=axis) for x in _limbs(ar)], a.fmt, 0), a.fmt)
    return FxArray(_handle_overflow_array(ar.sum(axis=axis), a.fmt), a.fmt)


def fx_relu(a: FxArray) -> FxArray:
    return FxArray(np.maximum(a.raw, 0), a.fmt)
