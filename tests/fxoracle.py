"""Exact-rational oracle for fixed-point arithmetic, independent of fxp's kernels.

Value-space arithmetic with Fractions: rounds an exact rational onto the
representable grid, then applies overflow in value space. It shares no code
with the raw-domain shifts and clips of :mod:`fxattn.fxp`.
"""
import math
from fractions import Fraction

from fxattn.fxp import FxFormat, Overflow, Rounding


def round_to_grid(x: Fraction, fmt: FxFormat) -> int:
    scaled = x * (1 << fmt.frac_bits)
    if fmt.rounding is Rounding.TRUNCATE:
        return math.floor(scaled)
    lo = math.floor(scaled)
    frac = scaled - lo
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and lo % 2 != 0):
        return lo + 1
    return lo


def apply_overflow(raw: int, fmt: FxFormat) -> int:
    if fmt.overflow is Overflow.SATURATE:
        return min(max(raw, fmt.raw_min), fmt.raw_max)
    span = 1 << fmt.total_bits
    return (raw - fmt.raw_min) % span + fmt.raw_min


def oracle_quantize(x: Fraction, fmt: FxFormat) -> int:
    return apply_overflow(round_to_grid(x, fmt), fmt)


def fraction_of(raw, fmt: FxFormat) -> Fraction:
    """The rational value of one raw integer of ``fmt``."""
    return Fraction(int(raw), 1 << fmt.frac_bits)


def oracle_add(a, b, fmt: FxFormat) -> int:
    return oracle_quantize(fraction_of(a, fmt) + fraction_of(b, fmt), fmt)


def oracle_mul(a, b, fmt: FxFormat) -> int:
    return oracle_quantize(fraction_of(a, fmt) * fraction_of(b, fmt), fmt)


def oracle_matmul(a, b, fmt: FxFormat) -> list:
    """Raws of rows of a (r, k) times columns of b (k, c) in Fractions, rounded once."""
    scale = Fraction(1, 1 << (2 * fmt.frac_bits))
    return [[oracle_quantize(sum(int(x) * int(y) for x, y in zip(row, col)) * scale, fmt)
             for col in b.T] for row in a]
