"""Fixed-point kernel tests against exact-rational oracles."""
import math
import pickle
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxattn import data, fxp, model
from fxattn.fxp import FxArray, FxFormat, Overflow, Rounding
from fxattn.softmax import softmax_lut
from draws import softmax_tables
from fxoracle import apply_overflow, oracle_add, oracle_matmul, oracle_mul, oracle_quantize


def fmt_strategy(max_total=16):
    return st.builds(
        FxFormat,
        int_bits=st.integers(1, 12),
        frac_bits=st.integers(0, 12),
        overflow=st.sampled_from(list(Overflow)),
        rounding=st.sampled_from(list(Rounding)),
    ).filter(lambda f: f.total_bits <= max_total)


# ---------------------------------------------------------------------------
# format and parsing
# ---------------------------------------------------------------------------

def test_format_validation():
    with pytest.raises(ValueError):
        FxFormat(int_bits=0, frac_bits=4)
    with pytest.raises(ValueError):
        FxFormat(int_bits=4, frac_bits=-1)
    with pytest.raises(ValueError):
        FxFormat(int_bits=33, frac_bits=32)


def test_format_range():
    fmt = FxFormat(int_bits=4, frac_bits=4)
    assert fmt.raw_min * fmt.step == -8.0
    assert fmt.raw_max * fmt.step == 8.0 - 2.0 ** -4
    assert fmt.step == 0.0625


@pytest.mark.parametrize("spec,total", [
    ("fixed<20,10>", 20), ("fixed<60,30>", 60), ("fixed<61,30>", 61), ("fixed<64,32>", 64),
])
def test_format_constants_fixed_once(spec, total):
    # int64 bounds at every width, the dtype of every raw
    fmt = fxp.parse_format(spec)
    assert fmt.total_bits == total
    assert fmt.bounds == (fmt.raw_min, fmt.raw_max) == (-2 ** (total - 1), 2 ** (total - 1) - 1)
    assert [type(b) for b in fmt.bounds] == [np.int64, np.int64]


@pytest.mark.parametrize("spec", ["fixed<20,10>", "fixed<64,32>"])
@pytest.mark.parametrize("overflow", list(Overflow))
def test_format_used_by_kernels_equals_a_fresh_one(spec, overflow):
    # sweep workers receive formats by pickle; what the kernels reuse must
    # not make a format compare, hash or pickle differently
    used = fxp.parse_format(spec, overflow=overflow)
    a = fxp.quantize_array(np.linspace(-600.0, 600.0, 12).reshape(3, 4), used)
    fxp.fx_matmul(a, a.swapaxes(0, 1))
    fxp.fx_mul_array(a, fxp.fx_add_array(a, a))
    fxp.fx_sum(a)
    fresh = fxp.parse_format(spec, overflow=overflow)
    assert used is not fresh
    assert used == fresh and hash(used) == hash(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(used))
    assert back == fresh and hash(back) == hash(fresh) and back.bounds == fresh.bounds
    assert [type(b) for b in back.bounds] == [type(b) for b in fresh.bounds]


@pytest.mark.parametrize("text,int_bits,frac_bits", [
    ("fixed<20,10>", 10, 10),
    ("fixed<8,8>", 8, 0),
    ("fixed<32,16>", 16, 16),
])
def test_parse_format(text, int_bits, frac_bits):
    fmt = fxp.parse_format(text)
    assert (fmt.int_bits, fmt.frac_bits) == (int_bits, frac_bits)
    assert fmt.spec() == text


def test_parse_format_rejects_garbage():
    for bad in ["fixed<20>", "fix<20,10>", "fixed<10,20>", "fixed<a,b>"]:
        with pytest.raises(ValueError):
            fxp.parse_format(bad)


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------

def raw_of(x: float, fmt: FxFormat) -> int:
    return int(fxp.quantize_array(x, fmt).raw)


def test_quantize_exact_value():
    v = fxp.quantize_array(0.75, FxFormat(2, 2))
    assert int(v.raw) == 3 and v.to_float() == 0.75


def test_quantize_zero():
    for fmt in [FxFormat(2, 2), FxFormat(10, 10), FxFormat(1, 0)]:
        assert raw_of(0.0, fmt) == 0


def test_quantize_tenth_round_even():
    fmt = FxFormat(10, 10, rounding=Rounding.ROUND_EVEN)
    v = fxp.quantize_array(0.1, fmt)
    assert int(v.raw) == round(0.1 * 1024)
    assert v.to_float() == round(0.1 * 1024) / 1024


def test_quantize_nan_rejected():
    with pytest.raises(ValueError):
        fxp.quantize_array(float("nan"), FxFormat(4, 4))


def test_quantize_saturates_out_of_range():
    fmt = FxFormat(4, 4)
    assert raw_of(100.0, fmt) == fmt.raw_max
    assert raw_of(-100.0, fmt) == fmt.raw_min
    assert raw_of(float("inf"), fmt) == fmt.raw_max
    assert raw_of(float("-inf"), fmt) == fmt.raw_min


def test_quantize_wraps_out_of_range():
    fmt = FxFormat(4, 4, overflow=Overflow.WRAP)
    x = 8.0  # raw 128, wraps to -128
    assert raw_of(x, fmt) == -128


@pytest.mark.parametrize("overflow", list(Overflow))
@pytest.mark.parametrize("x", [1e300, -1e300, 1e308, -1.7976931348623157e308])
def test_quantize_past_float_range_of_the_scale(x, overflow):
    # x * 2**frac_bits overflows float64; the result is still exact
    for int_bits, frac_bits in [(8, 48), (56, 8), (1, 63)]:
        fmt = FxFormat(int_bits, frac_bits, overflow)
        want = oracle_quantize(Fraction(x), fmt)
        assert int(fxp.quantize_array(np.array([x]), fmt).raw[0]) == want


def test_roundtrip_exhaustive_8bit():
    # quantizing the value of every representable 8-bit raw gives it back
    for int_bits in range(1, 9):
        for rounding in Rounding:
            fmt = FxFormat(int_bits, 8 - int_bits, rounding=rounding)
            raws = np.arange(fmt.raw_min, fmt.raw_max + 1, dtype=np.int64)
            got = fxp.quantize_array(FxArray(raws, fmt).to_float(), fmt)
            assert np.array_equal(got.raw, raws)


@given(fmt=fmt_strategy(), x=st.floats(-1000, 1000))
def test_roundtrip_error_bound(fmt, x):
    x = min(max(x, fmt.raw_min * fmt.step), fmt.raw_max * fmt.step)
    v = fxp.quantize_array(x, fmt)
    assert abs(v.to_float() - x) <= fmt.step + 1e-15


# ---------------------------------------------------------------------------
# add / mul semantics, on 0-d arrays
# ---------------------------------------------------------------------------

def test_add_simple():
    fmt = FxFormat(4, 4)
    a, b = fxp.quantize_array(0.5, fmt), fxp.quantize_array(0.25, fmt)
    assert fxp.fx_add_array(a, b).to_float() == 0.75


def test_add_saturates_at_max():
    fmt = FxFormat(4, 4)
    top = FxArray(np.array(fmt.raw_max), fmt)
    assert int(fxp.fx_add_array(top, top).raw) == fmt.raw_max


def test_mul_simple():
    fmt = FxFormat(4, 4)
    a = fxp.quantize_array(0.5, fmt)
    assert fxp.fx_mul_array(a, a).to_float() == 0.25


def test_mul_identity():
    fmt = FxFormat(6, 6)
    one = fxp.quantize_array(1.0, fmt)
    v = fxp.quantize_array(np.array([-3.2, 0.015625, 1.0, 5.5]), fmt)
    assert np.array_equal(fxp.fx_mul_array(v, one).raw, v.raw)


def test_format_mismatch_rejected():
    a = fxp.quantize_array(1.0, FxFormat(4, 4))
    b = fxp.quantize_array(1.0, FxFormat(4, 3))
    with pytest.raises(ValueError):
        fxp.fx_add_array(a, b)
    with pytest.raises(ValueError):
        fxp.fx_mul_array(a, b)


@given(fmt=fmt_strategy(), data=st.data())
def test_add_mul_match_oracle(fmt, data):
    ar = data.draw(st.integers(fmt.raw_min, fmt.raw_max))
    br = data.draw(st.integers(fmt.raw_min, fmt.raw_max))
    a, b = FxArray(np.array(ar), fmt), FxArray(np.array(br), fmt)
    assert int(fxp.fx_add_array(a, b).raw) == oracle_add(ar, br, fmt)
    assert int(fxp.fx_mul_array(a, b).raw) == oracle_mul(ar, br, fmt)
    # commutativity, bit-exact
    assert int(fxp.fx_add_array(a, b).raw) == int(fxp.fx_add_array(b, a).raw)
    assert int(fxp.fx_mul_array(a, b).raw) == int(fxp.fx_mul_array(b, a).raw)


def test_exhaustive_all_widths_up_to_8():
    # every raw pair at every total width <= 8, against a float-exact oracle
    # (products are dyadic rationals below 2**53, so float rounding is exact
    # value-space rounding, an independent route from the integer shifts)
    for total in range(2, 9):
        lo, hi = -(1 << (total - 1)), (1 << (total - 1))
        a = np.repeat(np.arange(lo, hi, dtype=np.int64), hi - lo)
        b = np.tile(np.arange(lo, hi, dtype=np.int64), hi - lo)
        for int_bits in range(1, total + 1):
            frac = total - int_bits
            for mode in Overflow:
                fmt = FxFormat(int_bits, frac, overflow=mode)
                want_add = a + b
                got_add = fxp.fx_add_array(FxArray(a, fmt), FxArray(b, fmt))
                if mode is Overflow.SATURATE:
                    want_add = np.clip(want_add, fmt.raw_min, fmt.raw_max)
                else:
                    want_add = np.mod(want_add - fmt.raw_min, 1 << total) + fmt.raw_min
                assert np.array_equal(got_add.raw, want_add)
                exact = (a * b).astype(np.float64) / float(1 << frac)
                for rounding in Rounding:
                    fmt_m = FxFormat(int_bits, frac, overflow=mode, rounding=rounding)
                    got = fxp.fx_mul_array(FxArray(a, fmt_m), FxArray(b, fmt_m))
                    r = np.rint(exact) if rounding is Rounding.ROUND_EVEN else np.floor(exact)
                    r = r.astype(np.int64)
                    if mode is Overflow.SATURATE:
                        r = np.clip(r, fmt_m.raw_min, fmt_m.raw_max)
                    else:
                        r = np.mod(r - fmt_m.raw_min, 1 << total) + fmt_m.raw_min
                    assert np.array_equal(got.raw, r), (total, int_bits, mode, rounding)


def test_wrap_congruence():
    # wrap-mode results are congruent to the exact result mod 2**total
    fmt = FxFormat(3, 3, overflow=Overflow.WRAP)
    span = 1 << fmt.total_bits
    raws = np.arange(fmt.raw_min, fmt.raw_max + 1, 3, dtype=np.int64)
    ar, br = np.repeat(raws, raws.size), np.tile(raws, raws.size)
    got = fxp.fx_add_array(FxArray(ar, fmt), FxArray(br, fmt)).raw
    assert np.all((got - (ar + br)) % span == 0)


# ---------------------------------------------------------------------------
# vectors against the oracle
# ---------------------------------------------------------------------------

@given(fmt=fmt_strategy(), xs=st.lists(st.floats(-500, 500), min_size=1, max_size=20))
def test_quantize_array_matches_oracle(fmt, xs):
    arr = fxp.quantize_array(np.array(xs), fmt)
    for got, x in zip(arr.raw.flat, xs):
        assert int(got) == oracle_quantize(Fraction(x), fmt)


EDGE_VALUES = [0.0, -0.0, 0.5, -0.5, 1.5, -2.5, 5e-324, 2.0 ** 52 + 1, -(2.0 ** 61),
               2.0 ** 63, 1e19, -1e300, 1e308, math.inf, -math.inf]


@pytest.mark.parametrize("spec", ["fixed<8,2>", "fixed<52,20>", "fixed<56,8>",
                                  "fixed<60,30>", "fixed<62,2>", "fixed<63,62>",
                                  "fixed<64,32>", "fixed<64,64>"])
@pytest.mark.parametrize("overflow", list(Overflow))
@pytest.mark.parametrize("rounding", list(Rounding))
def test_quantize_array_every_width_matches_oracle(spec, overflow, rounding):
    fmt = fxp.parse_format(spec, overflow, rounding)
    rng = np.random.default_rng(fmt.total_bits)
    xs = np.concatenate([EDGE_VALUES, rng.normal(0.0, 2.0 ** fmt.int_bits, 40),
                         np.ldexp(rng.normal(size=40), rng.integers(-70, 70, 40))])
    got = fxp.quantize_array(xs.reshape(5, -1), fmt)
    assert got.raw.dtype == np.int64
    for g, x in zip(got.raw.flat, xs):
        if math.isinf(x):
            want = fmt.raw_max if x > 0 else fmt.raw_min
        else:
            want = oracle_quantize(Fraction(x), fmt)
        assert int(g) == want, x


@given(fmt=fmt_strategy(), data=st.data())
def test_elementwise_arrays_match_oracle(fmt, data):
    n = data.draw(st.integers(1, 12))
    raws = st.integers(fmt.raw_min, fmt.raw_max)
    a = [data.draw(raws) for _ in range(n)]
    b = [data.draw(raws) for _ in range(n)]
    fa = FxArray(np.array(a, dtype=np.int64), fmt)
    fb = FxArray(np.array(b, dtype=np.int64), fmt)
    add = fxp.fx_add_array(fa, fb)
    mul = fxp.fx_mul_array(fa, fb)
    assert add.raw.tolist() == [oracle_add(x, y, fmt) for x, y in zip(a, b)]
    assert mul.raw.tolist() == [oracle_mul(x, y, fmt) for x, y in zip(a, b)]


@given(fmt=fmt_strategy(), data=st.data())
def test_matmul_single_rounding_oracle(fmt, data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    raws = st.integers(fmt.raw_min, fmt.raw_max)
    m = np.array([[data.draw(raws) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    v = np.array([data.draw(raws) for _ in range(cols)], dtype=np.int64)
    out = fxp.fx_matmul(FxArray(m, fmt), FxArray(v, fmt))
    for i in range(rows):
        exact = sum(
            Fraction(int(m[i, j]), 1 << fmt.frac_bits)
            * Fraction(int(v[j]), 1 << fmt.frac_bits)
            for j in range(cols)
        )
        assert int(out.raw[i]) == oracle_quantize(exact, fmt)


def test_matmul_wide_format_on_limbs():
    # (32,32) products cannot be accumulated in int64; result must still be exact
    fmt = FxFormat(32, 32)
    big = fmt.raw_max
    m = FxArray(np.array([[big, big]], dtype=np.int64), fmt)
    v = FxArray(np.array([big, big], dtype=np.int64), fmt)
    out = fxp.fx_matmul(m, v)
    exact = 2 * Fraction(big, 1 << 32) ** 2
    assert out.raw.dtype == np.int64
    assert int(out.raw[0]) == oracle_quantize(exact, fmt)


def test_sum_exact_then_overflow():
    fmt = FxFormat(4, 4)
    a = FxArray(np.array([100, 100, -50], dtype=np.int64), fmt)
    # exact sum 150 > raw_max 127, saturates once at the end
    assert int(fxp.fx_sum(a).raw) == fmt.raw_max


def test_relu():
    fmt = FxFormat(4, 4)
    a = FxArray(np.array([-3, 0, 7], dtype=np.int64), fmt)
    assert list(fxp.fx_relu(a).raw) == [0, 0, 7]


# ---------------------------------------------------------------------------
# the arithmetic tiers at their exactness edges: float64 while a sum of
# products is provably below 2**53, int64 below 2**62, limbs above
# ---------------------------------------------------------------------------

MODES = [(o, r) for o in Overflow for r in Rounding]
LIMBS = None  # what _product_dtype returns for the limb tier


def edge_operands(fmt: FxFormat, k: int, seed: int):
    """(4, k) and (k, 3) raws: a row and a column of raw_min, of raw_max, and
    random in-range raws elsewhere, so both extremes meet in every pairing."""
    rng = np.random.default_rng(seed)
    a = rng.integers(fmt.raw_min, fmt.raw_max, size=(4, k), endpoint=True)
    b = rng.integers(fmt.raw_min, fmt.raw_max, size=(k, 3), endpoint=True)
    a[0], a[1] = fmt.raw_min, fmt.raw_max
    b[:, 0], b[:, 1] = fmt.raw_min, fmt.raw_max
    return a, b


@pytest.mark.parametrize("overflow,rounding", MODES)
@pytest.mark.parametrize("total,tier", [(24, np.float64), (25, np.int64)])
def test_matmul_90_terms_at_the_float64_edge(total, tier, overflow, rounding):
    # 90 * 2**46 < 2**53 proves float64 exact at 24 bits without a scan;
    # at 25 bits these raws bound the sum above 2**53 and int64 runs
    fmt = FxFormat(8, total - 8, overflow=overflow, rounding=rounding)
    a, b = edge_operands(fmt, 90, seed=total)
    fa, fb = FxArray(a, fmt), FxArray(b, fmt)
    assert fxp._product_dtype(a, b, fmt, 90) is tier
    got = fxp.fx_matmul(fa, fb)
    assert got.raw.dtype == np.int64
    assert got.raw.tolist() == oracle_matmul(a, b, fmt)
    # the row-product route for 2-D operands and a plain matrix-vector product
    assert fxp.fx_matmul(fa, fb[:, 2]).raw.tolist() == [r[2] for r in got.raw.tolist()]


@pytest.mark.parametrize("overflow,rounding", MODES)
@pytest.mark.parametrize("total,tier", [(27, np.float64), (28, np.int64)])
def test_mul_array_at_the_float64_edge(total, tier, overflow, rounding):
    # 2**52 < 2**53 at 27 bits; at 28 bits raw_min squared is 2**54
    fmt = FxFormat(8, total - 8, overflow=overflow, rounding=rounding)
    rng = np.random.default_rng(total)
    a, b = rng.integers(fmt.raw_min, fmt.raw_max, size=(2, 16), endpoint=True)
    a[:4] = [fmt.raw_min, fmt.raw_min, fmt.raw_max, fmt.raw_max]
    b[:4] = [fmt.raw_min, fmt.raw_max, fmt.raw_min, fmt.raw_max]
    assert fxp._product_dtype(a, b, fmt, 1) is tier
    got = fxp.fx_mul_array(FxArray(a, fmt), FxArray(b, fmt))
    want = [oracle_mul(x, y, fmt) for x, y in zip(a, b)]
    assert got.raw.tolist() == want
    # broadcasting one raw across a row, either operand the smaller one
    scalar = FxArray(np.array([b[0]]), fmt)
    want_b = [oracle_mul(x, b[0], fmt) for x in a]
    assert fxp.fx_mul_array(FxArray(a, fmt), scalar).raw.tolist() == want_b
    assert fxp.fx_mul_array(scalar, FxArray(a, fmt)).raw.tolist() == want_b


@pytest.mark.parametrize("spec,top,tier", [
    ("fixed<20,10>", None, np.float64),     # proven from the format alone
    ("fixed<40,20>", 2 ** 30, np.int64),    # a scan bounds the products below 2**62
    ("fixed<40,20>", None, LIMBS),          # full-range raws reach 2**78
    ("fixed<64,32>", None, LIMBS),          # above 60 bits, no scan
])
def test_mul_array_commutes_bit_for_bit(spec, top, tier):
    # the larger operand first, then second: no tier scales one side specially
    for overflow, rounding in MODES:
        fmt = fxp.parse_format(spec, overflow=overflow, rounding=rounding)
        lo, hi = (fmt.raw_min, fmt.raw_max) if top is None else (-top, top)
        rng = np.random.default_rng(fmt.total_bits)
        big = [int(rng.integers(lo, hi, endpoint=True)) for _ in range(4 * 16)]
        small = [int(rng.integers(lo, hi, endpoint=True)) for _ in range(4)]
        big[:2], small[:2] = [lo, hi], [lo, hi]
        a = FxArray(np.array(big, dtype=np.int64).reshape(4, 16), fmt)
        b = FxArray(np.array(small, dtype=np.int64).reshape(4, 1), fmt)
        assert fxp._product_dtype(a.raw, b.raw, fmt, 1) is tier
        ab, ba = fxp.fx_mul_array(a, b), fxp.fx_mul_array(b, a)
        assert ab.raw.dtype == ba.raw.dtype == np.int64 and ab.raw.tolist() == ba.raw.tolist()
        assert ab.raw.tolist() == [[oracle_mul(x, y[0], fmt) for x in row]
                                   for row, y in zip(a.raw.tolist(), b.raw.tolist())]


@pytest.mark.parametrize("overflow,rounding", MODES)
@pytest.mark.parametrize("limit,below,at", [(53, np.float64, np.int64),
                                            (62, np.int64, LIMBS)])
def test_data_bound_crossing(limit, below, at, overflow, rounding):
    # at 40 bits only a scan can place a product: 4 terms of 2**29 times
    # 2**(limit-31) - 1 stay below 2**limit, times 2**(limit-31) reach it
    fmt = FxFormat(10, 30, overflow=overflow, rounding=rounding)
    rng = np.random.default_rng(limit)
    for top, tier in ((2 ** (limit - 31) - 1, below), (2 ** (limit - 31), at)):
        a = rng.integers(-(2 ** 29), 2 ** 29, size=(3, 4), endpoint=True)
        b = rng.integers(-top, top, size=(4, 2), endpoint=True)
        a[0, 0], a[1] = 2 ** 29, -(2 ** 29) + 1
        b[0, 0], b[:, 1] = top, -top
        assert fxp._product_dtype(a, b, fmt, 4) is tier
        got = fxp.fx_matmul(FxArray(a, fmt), FxArray(b, fmt))
        assert got.raw.dtype == np.int64
        assert got.raw.tolist() == oracle_matmul(a, b, fmt)
        # one term: 2**29 times 4 * top
        a1, b1 = a[:2, :2], b.T[:, :2] * 4
        assert fxp._product_dtype(a1, b1, fmt, 1) is tier
        got = fxp.fx_mul_array(FxArray(a1, fmt), FxArray(b1, fmt))
        want = [[oracle_mul(x, y, fmt)
                 for x, y in zip(ra, rb)] for ra, rb in zip(a1, b1)]
        assert got.raw.tolist() == want


def tie_pairs(fmt: FxFormat, abits: int, bbits: int):
    """Raws a (about 2**abits, both signs) and b (just below 2**bbits) whose
    products sit on, next to and far from a rounding tie, with both parities
    of the kept part: a * b = r (mod 2**frac) for each residue r."""
    mod = 1 << fmt.frac_bits
    a_out, b_out = [], []
    for r in (0, 1, mod // 2 - 1, mod // 2, mod // 2 + 1, mod - 1):
        for a in ((1 << abits) - 1, 3 - (1 << abits)):
            b0 = r * pow(a, -1, mod) % mod
            top = ((1 << bbits) - 1 - b0) >> fmt.frac_bits
            for j in (top, top - 1):
                a_out.append(a)
                b_out.append(b0 + j * mod)
    return np.array(a_out, dtype=np.int64), np.array(b_out, dtype=np.int64)


@pytest.mark.parametrize("spec,abits,bbits,tier", [
    ("fixed<20,10>", 9, 19, np.float64),   # bound from the width alone
    ("fixed<40,10>", 21, 31, np.float64),  # a scan finds the bound below 2**53
    ("fixed<40,10>", 28, 31, np.int64),
    ("fixed<40,10>", 30, 34, LIMBS),
    ("fixed<64,8>", 58, 58, LIMBS),        # above 60 bits, no scan
])
def test_ties_round_exactly_in_every_tier(spec, abits, bbits, tier):
    # products stay in range, so saturation cannot hide a rounding error
    for overflow, rounding in MODES:
        fmt = fxp.parse_format(spec, overflow=overflow, rounding=rounding)
        a, b = tie_pairs(fmt, abits, bbits)
        assert fxp._product_dtype(a, b, fmt, 1) is tier
        want = [oracle_mul(x, y, fmt) for x, y in zip(a, b)]
        assert all(fmt.raw_min < w < fmt.raw_max for w in want)
        got = fxp.fx_mul_array(FxArray(a, fmt), FxArray(b, fmt))
        assert [int(r) for r in got.raw] == want
        outer = fxp.fx_matmul(FxArray(a[:, None], fmt), FxArray(b[None, :], fmt))
        assert [int(outer.raw[i, i]) for i in range(len(a))] == want


@pytest.mark.parametrize("overflow,rounding", MODES)
@pytest.mark.parametrize("spec", ["fixed<20,10>", "fixed<28,8>", "fixed<40,10>",
                                  "fixed<64,8>"])
def test_every_kernel_output_in_range(spec, overflow, rounding):
    fmt = fxp.parse_format(spec, overflow=overflow, rounding=rounding)
    rng = np.random.default_rng(fmt.total_bits)
    a, b = (np.array([fmt.raw_min, fmt.raw_max] + [int(rng.integers(fmt.raw_min >> 1, fmt.raw_max >> 1))
                                                    for _ in range(14)]).reshape(4, 4)
            for _ in range(2))
    fa, fb = FxArray(a, fmt), FxArray(b, fmt)
    # 0-d results too: one dot product, one full sum
    outs = [fxp.fx_add_array(fa, fb), fxp.fx_mul_array(fa, fb), fxp.fx_matmul(fa, fb),
            fxp.fx_matmul(fa[0], fb[:, 0]), fxp.fx_sum(fa[0]),
            fxp.fx_sum(fa), fxp.fx_sum(fa, axis=0), fxp.fx_relu(fa),
            fxp.quantize_array(rng.normal(0.0, 2.0 ** (fmt.int_bits + 1), size=8), fmt)]
    for out in outs:
        raws = [int(r) for r in np.ravel(out.raw)]
        assert all(fmt.raw_min <= r <= fmt.raw_max for r in raws)
        assert out.raw.dtype == np.int64


# ---------------------------------------------------------------------------
# 57 to 64 bits against the oracle: full-range raws, both extremes in every draw
# ---------------------------------------------------------------------------

@st.composite
def wide_format(draw, overflow, rounding):
    total = draw(st.integers(57, 64))
    int_bits = draw(st.integers(1, total))
    return FxFormat(int_bits, total - int_bits, overflow=overflow, rounding=rounding)


def wide_raws(draw, fmt, n):
    """n >= 2 full-range raws, the first two raw_min and raw_max."""
    raws = draw(st.lists(st.integers(fmt.raw_min, fmt.raw_max), min_size=n - 2, max_size=n - 2))
    return np.array([fmt.raw_min, fmt.raw_max, *raws], dtype=np.int64)


@pytest.mark.parametrize("overflow,rounding", MODES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_wide_elementwise_match_oracle(overflow, rounding, data):
    fmt = data.draw(wide_format(overflow, rounding))
    n = data.draw(st.integers(2, 10))
    a = wide_raws(data.draw, fmt, n)
    b = np.roll(wide_raws(data.draw, fmt, n), data.draw(st.integers(0, n - 1)))
    fa, fb = FxArray(a, fmt), FxArray(b, fmt)
    assert fxp.fx_add_array(fa, fb).raw.tolist() == [oracle_add(x, y, fmt) for x, y in zip(a, b)]
    assert fxp.fx_mul_array(fa, fb).raw.tolist() == [oracle_mul(x, y, fmt) for x, y in zip(a, b)]
    # both extremes against each other and against themselves, broadcast
    ends = FxArray(a[:2, None], fmt)
    assert fxp.fx_mul_array(ends, FxArray(a[:2], fmt)).raw.tolist() == \
        [[oracle_mul(x, y, fmt) for y in a[:2]] for x in a[:2]]
    assert int(fxp.fx_add_array(fa[1], fa[1]).raw) == oracle_add(a[1], a[1], fmt)


@pytest.mark.parametrize("overflow,rounding", MODES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_wide_matmul_and_sum_match_oracle(overflow, rounding, data):
    fmt = data.draw(wide_format(overflow, rounding))
    rows, k, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 6)), data.draw(st.integers(1, 3))
    a = np.stack([np.roll(wide_raws(data.draw, fmt, k), i) for i in range(rows)])
    b = np.stack([np.roll(wide_raws(data.draw, fmt, k), i) for i in range(cols)], axis=1)
    fa, fb = FxArray(a, fmt), FxArray(b, fmt)
    assert fxp.fx_matmul(fa, fb).raw.tolist() == oracle_matmul(a, b, fmt)
    # matrix-vector, vector-matrix and a batch of two
    assert fxp.fx_matmul(fa, fb[:, 0]).raw.tolist() == [r[0] for r in oracle_matmul(a, b[:, :1], fmt)]
    assert fxp.fx_matmul(fa[0], fb).raw.tolist() == oracle_matmul(a[:1], b, fmt)[0]
    batch = fxp.fx_matmul(FxArray(np.stack([a, a[:, ::-1]]), fmt), FxArray(np.stack([b, b]), fmt))
    assert batch.raw.tolist() == [oracle_matmul(a, b, fmt), oracle_matmul(a[:, ::-1], b, fmt)]
    want_sum = [apply_overflow(sum(int(x) for x in row), fmt) for row in a]
    assert fxp.fx_sum(fa).raw.tolist() == want_sum
    assert fxp.fx_sum(fa, axis=0).raw.tolist() == [apply_overflow(sum(int(x) for x in col), fmt)
                                                    for col in a.T]


@pytest.mark.parametrize("overflow,rounding", MODES)
@pytest.mark.parametrize("spec", ["fixed<57,20>", "fixed<61,30>", "fixed<64,32>", "fixed<64,1>"])
def test_wide_long_reductions_match_oracle(spec, overflow, rounding):
    # 180 terms: more than one block of exactly summed limb products
    fmt = fxp.parse_format(spec, overflow=overflow, rounding=rounding)
    a, b = edge_operands(fmt, 180, seed=fmt.total_bits)
    assert fxp.fx_matmul(FxArray(a, fmt), FxArray(b, fmt)).raw.tolist() == oracle_matmul(a, b, fmt)
    full = FxArray(np.full(300, fmt.raw_max, dtype=np.int64), fmt)
    assert int(fxp.fx_sum(full).raw) == apply_overflow(300 * fmt.raw_max, fmt)
    assert fxp.fx_sum(FxArray(a, fmt)).raw.tolist() == [apply_overflow(sum(int(x) for x in row), fmt)
                                                        for row in a]


# ---------------------------------------------------------------------------
# overflow watch
# ---------------------------------------------------------------------------

Q44 = FxFormat(4, 4)  # values in [-8, 8), raws in [-128, 127]
W44 = FxFormat(4, 4, Overflow.WRAP)
Q1010 = FxFormat(10, 10)


def _raws(fmt, *raws):
    return FxArray(np.array(raws, dtype=np.int64), fmt)


def _shift_saturates():
    # the shift -300 - 300 lies below -2**9; nothing else in the softmax overflows
    cfg = softmax_tables(Q1010, n_max=4)
    softmax_lut(cfg, fxp.quantize_array([300.0, -300.0, 0.0], Q1010))


WATCHED = {
    # name: (what runs under the watch, events it counts)
    "kernel saturates": (lambda: fxp.fx_add_array(_raws(Q44, 100), _raws(Q44, 100)), 1),
    "kernel wraps": (lambda: fxp.fx_add_array(_raws(W44, 100), _raws(W44, 100)), 1),
    # the float clip takes -8.5 to raw_min exactly: no raw overflows, only the input check counts
    "x below -2**(I-1)": (lambda: fxp.quantize_array([-8.5, 0.0], Q44), 1),
    # the input check, then the raw 2**7 saturates
    "x at 2**(I-1)": (lambda: fxp.quantize_array([8.0], Q44), 2),
    "+inf": (lambda: fxp.quantize_array([np.inf], Q44), 2),
    "-inf": (lambda: fxp.quantize_array([-np.inf], Q44), 1),
    "+inf, wrap": (lambda: fxp.quantize_array([np.inf], W44), 1),
    # 1/1 = 1.0 does not fit one integer bit
    "reciprocal table at int_bits=1": (lambda: softmax_tables(FxFormat(1, 8), n_max=4), 2),
    "softmax shift saturates": (_shift_saturates, 1),
    "clean": (lambda: [fxp.quantize_array([-8.0, 7.9375], Q44),
                       fxp.quantize_array(np.empty((0, 3)), Q44),
                       fxp.fx_add_array(_raws(Q44, -100), _raws(Q44, 28))], 0),
}


@pytest.mark.parametrize("name", list(WATCHED))
def test_watch_counts_each_event_site(name):
    run, events = WATCHED[name]
    with fxp.overflow_watch() as watch:
        run()
    assert watch.events == events


def test_clean_model_pass_counts_no_event():
    cfg = model.ModelConfig()
    x = data.generate_synthetic(50, seed=3).feature_tensor()
    with fxp.overflow_watch() as watch:
        model.forward_batch(cfg, model.make_analytic_weights(cfg), x, fmt=FxFormat(6, 10))
    assert watch.events == 0


def test_leaving_the_watch_leaves_no_state():
    saturate = WATCHED["kernel saturates"][0]
    with fxp.overflow_watch() as outer:
        with pytest.raises(ZeroDivisionError):
            with fxp.overflow_watch() as inner:
                1 / 0
        saturate()  # counted by the outer watch only
    saturate()  # counted by neither
    assert (outer.events, inner.events) == (1, 0)
    assert fxp._watch.get() is None


def test_a_watch_counts_only_its_own_thread():
    # A opens, B opens, A saturates once, A closes, B closes
    saturate = WATCHED["kernel saturates"][0]
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()
    watches, left = {}, {}

    def a():
        with fxp.overflow_watch() as watches["A"]:
            a_open.set()
            assert b_open.wait(30)
            saturate()
        left["A"] = fxp._watch.get()
        a_closed.set()

    def b():
        assert a_open.wait(30)
        with fxp.overflow_watch() as watches["B"]:
            b_open.set()
            assert a_closed.wait(30)
        left["B"] = fxp._watch.get()

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert (watches["A"].events, watches["B"].events) == (1, 0)
    assert left == {"A": None, "B": None}
    assert fxp._watch.get() is None
