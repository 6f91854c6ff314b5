"""Table-softmax accuracy: per-bin oracles plus a frozen regression bound."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fxattn import fxp
from fxattn import softmax as sm
from fxattn.fxp import FxFormat, Overflow, Rounding
from fxoracle import apply_overflow, oracle_mul

FMT = FxFormat(10, 10)

# Frozen empirical bound: max elementwise |softmax_lut - softmax_exact| with
# 1024-entry tables at fixed<20,10> over 1e5 seeded N(0,2) length-15 vectors.
# Measured once; the acceptance suite re-measures the identical stream and
# asserts it never grows.
EPS_TABLE = 0.014159843170715614
MEASUREMENT_SEED = 20240311


def make_cfg(fmt=FMT, n_max=16.0, size=1024, lo=-8.0):
    return sm.make_softmax_config(fmt, n_max=n_max, table_size=size, exp_lo=lo)


def sample_inputs(n, seed=MEASUREMENT_SEED, length=15):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 2.0, size=(n, length))


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------

def test_exp_table_unit_at_zero_edge():
    # with a range whose interior hits 0 at a bin edge, that bin holds e^0
    t = sm.build_exp_table(8, -4.0, 4.0, FMT)
    idx = int(t.index_of(fxp.quantize_array(0.0, FMT).raw))
    assert t.entries_raw[idx] == fxp.quantize_array(1.0, FMT).raw


def test_exp_table_monotone():
    t = sm.build_exp_table(1024, -8.0, 0.0, FMT)
    assert np.all(np.diff(t.entries_raw) >= 0)


def test_exp_table_per_bin_error():
    t = sm.build_exp_table(1024, -8.0, 0.0, FMT)
    edges = -8.0 + np.arange(1024) * (8.0 / 1024)
    err = np.abs(t.entries_raw * FMT.step - np.exp(edges))
    assert err.max() <= 2.0 ** -10


def test_inv_table_unit_at_one():
    t = sm.build_inv_table(1024, 1.0, 16.0, FMT)
    one = fxp.quantize_array(1.0, FMT).raw
    assert t.entries_raw[int(t.index_of(one))] == one


def test_inv_table_monotone_nonincreasing():
    t = sm.build_inv_table(1024, 1.0, 16.0, FMT)
    assert np.all(np.diff(t.entries_raw) <= 0)


def test_inv_table_per_bin_error():
    t = sm.build_inv_table(1024, 1.0, 16.0, FMT)
    edges = 1.0 + np.arange(1024) * (15.0 / 1024)
    err = np.abs(t.entries_raw * FMT.step - 1.0 / edges)
    assert err.max() <= 2.0 ** -10


def test_table_validation():
    with pytest.raises(ValueError):
        sm.build_exp_table(1000, -8.0, 0.0, FMT)  # not a power of two
    with pytest.raises(ValueError):
        sm.build_exp_table(1024, 2.0, -2.0, FMT)
    with pytest.raises(ValueError):
        sm.build_inv_table(1024, 0.0, 16.0, FMT)
    with pytest.raises(ValueError):
        sm.build_inv_table(1024, -1.0, 16.0, FMT)


def test_index_clamps_to_edges():
    t = sm.build_exp_table(1024, -8.0, 0.0, FMT)
    assert int(t.index_of(fxp.quantize_array(-100.0, FMT).raw)) == 0
    assert int(t.index_of(fxp.quantize_array(5.0, FMT).raw)) == 1023


def rational_index(t, raw):
    """clamp(floor((raw * 2**-frac - lo) * size / (hi - lo))) in Fractions."""
    x = Fraction(raw, 1 << t.fmt.frac_bits)
    i = math.floor((x - Fraction(t.lo)) * t.size / (Fraction(t.hi) - Fraction(t.lo)))
    return min(max(i, 0), t.size - 1)


@pytest.mark.parametrize("table", ["exp", "inv"])
def test_index_exact_one_lsb_below_an_edge_at_56_frac_bits(table):
    # fixed<64,8>: a float64 holds 53 bits, so a raw one LSB below the left
    # edge of bin 600 rounded onto the edge and was looked up one bin high
    fmt = fxp.parse_format("fixed<64,8>")
    cfg = make_cfg(fmt)
    t = cfg.exp_table if table == "exp" else cfg.inv_table
    edge = Fraction(t.lo) + 600 * (Fraction(t.hi) - Fraction(t.lo)) / t.size
    edge_raw = int(edge * (1 << fmt.frac_bits))
    assert int(t.index_of(edge_raw)) == rational_index(t, edge_raw) == 600
    assert int(t.index_of(edge_raw - 1)) == rational_index(t, edge_raw - 1) == 599
    assert list(t.index_of(np.array([edge_raw - 1, edge_raw], dtype=np.int64))) == [599, 600]


def test_softmax_lut_uses_the_exact_exp_bin_at_56_frac_bits():
    fmt = fxp.parse_format("fixed<64,8>")
    cfg = make_cfg(fmt)
    edge_raw = int((Fraction(-8) + Fraction(600 * 8, 1024)) * (1 << fmt.frac_bits))
    v = fxp.FxArray(np.array([0, edge_raw - 1], dtype=np.int64), fmt)
    e = [int(cfg.exp_table.entries_raw[i]) for i in (1023, 599)]
    inv = int(cfg.inv_table.entries_raw[rational_index(cfg.inv_table, sum(e))])
    want = [oracle_mul(x, inv, fmt) for x in e]
    assert [int(r) for r in sm.softmax_lut(cfg, v).raw] == want


@pytest.mark.parametrize("n_max", [4, 16])
def test_index_exhaustive_against_rational_floor(n_max):
    # every raw of every format with 1-8 integer and 0-12 fraction bits, in
    # both tables; the oracle is the integer form of each bin formula:
    # exp over [-8, 0): floor((x + 8) * size / 8), reciprocal over [1, n_max):
    # floor((x - 1) * size / (n_max - 1)), with x = raw / 2**frac
    size = 1024
    for int_bits in range(1, 9):
        for frac in range(0, 13):
            fmt = FxFormat(int_bits, frac)
            cfg = make_cfg(fmt, n_max=float(n_max), size=size)
            raw = np.arange(fmt.raw_min, fmt.raw_max + 1, dtype=np.int64)
            want_exp = ((raw + (8 << frac)) * size) // (8 << frac)
            want_inv = ((raw - (1 << frac)) * size) // ((n_max - 1) << frac)
            for t, want in ((cfg.exp_table, want_exp), (cfg.inv_table, want_inv)):
                assert np.array_equal(t.index_of(raw), np.clip(want, 0, size - 1)), \
                    (fmt.spec(), t.lo, t.hi)


# ---------------------------------------------------------------------------
# softmax_lut
# ---------------------------------------------------------------------------

def test_uniform_input_gives_equal_outputs():
    cfg = make_cfg()
    v = fxp.quantize_array(np.full(15, 0.375), FMT)
    out = sm.softmax_lut(cfg, v)
    assert int(out.raw.max() - out.raw.min()) <= 1


def test_single_element_is_near_one():
    cfg = make_cfg()
    v = fxp.quantize_array(np.array([2.5]), FMT)
    out = sm.softmax_lut(cfg, v).to_float()
    assert abs(out[0] - 1.0) <= 0.01


def test_empty_vector_rejected():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        sm.softmax_lut(cfg, fxp.quantize_array(np.zeros(0), FMT))


def test_frozen_error_bound_prefix():
    # the first 2000 vectors of the frozen measurement stream stay under the bound
    cfg = make_cfg()
    q = fxp.quantize_array(sample_inputs(2000), FMT)
    lut = sm.softmax_lut(cfg, q).to_float()
    exact = sm.softmax_exact(q.to_float())
    assert np.abs(lut - exact).max() <= EPS_TABLE


def test_output_range_and_sum_bound():
    cfg = make_cfg()
    q = fxp.quantize_array(sample_inputs(2000), FMT)
    out = sm.softmax_lut(cfg, q).to_float()
    assert out.min() >= 0.0
    assert out.max() <= 1.0 + FMT.step
    delta = 15 * (EPS_TABLE + FMT.step)
    sums = out.sum(axis=-1)
    assert np.abs(sums - 1.0).max() <= delta


def test_argmax_preserved_when_separated():
    cfg = make_cfg()
    q = fxp.quantize_array(sample_inputs(2000, seed=7), FMT)
    exact = sm.softmax_exact(q.to_float())
    lut = sm.softmax_lut(cfg, q).to_float()
    top2 = np.sort(exact, axis=-1)[:, -2:]
    separated = (top2[:, 1] - top2[:, 0]) > 2 * EPS_TABLE
    assert separated.any()
    assert np.array_equal(
        np.argmax(lut[separated], axis=-1), np.argmax(exact[separated], axis=-1)
    )


def test_batched_equals_rowwise():
    cfg = make_cfg()
    q = fxp.quantize_array(sample_inputs(32, seed=3), FMT)
    batched = sm.softmax_lut(cfg, q)
    for i in range(32):
        row = sm.softmax_lut(cfg, q[i])
        assert np.array_equal(row.raw, batched.raw[i])


@pytest.mark.parametrize("spec", ["fixed<20,8>", "fixed<24,8>"])
def test_keep_zeroes_masked_and_matches_kept_subvector(spec):
    # a masked element gets raw weight exactly 0 (no clamped exp(-8) leak),
    # and the kept ones are the softmax of the kept elements alone, even
    # when a masked element holds the row maximum
    fmt = fxp.parse_format(spec)
    cfg = make_cfg(fmt)
    keep = np.array([True, False, True, True, False, True, False])
    v = sample_inputs(20, seed=5, length=7)
    v[:, 1] = 6.0
    q = fxp.quantize_array(v, fmt)
    out = sm.softmax_lut(cfg, q, keep)
    assert np.all(out.raw[:, ~keep] == 0)
    assert np.array_equal(out.raw[:, keep], sm.softmax_lut(cfg, q[:, keep]).raw)
    assert np.array_equal(sm.softmax_lut(cfg, q, np.ones(7, dtype=bool)).raw,
                          sm.softmax_lut(cfg, q).raw)


@pytest.mark.parametrize("scores,keep", [
    ([300.0, -300.0, 0.0], None),
    ([300.0, -300.0, 0.0, 500.0], [True, True, True, False]),
    ([-200.0, 400.0, -300.0], [True, False, True]),  # masked difference +600
])
def test_shift_saturates_in_every_overflow_mode(scores, keep):
    # at fixed<20,10> a difference of +-600 lies outside the format; the
    # shift saturates in wrap mode too, so a score far below the row
    # maximum takes the exp table's bottom bin instead of wrapping to near 0
    keep = np.ones(len(scores), dtype=bool) if keep is None else np.array(keep)
    kept = np.array(scores)[keep]
    for overflow in Overflow:
        fmt = FxFormat(10, 10, overflow=overflow)
        cfg = make_cfg(fmt)
        out = sm.softmax_lut(cfg, fxp.quantize_array(np.array(scores), fmt), keep).raw
        alone = sm.softmax_lut(cfg, fxp.quantize_array(kept, fmt)).raw
        saturated = sm.softmax_lut(
            make_cfg(FxFormat(10, 10)), fxp.quantize_array(kept, FxFormat(10, 10))).raw
        assert out[~keep].tolist() == [0] * int((~keep).sum())
        assert out[keep].tolist() == alone.tolist() == saturated.tolist()
        assert alone[np.argmin(kept)] == 0


# ---------------------------------------------------------------------------
# softmax_exact
# ---------------------------------------------------------------------------

def test_exact_two_zeros():
    assert np.allclose(sm.softmax_exact(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)


def test_exact_analytic_thirds():
    out = sm.softmax_exact(np.array([0.0, math.log(2.0)]))
    assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-12)


def test_exact_shift_invariance():
    rng = np.random.default_rng(11)
    v = rng.normal(size=15)
    assert np.abs(sm.softmax_exact(v + 17.25) - sm.softmax_exact(v)).max() <= 1e-12


def test_exact_sums_to_one():
    rng = np.random.default_rng(12)
    v = rng.normal(0, 5, size=(50, 15))
    assert np.abs(sm.softmax_exact(v).sum(axis=-1) - 1.0).max() <= 1e-12


def test_exact_matches_mpmath():
    rng = np.random.default_rng(13)
    v = rng.normal(0, 3, size=9)
    with mpmath.workdps(60):
        es = [mpmath.e ** mpmath.mpf(x) for x in v]
        total = mpmath.fsum(es)
        ref = np.array([float(e / total) for e in es])
    assert np.abs(sm.softmax_exact(v) - ref).max() <= 1e-12


def oracle_softmax_row(cfg, raws, keep):
    """The documented steps in Python ints: the saturating shift, the exp bin,
    the masked zero, the sum with overflow handling, one rounded product."""
    fmt = cfg.io_format
    top = max(r for r, k in zip(raws, keep) if k)
    shifted = [min(max(r - top, fmt.raw_min), fmt.raw_max) for r in raws]
    e = [int(cfg.exp_table.entries_raw[rational_index(cfg.exp_table, s)]) if k else 0
         for s, k in zip(shifted, keep)]
    inv = int(cfg.inv_table.entries_raw[rational_index(cfg.inv_table, apply_overflow(sum(e), fmt))])
    return [oracle_mul(x, inv, fmt) for x in e]


@pytest.mark.parametrize("overflow", list(Overflow))
@pytest.mark.parametrize("rounding", list(Rounding))
@pytest.mark.parametrize("spec", ["fixed<64,8>", "fixed<64,32>", "fixed<63,1>"])
def test_wide_softmax_matches_oracle_at_the_extremes(spec, rounding, overflow):
    # raw_min and raw_max in one row with full-range raws; in the second a
    # masked key holds raw_max, so its shift is positive and saturates, and
    # the kept scores lie within a few units of their maximum
    fmt = fxp.parse_format(spec, overflow, rounding)
    cfg = make_cfg(fmt, n_max=8.0)
    rng = np.random.default_rng(fmt.total_bits)
    full = rng.integers(fmt.raw_min, fmt.raw_max, 4, endpoint=True).tolist()
    near = rng.integers(max(fmt.raw_min, -4 << fmt.frac_bits), 1 << fmt.frac_bits, 5).tolist()
    raws = [[fmt.raw_min, fmt.raw_max, 0, *full],
            [fmt.raw_min, *near[:2], fmt.raw_max, *near[2:]]]
    keep = np.array([True, True, True, False, True, True, True])
    v = fxp.FxArray(np.array(raws, dtype=np.int64), fmt)
    got = sm.softmax_lut(cfg, v, keep).raw.tolist()
    assert got == [oracle_softmax_row(cfg, row, keep) for row in raws]
    assert got[1][3] == 0
