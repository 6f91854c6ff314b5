"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Frozen constants (measured once, asserted forever): the softmax table error
bound, the total multiplier count, and the analytic-model AUC floor.
"""
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fxattn import attention as att
from fxattn import costmodel as cm
from fxattn import data, fxp, metrics, model, sweeps
from fxattn import softmax as sm
from fxattn.fxp import FxFormat, Overflow, Rounding
from draws import draw_mha_weights, softmax_tables
from fxoracle import fraction_of

_MODULE_T0 = time.monotonic()

# frozen: max |softmax_lut - softmax_exact| over the seeded measurement stream
EPS_TABLE = 0.014159843170715614
SOFTMAX_SEED = 20240311
# frozen: enumerated hardware multipliers of the default geometry
TOTAL_MULTIPLIERS = 4804
# seed-fixed benchmark dataset for the precision-sweep criterion
DATASET_SEED = 20240601
DATASET_N = 10_000


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num} PASS: {text}")


@pytest.fixture(scope="module")
def benchmark_setup():
    cfg = model.ModelConfig()
    weights = model.make_analytic_weights(cfg)
    dataset = data.generate_synthetic(DATASET_N, seed=DATASET_SEED)
    return cfg, weights, dataset


def test_criterion_1_streaming_reference_bit_exact():
    """200 random (config, weights, input, format) cases, bit-exact, <10 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(4201)
    combos = [(s, h) for s in (1, 2, 15) for h in (1, 2, 4)]
    cases = 0
    while cases < 200:
        seq, heads = combos[cases % len(combos)]
        d_k = int(rng.integers(1, 5))
        d_v = int(rng.integers(1, 5))
        d_model = int(rng.integers(2, 9))
        fmt = FxFormat(int(rng.integers(4, 13)), int(rng.integers(2, 13)),
                       overflow=Overflow.SATURATE if rng.random() < 0.5 else Overflow.WRAP,
                       rounding=Rounding.ROUND_EVEN if rng.random() < 0.5 else Rounding.TRUNCATE)
        cfg = att.MhaConfig(d_model=d_model, num_heads=heads, seq_len=seq,
                            d_k=d_k, d_v=d_v)
        w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
        x = fxp.quantize_array(rng.normal(0, 1.5, size=(seq, d_model)), fmt)
        scfg = softmax_tables(fmt, seq + 1)
        out_s = att.run_mha_streaming(cfg, w, scfg, x)
        out_r = att.run_mha_reference(cfg, w, scfg, x)
        assert np.array_equal(out_s.raw, out_r.raw), \
            f"mismatch at case {cases}: seq={seq} heads={heads} fmt={fmt.spec()}"
        cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    with criterion(1, f"200 streaming==reference cases bit-exact in {elapsed:.1f}s"):
        pass


def test_criterion_2_exhaustive_8bit_oracle():
    """Every 8-bit raw pair, both overflow modes (and both rounding modes for
    mul), against an independent value-space oracle; <60 s."""
    t0 = time.monotonic()
    a = np.repeat(np.arange(-128, 128, dtype=np.int64), 256)
    b = np.tile(np.arange(-128, 128, dtype=np.int64), 256)

    def oracle_overflow(v, total_bits, mode):
        lo, hi = -(1 << (total_bits - 1)), (1 << (total_bits - 1)) - 1
        if mode is Overflow.SATURATE:
            return np.clip(v, lo, hi)
        return np.mod(v - lo, 1 << total_bits) + lo

    checked = 0
    for int_bits in range(1, 9):
        frac = 8 - int_bits
        scale = float(1 << frac)
        for mode in Overflow:
            fmt_add = FxFormat(int_bits, frac, overflow=mode)
            got = fxp.fx_add_array(fxp.FxArray(a, fmt_add), fxp.FxArray(b, fmt_add))
            assert np.array_equal(got.raw, oracle_overflow(a + b, 8, mode))
            checked += a.size
            for rounding in Rounding:
                fmt = FxFormat(int_bits, frac, overflow=mode, rounding=rounding)
                got = fxp.fx_mul_array(fxp.FxArray(a, fmt), fxp.FxArray(b, fmt))
                # independent route: the exact product is a dyadic rational
                # that float64 represents exactly, so float rounding IS the
                # value-space answer
                exact = (a * b).astype(np.float64) / scale
                want = np.rint(exact) if rounding is Rounding.ROUND_EVEN \
                    else np.floor(exact)
                want = oracle_overflow(want.astype(np.int64), 8, mode)
                assert np.array_equal(got.raw, want), (int_bits, mode, rounding)
                checked += a.size

    # defense in depth: exact-rational oracle on a random slice
    rng = np.random.default_rng(99)
    idx = rng.integers(0, a.size, size=2000)
    fmt = FxFormat(3, 5)
    got = fxp.fx_mul_array(fxp.FxArray(a[idx], fmt), fxp.FxArray(b[idx], fmt))
    for i, g in zip(idx, got.raw.tolist()):
        exact = fraction_of(a[i], fmt) * fraction_of(b[i], fmt)
        scaled = exact * 32
        lo_i = scaled.__floor__()
        frac_part = scaled - lo_i
        want = lo_i + (1 if (frac_part > Fraction(1, 2)
                             or (frac_part == Fraction(1, 2) and lo_i % 2)) else 0)
        want = min(max(want, fmt.raw_min), fmt.raw_max)
        assert g == want
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    with criterion(2, f"{checked} exhaustive 8-bit oracle checks in {elapsed:.1f}s"):
        pass


def test_criterion_3_softmax_regression_bound():
    """Re-measure the frozen table-error bound over the identical stream."""
    fmt = FxFormat(10, 10)
    cfg = sm.make_softmax_config(fmt, n_max=16.0, table_size=1024, exp_lo=-8.0)
    rng = np.random.default_rng(SOFTMAX_SEED)
    x = rng.normal(0.0, 2.0, size=(100_000, 15))
    q = fxp.quantize_array(x, fmt)
    lut = sm.softmax_lut(cfg, q).to_float()
    exact = sm.softmax_exact(q.to_float())
    err = np.abs(lut - exact).max()
    assert err <= EPS_TABLE, f"table error grew: {err} > {EPS_TABLE}"
    delta = 15 * (EPS_TABLE + fmt.step)
    sum_dev = np.abs(lut.sum(axis=-1) - 1.0).max()
    assert sum_dev <= delta
    with criterion(3, f"1e5-vector softmax error {err:.6f} <= frozen "
                      f"{EPS_TABLE:.6f}, sums within {delta:.3f}"):
        pass


def test_criterion_4_precision_sweep_shape(benchmark_setup):
    """Monotone plateau of the AUC ratio on the analytic model."""
    cfg, weights, dataset = benchmark_setup
    res = sweeps.sweep_precision(cfg, weights, dataset,
                                 int_bits_list=[6, 7, 8, 9, 10],
                                 frac_bits_list=[4, 10])
    ratios = {(r[0], r[1]): r[6] for r in res.rows}
    for ib in (6, 7, 8, 9, 10):
        assert ratios[(ib, 10)] >= ratios[(ib, 4)], \
            f"int={ib}: ratio(frac=10)={ratios[(ib, 10)]} < ratio(frac=4)={ratios[(ib, 4)]}"
    assert ratios[(10, 10)] >= 0.99

    x = dataset.feature_tensor()
    labels = dataset.labels()
    probs_f = model.forward_batch(cfg, weights, x)
    macro_f = float(np.mean(list(
        metrics.one_vs_rest_aucs(probs_f, labels, data.LABELS).values())))
    probs_hi = model.forward_batch(cfg, weights, x, fmt=FxFormat(16, 16))
    macro_hi = float(np.mean(list(
        metrics.one_vs_rest_aucs(probs_hi, labels, data.LABELS).values())))
    ratio_hi = macro_hi / macro_f
    assert abs(ratio_hi - 1.0) <= 0.001
    with criterion(4, f"ratio(10,10)={ratios[(10, 10)]:.4f}>=0.99, "
                      f"|1-ratio(16,16)|={abs(ratio_hi - 1):.2e}<=1e-3, "
                      "frac=10 >= frac=4 for int 6..10"):
        pass


def test_criterion_5_latency_numbers():
    """rf=1 reproduces the published timing exactly; rf=2/4 within 50%."""
    cfg = model.ModelConfig()
    dev = cm.vu13p()
    r1 = cm.estimate_latency(cfg, 1, dev)
    assert r1.ii_cycles == 49
    assert r1.ii_ns == 322.42
    assert r1.latency_us == 2.077
    lines = []
    for rf in (2, 4):
        rep = cm.estimate_latency(cfg, rf, dev)
        ref = cm.PUBLISHED_LATENCY_US[rf]
        dev_rel = abs(rep.latency_us - ref) / ref
        lines.append(f"rf={rf}: estimate {rep.latency_us:.6g} us vs published "
                     f"{ref} us (deviation {dev_rel:.1%})")
        assert dev_rel <= 0.5
    for line in lines:
        print(line)
    with criterion(5, "rf=1 exactly 49 cyc / 322.42 ns / 2.077 us; "
                      "rf=2,4 within 50% of published"):
        pass


def test_criterion_6_resource_feasibility():
    """DSP fits the VU13P for rf in {1,2,4}; rf=1 equals the frozen fixture."""
    cfg = model.ModelConfig()
    dev = cm.vu13p()
    fmt = FxFormat(10, 10)
    dsps = {}
    for rf in (1, 2, 4):
        rep = cm.estimate_resources(cfg, fmt, rf, dev)
        dsps[rf] = rep.totals["dsp"]
        assert dsps[rf] <= dev.dsp_total, f"rf={rf}: {dsps[rf]} > {dev.dsp_total}"
    assert dsps[1] == TOTAL_MULTIPLIERS == sum(
        l.multipliers for l in cm.estimate_resources(cfg, fmt, 1, dev).layers)
    with criterion(6, f"DSP {dsps} all <= {dev.dsp_total}; "
                      f"rf=1 == frozen {TOTAL_MULTIPLIERS}"):
        pass


def test_criterion_7_end_to_end_determinism(tmp_path, run_cli):
    """gen-data + make-weights + sweep-precision twice: byte-identical CSVs.

    The CLI runs with ``tmp_path`` as its working directory, not the one the
    suite was started from, and anything it wrote outside ``--out`` would
    show up there next to r1 and r2.
    """
    def _run_cli(*args):
        out = run_cli(*args, cwd=tmp_path)
        assert out.returncode == 0, out.stderr

    outputs = []
    for run in ("r1", "r2"):
        d = tmp_path / run
        d.mkdir()
        _run_cli("gen-data", "--n", "2000", "--seed", "11", "--out", str(d))
        _run_cli("make-weights", "--out", str(d))
        _run_cli("sweep-precision", "--weights", str(d / "weights.json"),
                 "--data", str(d / "dataset.csv"),
                 "--int-bits", "10", "--frac-bits", "4,10",
                 "--out", str(d))
        outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r1", "r2"]
    assert set(outputs[0]) == {"dataset.csv", "weights.json", "precision_sweep.csv"}
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    with criterion(7, "gen-data + make-weights + sweep-precision byte-identical "
                      "across two seeded runs"):
        pass


def test_criterion_7_runtime_budget():
    elapsed = time.monotonic() - _MODULE_T0
    assert elapsed < 300.0, f"acceptance suite took {elapsed:.0f}s"
    with criterion(7, f"full desk-scale acceptance suite in {elapsed:.0f}s < 300s"):
        pass
