"""Streaming pipeline vs whole-matrix reference, stage by stage and end to end."""
import math
from collections import Counter

import numpy as np
import pytest

from fxattn import attention as att
from fxattn import fxp
from fxattn import layers as L
from fxattn import softmax as sm
from fxattn.attention import ChannelError, MhaConfig, StreamChannel
from fxattn.fxp import FxFormat, FxArray, Overflow
from fxattn.model import ModelConfig
from draws import draw_mha_weights, softmax_tables
from fxoracle import oracle_add, oracle_matmul


def make_softmax(fmt, seq_len):
    return softmax_tables(fmt, seq_len + 1)


def identity_weights(cfg):
    """One head, d_k = d_v = d_model, all projections identity, zero bias."""
    eye = np.eye(cfg.d_model)
    z = np.zeros(cfg.d_model)
    return att.MhaWeights(
        w_q=eye[None], b_q=z[None], w_k=eye[None], b_k=z[None],
        w_v=eye[None], b_v=z[None], w_o=eye.copy(), b_o=z.copy(),
    )


def rows_of(x):
    return [x[t] for t in range(x.shape[0])]


def fill_channel(rows, name="in"):
    ch = StreamChannel(len(rows), name)
    for r in rows:
        ch.write(r)
    return ch


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_channel_fifo_order():
    ch = StreamChannel(3)
    for i in range(3):
        ch.write(i)
    assert [ch.read() for _ in range(3)] == [0, 1, 2]


def test_channel_overflow():
    ch = StreamChannel(1)
    ch.write(0)
    with pytest.raises(ChannelError):
        ch.write(1)


def test_channel_underflow():
    ch = StreamChannel(1)
    with pytest.raises(ChannelError):
        ch.read()


def test_channel_accounting():
    ch = StreamChannel(4)
    ch.write(1)
    with pytest.raises(ChannelError):
        ch.check_completed(4)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = MhaConfig(d_model=6, num_heads=2, seq_len=15)
    assert cfg.d_k == 3 and cfg.d_v == 3 and cfg.concat_dim == 6


def test_config_indivisible_needs_explicit_dk():
    with pytest.raises(ValueError):
        MhaConfig(d_model=5, num_heads=2, seq_len=4)
    cfg = MhaConfig(d_model=5, num_heads=2, seq_len=4, d_k=2)
    assert cfg.d_v == 2


def test_weights_shape_validation():
    cfg = MhaConfig(d_model=4, num_heads=2, seq_len=3, d_k=2, d_v=1)
    w = draw_mha_weights(cfg, np.random.default_rng(0))
    w.w_o = w.w_o.T.copy()
    with pytest.raises(ValueError, match="w_o"):
        w.validate(cfg)


# ---------------------------------------------------------------------------
# stages, float mode
# ---------------------------------------------------------------------------

def test_stage1_identity_passthrough():
    cfg = MhaConfig(d_model=3, num_heads=1, seq_len=4, d_k=3, d_v=3)
    w = identity_weights(cfg)
    x = np.arange(12.0).reshape(4, 3)
    q, k, v = att.stage1_project(cfg, w, fill_channel(rows_of(x)))
    for ch in (q[0], k[0], v[0]):
        got = np.stack([ch.read() for _ in range(4)])
        assert np.array_equal(got, x)


def test_stage1_zero_weights():
    cfg = MhaConfig(d_model=3, num_heads=2, seq_len=4, d_k=2, d_v=2)
    w = draw_mha_weights(cfg, np.random.default_rng(0))
    w.w_q = np.zeros_like(w.w_q)
    w.b_q = np.zeros_like(w.b_q)
    q, _, _ = att.stage1_project(cfg, w, fill_channel(rows_of(np.ones((4, 3)))))
    for h in range(2):
        for _ in range(4):
            assert np.all(q[h].read() == 0)


def test_stage1_matches_dense_oracle():
    cfg = MhaConfig(d_model=5, num_heads=2, seq_len=4, d_k=3, d_v=2)
    rng = np.random.default_rng(1)
    w = draw_mha_weights(cfg, rng)
    x = rng.normal(size=(4, 5))
    q, k, v = att.stage1_project(cfg, w, fill_channel(rows_of(x)))
    for h in range(2):
        got = np.stack([q[h].read() for _ in range(4)])
        assert np.allclose(got, x @ w.w_q[h].T + w.b_q[h], atol=1e-12)
        got_v = np.stack([v[h].read() for _ in range(4)])
        assert np.allclose(got_v, x @ w.w_v[h].T + w.b_v[h], atol=1e-12)


def test_stage1_one_product_per_row(monkeypatch):
    # the cost model's qkv_proj: every head's Q, K and V row from one product
    cfg = ModelConfig().encoder.mha
    fmt = FxFormat(10, 10)
    rng = np.random.default_rng(14)
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
    x = fxp.quantize_array(rng.normal(size=(cfg.seq_len, cfg.d_model)), fmt)
    calls = []
    matmul = fxp.fx_matmul
    monkeypatch.setattr(fxp, "fx_matmul", lambda a, b: calls.append(1) or matmul(a, b))
    chs = att.stage1_project(cfg, w, fill_channel(rows_of(x)))
    assert len(calls) == cfg.seq_len
    for (wt, bt), proj_chs in zip([(w.w_q, w.b_q), (w.w_k, w.b_k), (w.w_v, w.b_v)], chs):
        for h, ch in enumerate(proj_chs):
            products = oracle_matmul(x.raw, wt.raw[h].T, fmt)
            for t in range(cfg.seq_len):
                want = [oracle_add(p, b, fmt) for p, b in zip(products[t], bt.raw[h])]
                assert ch.read().raw.tolist() == want


def test_batch_one_qkv_product(monkeypatch):
    # the batch path projects through stage 1's joined product too: one Q/K/V
    # product, two per head (scores, weighted V) and the output projection
    cfg = ModelConfig().encoder.mha
    fmt = FxFormat(10, 10)
    rng = np.random.default_rng(20)
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
    xs = fxp.quantize_array(rng.normal(size=(3, cfg.seq_len, cfg.d_model)), fmt)
    scfg = make_softmax(fmt, cfg.seq_len)
    calls = []
    for name in ("fx_matmul", "fx_add_array"):
        kernel = getattr(fxp, name)
        monkeypatch.setattr(fxp, name, lambda a, b, name=name, kernel=kernel:
                            calls.append(name) or kernel(a, b))
    batch = att.mha_forward_batch(cfg, w, scfg, xs)
    assert calls.count("fx_matmul") == 6 and calls.count("fx_add_array") == 2
    monkeypatch.undo()
    for i in range(3):
        assert np.array_equal(batch.raw[i], att.run_mha_reference(cfg, w, scfg, xs[i]).raw)


@pytest.mark.parametrize("path", ["run_mha_streaming", "run_mha_reference"])
def test_per_jet_paths_kernel_calls(monkeypatch, path):
    # 15 rows through stages 1 and 4 (a product and a bias add each), 2 heads
    # x 15 rows through stage 2 (product, scale, table softmax) and stage 3
    cfg = ModelConfig().encoder.mha
    fmt = FxFormat(10, 10)
    rng = np.random.default_rng(21)
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
    x = fxp.quantize_array(rng.normal(size=(cfg.seq_len, cfg.d_model)), fmt)
    scfg = make_softmax(fmt, cfg.seq_len)
    calls = []
    homes = {"fx_matmul": fxp, "fx_mul_array": fxp, "fx_add_array": fxp, "fx_sum": fxp,
             "softmax_lut": L}
    for name, mod in homes.items():
        kernel = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, name=name, kernel=kernel, **kw:
                            calls.append(name) or kernel(*a, **kw))
    getattr(att, path)(cfg, w, scfg, x)
    assert Counter(calls) == {"fx_matmul": 90, "fx_mul_array": 60, "fx_add_array": 30,
                              "fx_sum": 30, "softmax_lut": 30}


def test_stage2_zero_qk_uniform_scores():
    cfg = MhaConfig(d_model=4, num_heads=1, seq_len=5, d_k=4)
    zeros = [np.zeros(4) for _ in range(5)]
    out = att.stage2_scores(cfg, None, fill_channel(zeros), fill_channel(zeros),
                            att.score_scale(cfg, None))
    for _ in range(5):
        assert np.allclose(out.read(), 0.2, atol=1e-15)


def test_stage2_single_row():
    cfg = MhaConfig(d_model=2, num_heads=1, seq_len=1, d_k=2)
    out = att.stage2_scores(cfg, None, fill_channel([np.ones(2)]),
                            fill_channel([np.ones(2)]), att.score_scale(cfg, None))
    assert np.allclose(out.read(), [1.0], atol=1e-15)


def test_stage2_matches_float_oracle():
    cfg = MhaConfig(d_model=4, num_heads=1, seq_len=4, d_k=4)
    rng = np.random.default_rng(2)
    q = rng.normal(size=(4, 4))
    k = rng.normal(size=(4, 4))
    out = att.stage2_scores(cfg, None, fill_channel(rows_of(q)),
                            fill_channel(rows_of(k)), att.score_scale(cfg, None))
    got = np.stack([out.read() for _ in range(4)])
    want = sm.softmax_exact(q @ k.T / math.sqrt(4))
    assert np.allclose(got, want, atol=1e-12)


def test_stage3_one_hot_scores_select_rows():
    cfg = MhaConfig(d_model=3, num_heads=1, seq_len=3, d_k=3, d_v=3)
    v = np.arange(9.0).reshape(3, 3)
    scores = [np.eye(3)[t] for t in range(3)]
    out = att.stage3_apply(cfg, fill_channel(scores), fill_channel(rows_of(v)))
    got = np.stack([out.read() for _ in range(3)])
    assert np.array_equal(got, v)


def test_stage3_uniform_scores_average():
    cfg = MhaConfig(d_model=3, num_heads=1, seq_len=4, d_k=3, d_v=3)
    rng = np.random.default_rng(3)
    v = rng.normal(size=(4, 3))
    scores = [np.full(4, 0.25) for _ in range(4)]
    out = att.stage3_apply(cfg, fill_channel(scores), fill_channel(rows_of(v)))
    for _ in range(4):
        assert np.allclose(out.read(), v.mean(axis=0), atol=1e-12)


def test_stage3_matches_dense_product():
    cfg = MhaConfig(d_model=3, num_heads=1, seq_len=5, d_k=3, d_v=3)
    rng = np.random.default_rng(4)
    s = rng.random((5, 5))
    v = rng.normal(size=(5, 3))
    out = att.stage3_apply(cfg, fill_channel(rows_of(s)), fill_channel(rows_of(v)))
    got = np.stack([out.read() for _ in range(5)])
    assert np.allclose(got, s @ v, atol=1e-12)


def test_stage4_identity_single_head():
    cfg = MhaConfig(d_model=3, num_heads=1, seq_len=4, d_k=3, d_v=3)
    w = identity_weights(cfg)
    rows = rows_of(np.arange(12.0).reshape(4, 3))
    out = att.stage4_concat_project(cfg, w, [fill_channel(rows)])
    got = np.stack([out.read() for _ in range(4)])
    assert np.array_equal(got, np.arange(12.0).reshape(4, 3))


def test_stage4_zero_weights_bias_only():
    cfg = MhaConfig(d_model=3, num_heads=2, seq_len=2, d_k=2, d_v=2)
    rng = np.random.default_rng(5)
    w = draw_mha_weights(cfg, rng)
    w.w_o = np.zeros_like(w.w_o)
    rows = [fill_channel([rng.normal(size=2) for _ in range(2)]) for _ in range(2)]
    out = att.stage4_concat_project(cfg, w, rows)
    for _ in range(2):
        assert np.allclose(out.read(), w.b_o, atol=1e-15)


def test_stage4_matches_concat_oracle():
    cfg = MhaConfig(d_model=4, num_heads=2, seq_len=3, d_k=2, d_v=2)
    rng = np.random.default_rng(6)
    w = draw_mha_weights(cfg, rng)
    blocks = [rng.normal(size=(3, 2)) for _ in range(2)]
    out = att.stage4_concat_project(
        cfg, w, [fill_channel(rows_of(b)) for b in blocks])
    got = np.stack([out.read() for _ in range(3)])
    want = np.concatenate(blocks, axis=1) @ w.w_o.T + w.b_o
    assert np.allclose(got, want, atol=1e-12)


FIFO_CFG = MhaConfig(d_model=2, num_heads=2, seq_len=3, d_k=1, d_v=1)


def fifo(name, rows=FIFO_CFG.seq_len, width=1):
    return fill_channel([np.ones(width)] * rows, name)


# id: (a stage call given the layer's weights, what its ValueError names)
FIFO_ENTRY = {
    "stage1_short": (lambda w: att.stage1_project(FIFO_CFG, w, fifo("tracks", 2, 2)),
                     "tracks"),
    "stage1_long": (lambda w: att.stage1_project(FIFO_CFG, w, fifo("tracks", 4, 2)),
                    "tracks"),
    "stage2_q": (lambda w: att.stage2_scores(FIFO_CFG, None, fifo("q[0]", 2), fifo("k[0]"),
                                             1.0), "q[0]"),
    "stage2_k": (lambda w: att.stage2_scores(FIFO_CFG, None, fifo("q[0]"), fifo("k[0]", 2),
                                             1.0), "k[0]"),
    "stage3_scores": (lambda w: att.stage3_apply(FIFO_CFG, fifo("scores[0]", 2, 3),
                                                 fifo("v[0]")), "scores[0]"),
    "stage3_v": (lambda w: att.stage3_apply(FIFO_CFG, fifo("scores[0]", 3, 3),
                                            fifo("v[0]", 2)), "v[0]"),
    "stage4_head": (lambda w: att.stage4_concat_project(
        FIFO_CFG, w, [fifo("head_out[0]"), fifo("head_out[1]", 2)]), "head_out[1]"),
    "stage4_head_count": (lambda w: att.stage4_concat_project(
        FIFO_CFG, w, [fifo("head_out[0]")]), "expected 2 head streams"),
}


@pytest.mark.parametrize("case", list(FIFO_ENTRY))
def test_stage_refuses_a_fifo_without_one_row_per_token(case):
    run, named = FIFO_ENTRY[case]
    with pytest.raises(ValueError) as exc:
        run(draw_mha_weights(FIFO_CFG, np.random.default_rng(0)))
    assert named in str(exc.value)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_streaming_seq1_analytic():
    # a single row: softmax of one score is 1, so out = w_o (v of x) + b_o
    cfg = MhaConfig(d_model=2, num_heads=1, seq_len=1, d_k=2)
    w = identity_weights(cfg)
    x = np.array([[0.3, -0.7]])
    out = att.run_mha_streaming(cfg, w, None, x)
    assert np.allclose(out, x, atol=1e-12)


def test_streaming_zero_weights_bias_output():
    cfg = MhaConfig(d_model=4, num_heads=2, seq_len=3, d_k=2)
    w = draw_mha_weights(cfg, np.random.default_rng(7))
    for name in ["w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o"]:
        setattr(w, name, np.zeros_like(getattr(w, name)))
    out = att.run_mha_streaming(cfg, w, None, np.ones((3, 4)))
    assert np.allclose(out, np.tile(w.b_o, (3, 1)), atol=1e-15)


def test_float_reference_definition_single_head():
    cfg = MhaConfig(d_model=4, num_heads=1, seq_len=6, d_k=4)
    rng = np.random.default_rng(8)
    w = draw_mha_weights(cfg, rng)
    x = rng.normal(size=(6, 4))
    got = att.run_mha_reference(cfg, w, None, x)
    q = x @ w.w_q[0].T + w.b_q[0]
    k = x @ w.w_k[0].T + w.b_k[0]
    v = x @ w.w_v[0].T + w.b_v[0]
    want = sm.softmax_exact(q @ k.T / math.sqrt(4)) @ v @ w.w_o.T + w.b_o
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("heads,d_k,d_v,seq", [(1, 3, 3, 5), (2, 2, 3, 4), (4, 1, 2, 2)])
def test_streaming_equals_reference_float(heads, d_k, d_v, seq):
    cfg = MhaConfig(d_model=4, num_heads=heads, seq_len=seq, d_k=d_k, d_v=d_v)
    rng = np.random.default_rng(9)
    w = draw_mha_weights(cfg, rng)
    x = rng.normal(size=(seq, 4))
    a = att.run_mha_streaming(cfg, w, None, x)
    b = att.run_mha_reference(cfg, w, None, x)
    assert np.array_equal(a, b)  # bit-exact, not just close


@pytest.mark.parametrize("int_bits,frac_bits", [(8, 8), (6, 10), (12, 4)])
def test_streaming_equals_reference_fixed(int_bits, frac_bits):
    fmt = FxFormat(int_bits, frac_bits)
    cfg = MhaConfig(d_model=6, num_heads=2, seq_len=7, d_k=3)
    rng = np.random.default_rng(10)
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
    x = fxp.quantize_array(rng.normal(size=(7, 6)), fmt)
    scfg = make_softmax(fmt, 7)
    a = att.run_mha_streaming(cfg, w, scfg, x)
    b = att.run_mha_reference(cfg, w, scfg, x)
    assert np.array_equal(a.raw, b.raw)


@pytest.mark.parametrize("fmt", [fxp.parse_format("fixed<64,32>"),
                                 FxFormat(6, 6, overflow=Overflow.WRAP)],
                         ids=["limbs", "wrap"])
def test_streaming_equals_reference_and_batch_off_the_int64_saturate_path(fmt):
    cfg = MhaConfig(d_model=6, num_heads=2, seq_len=7, d_k=3)
    rng = np.random.default_rng(19)
    # wide enough draws that the 12-bit format wraps
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng, scale=4.0), fmt)
    xs = fxp.quantize_array(rng.normal(0.0, 8.0, size=(2, 7, 6)), fmt)
    scfg = make_softmax(fmt, 7)
    batch = att.mha_forward_batch(cfg, w, scfg, xs)
    for i in range(2):
        a = att.run_mha_streaming(cfg, w, scfg, xs[i])
        b = att.run_mha_reference(cfg, w, scfg, xs[i])
        assert a.raw.dtype == b.raw.dtype == batch.raw.dtype
        assert a.raw.tolist() == b.raw.tolist() == batch.raw[i].tolist()


def test_batch_equals_reference_fixed():
    fmt = FxFormat(10, 10)
    cfg = MhaConfig(d_model=6, num_heads=2, seq_len=5, d_k=3)
    rng = np.random.default_rng(11)
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
    xs = rng.normal(size=(8, 5, 6))
    scfg = make_softmax(fmt, 5)
    batch = att.mha_forward_batch(cfg, w, scfg, fxp.quantize_array(xs, fmt))
    for i in range(8):
        ref = att.run_mha_reference(cfg, w, scfg, fxp.quantize_array(xs[i], fmt))
        assert np.array_equal(batch.raw[i], ref.raw)


def test_batch_close_to_reference_float():
    cfg = MhaConfig(d_model=6, num_heads=2, seq_len=5, d_k=3)
    rng = np.random.default_rng(12)
    w = draw_mha_weights(cfg, rng)
    xs = rng.normal(size=(4, 5, 6))
    batch = att.mha_forward_batch(cfg, w, None, xs)
    for i in range(4):
        assert np.allclose(batch[i], att.run_mha_reference(cfg, w, None, xs[i]),
                           atol=1e-12)


def test_row_permutation_equivariance_fixed():
    # no positional information: permuting input rows permutes output rows
    fmt = FxFormat(10, 10)
    cfg = MhaConfig(d_model=6, num_heads=2, seq_len=6, d_k=3)
    rng = np.random.default_rng(13)
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
    scfg = make_softmax(fmt, 6)
    x = fxp.quantize_array(rng.normal(size=(6, 6)), fmt)
    perm = rng.permutation(6)
    out = att.run_mha_reference(cfg, w, scfg, x)
    out_p = att.run_mha_reference(cfg, w, scfg, FxArray(x.raw[perm], fmt))
    assert np.array_equal(out_p.raw, out.raw[perm])


def test_row_permutation_equivariance_float():
    cfg = MhaConfig(d_model=4, num_heads=1, seq_len=5, d_k=4)
    rng = np.random.default_rng(14)
    w = draw_mha_weights(cfg, rng)
    x = rng.normal(size=(5, 4))
    perm = rng.permutation(5)
    out = att.run_mha_reference(cfg, w, None, x)
    out_p = att.run_mha_reference(cfg, w, None, x[perm])
    assert np.allclose(out_p, out[perm], atol=1e-12)


def test_fixed_scores_nonnegative_and_bounded_sums():
    fmt = FxFormat(10, 10)
    cfg = MhaConfig(d_model=6, num_heads=1, seq_len=5, d_k=6)
    rng = np.random.default_rng(15)
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
    x = fxp.quantize_array(rng.normal(size=(5, 6)), fmt)
    scfg = make_softmax(fmt, 5)
    in_q, in_k, _ = att.stage1_project(cfg, w, fill_channel(rows_of(x)))
    s_ch = att.stage2_scores(cfg, scfg, in_q[0], in_k[0], att.score_scale(cfg, fmt))
    rows = np.stack([s_ch.read().raw for _ in range(5)])
    assert rows.min() >= 0
    sums = rows.sum(axis=1) * fmt.step
    assert np.abs(sums - 1.0).max() <= 5 * (0.015 + fmt.step)


def test_mask_hook_excludes_rows_float():
    cfg = MhaConfig(d_model=4, num_heads=1, seq_len=4, d_k=4)
    rng = np.random.default_rng(16)
    w = draw_mha_weights(cfg, rng)
    x = rng.normal(size=(4, 4))
    mask = np.array([True, True, False, True])
    out = att.run_mha_streaming(cfg, w, None, x, mask=mask)
    # masked column gets zero attention weight, so row 2's V never contributes
    q = x @ w.w_q[0].T + w.b_q[0]
    k = x @ w.w_k[0].T + w.b_k[0]
    v = x @ w.w_v[0].T + w.b_v[0]
    s = q @ k.T / 2.0
    s[:, ~mask] = -np.inf
    want = sm.softmax_exact(s) @ v @ w.w_o.T + w.b_o
    assert np.allclose(out, want, atol=1e-10)


@pytest.mark.parametrize("spec", ["fixed<20,8>", "fixed<24,8>"])
def test_mask_fixed_masked_key_gets_zero_weight(spec):
    fmt = fxp.parse_format(spec)
    cfg = MhaConfig(d_model=6, num_heads=2, seq_len=5, d_k=3)
    rng = np.random.default_rng(17)
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
    x = fxp.quantize_array(rng.normal(size=(5, 6)), fmt)
    scfg = make_softmax(fmt, 5)
    mask = np.array([True, True, False, True, False])
    q, k, _ = att.stage1_project(cfg, w, fill_channel(rows_of(x)))
    for h in range(cfg.num_heads):
        s_ch = att.stage2_scores(cfg, scfg, q[h], k[h], att.score_scale(cfg, fmt), mask)
        rows = np.stack([s_ch.read().raw for _ in range(5)])
        assert np.all(rows[:, ~mask] == 0)
        assert rows.min() >= 0
        sums = rows.sum(axis=1) * fmt.step
        assert np.abs(sums - 1.0).max() <= 3 * (0.015 + fmt.step)


@pytest.mark.parametrize("spec", ["fixed<20,8>", "fixed<24,8>"])
def test_mask_fixed_paths_agree_and_ignore_masked_rows(spec):
    # streaming == reference == batch bit for bit with a mask, and what a
    # masked row holds cannot reach the output of any kept row
    fmt = fxp.parse_format(spec)
    cfg = MhaConfig(d_model=6, num_heads=2, seq_len=5, d_k=3)
    rng = np.random.default_rng(18)
    w = att.quantize_mha_weights(draw_mha_weights(cfg, rng), fmt)
    scfg = make_softmax(fmt, 5)
    mask = np.array([True, False, True, True, False])
    x = rng.normal(size=(5, 6))
    x_other = x.copy()
    x_other[~mask] = rng.normal(0.0, 4.0, size=(2, 6))
    outs = []
    for xi in (x, x_other):
        xq = fxp.quantize_array(xi, fmt)
        a = att.run_mha_streaming(cfg, w, scfg, xq, mask=mask)
        b = att.run_mha_reference(cfg, w, scfg, xq, mask=mask)
        c = att.mha_forward_batch(cfg, w, scfg, FxArray(xq.raw[None], fmt), mask=mask)
        assert np.array_equal(a.raw, b.raw)
        assert np.array_equal(a.raw, c.raw[0])
        outs.append(a.raw)
    assert np.array_equal(outs[0][mask], outs[1][mask])


@pytest.mark.parametrize("mask", [
    np.array([1, 1, 0, 1]),                # not bool: ~ would flip every bit
    np.array([True, False, True]),         # wrong length
    np.ones((1, 4), dtype=bool),           # not a vector
    np.zeros(4, dtype=bool),               # keeps no key
], ids=["int", "short", "2d", "empty"])
def test_bad_mask_rejected_on_every_path(mask):
    cfg = MhaConfig(d_model=4, num_heads=1, seq_len=4, d_k=4)
    w = draw_mha_weights(cfg, np.random.default_rng(0))
    x = np.ones((4, 4))
    for run, xi in ((att.run_mha_streaming, x), (att.run_mha_reference, x),
                    (att.mha_forward_batch, x[None])):
        with pytest.raises(ValueError, match="mask"):
            run(cfg, w, None, xi, mask=mask)


def test_input_shape_rejected():
    cfg = MhaConfig(d_model=4, num_heads=1, seq_len=4, d_k=4)
    w = draw_mha_weights(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        att.run_mha_streaming(cfg, w, None, np.ones((3, 4)))
