"""Full-model forward passes, weight file round trips, analytic constructor."""
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from fxattn import data, fxp, metrics, model
from fxattn import attention as att
from fxattn import layers as L
from fxattn import softmax as sm
from fxattn.fxp import FxArray, FxFormat
from fxattn.model import ModelConfig, WeightFormatError
from draws import draw_mha_weights, softmax_tables

# Regression floor for the analytic model on the seed-fixed synthetic set
# (measured 0.96907 at n=10000, seed 20240601).
B_AUC_FLOOR = 0.96


def small_cfg(blocks=1, seq=4):
    mha = att.MhaConfig(d_model=6, num_heads=2, seq_len=seq)
    return ModelConfig(num_encoder_blocks=blocks,
                       encoder=model.EncoderBlockConfig(mha=mha), head_dims=(8, 4))


# ---------------------------------------------------------------------------
# configuration and parameter counting
# ---------------------------------------------------------------------------

def test_param_count_default_geometry():
    assert model.param_count(ModelConfig()) == 4437


def test_param_count_headless_matches_hand_sum():
    # no encoder blocks: 90->32->16->8->3 dense chain
    cfg = ModelConfig(num_encoder_blocks=0)
    assert model.param_count(cfg) == 2912 + 528 + 136 + 27


@pytest.mark.parametrize("head_dims", [(-1,), (0,), (8, 0)])
def test_config_rejects_nonpositive_head_dims(head_dims):
    with pytest.raises(ValueError, match="head_dims"):
        ModelConfig(head_dims=head_dims)


def test_config_residual_dim_check(tmp_path):
    # the feed-forward's output is added to its input, so only its hidden
    # width is a setting; a header must pair it with d_model
    path, doc = saved_doc(tmp_path)
    assert doc["config"]["ff_dims"] == [8, 6]
    for ff_dims in ([8, 5], [8], [8, 6, 6], [0, 6]):
        doc["config"]["ff_dims"] = ff_dims
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError, match="'ff_dims'"):
            model.load_weights(path)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_zero_weights_uniform_output():
    cfg = small_cfg()
    w = model.zero_weights(cfg)
    out = model.forward_batch(cfg, w, np.random.default_rng(0).normal(size=(1, 4, 6)))
    assert np.allclose(out, 1 / 3, atol=1e-12)


def test_forward_shape_and_nan_validation():
    cfg = small_cfg()
    w = model.zero_weights(cfg)
    with pytest.raises(ValueError, match="shape"):
        model.forward_batch(cfg, w, np.zeros((1, 3, 6)))
    with pytest.raises(ValueError, match="shape"):
        model.forward_batch(cfg, w, np.zeros((4, 6)))
    bad = np.zeros((1, 4, 6))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        model.forward_batch(cfg, w, bad)


def test_fixed_wide_format_tracks_float():
    # the residual at wide formats is LUT-softmax binning, not precision:
    # 1024-entry tables leave ~2e-3 of irreducible probability error
    # (measured 1.9e-3 worst case over ten seeds, frozen with headroom)
    cfg = small_cfg(blocks=2)
    rng = np.random.default_rng(31)
    w = model.random_weights(cfg, rng, scale=0.8)
    x = rng.normal(size=(6, 4, 6))
    f = model.forward_batch(cfg, w, x)
    q = model.forward_batch(cfg, w, x, fmt=FxFormat(16, 16))
    assert np.abs(f - q).max() <= 2e-3


def test_fixed_wide_format_tracks_float_analytic():
    # measured 2.6e-3 over the full seed-fixed synthetic set, frozen at 3e-3
    cfg = model.ModelConfig()
    w = model.make_analytic_weights(cfg)
    ds = data.generate_synthetic(2000, seed=20240601)
    x = ds.feature_tensor()
    f = model.forward_batch(cfg, w, x)
    q = model.forward_batch(cfg, w, x, fmt=FxFormat(16, 16))
    assert np.abs(f - q).max() <= 3e-3


def test_probabilities_well_formed():
    cfg = small_cfg(blocks=2)
    rng = np.random.default_rng(32)
    w = model.random_weights(cfg, rng)
    x = rng.normal(size=(16, 4, 6))
    f = model.forward_batch(cfg, w, x)
    assert np.abs(f.sum(axis=1) - 1).max() <= 1e-9
    q = model.forward_batch(cfg, w, x, fmt=FxFormat(10, 10))
    assert q.min() >= 0.0 and q.max() <= 1.0 + 2.0 ** -10
    assert np.abs(q.sum(axis=1) - 1).max() <= 3 * (0.015 + 2.0 ** -10)


def test_forward_matches_batch():
    cfg = small_cfg()
    rng = np.random.default_rng(33)
    w = model.random_weights(cfg, rng)
    x = rng.normal(size=(3, 4, 6))
    batch = model.forward_batch(cfg, w, x, fmt=FxFormat(12, 8))
    for i in range(3):
        assert np.array_equal(model.forward_batch(cfg, w, x[i:i + 1], fmt=FxFormat(12, 8)),
                              batch[i:i + 1])


def test_fixed_forward_composes_streaming_pipeline():
    """The model's fixed path must be bit-identical to running every encoder
    block through the four-stage streaming attention."""
    fmt = FxFormat(10, 10)
    cfg = small_cfg(blocks=2, seq=5)
    rng = np.random.default_rng(34)
    w = model.random_weights(cfg, rng)
    x = rng.normal(size=(5, 6))

    got = model.forward_batch(cfg, w, x[None], fmt=fmt)[0]

    qw = model.quantize_weights(w, fmt)
    score_cfg = softmax_tables(fmt, cfg.seq_len + 1)
    out_cfg = softmax_tables(fmt, cfg.num_classes + 1)

    def dense(layer, v, softmax_cfg=None):
        # one row at a time, W v with fxp's kernels: independent of the
        # batched x @ W^T kernel the model runs
        pre = fxp.fx_add_array(fxp.fx_matmul(layer.weights, v), layer.bias)
        if layer.activation is L.Activation.RELU:
            return fxp.fx_relu(pre)
        if layer.activation is L.Activation.SOFTMAX:
            return sm.softmax_lut(softmax_cfg, pre)
        return pre

    h = fxp.quantize_array(x, fmt)
    for block in qw.blocks:
        attn = att.run_mha_streaming(cfg.encoder.mha, block.mha, score_cfg, h)
        h = fxp.fx_add_array(h, attn)
        ff_rows = [dense(block.ff2, dense(block.ff1, h[t])) for t in range(cfg.seq_len)]
        h = fxp.fx_add_array(h, L.stack(ff_rows))
    flat = FxArray(h.raw.reshape(-1), fmt)
    for layer in qw.head:
        flat = dense(layer, flat)
    probs = dense(qw.output, flat, softmax_cfg=out_cfg)
    assert np.array_equal(got, probs.to_float())


def test_float_forward_bits_pinned_to_plain_numpy():
    """Float forward_batch is numpy's arithmetic in this exact order, so its
    bits must not move when the shared op set changes."""
    cfg = small_cfg(blocks=2, seq=5)
    rng = np.random.default_rng(37)
    w = model.random_weights(cfg, rng)
    x = rng.normal(size=(7, 5, 6))
    c = 1.0 / np.sqrt(cfg.encoder.mha.d_k)

    def t(a):
        return np.swapaxes(a, -1, -2)

    def softmax(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    h = x
    num_heads = cfg.encoder.mha.num_heads
    for blk in w.blocks:
        m = blk.mha
        # one product for every head's Q, K and V, then a slice per projection
        proj = [(p_w[i], p_b[i]) for i in range(num_heads)
                for p_w, p_b in ((m.w_q, m.b_q), (m.w_k, m.b_k), (m.w_v, m.b_v))]
        qkv = (h @ np.concatenate([t(p_w) for p_w, _ in proj], axis=-1)
               + np.concatenate([p_b for _, p_b in proj]))
        parts = np.split(qkv, len(proj), axis=-1)
        heads = []
        for i in range(num_heads):
            q, k, v = parts[3 * i:3 * i + 3]
            heads.append(softmax((q @ t(k)) * c) @ v)
        h = h + (np.concatenate(heads, axis=-1) @ t(m.w_o) + m.b_o)
        ff = np.maximum(h @ t(blk.ff1.weights) + blk.ff1.bias, 0.0)
        h = h + (ff @ t(blk.ff2.weights) + blk.ff2.bias)
    flat = h.reshape(h.shape[0], -1)
    for layer in w.head:
        flat = np.maximum(flat @ t(layer.weights) + layer.bias, 0.0)
    want = softmax(flat @ t(w.output.weights) + w.output.bias)
    assert np.array_equal(model.forward_batch(cfg, w, x), want)


# ---------------------------------------------------------------------------
# chunked batch pass
# ---------------------------------------------------------------------------

def benchmark_inputs(n):
    """n seeded synthetic jets and random (non-uniform attention) weights in
    the default geometry."""
    cfg = ModelConfig()
    w = model.random_weights(cfg, np.random.default_rng([20240601, 1]))
    return cfg, w, data.generate_synthetic(n, seed=20240601).feature_tensor()


@pytest.mark.parametrize("fmt", [None, "fixed<20,10>", "fixed<64,32>"])
def test_forward_empty_batch(fmt):
    cfg = ModelConfig()
    w = model.random_weights(cfg, np.random.default_rng(38))
    out = model.forward_batch(cfg, w, np.zeros((0, cfg.seq_len, cfg.num_features)),
                              fmt=fmt and fxp.parse_format(fmt))
    assert out.shape == (0, cfg.num_classes) and out.dtype == np.float64


def assert_equals_per_jet(cfg, w, x, fmt):
    batch = model.forward_batch(cfg, w, x, fmt=fmt)
    per_jet = np.concatenate([model.forward_batch(cfg, w, x[i:i + 1], fmt=fmt)
                              for i in range(len(x))])
    assert np.array_equal(batch, per_jet)


@pytest.mark.parametrize("fmt", ["fixed<20,10>", "fixed<40,20>"])
def test_chunked_forward_equals_per_jet(fmt):
    # 1100 jets run as chunks of 367, 367 and 366
    assert_equals_per_jet(*benchmark_inputs(1100), fxp.parse_format(fmt))


def test_chunked_forward_equals_per_jet_limb_tier(monkeypatch):
    # formats above 60 bits compute their products on limbs; chunks of 4, 3 and 3
    monkeypatch.setattr(model, "CHUNK_JETS", 4)
    cfg, w, x = benchmark_inputs(10)
    assert_equals_per_jet(cfg, w, x, fxp.parse_format("fixed<64,32>"))


@pytest.mark.parametrize("fmt", [None, "fixed<20,10>"])
def test_pass_memory_independent_of_batch_size(fmt):
    # a pass holds one chunk's temporaries at a time; before chunking the
    # peak grew with the batch (57.3 MiB at 4096 jets against 14.5 at 1024)
    cfg, w, x = benchmark_inputs(4096)
    fmt = fmt and fxp.parse_format(fmt)
    peaks = []
    for n in (1024, 4096):
        tracemalloc.start()
        try:
            model.forward_batch(cfg, w, x[:n], fmt=fmt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_overflow_watch_sees_the_last_chunk():
    cfg = ModelConfig()
    w = model.make_analytic_weights(cfg)
    x = data.generate_synthetic(1100, seed=20240601).feature_tensor()
    fmt = fxp.parse_format("fixed<16,8>")
    with fxp.overflow_watch() as watch:
        model.forward_batch(cfg, w, x, fmt=fmt)
    assert watch.events == 0
    x[-1, 0, 2] = 1e4
    with fxp.overflow_watch() as watch:
        model.forward_batch(cfg, w, x, fmt=fmt)
    assert watch.events > 0


# ---------------------------------------------------------------------------
# analytic weights
# ---------------------------------------------------------------------------

def test_analytic_uniform_attention_linear_in_mean():
    # zero Q/K makes every score row uniform, so the block adds the same
    # mean-feature image to every row
    cfg = ModelConfig()
    w = model.make_analytic_weights(cfg)
    rng = np.random.default_rng(35)
    x = np.abs(rng.normal(size=(15, 6)))
    mha_out = att.run_mha_reference(cfg.encoder.mha, w.blocks[0].mha, None, x)
    want = np.zeros(6)
    want[0] = x[:, 2].mean()
    assert np.allclose(mha_out, np.tile(want, (15, 1)), atol=1e-12)


def test_analytic_b_logit_monotone_in_feature_mean():
    cfg = ModelConfig()
    w = model.make_analytic_weights(cfg)
    base = np.abs(np.random.default_rng(36).normal(size=(15, 6)))
    probs = []
    for bump in [0.0, 0.5, 1.0, 2.0, 5.0]:
        x = base.copy()
        x[:, 2] += bump
        probs.append(model.forward_batch(cfg, w, x[None])[0, 0])
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_analytic_large_sd0_is_b():
    cfg = ModelConfig()
    w = model.make_analytic_weights(cfg)
    x = np.zeros((15, 6))
    x[:, 2] = 20.0
    x[:, 4] = 0.3
    x[:, 5] = 0.2
    out = model.forward_batch(cfg, w, x[None])[0]
    assert out.argmax() == 0


def test_analytic_auc_floor():
    cfg = ModelConfig()
    w = model.make_analytic_weights(cfg)
    ds = data.generate_synthetic(2000, seed=20240601)
    probs = model.forward_batch(cfg, w, ds.feature_tensor())
    auc_b = metrics.roc_auc(probs[:, 0], ds.labels() == "b")
    assert auc_b > B_AUC_FLOOR


def test_analytic_feature_index_validation():
    with pytest.raises(ValueError):
        model.make_analytic_weights(ModelConfig(), feature_index=6)


# ---------------------------------------------------------------------------
# weight file I/O
# ---------------------------------------------------------------------------

def test_weight_roundtrip_identical_outputs(tmp_path):
    cfg = small_cfg(blocks=2)
    rng = np.random.default_rng(37)
    w = model.random_weights(cfg, rng)
    path = tmp_path / "w.json"
    model.save_weights(path, cfg, w)
    cfg2, w2 = model.load_weights(path)
    x = rng.normal(size=(4, 4, 6))
    fmt = FxFormat(10, 10)
    assert np.array_equal(model.forward_batch(cfg2, w2, x, fmt=fmt),
                          model.forward_batch(cfg2, w2, x, fmt=fmt))
    # stored at 9 significant digits, so fixed-mode outputs survive the trip
    assert np.array_equal(model.forward_batch(cfg, w, x, fmt=fmt),
                          model.forward_batch(cfg2, w2, x, fmt=fmt))


def test_weight_file_save_is_stable(tmp_path):
    cfg = small_cfg()
    w = model.random_weights(cfg, np.random.default_rng(38))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    model.save_weights(p1, cfg, w)
    cfg2, w2 = model.load_weights(p1)
    model.save_weights(p2, cfg2, w2)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_tensor_named(tmp_path):
    cfg = small_cfg()
    w = model.random_weights(cfg, np.random.default_rng(39))
    path = tmp_path / "w.json"
    model.save_weights(path, cfg, w)
    doc = json.loads(path.read_text())
    del doc["tensors"]["block0.ff1.w"]
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match="block0.ff1.w"):
        model.load_weights(path)


def test_transposed_tensor_reports_shapes(tmp_path):
    cfg = small_cfg()
    w = model.random_weights(cfg, np.random.default_rng(40))
    path = tmp_path / "w.json"
    model.save_weights(path, cfg, w)
    doc = json.loads(path.read_text())
    t = np.array(doc["tensors"]["block0.ff1.w"])
    doc["tensors"]["block0.ff1.w"] = t.T.tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match=r"expected shape \(8, 6\), found \(6, 8\)"):
        model.load_weights(path)


def test_unexpected_tensor_rejected(tmp_path):
    cfg = small_cfg()
    w = model.random_weights(cfg, np.random.default_rng(41))
    path = tmp_path / "w.json"
    model.save_weights(path, cfg, w)
    doc = json.loads(path.read_text())
    doc["tensors"]["mystery"] = [1.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match="mystery"):
        model.load_weights(path)


def test_unparseable_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"config": {')
    with pytest.raises(WeightFormatError, match="unparseable"):
        model.load_weights(path)


def saved_doc(tmp_path, seed=42):
    """A small model saved to disk; returns (path, parsed document)."""
    cfg = small_cfg()
    path = tmp_path / "w.json"
    model.save_weights(path, cfg, model.random_weights(cfg, np.random.default_rng(seed)))
    return path, json.loads(path.read_text())


def test_config_rejects_layer_norm(tmp_path):
    path, doc = saved_doc(tmp_path)
    assert doc["config"]["layer_norm"] is False
    doc["config"]["layer_norm"] = True
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match="layer normalization"):
        model.load_weights(path)


@pytest.mark.parametrize("tensors", [5, None, [1.0]])
def test_tensors_field_must_be_a_map(tmp_path, tensors):
    path, doc = saved_doc(tmp_path)
    doc["tensors"] = tensors
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match="'tensors'"):
        model.load_weights(path)


@pytest.mark.parametrize("field, value", [
    ("num_heads", 2.0), ("num_heads", True), ("d_k", 3.0), ("num_encoder_blocks", 1.0),
    ("softmax_table_size", 1024.0), ("head_dims", [8, 4.0]), ("ff_dims", 8),
    ("residual_mha", "no"), ("softmax_exp_lo", "x"),
])
def test_mistyped_header_field_named(tmp_path, field, value):
    path, doc = saved_doc(tmp_path)
    doc["config"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match=f"'{field}'"):
        model.load_weights(path)


@pytest.mark.parametrize("field, value", [
    ("residual_mha", False), ("residual_ff", False), ("num_features", 5),
    ("softmax_table_size", 3), ("softmax_table_size", 0),
    ("softmax_exp_lo", 2.0), ("softmax_exp_lo", float("-inf")),
])
def test_header_the_network_cannot_take_named(tmp_path, field, value):
    # every block adds both residuals and tracks feed the encoder directly;
    # the header states both, and a file that says otherwise is refused, as
    # is a softmax table no pass could build
    path, doc = saved_doc(tmp_path)
    assert doc["config"][field] == {"residual_mha": True, "residual_ff": True,
                                    "num_features": 6, "softmax_table_size": 1024,
                                    "softmax_exp_lo": -8.0}[field]
    doc["config"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match=f"'{field}'"):
        model.load_weights(path)


@pytest.mark.parametrize("key, value", [("output.b", float("nan")),
                                        ("block0.mha.w_q.head1", float("inf")),
                                        ("head2.w", float("-inf"))])
def test_non_finite_tensor_rejected(tmp_path, key, value):
    path, doc = saved_doc(tmp_path)
    t = np.array(doc["tensors"][key])
    t.flat[0] = value
    doc["tensors"][key] = t.tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match=f"'{key}' holds a non-finite value"):
        model.load_weights(path)


@pytest.mark.parametrize("value", [["0.5", "1", "2"], [True, False, True],
                                   [[1.0], [2.0], [3.0, 4.0]], {"a": 1},
                                   [0.5, True, 1.0], [[0.5, 1.0], [False, 2.0]]])
def test_non_numeric_tensor_rejected(tmp_path, value):
    path, doc = saved_doc(tmp_path)
    doc["tensors"]["output.b"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(WeightFormatError, match="'output.b' is not numeric"):
        model.load_weights(path)


# ---------------------------------------------------------------------------
# the weight-file layout, pinned
# ---------------------------------------------------------------------------

# sha256 of save_weights' bytes for the default geometry, recorded before the
# tensor schema was written once; any change to a key, a shape, the head
# split or the random draw order moves them
PINNED_FILE_SHA256 = {
    "random": "59b3d7680a87dadb5379220aba7c5cd45d89f6f7d60167ccc55fe135a8e3ad36",
    "zero": "6dcc9dc7f383ff7a0ecf6e1ba3fb8154f3908866f89bb09937e0691361252647",
    "analytic": "bc4636b86358ecefa528994a5aa0f67ad921aeb74b3b7fe26f1620f9ab52c3bb",
}
PINNED_MHA_SHA256 = "f098852d844edb9559aa03dc90e3fd80a8dddba495481020767cd12b146e473e"

GEOMETRIES = {
    "default": ModelConfig(),
    "headless": ModelConfig(num_encoder_blocks=0),
    "d_k=5,d_v=4": ModelConfig(encoder=model.EncoderBlockConfig(
        mha=att.MhaConfig(d_model=6, num_heads=2, seq_len=15, d_k=5, d_v=4))),
}


@pytest.mark.parametrize("kind", sorted(PINNED_FILE_SHA256))
def test_weight_file_bytes_pinned(tmp_path, kind):
    cfg = ModelConfig()
    w = {"random": lambda: model.random_weights(cfg, np.random.default_rng([20240601, 1])),
         "zero": lambda: model.zero_weights(cfg),
         "analytic": lambda: model.make_analytic_weights(cfg)}[kind]()
    path = tmp_path / "w.json"
    model.save_weights(path, cfg, w)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_FILE_SHA256[kind]


def test_random_mha_weights_pinned():
    cfg = att.MhaConfig(d_model=6, num_heads=3, seq_len=4, d_k=4, d_v=5)
    w = draw_mha_weights(cfg, np.random.default_rng(7))
    h = hashlib.sha256()
    for name in ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o"):
        h.update(np.ascontiguousarray(getattr(w, name), dtype="<f8").tobytes())
    assert h.hexdigest() == PINNED_MHA_SHA256


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_param_count_equals_saved_tensor_sizes(tmp_path, name):
    cfg = GEOMETRIES[name]
    path = tmp_path / "w.json"
    model.save_weights(path, cfg, model.random_weights(cfg, np.random.default_rng(3)))
    tensors = json.loads(path.read_text())["tensors"]
    assert model.param_count(cfg) == sum(np.size(t) for t in tensors.values())

