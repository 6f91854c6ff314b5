"""Encoder-stack + classifier assembly, weight file I/O, forward passes.

The network mirrors the flavor-tagging benchmark: identical encoder blocks
(two-head attention plus a two-layer feed-forward, residual adds, no layer
norm), a flatten, three ReLU head layers and a softmax output. One shared
fixed-point format covers the whole model per run; weights are quantized
once per format, activations at every layer boundary.

Weight files are self-describing JSON: a ``config`` header plus a
``tensors`` map of named nested decimal arrays stored at 9 significant
digits (inspectable, diffable, language neutral). Tensor keys follow
``block{i}.mha.w_q.head{h}``, ``block{i}.ff1.w``, ``head{j}.w``,
``output.w`` and matching ``b``/biases.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from fxattn import fxp
from fxattn import layers as L
from fxattn.attention import MhaConfig, MhaWeights, mha_forward_batch, \
    quantize_mha_weights, random_mha_weights
from fxattn.fxp import FxFormat
from fxattn.layers import Activation, DenseLayer
from fxattn.softmax import make_softmax_config

log = logging.getLogger(__name__)

# Trainable-parameter count reported for the original Keras flavor tagger.
# The stated layer dimensions do not reproduce it under common key-dim
# conventions (this geometry gives 4437; key_dim = d_model gives 4923), so
# param_count() reports and logs the comparison instead of asserting it.
PUBLISHED_PARAM_COUNT = 9135


class WeightFormatError(ValueError):
    """Weight file is unreadable or inconsistent with its config header."""


@dataclass(frozen=True)
class EncoderBlockConfig:
    mha: MhaConfig
    ff_dims: tuple[int, int] = (8, 6)
    residual_mha: bool = True
    residual_ff: bool = True
    layer_norm: bool = False

    def __post_init__(self) -> None:
        if len(self.ff_dims) != 2 or min(self.ff_dims) < 1:
            raise ValueError(f"ff_dims must be two positive dims, got {self.ff_dims}")
        if self.residual_ff and self.ff_dims[1] != self.mha.d_model:
            raise ValueError(
                f"residual feed-forward needs ff_dims[1] == d_model "
                f"({self.ff_dims[1]} != {self.mha.d_model})"
            )
        if self.layer_norm:
            raise ValueError("layer normalization is not supported")


@dataclass(frozen=True)
class ModelConfig:
    num_encoder_blocks: int = 3
    encoder: EncoderBlockConfig = field(
        default_factory=lambda: EncoderBlockConfig(
            mha=MhaConfig(d_model=6, num_heads=2, seq_len=15)))
    head_dims: tuple[int, ...] = (32, 16, 8)
    num_classes: int = 3
    seq_len: int = 15
    num_features: int = 6
    softmax_table_size: int = 1024
    softmax_exp_lo: float = -8.0

    def __post_init__(self) -> None:
        if self.num_encoder_blocks < 0:
            raise ValueError("num_encoder_blocks must be >= 0")
        if self.encoder.mha.seq_len != self.seq_len:
            raise ValueError("encoder seq_len disagrees with model seq_len")
        if self.encoder.mha.d_model != self.num_features:
            raise ValueError(
                "tracks feed the encoder directly, so d_model must equal num_features")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")

    @property
    def d_model(self) -> int:
        return self.encoder.mha.d_model

    @property
    def flatten_dim(self) -> int:
        return self.seq_len * self.d_model


@dataclass
class BlockWeights:
    mha: MhaWeights
    ff1: DenseLayer
    ff2: DenseLayer


@dataclass
class ModelWeights:
    blocks: list[BlockWeights]
    head: list[DenseLayer]
    output: DenseLayer


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def param_count(cfg: ModelConfig) -> int:
    """Total trainable scalars (weights + biases) for the configured shapes."""
    m = cfg.encoder.mha
    mha = (
        2 * m.num_heads * (m.d_model * m.d_k + m.d_k)       # q, k projections
        + m.num_heads * (m.d_model * m.d_v + m.d_v)         # v projection
        + m.concat_dim * m.d_model + m.d_model              # output projection
    )
    ff0, ff1 = cfg.encoder.ff_dims
    ff = m.d_model * ff0 + ff0 + ff0 * ff1 + ff1
    total = cfg.num_encoder_blocks * (mha + ff)
    width = cfg.flatten_dim
    for h in cfg.head_dims:
        total += width * h + h
        width = h
    total += width * cfg.num_classes + cfg.num_classes
    if total != PUBLISHED_PARAM_COUNT:
        log.info(
            "parameter count %d differs from the published reference %d "
            "(original attention dims unknown)", total, PUBLISHED_PARAM_COUNT)
    return total


# ---------------------------------------------------------------------------
# weight constructors
# ---------------------------------------------------------------------------

def _zero_mha(m: MhaConfig) -> MhaWeights:
    return MhaWeights(
        w_q=np.zeros((m.num_heads, m.d_k, m.d_model)),
        b_q=np.zeros((m.num_heads, m.d_k)),
        w_k=np.zeros((m.num_heads, m.d_k, m.d_model)),
        b_k=np.zeros((m.num_heads, m.d_k)),
        w_v=np.zeros((m.num_heads, m.d_v, m.d_model)),
        b_v=np.zeros((m.num_heads, m.d_v)),
        w_o=np.zeros((m.d_model, m.concat_dim)),
        b_o=np.zeros(m.d_model),
    )


def zero_weights(cfg: ModelConfig) -> ModelWeights:
    m = cfg.encoder.mha
    ff0, ff1 = cfg.encoder.ff_dims
    blocks = [
        BlockWeights(
            mha=_zero_mha(m),
            ff1=DenseLayer(np.zeros((ff0, m.d_model)), np.zeros(ff0), Activation.RELU),
            ff2=DenseLayer(np.zeros((ff1, ff0)), np.zeros(ff1), Activation.NONE),
        )
        for _ in range(cfg.num_encoder_blocks)
    ]
    head, width = [], cfg.flatten_dim
    for h in cfg.head_dims:
        head.append(DenseLayer(np.zeros((h, width)), np.zeros(h), Activation.RELU))
        width = h
    output = DenseLayer(np.zeros((cfg.num_classes, width)), np.zeros(cfg.num_classes),
                        Activation.SOFTMAX)
    return ModelWeights(blocks=blocks, head=head, output=output)


def random_weights(cfg: ModelConfig, rng: np.random.Generator,
                   scale: float = 1.0) -> ModelWeights:
    m = cfg.encoder.mha
    ff0, ff1 = cfg.encoder.ff_dims

    def dense(out, inp, act):
        return DenseLayer(rng.normal(0, scale / math.sqrt(inp), size=(out, inp)),
                          rng.normal(0, 0.05, size=out), act)

    blocks = [
        BlockWeights(
            mha=random_mha_weights(m, rng, scale),
            ff1=dense(ff0, m.d_model, Activation.RELU),
            ff2=dense(ff1, ff0, Activation.NONE),
        )
        for _ in range(cfg.num_encoder_blocks)
    ]
    head, width = [], cfg.flatten_dim
    for h in cfg.head_dims:
        head.append(dense(h, width, Activation.RELU))
        width = h
    output = dense(cfg.num_classes, width, Activation.SOFTMAX)
    return ModelWeights(blocks=blocks, head=head, output=output)


# Analytic construction constants, calibrated once against the synthetic
# generator's class statistics (b/c/light medians of the accumulated mean
# sd0 statistic sit near 11.7 / 5.7 / 2.3). The logit scale is deliberately
# small so sub-LSB probability differences exist for coarse fractional
# precision to destroy; larger scales make low-precision runs look free.
ANALYTIC_V_GAIN = 1.0
ANALYTIC_HEAD_BIAS = 1.0
ANALYTIC_LOGIT_SCALE = 0.15
ANALYTIC_THETA_B = 7.5
ANALYTIC_THETA_LIGHT = 3.3


def make_analytic_weights(cfg: ModelConfig, feature_index: int = 2) -> ModelWeights:
    """Handcrafted weights whose b-class logit grows monotonically with the
    mean of one track feature, standing in for a trained model.

    Zero Q/K weights make attention uniform, so each block's attention
    output is a linear image of the mean track vector; V routes the chosen
    feature into an accumulator channel, the head layers average that
    channel after flattening, and the output layer turns the statistic into
    b / c / light logits with fixed thresholds.
    """
    if not (0 <= feature_index < cfg.num_features):
        raise ValueError(f"feature_index {feature_index} outside 0..{cfg.num_features - 1}")
    if not (cfg.encoder.residual_mha and cfg.encoder.residual_ff):
        raise ValueError("analytic construction assumes residual connections")
    w = zero_weights(cfg)
    m = cfg.encoder.mha
    accum = 0 if feature_index != 0 else 1  # keep the source channel pristine

    for block in w.blocks:
        block.mha.w_v[0, 0, feature_index] = ANALYTIC_V_GAIN
        block.mha.w_o[accum, 0] = 1.0  # head 0, component 0 -> accumulator channel

    first = w.head[0]
    for t in range(cfg.seq_len):
        first.weights[0, t * cfg.d_model + accum] = 1.0 / cfg.seq_len
    first.bias[0] = ANALYTIC_HEAD_BIAS
    for layer in w.head[1:]:
        layer.weights[0, 0] = 1.0

    alpha = ANALYTIC_LOGIT_SCALE
    out = w.output
    out.weights[0, 0] = alpha
    out.bias[0] = -alpha * ANALYTIC_THETA_B
    # class c keeps a constant zero logit; light mirrors b downward
    out.weights[2, 0] = -alpha
    out.bias[2] = alpha * ANALYTIC_THETA_LIGHT
    return w


def quantize_weights(w: ModelWeights, fmt: FxFormat) -> ModelWeights:
    return ModelWeights(
        blocks=[
            BlockWeights(
                mha=quantize_mha_weights(b.mha, fmt),
                ff1=L.quantize_dense(b.ff1, fmt),
                ff2=L.quantize_dense(b.ff2, fmt),
            )
            for b in w.blocks
        ],
        head=[L.quantize_dense(d, fmt) for d in w.head],
        output=L.quantize_dense(w.output, fmt),
    )


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def forward_batch(cfg: ModelConfig, weights: ModelWeights, x: np.ndarray,
                  fmt: FxFormat | None = None) -> np.ndarray:
    """Probabilities (n, num_classes) for a batch of (n, seq_len, num_features).

    fmt=None runs float64; otherwise the whole model runs in that fixed
    format (weights quantized once here, activations at every boundary).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (cfg.seq_len, cfg.num_features):
        raise ValueError(
            f"batch shape {x.shape} != (n, {cfg.seq_len}, {cfg.num_features})")
    if np.isnan(x).any():
        raise ValueError("NaN in input sample")

    if fmt is None:
        h = x
        qw = weights
        score_cfg = out_cfg = None
    else:
        h = fxp.quantize_array(x, fmt)
        qw = quantize_weights(weights, fmt)
        score_cfg = make_softmax_config(fmt, n_max=cfg.seq_len + 1,
                                        table_size=cfg.softmax_table_size,
                                        exp_lo=cfg.softmax_exp_lo)
        out_cfg = make_softmax_config(fmt, n_max=cfg.num_classes + 1,
                                      table_size=cfg.softmax_table_size,
                                      exp_lo=cfg.softmax_exp_lo)

    for block in qw.blocks:
        attn = mha_forward_batch(cfg.encoder.mha, block.mha, score_cfg, h)
        h = L.add(h, attn) if cfg.encoder.residual_mha else attn
        ff = L.dense_forward(block.ff2, L.dense_forward(block.ff1, h))
        h = L.add(h, ff) if cfg.encoder.residual_ff else ff

    flat = h.reshape(h.shape[0], -1)
    for layer in qw.head:
        flat = L.dense_forward(layer, flat)
    probs = L.dense_forward(qw.output, flat, softmax_cfg=out_cfg)
    return probs.to_float() if fmt is not None else probs


def forward(cfg: ModelConfig, weights: ModelWeights, sample: np.ndarray,
            fmt: FxFormat | None = None) -> np.ndarray:
    """Single-sample probabilities; identical arithmetic to forward_batch."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.shape != (cfg.seq_len, cfg.num_features):
        raise ValueError(
            f"sample shape {sample.shape} != ({cfg.seq_len}, {cfg.num_features})")
    return forward_batch(cfg, weights, sample[None], fmt=fmt)[0]


# ---------------------------------------------------------------------------
# weight file I/O
# ---------------------------------------------------------------------------

def _config_to_dict(cfg: ModelConfig) -> dict:
    m = cfg.encoder.mha
    return {
        "num_encoder_blocks": cfg.num_encoder_blocks,
        "d_model": m.d_model,
        "num_heads": m.num_heads,
        "d_k": m.d_k,
        "d_v": m.d_v,
        "seq_len": cfg.seq_len,
        "num_features": cfg.num_features,
        "ff_dims": list(cfg.encoder.ff_dims),
        "residual_mha": cfg.encoder.residual_mha,
        "residual_ff": cfg.encoder.residual_ff,
        "layer_norm": cfg.encoder.layer_norm,
        "head_dims": list(cfg.head_dims),
        "num_classes": cfg.num_classes,
        "softmax_table_size": cfg.softmax_table_size,
        "softmax_exp_lo": cfg.softmax_exp_lo,
    }


def _config_from_dict(d: dict) -> ModelConfig:
    try:
        mha = MhaConfig(d_model=d["d_model"], num_heads=d["num_heads"],
                        seq_len=d["seq_len"], d_k=d["d_k"], d_v=d["d_v"])
        encoder = EncoderBlockConfig(
            mha=mha, ff_dims=tuple(d["ff_dims"]),
            residual_mha=d["residual_mha"], residual_ff=d["residual_ff"],
            layer_norm=d.get("layer_norm", False))
        return ModelConfig(
            num_encoder_blocks=d["num_encoder_blocks"], encoder=encoder,
            head_dims=tuple(d["head_dims"]), num_classes=d["num_classes"],
            seq_len=d["seq_len"], num_features=d["num_features"],
            softmax_table_size=d.get("softmax_table_size", 1024),
            softmax_exp_lo=d.get("softmax_exp_lo", -8.0))
    except KeyError as exc:
        raise WeightFormatError(f"config header missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise WeightFormatError(f"bad config header: {exc}") from None


def _tensor_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    m = cfg.encoder.mha
    ff0, ff1 = cfg.encoder.ff_dims
    specs = []
    for i in range(cfg.num_encoder_blocks):
        for h in range(m.num_heads):
            specs += [
                (f"block{i}.mha.w_q.head{h}", (m.d_k, m.d_model)),
                (f"block{i}.mha.b_q.head{h}", (m.d_k,)),
                (f"block{i}.mha.w_k.head{h}", (m.d_k, m.d_model)),
                (f"block{i}.mha.b_k.head{h}", (m.d_k,)),
                (f"block{i}.mha.w_v.head{h}", (m.d_v, m.d_model)),
                (f"block{i}.mha.b_v.head{h}", (m.d_v,)),
            ]
        specs += [
            (f"block{i}.mha.w_o", (m.d_model, m.concat_dim)),
            (f"block{i}.mha.b_o", (m.d_model,)),
            (f"block{i}.ff1.w", (ff0, m.d_model)),
            (f"block{i}.ff1.b", (ff0,)),
            (f"block{i}.ff2.w", (ff1, ff0)),
            (f"block{i}.ff2.b", (ff1,)),
        ]
    width = cfg.flatten_dim
    for j, hdim in enumerate(cfg.head_dims, start=1):
        specs += [(f"head{j}.w", (hdim, width)), (f"head{j}.b", (hdim,))]
        width = hdim
    specs += [("output.w", (cfg.num_classes, width)), ("output.b", (cfg.num_classes,))]
    return specs


def _tensor_map(cfg: ModelConfig, w: ModelWeights) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for i, block in enumerate(w.blocks):
        for h in range(cfg.encoder.mha.num_heads):
            out[f"block{i}.mha.w_q.head{h}"] = block.mha.w_q[h]
            out[f"block{i}.mha.b_q.head{h}"] = block.mha.b_q[h]
            out[f"block{i}.mha.w_k.head{h}"] = block.mha.w_k[h]
            out[f"block{i}.mha.b_k.head{h}"] = block.mha.b_k[h]
            out[f"block{i}.mha.w_v.head{h}"] = block.mha.w_v[h]
            out[f"block{i}.mha.b_v.head{h}"] = block.mha.b_v[h]
        out[f"block{i}.mha.w_o"] = block.mha.w_o
        out[f"block{i}.mha.b_o"] = block.mha.b_o
        out[f"block{i}.ff1.w"] = block.ff1.weights
        out[f"block{i}.ff1.b"] = block.ff1.bias
        out[f"block{i}.ff2.w"] = block.ff2.weights
        out[f"block{i}.ff2.b"] = block.ff2.bias
    for j, layer in enumerate(w.head, start=1):
        out[f"head{j}.w"] = layer.weights
        out[f"head{j}.b"] = layer.bias
    out["output.w"] = w.output.weights
    out["output.b"] = w.output.bias
    return out


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


def _round_nested(a: np.ndarray):
    return np.vectorize(_round9, otypes=[float])(a).tolist() if a.size \
        else np.zeros(a.shape).tolist()


def save_weights(path, cfg: ModelConfig, w: ModelWeights) -> None:
    doc = {
        "config": _config_to_dict(cfg),
        "tensors": {name: _round_nested(np.asarray(t, dtype=np.float64))
                    for name, t in _tensor_map(cfg, w).items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_weights(path) -> tuple[ModelConfig, ModelWeights]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise WeightFormatError(f"{path}: unparseable weight file: {exc}") from None
    if not isinstance(doc, dict) or "config" not in doc or "tensors" not in doc:
        raise WeightFormatError(f"{path}: expected a config/tensors document")
    cfg = _config_from_dict(doc["config"])
    tensors = doc["tensors"]

    arrays: dict[str, np.ndarray] = {}
    expected = _tensor_specs(cfg)
    for name, shape in expected:
        if name not in tensors:
            raise WeightFormatError(f"{path}: missing tensor '{name}'")
        try:
            arr = np.array(tensors[name], dtype=np.float64)
        except (TypeError, ValueError):
            raise WeightFormatError(f"{path}: tensor '{name}' is not numeric") from None
        if arr.shape != shape:
            raise WeightFormatError(
                f"{path}: tensor '{name}': expected shape {shape}, found {arr.shape}")
        arrays[name] = arr
    extra = set(tensors) - {name for name, _ in expected}
    if extra:
        raise WeightFormatError(f"{path}: unexpected tensor '{sorted(extra)[0]}'")

    m = cfg.encoder.mha
    blocks = []
    for i in range(cfg.num_encoder_blocks):
        mha = MhaWeights(
            w_q=np.stack([arrays[f"block{i}.mha.w_q.head{h}"] for h in range(m.num_heads)]),
            b_q=np.stack([arrays[f"block{i}.mha.b_q.head{h}"] for h in range(m.num_heads)]),
            w_k=np.stack([arrays[f"block{i}.mha.w_k.head{h}"] for h in range(m.num_heads)]),
            b_k=np.stack([arrays[f"block{i}.mha.b_k.head{h}"] for h in range(m.num_heads)]),
            w_v=np.stack([arrays[f"block{i}.mha.w_v.head{h}"] for h in range(m.num_heads)]),
            b_v=np.stack([arrays[f"block{i}.mha.b_v.head{h}"] for h in range(m.num_heads)]),
            w_o=arrays[f"block{i}.mha.w_o"],
            b_o=arrays[f"block{i}.mha.b_o"],
        )
        blocks.append(BlockWeights(
            mha=mha,
            ff1=DenseLayer(arrays[f"block{i}.ff1.w"], arrays[f"block{i}.ff1.b"],
                           Activation.RELU),
            ff2=DenseLayer(arrays[f"block{i}.ff2.w"], arrays[f"block{i}.ff2.b"],
                           Activation.NONE),
        ))
    head = [DenseLayer(arrays[f"head{j}.w"], arrays[f"head{j}.b"], Activation.RELU)
            for j in range(1, len(cfg.head_dims) + 1)]
    output = DenseLayer(arrays["output.w"], arrays["output.b"], Activation.SOFTMAX)
    return cfg, ModelWeights(blocks=blocks, head=head, output=output)
