"""Encoder-stack + classifier assembly, weight file I/O, the forward pass.

The network mirrors the flavor-tagging benchmark: identical encoder blocks
(two-head attention plus a two-layer feed-forward, residual adds, no layer
norm), a flatten, three ReLU head layers and a softmax output. The configs
hold only independent settings: the sequence length and the feature count
are the attention's, every block adds both residuals, and the feed-forward
maps d_model back to d_model. One shared fixed-point format covers the
whole model per run; weights are quantized once per pass, activations at
every layer boundary. A batch pass runs its jets in cache-sized chunks.

Weight files are self-describing JSON: a ``config`` header plus a
``tensors`` map of named nested decimal arrays stored at 9 significant
digits (inspectable, diffable, language neutral). :func:`_tensor_specs` is
the one place that defines the tensor keys and shapes (attention shapes
come from :func:`fxattn.attention.mha_shapes`); zero and random
initialisation, parameter counting, saving and loading all read it.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from fxattn import fxp
from fxattn import layers as L
from fxattn.attention import MhaConfig, MhaWeights, mha_forward_batch, mha_shapes, \
    quantize_mha_weights, random_tensor
from fxattn.fxp import FxFormat
from fxattn.layers import Activation, DenseLayer
from fxattn.softmax import check_table, make_softmax_config

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
    """Attention, then a feed-forward d_model -> ff_hidden -> d_model."""

    mha: MhaConfig
    ff_hidden: int = 8

    def __post_init__(self) -> None:
        if self.ff_hidden < 1:
            raise ValueError(f"ff_hidden must be positive, got {self.ff_hidden}")


@dataclass(frozen=True)
class ModelConfig:
    num_encoder_blocks: int = 3
    encoder: EncoderBlockConfig = field(
        default_factory=lambda: EncoderBlockConfig(
            mha=MhaConfig(d_model=6, num_heads=2, seq_len=15)))
    head_dims: tuple[int, ...] = (32, 16, 8)
    num_classes: int = 3
    softmax_table_size: int = 1024
    softmax_exp_lo: float = -8.0

    def __post_init__(self) -> None:
        if self.num_encoder_blocks < 0:
            raise ValueError("num_encoder_blocks must be >= 0")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if min(self.head_dims, default=1) < 1:
            raise ValueError(f"head_dims must be positive, got {self.head_dims}")
        try:  # both softmax tables have this size; the exp table spans [exp_lo, 0)
            check_table(self.softmax_table_size, self.softmax_exp_lo, 0.0)
        except ValueError as exc:
            raise ValueError(f"'softmax_table_size' or 'softmax_exp_lo': {exc}") from None

    @property
    def seq_len(self) -> int:
        return self.encoder.mha.seq_len

    @property
    def num_features(self) -> int:
        """Tracks feed the encoder directly, so this is d_model."""
        return self.encoder.mha.d_model

    @property
    def flatten_dim(self) -> int:
        return self.seq_len * self.num_features


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
# the tensor schema and the constructors over it
# ---------------------------------------------------------------------------

# the attention output projection is stored whole, Q/K/V one key per head
_MHA_WHOLE = ("w_o", "b_o")


def _tensor_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every tensor of the model as (weight-file key, shape), in the order
    random_weights draws them and _assemble consumes them.

    Per-head tensors are listed heads innermost (``w_q.head0``,
    ``w_q.head1``, ``b_q.head0``, ...): drawing them one by one consumes
    the random stream exactly as one (heads, ...) draw does.
    """
    m = cfg.encoder.mha
    ff = cfg.encoder.ff_hidden
    specs: list[tuple[str, tuple[int, ...]]] = []

    def dense(name, out, inp):
        specs.extend([(f"{name}.w", (out, inp)), (f"{name}.b", (out,))])

    for i in range(cfg.num_encoder_blocks):
        for name, shape in mha_shapes(m).items():
            if name in _MHA_WHOLE:
                specs.append((f"block{i}.mha.{name}", shape))
            else:
                specs += [(f"block{i}.mha.{name}.head{h}", shape[1:])
                          for h in range(m.num_heads)]
        dense(f"block{i}.ff1", ff, m.d_model)
        dense(f"block{i}.ff2", m.d_model, ff)
    dims = (cfg.flatten_dim, *cfg.head_dims, cfg.num_classes)
    names = [f"head{j}" for j in range(1, len(cfg.head_dims) + 1)] + ["output"]
    for name, inp, out in zip(names, dims, dims[1:]):
        dense(name, out, inp)
    return specs


def _assemble(cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> ModelWeights:
    """ModelWeights from a key -> array map holding every _tensor_specs key
    (in any order); Q/K/V heads are stacked back into one tensor each."""
    it = iter([arrays[key] for key, _ in _tensor_specs(cfg)])
    m = cfg.encoder.mha

    def mha():
        return MhaWeights(**{
            name: next(it) if name in _MHA_WHOLE
            else np.stack([next(it) for _ in range(m.num_heads)])
            for name in mha_shapes(m)})

    def dense(act):
        return DenseLayer(next(it), next(it), act)

    blocks = [BlockWeights(mha(), dense(Activation.RELU), dense(Activation.NONE))
              for _ in range(cfg.num_encoder_blocks)]
    head = [dense(Activation.RELU) for _ in cfg.head_dims]
    return ModelWeights(blocks=blocks, head=head, output=dense(Activation.SOFTMAX))


def _tensor_map(cfg: ModelConfig, w: ModelWeights) -> dict[str, np.ndarray]:
    """The key -> array map of w; the inverse of _assemble."""
    parts = []
    for block in w.blocks:
        for name in mha_shapes(cfg.encoder.mha):
            t = getattr(block.mha, name)
            parts += [t] if name in _MHA_WHOLE else list(t)
        parts += [block.ff1.weights, block.ff1.bias, block.ff2.weights, block.ff2.bias]
    for layer in [*w.head, w.output]:
        parts += [layer.weights, layer.bias]
    return dict(zip([key for key, _ in _tensor_specs(cfg)], parts, strict=True))


def param_count(cfg: ModelConfig) -> int:
    """Total trainable scalars (weights + biases) for the configured shapes."""
    total = sum(math.prod(shape) for _, shape in _tensor_specs(cfg))
    if total != PUBLISHED_PARAM_COUNT:
        log.info(
            "parameter count %d differs from the published reference %d "
            "(original attention dims unknown)", total, PUBLISHED_PARAM_COUNT)
    return total


def zero_weights(cfg: ModelConfig) -> ModelWeights:
    return _assemble(cfg, {key: np.zeros(shape) for key, shape in _tensor_specs(cfg)})


def random_weights(cfg: ModelConfig, rng: np.random.Generator,
                   scale: float = 1.0) -> ModelWeights:
    # once split per head, every bias is a vector and every weight a matrix
    return _assemble(cfg, {key: random_tensor(rng, shape, scale, bias=len(shape) == 1)
                           for key, shape in _tensor_specs(cfg)})


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
    w = zero_weights(cfg)
    m = cfg.encoder.mha
    accum = 0 if feature_index != 0 else 1  # keep the source channel pristine

    for block in w.blocks:
        block.mha.w_v[0, 0, feature_index] = ANALYTIC_V_GAIN
        block.mha.w_o[accum, 0] = 1.0  # head 0, component 0 -> accumulator channel

    first = w.head[0]
    for t in range(cfg.seq_len):
        first.weights[0, t * cfg.num_features + accum] = 1.0 / cfg.seq_len
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
# forward pass
# ---------------------------------------------------------------------------

# Jets per chunk of a batch pass. At this size every temporary of a chunk
# (the largest is a (512, 15, 15) score block, 0.9 MB) stays in cache, and
# 256-512 beat 1024-2048 on a 10k-jet pass.
CHUNK_JETS = 512


def forward_batch(cfg: ModelConfig, weights: ModelWeights, x: np.ndarray,
                  fmt: FxFormat | None = None) -> np.ndarray:
    """Probabilities (n, num_classes) for a batch of (n, seq_len, num_features).

    fmt=None runs float64; otherwise the whole model runs in that fixed
    format, activations quantized at every boundary. Weights are quantized
    and both softmax tables built once per pass; the jets then run in
    ceil(n / CHUNK_JETS) near-equal contiguous chunks. Fixed-point
    arithmetic is exact per jet, so in fixed mode the chunking moves no bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (cfg.seq_len, cfg.num_features):
        raise ValueError(
            f"batch shape {x.shape} != (n, {cfg.seq_len}, {cfg.num_features})")
    if np.isnan(x).any():
        raise ValueError("NaN in input sample")

    if fmt is None:
        qw = weights
        score_cfg = out_cfg = None
    else:
        qw = quantize_weights(weights, fmt)
        score_cfg = make_softmax_config(fmt, n_max=cfg.seq_len + 1,
                                        table_size=cfg.softmax_table_size,
                                        exp_lo=cfg.softmax_exp_lo)
        out_cfg = make_softmax_config(fmt, n_max=cfg.num_classes + 1,
                                      table_size=cfg.softmax_table_size,
                                      exp_lo=cfg.softmax_exp_lo)

    def run_chunk(h: np.ndarray) -> np.ndarray:
        if fmt is not None:
            h = fxp.quantize_array(h, fmt)
        for block in qw.blocks:
            h = L.add(h, mha_forward_batch(cfg.encoder.mha, block.mha, score_cfg, h))
            h = L.add(h, L.dense_forward(block.ff2, L.dense_forward(block.ff1, h)))

        flat = h.reshape(h.shape[0], cfg.flatten_dim)
        for layer in qw.head:
            flat = L.dense_forward(layer, flat)
        probs = L.dense_forward(qw.output, flat, softmax_cfg=out_cfg)
        return probs.to_float() if fmt is not None else probs

    chunks = np.array_split(x, max(1, -(-len(x) // CHUNK_JETS)))
    return np.concatenate([run_chunk(c) for c in chunks])


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
        "ff_dims": [cfg.encoder.ff_hidden, m.d_model],
        "residual_mha": True,
        "residual_ff": True,
        "layer_norm": False,
        "head_dims": list(cfg.head_dims),
        "num_classes": cfg.num_classes,
        "softmax_table_size": cfg.softmax_table_size,
        "softmax_exp_lo": cfg.softmax_exp_lo,
    }


def _header(d: dict, name: str, kinds: tuple[type, ...] = (int,), default=None):
    """A scalar header field whose JSON type is one of ``kinds``: an integer
    field refuses 2.0 and true, a flag refuses "no"."""
    value = d[name] if default is None else d.get(name, default)
    if type(value) not in kinds:
        raise WeightFormatError(f"config field '{name}' must be "
                                f"{' or '.join(k.__name__ for k in kinds)}, found {value!r}")
    return value


def _header_ints(d: dict, name: str) -> tuple[int, ...]:
    value = d[name]
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise WeightFormatError(
            f"config field '{name}' must be a list of integers, found {value!r}")
    return tuple(value)


def _config_from_dict(d) -> ModelConfig:
    if not isinstance(d, dict):
        raise WeightFormatError("config header must be a map of fields")
    if d.get("layer_norm", False) is not False:
        raise WeightFormatError(
            "config field 'layer_norm': layer normalization is not supported")
    try:
        mha = MhaConfig(d_model=_header(d, "d_model"), num_heads=_header(d, "num_heads"),
                        seq_len=_header(d, "seq_len"),
                        d_k=_header(d, "d_k"), d_v=_header(d, "d_v"))
        if _header(d, "num_features") != mha.d_model:
            raise WeightFormatError(f"config field 'num_features' must equal d_model "
                                    f"{mha.d_model}: tracks feed the encoder directly")
        for name in ("residual_mha", "residual_ff"):
            if not _header(d, name, (bool,)):
                raise WeightFormatError(f"config field '{name}': every block adds its residual")
        ff_dims = _header_ints(d, "ff_dims")
        if len(ff_dims) != 2 or ff_dims[0] < 1 or ff_dims[1] != mha.d_model:
            raise WeightFormatError(f"config field 'ff_dims' must be [hidden >= 1, d_model "
                                    f"{mha.d_model}], found {list(ff_dims)}")
        encoder = EncoderBlockConfig(mha=mha, ff_hidden=ff_dims[0])
        return ModelConfig(
            num_encoder_blocks=_header(d, "num_encoder_blocks"), encoder=encoder,
            head_dims=_header_ints(d, "head_dims"), num_classes=_header(d, "num_classes"),
            softmax_table_size=_header(d, "softmax_table_size",
                                       default=ModelConfig.softmax_table_size),
            softmax_exp_lo=_header(d, "softmax_exp_lo", (float, int),
                                   default=ModelConfig.softmax_exp_lo))
    except KeyError as exc:
        raise WeightFormatError(f"config header missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise WeightFormatError(f"bad config header: {exc}") from None


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


def _round_nested(a: np.ndarray):
    return np.vectorize(_round9, otypes=[float])(a).tolist()


def save_weights(path, cfg: ModelConfig, w: ModelWeights) -> None:
    doc = {
        "config": _config_to_dict(cfg),
        "tensors": {name: _round_nested(np.asarray(t, dtype=np.float64))
                    for name, t in _tensor_map(cfg, w).items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _holds_bool(x) -> bool:
    """True if a JSON value has a boolean anywhere; numpy would make it 0 or 1."""
    return isinstance(x, bool) or (isinstance(x, list) and any(map(_holds_bool, x)))


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
    if not isinstance(tensors, dict):
        raise WeightFormatError(f"{path}: field 'tensors' must be a map of named arrays")

    arrays: dict[str, np.ndarray] = {}
    for name, shape in _tensor_specs(cfg):
        if name not in tensors:
            raise WeightFormatError(f"{path}: missing tensor '{name}'")
        try:  # check the type first: a float64 cast would turn "0.5" into 0.5
            arr = np.array(tensors[name])
            if arr.dtype.kind not in "if" or _holds_bool(tensors[name]):
                raise ValueError
        except ValueError:
            raise WeightFormatError(f"{path}: tensor '{name}' is not numeric") from None
        arr = arr.astype(np.float64)
        if arr.shape != shape:
            raise WeightFormatError(
                f"{path}: tensor '{name}': expected shape {shape}, found {arr.shape}")
        if not np.isfinite(arr).all():
            raise WeightFormatError(f"{path}: tensor '{name}' holds a non-finite value")
        arrays[name] = arr
    extra = set(tensors) - set(arrays)
    if extra:
        raise WeightFormatError(f"{path}: unexpected tensor '{sorted(extra)[0]}'")
    return cfg, _assemble(cfg, arrays)
