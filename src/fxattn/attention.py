"""Four-stage streaming multi-head attention with FIFO inter-stage channels.

Stage 1 projects each incoming row into every head's Q/K/V rows with one
product and pushes the per-head slices onto FIFO channels. Stage 2 preloads
the full K block into a register file, scores one Q row at a time against
it as ``q . k^T`` (the 1/sqrt(d_k) divisor is a precomputed fixed-point
multiplicative constant, never a runtime divide) and applies the table
softmax row-wise. Stage 3 buffers V into a dual-access register and forms
the score-weighted row combinations. Stage 4 concatenates the per-head rows
in head order and applies the output projection, one row in and one row out
per step.

Streaming is emulated functionally: stages run to completion in sequence,
each draining the bounded channels the previous one filled, and each first
checks that every input channel holds one row per token. Determinism and
bit-exactness are the point; simulated timing lives in the cost model.
``run_mha_reference`` runs the stages' helpers one row at a time in the
same evaluation order, without channels, so streaming and reference outputs
are equal bit for bit in both float and fixed modes (the pipeline's
defining correctness property). ``mha_forward_batch`` is the multi-sample
fast path used by the model; in fixed mode it too is bit-exact. All three
form Q/K/V through stage 1's joined product, over a row or a whole batch,
and share one score step and one output-projection step.

All three paths compute with the op set of :mod:`fxattn.layers`, which is
where float and fixed-point arithmetic part ways; nothing here tests the
number mode. An optional key mask (bool, one entry per row) gives masked
keys exactly zero attention weight in both modes.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Sequence

import numpy as np

from fxattn import fxp
from fxattn import layers as L
from fxattn.fxp import FxFormat
from fxattn.layers import Tensor
from fxattn.softmax import SoftmaxConfig


class ChannelError(RuntimeError):
    """FIFO misuse: overflow, underflow, or wrong row accounting."""


class StreamChannel:
    """Bounded FIFO of row vectors; every write and read is counted."""

    def __init__(self, capacity: int, name: str = "chan"):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._rows: deque = deque()
        self.writes = 0
        self.reads = 0

    def write(self, row) -> None:
        if len(self._rows) >= self.capacity:
            raise ChannelError(f"{self.name}: overflow past capacity {self.capacity}")
        self._rows.append(row)
        self.writes += 1

    def read(self):
        if not self._rows:
            raise ChannelError(f"{self.name}: read past written count")
        self.reads += 1
        return self._rows.popleft()

    @property
    def pending(self) -> int:
        return len(self._rows)

    def check_completed(self, expected: int) -> None:
        if self.writes != expected or self.reads != expected:
            raise ChannelError(
                f"{self.name}: expected {expected} writes/reads, "
                f"saw {self.writes}/{self.reads}"
            )


@dataclass(frozen=True)
class MhaConfig:
    """Attention geometry. d_k/d_v default to d_model // num_heads."""

    d_model: int
    num_heads: int
    seq_len: int
    d_k: int | None = None
    d_v: int | None = None

    def __post_init__(self) -> None:
        if self.d_model < 1 or self.num_heads < 1 or self.seq_len < 1:
            raise ValueError("d_model, num_heads and seq_len must be positive")
        if self.d_k is None:
            if self.d_model % self.num_heads:
                raise ValueError(
                    f"d_model {self.d_model} not divisible by {self.num_heads} heads; "
                    "pass d_k explicitly"
                )
            object.__setattr__(self, "d_k", self.d_model // self.num_heads)
        if self.d_v is None:
            object.__setattr__(self, "d_v", self.d_k)
        if self.d_k < 1 or self.d_v < 1:
            raise ValueError("d_k and d_v must be positive")

    @property
    def concat_dim(self) -> int:
        return self.num_heads * self.d_v


@dataclass
class MhaWeights:
    """Per-head projections plus the output projection; shapes in :func:`mha_shapes`."""

    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor

    def validate(self, cfg: MhaConfig) -> None:
        for name, shape in mha_shapes(cfg).items():
            got = tuple(getattr(self, name).shape)
            if got != shape:
                raise ValueError(f"{name}: expected shape {shape}, found {got}")


def mha_shapes(cfg: MhaConfig) -> dict[str, tuple[int, ...]]:
    """Each :class:`MhaWeights` field and its shape, in field order.

    The Q/K/V tensors carry a leading heads axis; the output projection
    maps the concatenated head rows back to d_model.
    """
    h = cfg.num_heads
    return {
        "w_q": (h, cfg.d_k, cfg.d_model), "b_q": (h, cfg.d_k),
        "w_k": (h, cfg.d_k, cfg.d_model), "b_k": (h, cfg.d_k),
        "w_v": (h, cfg.d_v, cfg.d_model), "b_v": (h, cfg.d_v),
        "w_o": (cfg.d_model, cfg.concat_dim), "b_o": (cfg.d_model,),
    }


def random_tensor(rng: np.random.Generator, shape: tuple[int, ...],
                  scale: float, bias: bool) -> np.ndarray:
    """An initial draw: N(0, 0.05) for a bias, N(0, scale/sqrt(fan-in)) for
    a weight, fan-in being its last axis."""
    std = 0.05 if bias else scale / math.sqrt(shape[-1])
    return rng.normal(0.0, std, size=shape)


def quantize_mha_weights(w: MhaWeights, fmt: FxFormat) -> MhaWeights:
    return MhaWeights(**{f.name: fxp.quantize_array(getattr(w, f.name), fmt)
                         for f in fields(w)})


def score_scale(cfg: MhaConfig, fmt: FxFormat | None):
    """1/sqrt(d_k) as a multiplicative constant, quantized in fixed mode."""
    inv = 1.0 / math.sqrt(cfg.d_k)
    return inv if fmt is None else fxp.quantize_array(inv, fmt)


def _check_inputs(cfg: MhaConfig, weights: MhaWeights, shape: tuple,
                  mask: np.ndarray | None) -> None:
    """Weights, per-sample input shape (seq_len, d_model) and key mask."""
    weights.validate(cfg)
    if tuple(shape) != (cfg.seq_len, cfg.d_model):
        raise ValueError(
            f"input shape {tuple(shape)} != ({cfg.seq_len}, {cfg.d_model})"
        )
    if mask is None:
        return
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool
            and mask.shape == (cfg.seq_len,)):
        raise ValueError(f"mask must be a bool vector of length {cfg.seq_len}")
    if not mask.any():
        raise ValueError("mask keeps no key")


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def _qkv(cfg: MhaConfig, weights: MhaWeights, x: Tensor) -> list:
    """Rows x (..., d_model) projected to q[0], k[0], v[0], q[1], ... by one
    product with every head's transposed projections side by side (the cost
    model's qkv_proj), then sliced per projection."""
    # (heads, d_model, d_k + d_k + d_v) joined, then heads side by side
    w_t = L.concat([w.swapaxes(-1, -2) for w in (weights.w_q, weights.w_k, weights.w_v)])
    w_t = w_t.swapaxes(0, 1).reshape(cfg.d_model, -1)
    y = L.add(L.matmul(x, w_t), L.concat([weights.b_q, weights.b_k, weights.b_v]).reshape(-1))
    edges = list(accumulate([cfg.d_k, cfg.d_k, cfg.d_v] * cfg.num_heads, initial=0))
    return [y[..., lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


def _scores(q: Tensor, k: Tensor, scale, softmax_cfg: SoftmaxConfig | None,
            mask: np.ndarray | None) -> Tensor:
    """Attention weights softmax((q . k^T) * c) of query rows q (..., d_k)
    over key rows k (..., seq_len, d_k)."""
    return L.softmax(L.mul(L.matmul(q, k.swapaxes(-1, -2)), scale), softmax_cfg, mask)


def _project_out(weights: MhaWeights, merged: Tensor) -> Tensor:
    """The output projection of concatenated head rows (..., concat_dim)."""
    return L.add(L.matmul(merged, weights.w_o.swapaxes(-1, -2)), weights.b_o)


def _expect_rows(cfg: MhaConfig, *chs: StreamChannel) -> None:
    """Every stage's entry rule: each input FIFO holds one row per token."""
    for ch in chs:
        if ch.pending != cfg.seq_len:
            raise ValueError(f"{ch.name}: {ch.pending} rows pending, expected {cfg.seq_len}")


def stage1_project(cfg: MhaConfig, weights: MhaWeights, in_ch: StreamChannel):
    """Project seq_len input rows into per-head Q/K/V streams, in input order."""
    _expect_rows(cfg, in_ch)
    chs = [StreamChannel(cfg.seq_len, f"{n}[{h}]") for h in range(cfg.num_heads) for n in "qkv"]
    for _ in range(cfg.seq_len):
        for ch, part in zip(chs, _qkv(cfg, weights, in_ch.read())):
            ch.write(part)
    return chs[0::3], chs[1::3], chs[2::3]


def stage2_scores(cfg: MhaConfig, softmax_cfg: SoftmaxConfig | None,
                  q_ch: StreamChannel, k_ch: StreamChannel,
                  scale, mask: np.ndarray | None = None) -> StreamChannel:
    """Score rows: softmax((q . k^T) * c) with K preloaded into a register block."""
    _expect_rows(cfg, q_ch, k_ch)
    # the whole K matrix is registered before any scoring starts
    k_block = L.stack([k_ch.read() for _ in range(cfg.seq_len)])
    out = StreamChannel(cfg.seq_len, "scores")
    for _ in range(cfg.seq_len):
        out.write(_scores(q_ch.read(), k_block, scale, softmax_cfg, mask))
    return out


def stage3_apply(cfg: MhaConfig, score_ch: StreamChannel,
                 v_ch: StreamChannel) -> StreamChannel:
    """out_t = sum_j score[t, j] * v_j with V buffered for dual (row/column) access."""
    _expect_rows(cfg, score_ch, v_ch)
    v_block = L.stack([v_ch.read() for _ in range(cfg.seq_len)])
    out = StreamChannel(cfg.seq_len, "head_out")
    for _ in range(cfg.seq_len):
        # column-wise reads of the V register: out[d] = sum_j s[j] * V[j, d]
        out.write(L.matmul(score_ch.read(), v_block))
    return out


def stage4_concat_project(cfg: MhaConfig, weights: MhaWeights,
                          head_chs: Sequence[StreamChannel]) -> StreamChannel:
    """Concatenate head rows in head order and project; one row at a time."""
    if len(head_chs) != cfg.num_heads:
        raise ValueError(f"expected {cfg.num_heads} head streams, got {len(head_chs)}")
    _expect_rows(cfg, *head_chs)
    out = StreamChannel(cfg.seq_len, "mha_out")
    for _ in range(cfg.seq_len):
        out.write(_project_out(weights, L.concat([ch.read() for ch in head_chs])))
    return out


def run_mha_streaming(cfg: MhaConfig, weights: MhaWeights,
                      softmax_cfg: SoftmaxConfig | None, x: Tensor,
                      mask: np.ndarray | None = None) -> Tensor:
    """Full pipeline: stage4 . stage3 . stage2 . stage1 over FIFO channels."""
    _check_inputs(cfg, weights, x.shape, mask)
    in_ch = StreamChannel(cfg.seq_len, "input")
    for t in range(cfg.seq_len):
        in_ch.write(x[t])

    q_chs, k_chs, v_chs = stage1_project(cfg, weights, in_ch)
    scale = score_scale(cfg, L.fmt_of(x))
    score_chs, head_chs = [], []
    for h in range(cfg.num_heads):
        s_ch = stage2_scores(cfg, softmax_cfg, q_chs[h], k_chs[h], scale, mask)
        score_chs.append(s_ch)
        head_chs.append(stage3_apply(cfg, s_ch, v_chs[h]))
    out_ch = stage4_concat_project(cfg, weights, head_chs)

    result = L.stack([out_ch.read() for _ in range(cfg.seq_len)])
    for ch in [in_ch, *q_chs, *k_chs, *v_chs, *score_chs, *head_chs, out_ch]:
        ch.check_completed(cfg.seq_len)
    return result


def run_mha_reference(cfg: MhaConfig, weights: MhaWeights,
                      softmax_cfg: SoftmaxConfig | None, x: Tensor,
                      mask: np.ndarray | None = None) -> Tensor:
    """The pipeline without channels: softmax(Q K^T * c) V per head, concat,
    project, through the stages' helpers one row at a time in their
    evaluation order, so results are bit-exact equal in every number mode."""
    _check_inputs(cfg, weights, x.shape, mask)
    projected = [_qkv(cfg, weights, x[t]) for t in range(cfg.seq_len)]
    scale = score_scale(cfg, L.fmt_of(x))
    head_blocks = []
    for h in range(cfg.num_heads):
        # stacked from the row slices, so contiguous like the streaming stages' blocks
        q, k, v = (L.stack([parts[3 * h + i] for parts in projected]) for i in range(3))
        probs = [_scores(q[t], k, scale, softmax_cfg, mask) for t in range(cfg.seq_len)]
        head_blocks.append(L.stack([L.matmul(p, v) for p in probs]))
    return L.stack([_project_out(weights, L.concat([blk[t] for blk in head_blocks]))
                    for t in range(cfg.seq_len)])


# ---------------------------------------------------------------------------
# batched fast path (used by the model for dataset-scale inference)
# ---------------------------------------------------------------------------

def mha_forward_batch(cfg: MhaConfig, weights: MhaWeights,
                      softmax_cfg: SoftmaxConfig | None, x: Tensor,
                      mask: np.ndarray | None = None) -> Tensor:
    """Attention over a batch (n, seq_len, d_model); bit-exact to the
    reference in fixed mode (integer accumulation is order-free)."""
    if x.ndim != 3:
        raise ValueError(
            f"batch shape {tuple(x.shape)} != (n, {cfg.seq_len}, {cfg.d_model})"
        )
    _check_inputs(cfg, weights, x.shape[1:], mask)
    scale = score_scale(cfg, L.fmt_of(x))
    qkv = _qkv(cfg, weights, x)
    heads = []
    for h in range(cfg.num_heads):
        q, k, v = qkv[3 * h:3 * h + 3]
        heads.append(L.matmul(_scores(q, k, scale, softmax_cfg, mask), v))
    return _project_out(weights, L.concat(heads))
