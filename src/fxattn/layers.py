"""The one op set every forward path uses, over float64 or fixed-point tensors.

Float tensors are plain ``np.ndarray`` (float64), fixed-point tensors are
:class:`fxp.FxArray`. Each op here tests which one it was given and runs
numpy or the matching :mod:`fxattn.fxp` kernel, so this is the only module
that knows how an operation runs in each number mode; the attention paths
and the model call these ops and never test the mode themselves. Data
movement (indexing, ``reshape``, ``swapaxes``) needs no op: both tensor
types support it.

Fixed-mode dot products accumulate exactly and round once per output element
(see :func:`fxp.fx_matmul`); the bias is then added as an exact raw addition
with overflow handling.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fxattn import fxp
from fxattn.fxp import FxArray
from fxattn.softmax import SoftmaxConfig, softmax_exact, softmax_lut

Tensor = np.ndarray | FxArray


class Activation(enum.Enum):
    NONE = "none"
    RELU = "relu"
    SOFTMAX = "softmax"


@dataclass
class DenseLayer:
    """Fully connected layer: ``weights`` is (out, in), ``bias`` is (out,)."""

    weights: Tensor
    bias: Tensor
    activation: Activation = Activation.NONE

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-D and bias 1-D")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} != output rows {self.weights.shape[0]}"
            )


# score a masked-out key receives before the float softmax; exp of it is 0
_FLOAT_MASK_SCORE = -1e30


def fmt_of(x: Tensor) -> fxp.FxFormat | None:
    """The fixed-point format of ``x``, or None for a float tensor."""
    return x.fmt if isinstance(x, FxArray) else None


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``; in fixed mode each element is one exact dot product rounded once."""
    if isinstance(a, FxArray):
        return fxp.fx_matmul(a, b)
    return a @ b


def add(a: Tensor, b: Tensor) -> Tensor:
    if isinstance(a, FxArray):
        return fxp.fx_add_array(a, b)
    return a + b


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting."""
    if isinstance(a, FxArray):
        return fxp.fx_mul_array(a, b)
    return a * b


def relu(x: Tensor) -> Tensor:
    if isinstance(x, FxArray):
        return fxp.fx_relu(x)
    return np.maximum(x, 0.0)


def softmax(x: Tensor, cfg: SoftmaxConfig | None,
            keep: np.ndarray | None = None) -> Tensor:
    """Softmax along the last axis: table-based in fixed mode, exact in float.

    ``keep`` (bool, one entry per key) masks keys out: a masked key gets
    weight exactly 0 in both modes.
    """
    if isinstance(x, FxArray):
        if cfg is None:
            raise ValueError("fixed-mode softmax requires a SoftmaxConfig")
        return softmax_lut(cfg, x, keep)
    if keep is not None:
        x = np.where(keep, x, _FLOAT_MASK_SCORE)
    return softmax_exact(x)


def stack(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new first axis."""
    if isinstance(rows[0], FxArray):
        return FxArray(np.stack([r.raw for r in rows]), rows[0].fmt)
    return np.stack(rows)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along the last axis."""
    if isinstance(parts[0], FxArray):
        return FxArray(np.concatenate([p.raw for p in parts], axis=-1), parts[0].fmt)
    return np.concatenate(parts, axis=-1)


def dense_forward(layer: DenseLayer, x: Tensor,
                  softmax_cfg: SoftmaxConfig | None = None) -> Tensor:
    """activation(x @ W^T + b) over rows of shape (..., in_dim).

    Softmax needs a table config in fixed mode.
    """
    pre = add(matmul(x, layer.weights.swapaxes(-1, -2)), layer.bias)
    if layer.activation is Activation.RELU:
        return relu(pre)
    if layer.activation is Activation.SOFTMAX:
        return softmax(pre, softmax_cfg)
    return pre


def quantize_dense(layer: DenseLayer, fmt: fxp.FxFormat) -> DenseLayer:
    """Quantize a float layer's parameters once for a given format."""
    return DenseLayer(
        weights=fxp.quantize_array(layer.weights, fmt),
        bias=fxp.quantize_array(layer.bias, fmt),
        activation=layer.activation,
    )
