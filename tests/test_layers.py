"""Op-set and dense-kernel tests for both number representations."""
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fxattn import fxp
from fxattn import layers
from fxattn.fxp import FxFormat
from fxattn.layers import Activation, DenseLayer
from fxoracle import oracle_quantize


def linear(m, v):
    """The dense kernel as a bare W v: no bias, no activation."""
    zero = np.zeros(m.shape[0])
    if isinstance(m, fxp.FxArray):
        zero = fxp.quantize_array(zero, m.fmt)
    return layers.dense_forward(DenseLayer(m, zero), v)


def test_matvec_identity():
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(layers.matmul(np.eye(3), v), v)
    assert np.array_equal(linear(np.eye(3), v), v)


def test_matvec_zero():
    assert np.array_equal(layers.matmul(np.zeros((2, 3)), np.ones(3)), np.zeros(2))
    assert np.array_equal(linear(np.zeros((2, 3)), np.ones(3)), np.zeros(2))


def test_matvec_dimension_mismatch():
    fmt = FxFormat(8, 8)
    with pytest.raises(ValueError):
        linear(np.ones((2, 3)), np.ones(4))
    with pytest.raises(ValueError):
        linear(fxp.quantize_array(np.ones((2, 3)), fmt),
               fxp.quantize_array(np.ones(4), fmt))


def test_matvec_fixed_matches_rational_oracle():
    fmt = FxFormat(8, 8)
    rng = np.random.default_rng(21)
    m = fxp.quantize_array(rng.normal(size=(3, 3)), fmt)
    # a batch of rows (..., in_dim): each row is one W v
    vs = fxp.quantize_array(rng.normal(size=(2, 4, 3)), fmt)
    out = linear(m, vs)
    assert out.shape == (2, 4, 3)
    for idx in np.ndindex(2, 4):
        v = vs[idx]
        for i in range(3):
            exact = sum(
                Fraction(int(m.raw[i, j]), 256) * Fraction(int(v.raw[j]), 256)
                for j in range(3)
            )
            # one rounding: scaled exact product rounded half-even onto the grid
            scaled = exact * 256
            lo = scaled.__floor__()
            frac = scaled - lo
            want = lo + (1 if (frac > Fraction(1, 2)
                               or (frac == Fraction(1, 2) and lo % 2)) else 0)
            want = min(max(want, fmt.raw_min), fmt.raw_max)
            assert int(out.raw[idx + (i,)]) == want


@given(st.floats(-4, 4), st.data())
def test_matvec_linearity_float(alpha, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(4, 5))
    v = rng.normal(size=5)
    lhs = linear(m, alpha * v)
    rhs = alpha * linear(m, v)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_fixed_matvec_exhaustive_small():
    # all 4x4 cases over a coarse 8-bit grid against the exact-rational oracle
    fmt = FxFormat(4, 4)
    rng = np.random.default_rng(22)
    for _ in range(50):
        m_raw = rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(4, 4))
        v_raw = rng.integers(fmt.raw_min, fmt.raw_max + 1, size=4)
        m = fxp.FxArray(m_raw.astype(np.int64), fmt)
        v = fxp.FxArray(v_raw.astype(np.int64), fmt)
        out = linear(m, v)
        for i in range(4):
            acc = int(sum(int(a) * int(b) for a, b in zip(m_raw[i], v_raw)))
            want = oracle_quantize(Fraction(acc, 1 << (2 * fmt.frac_bits)), fmt)
            assert int(out.raw[i]) == want


def test_dense_zero_weights_returns_bias():
    layer = DenseLayer(np.zeros((3, 4)), np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(layers.dense_forward(layer, np.ones(4)), layer.bias)


def test_dense_relu_clamps():
    layer = DenseLayer(np.eye(3), np.zeros(3), Activation.RELU)
    out = layers.dense_forward(layer, np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(out, [0.0, 0.0, 2.0])


def test_dense_identity_plus_bias():
    layer = DenseLayer(np.eye(3), np.array([0.5, 0.5, 0.5]))
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(layers.dense_forward(layer, v), v + 0.5)


def test_dense_cross_mode_agreement():
    fmt = FxFormat(16, 16)
    rng = np.random.default_rng(23)
    layer = DenseLayer(rng.normal(0, 0.4, size=(4, 8)), rng.normal(0, 0.2, size=4),
                       Activation.RELU)
    v = rng.normal(size=8)
    f_out = layers.dense_forward(layer, v)
    q_out = layers.dense_forward(layers.quantize_dense(layer, fmt),
                                 fxp.quantize_array(v, fmt))
    assert np.abs(q_out.to_float() - f_out).max() <= 1e-3


def test_dense_shape_validation():
    with pytest.raises(ValueError):
        DenseLayer(np.zeros((3, 4)), np.zeros(2))


def test_flatten_fixed():
    # the model flattens with reshape, which FxArray supports like ndarray
    fmt = FxFormat(8, 8)
    x = fxp.quantize_array(np.arange(6.0).reshape(2, 3) / 4, fmt)
    flat = x.reshape(-1)
    assert flat.shape == (6,) and flat.fmt == fmt
    assert np.array_equal(flat.raw, x.raw.reshape(-1))
    assert np.array_equal(x.reshape(1, -1).raw, [x.raw.reshape(-1)])
    t = x.swapaxes(-1, -2)
    assert t.shape == (3, 2) and t.fmt == fmt
    assert np.array_equal(t.raw, x.raw.T)


def test_fixed_softmax_needs_table_config():
    fmt = FxFormat(8, 8)
    layer = layers.quantize_dense(
        DenseLayer(np.eye(2), np.zeros(2), Activation.SOFTMAX), fmt)
    with pytest.raises(ValueError, match="SoftmaxConfig"):
        layers.dense_forward(layer, fxp.quantize_array(np.ones(2), fmt))


def test_number_mode_dispatch_lives_in_layers():
    # only layers.py (the op set) and fxp.py (the type itself) may test
    # whether a tensor is fixed-point; every other module calls the ops
    src = Path(layers.__file__).parent
    pattern = re.compile(r"isinstance\([^)]*\bFxArray\b")
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py")) if path.name not in ("layers.py", "fxp.py")
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []
