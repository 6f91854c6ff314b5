"""Seeded weight draws and softmax tables shared by the attention, model,
fixed-point and acceptance tests, and the data the network oracle takes."""
from dataclasses import fields

import numpy as np

from fxattn import attention as att
from fxattn import softmax as sm
from fxattn.fxp import FxFormat
from fxattn.model import ModelConfig
from fxoracle import NetworkOracle


def draw_mha_weights(cfg: att.MhaConfig, rng: np.random.Generator,
                       scale: float = 1.0) -> att.MhaWeights:
    """One attention layer's tensors, drawn in ``mha_shapes`` order."""
    return att.MhaWeights(**{
        name: att.random_tensor(rng, shape, scale, bias=name.startswith("b"))
        for name, shape in att.mha_shapes(cfg).items()})


def draw_mha_config(rng: np.random.Generator) -> att.MhaConfig:
    """A small attention geometry: d_model 1-5, 1-3 heads, seq_len 1-6, d_k and d_v 1-4."""
    return att.MhaConfig(d_model=int(rng.integers(1, 6)), num_heads=int(rng.integers(1, 4)),
                         seq_len=int(rng.integers(1, 7)), d_k=int(rng.integers(1, 5)),
                         d_v=int(rng.integers(1, 5)))


def draw_format(rng: np.random.Generator, overflow, rounding) -> FxFormat:
    """A format of 4 to 64 bits, with 1 to 16 integer bits."""
    total = int(rng.integers(4, 65))
    int_bits = int(rng.integers(1, min(total, 16) + 1))
    return FxFormat(int_bits, total - int_bits, overflow, rounding)


def softmax_tables(fmt, n_max) -> sm.SoftmaxConfig:
    """Softmax tables of the model's default size and exp range."""
    cfg = ModelConfig()
    return sm.make_softmax_config(fmt, n_max=n_max, table_size=cfg.softmax_table_size,
                                  exp_lo=cfg.softmax_exp_lo)


def table_data(scfg: sm.SoftmaxConfig | None):
    """The (exp, reciprocal) tables as the oracle takes them: (lo, hi, entry raws)."""
    if scfg is None:
        return None
    return tuple((t.lo, t.hi, t.entries_raw.tolist()) for t in (scfg.exp_table, scfg.inv_table))


def oracle_attention(fmt, x, w: att.MhaWeights, scfg=None, mask=None) -> list:
    """The oracle's attention rows for float rows x and float weights w,
    both quantized by the oracle: raws in fixed mode, Fractions in float."""
    orc = NetworkOracle(fmt)
    return orc.attention(orc.values(x), {f.name: orc.values(getattr(w, f.name))
                                         for f in fields(w)}, table_data(scfg), mask)
