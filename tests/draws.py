"""Seeded weight draws and softmax tables shared by the attention, model,
fixed-point and acceptance tests."""
import numpy as np

from fxattn import attention as att
from fxattn import softmax as sm
from fxattn.model import ModelConfig


def draw_mha_weights(cfg: att.MhaConfig, rng: np.random.Generator,
                       scale: float = 1.0) -> att.MhaWeights:
    """One attention layer's tensors, drawn in ``mha_shapes`` order."""
    return att.MhaWeights(**{
        name: att.random_tensor(rng, shape, scale, bias=name.startswith("b"))
        for name, shape in att.mha_shapes(cfg).items()})


def softmax_tables(fmt, n_max) -> sm.SoftmaxConfig:
    """Softmax tables of the model's default size and exp range."""
    cfg = ModelConfig()
    return sm.make_softmax_config(fmt, n_max=n_max, table_size=cfg.softmax_table_size,
                                  exp_lo=cfg.softmax_exp_lo)
