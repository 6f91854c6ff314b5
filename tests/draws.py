"""Seeded weight draws shared by the attention, model and acceptance tests."""
import numpy as np

from fxattn import attention as att


def draw_mha_weights(cfg: att.MhaConfig, rng: np.random.Generator,
                       scale: float = 1.0) -> att.MhaWeights:
    """One attention layer's tensors, drawn in ``mha_shapes`` order."""
    return att.MhaWeights(**{
        name: att.random_tensor(rng, shape, scale, bias=name.startswith("b"))
        for name, shape in att.mha_shapes(cfg).items()})
