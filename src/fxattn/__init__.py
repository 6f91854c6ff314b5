"""Bit-faithful emulator of a fixed-point streaming transformer.

Modules cover fixed-point arithmetic (:mod:`fxattn.fxp`, whose array
kernels are the package's only fixed-point implementation), the one
float/fixed op set and dense kernel every forward path shares
(:mod:`fxattn.layers`), table-based softmax (:mod:`fxattn.softmax`), the
four-stage streaming attention pipeline (:mod:`fxattn.attention`), the full
flavor-tagging model (:mod:`fxattn.model`), an FPGA resource/latency cost
model (:mod:`fxattn.costmodel`), and the benchmark harness
(:mod:`fxattn.data`, :mod:`fxattn.metrics`, :mod:`fxattn.sweeps`).
"""

from fxattn.fxp import FxFormat, Overflow, Rounding, parse_format

__all__ = ["FxFormat", "Overflow", "Rounding", "parse_format"]
__version__ = "0.1.0"
