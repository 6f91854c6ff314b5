"""Analytic FPGA resource and latency estimates parameterized by reuse factor.

Multiplier accounting follows the hardware mapping: every dense layer
instantiates in*out multipliers; attention contributes its projection,
score, score-apply and output-projection multiplies per head. A reuse
factor rf time-multiplexes each layer's multipliers, so instantiated DSPs
are ceil(multipliers / rf) per layer.

Latency is affine in rf: a fixed pipeline depth plus one initiation
interval per rf step. The published synthesis numbers for this network
(2.077 us at rf=1, II 49 cycles / 322.42 ns on a 6.58 ns clock) are not
proportional across rf = 1/2/4, so the shipped calibration is fit to the
rf=1 point exactly and the rf=2/4 points are validation only. Calibration
math runs on exact rationals so the rf=1 report reproduces the published
figures to the last digit.

LUT/FF coefficients are first-order placeholders, and every resource
report flags them "uncalibrated".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from fxattn.fxp import FxFormat
from fxattn.model import ModelConfig

# Published synthesis results for the benchmark network (validation targets).
PUBLISHED_LATENCY_US = {1: 2.077, 2: 3.467, 4: 5.853}
PUBLISHED_II_CYCLES = 49
PUBLISHED_CLOCK_NS = 6.58

# Latency calibration in exact rationals: each rf step adds one published II
# of depth, and the fixed depth lands rf=1 on the stock clock on the
# published 2.077 us figure: 2077 ns / (329/50 ns) - 49 cycles = 87729/329.
FIXED_DEPTH_CYCLES = Fraction(87729, 329)
# uncalibrated placeholder area coefficients (per instantiated multiplier per
# operand bit)
LUT_PER_MULT_BIT = 12.0
FF_PER_MULT_BIT = 8.0
BRAM_BLOCK_BITS = 36864  # one 36 kbit block


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    dsp_total: int
    lut_total: int
    ff_total: int
    bram_total: int
    clock_ns: float

    def __post_init__(self) -> None:
        for f in ("dsp_total", "lut_total", "ff_total", "bram_total", "clock_ns"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")


def vu13p() -> DeviceProfile:
    # Xilinx UltraScale+ VU13P (xcvu13p-fhga2104-2L-e)
    return DeviceProfile(name="vu13p", dsp_total=12288, lut_total=1_728_000,
                         ff_total=3_456_000, bram_total=2688,
                         clock_ns=PUBLISHED_CLOCK_NS)


def load_device(path) -> DeviceProfile:
    with open(path) as fh:
        d = json.load(fh)
    try:
        return DeviceProfile(name=d["name"], dsp_total=d["dsp_total"],
                             lut_total=d["lut_total"], ff_total=d["ff_total"],
                             bram_total=d["bram_total"], clock_ns=d["clock_ns"])
    except KeyError as exc:
        raise ValueError(f"{path}: device profile missing field {exc}") from None


def device_by_name(name: str) -> DeviceProfile:
    if name == "vu13p":
        return vu13p()
    if name.startswith("custom:"):
        return load_device(name.split(":", 1)[1])
    raise ValueError(f"unknown device {name!r} (use vu13p or custom:<file>)")


# ---------------------------------------------------------------------------
# multiplier accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerMultipliers:
    name: str
    multipliers: int


def count_multipliers(cfg: ModelConfig) -> list[LayerMultipliers]:
    """Hardware multipliers per layer (counted once; tokens reuse them)."""
    m = cfg.encoder.mha
    ff0, ff1 = cfg.encoder.ff_dims
    out: list[LayerMultipliers] = []
    for i in range(cfg.num_encoder_blocks):
        out += [
            LayerMultipliers(f"block{i}.mha.qkv_proj",
                             m.num_heads * m.d_model * (2 * m.d_k + m.d_v)),
            LayerMultipliers(f"block{i}.mha.scores", m.num_heads * m.d_k * m.seq_len),
            LayerMultipliers(f"block{i}.mha.apply", m.num_heads * m.seq_len * m.d_v),
            LayerMultipliers(f"block{i}.mha.out_proj", m.num_heads * m.d_v * m.d_model),
            LayerMultipliers(f"block{i}.ff1", m.d_model * ff0),
            LayerMultipliers(f"block{i}.ff2", ff0 * ff1),
        ]
    width = cfg.flatten_dim
    for j, hdim in enumerate(cfg.head_dims, start=1):
        out.append(LayerMultipliers(f"head{j}", width * hdim))
        width = hdim
    out.append(LayerMultipliers("output", width * cfg.num_classes))
    return out


# ---------------------------------------------------------------------------
# resources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerResource:
    name: str
    multipliers: int
    dsp: int
    lut: int
    ff: int
    bram: int


@dataclass(frozen=True)
class ResourceReport:
    layers: tuple[LayerResource, ...]
    dsp: int
    lut: int
    ff: int
    bram: int
    utilization: dict
    over_subscribed: tuple[str, ...]
    device: DeviceProfile
    reuse_factor: int
    fmt: FxFormat

    def to_csv_rows(self) -> list[list]:
        rows = [["layer", "mults", "dsp", "lut", "ff", "bram"]]
        for l in self.layers:
            rows.append([l.name, l.multipliers, l.dsp, l.lut, l.ff, l.bram])
        rows.append(["total", sum(l.multipliers for l in self.layers),
                     self.dsp, self.lut, self.ff, self.bram])
        return rows

    def summary(self) -> str:
        flags = "" if not self.over_subscribed else \
            f"  OVER-SUBSCRIBED: {', '.join(self.over_subscribed)}"
        lines = [
            f"resources for rf={self.reuse_factor}, {self.fmt.spec()} "
            f"on {self.device.name} (LUT/FF coefficients uncalibrated)",
            f"  DSP  {self.dsp:>9} / {self.device.dsp_total:<9} "
            f"({self.utilization['dsp']:.1%}){flags}",
            f"  LUT  {self.lut:>9} / {self.device.lut_total:<9} "
            f"({self.utilization['lut']:.1%})",
            f"  FF   {self.ff:>9} / {self.device.ff_total:<9} "
            f"({self.utilization['ff']:.1%})",
            f"  BRAM {self.bram:>9} / {self.device.bram_total:<9} "
            f"({self.utilization['bram']:.1%})",
        ]
        return "\n".join(lines)


def _fifo_bits(cfg: ModelConfig, width_bits: int) -> dict[str, int]:
    """Channel storage per attention stage: seq_len rows each."""
    m = cfg.encoder.mha
    s = m.seq_len
    return {
        "qkv_proj": s * m.num_heads * (2 * m.d_k + m.d_v) * width_bits,
        "scores": s * m.num_heads * s * width_bits,
        "apply": s * m.num_heads * m.d_v * width_bits,
        "out_proj": s * m.d_model * width_bits,
    }


def estimate_resources(cfg: ModelConfig, fmt: FxFormat, rf: int,
                       dev: DeviceProfile) -> ResourceReport:
    if rf < 1:
        raise ValueError("reuse factor must be >= 1")
    bits = fmt.total_bits
    table_bits = 2 * cfg.softmax_table_size * bits  # exp + inv per softmax
    fifo = _fifo_bits(cfg, bits)

    def bram_of(storage_bits: int) -> int:
        return math.ceil(storage_bits / BRAM_BLOCK_BITS) if storage_bits else 0

    layers = []
    for lm in count_multipliers(cfg):
        dsp = math.ceil(lm.multipliers / rf)
        lut = round(dsp * LUT_PER_MULT_BIT * bits)
        ff = round(dsp * FF_PER_MULT_BIT * bits)
        storage = 0
        stage = lm.name.split(".")[-1]
        if ".mha." in lm.name:
            storage += fifo[stage]
            if stage == "scores":
                # one exp/inv table pair per head
                storage += cfg.encoder.mha.num_heads * table_bits
        elif lm.name == "output":
            storage += table_bits
        layers.append(LayerResource(lm.name, lm.multipliers, dsp, lut, ff,
                                    bram_of(storage)))

    dsp = sum(l.dsp for l in layers)
    lut = sum(l.lut for l in layers)
    ff = sum(l.ff for l in layers)
    bram = sum(l.bram for l in layers)
    utilization = {
        "dsp": dsp / dev.dsp_total,
        "lut": lut / dev.lut_total,
        "ff": ff / dev.ff_total,
        "bram": bram / dev.bram_total,
    }
    over = tuple(k for k, v in utilization.items() if v > 1.0)
    return ResourceReport(layers=tuple(layers), dsp=dsp, lut=lut, ff=ff, bram=bram,
                          utilization=utilization, over_subscribed=over,
                          device=dev, reuse_factor=rf, fmt=fmt)


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyReport:
    latency_cycles: float  # fractional: the affine fit does not land on
    latency_us: float      # integer cycles for the published rf=1 figure
    ii_cycles: int
    ii_ns: float
    reuse_factor: int


def estimate_latency(cfg: ModelConfig, rf: int, dev: DeviceProfile) -> LatencyReport:
    """ii = published_ii * rf; latency_cycles = fixed_depth + published_ii * rf.

    The calibration encodes the benchmark network, so cfg only rides along
    for signature symmetry with estimate_resources.
    """
    del cfg
    if rf < 1:
        raise ValueError("reuse factor must be >= 1")
    clock = Fraction(str(dev.clock_ns))
    ii_cycles = PUBLISHED_II_CYCLES * rf
    ii_ns = float(ii_cycles * clock)
    cycles = FIXED_DEPTH_CYCLES + ii_cycles
    latency_us = float(cycles * clock / 1000)
    return LatencyReport(latency_cycles=float(cycles), latency_us=latency_us,
                         ii_cycles=ii_cycles, ii_ns=ii_ns, reuse_factor=rf)
