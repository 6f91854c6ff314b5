"""Analytic FPGA resource and latency estimates parameterized by reuse factor.

One table lists every hardware layer once, in pipeline order, with its
multipliers and storage: every dense layer instantiates in*out
multipliers; attention contributes its projection, score, score-apply and
output-projection multiplies per head, and stores each stage's channel and
its softmax tables. A reuse factor rf time-multiplexes each layer's
multipliers, so instantiated DSPs are ceil(multipliers / rf) per layer.
Report totals and utilization are sums over that table.

Latency is affine in rf: a fixed pipeline depth plus one initiation
interval per rf step. The published synthesis numbers for this network
(2.077 us at rf=1, II 49 cycles / 322.42 ns on a 6.58 ns clock) are not
proportional across rf = 1/2/4, so the shipped calibration is fit to the
rf=1 point exactly and the rf=2/4 points are validation only. Calibration
math runs on exact rationals so the rf=1 report reproduces the published
figures to the last digit. It holds for the benchmark geometry only, so
latency is refused for any other ModelConfig.

LUT/FF coefficients are first-order placeholders, and every resource
report flags them "uncalibrated".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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
RESOURCES = ("dsp", "lut", "ff", "bram")


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    dsp_total: int
    lut_total: int
    ff_total: int
    bram_total: int
    clock_ns: float

    def __post_init__(self) -> None:
        if type(self.name) is not str:
            raise ValueError(f"device field 'name' must be a string, found {self.name!r}")
        for f in RESOURCES:
            v = getattr(self, f"{f}_total")
            if type(v) is not int or v < 1:
                raise ValueError(f"device field '{f}_total' must be an integer >= 1, "
                                 f"found {v!r}")
        c = self.clock_ns
        if type(c) not in (int, float) or not math.isfinite(c) or c <= 0:
            raise ValueError(f"device field 'clock_ns' must be a finite number > 0, "
                             f"found {c!r}")


def vu13p() -> DeviceProfile:
    # Xilinx UltraScale+ VU13P (xcvu13p-fhga2104-2L-e)
    return DeviceProfile(name="vu13p", dsp_total=12288, lut_total=1_728_000,
                         ff_total=3_456_000, bram_total=2688,
                         clock_ns=PUBLISHED_CLOCK_NS)


def load_device(path) -> DeviceProfile:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: unparseable device profile: {exc}") from None
    if not isinstance(d, dict):
        raise ValueError(f"{path}: device profile must be a map of fields")
    try:
        return DeviceProfile(**{f.name: d[f.name] for f in fields(DeviceProfile)})
    except KeyError as exc:
        raise ValueError(f"{path}: device profile missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def device_by_name(name: str) -> DeviceProfile:
    if name == "vu13p":
        return vu13p()
    if name.startswith("custom:"):
        return load_device(name.split(":", 1)[1])
    raise ValueError(f"unknown device {name!r} (use vu13p or custom:<file>)")


# ---------------------------------------------------------------------------
# resources
# ---------------------------------------------------------------------------

def _layers(cfg: ModelConfig, width_bits: int) -> list[tuple[str, int, int]]:
    """Every hardware layer in pipeline order: (name, multipliers, storage bits).

    Multipliers are counted once; tokens reuse them. Storage is the channel
    after each attention stage, seq_len rows of width_bits words, plus one
    exp/inv table pair per softmax: one per head at the scores, one at the
    output layer.
    """
    m = cfg.encoder.mha
    s, h = m.seq_len, m.num_heads
    ff = cfg.encoder.ff_hidden
    tables = 2 * cfg.softmax_table_size * width_bits
    out = []
    for i in range(cfg.num_encoder_blocks):
        qkv = h * (2 * m.d_k + m.d_v)
        out += [
            (f"block{i}.mha.qkv_proj", m.d_model * qkv, s * qkv * width_bits),
            (f"block{i}.mha.scores", h * m.d_k * s, s * h * s * width_bits + h * tables),
            (f"block{i}.mha.apply", h * s * m.d_v, s * h * m.d_v * width_bits),
            (f"block{i}.mha.out_proj", h * m.d_v * m.d_model, s * m.d_model * width_bits),
            (f"block{i}.ff1", m.d_model * ff, 0),
            (f"block{i}.ff2", ff * m.d_model, 0),
        ]
    width = cfg.flatten_dim
    for j, hdim in enumerate(cfg.head_dims, start=1):
        out.append((f"head{j}", width * hdim, 0))
        width = hdim
    out.append(("output", width * cfg.num_classes, tables))
    return out


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
    device: DeviceProfile
    reuse_factor: int
    fmt: FxFormat

    @property
    def totals(self) -> dict[str, int]:
        return {r: sum(getattr(l, r) for l in self.layers) for r in RESOURCES}

    @property
    def utilization(self) -> dict[str, float]:
        return {r: t / getattr(self.device, f"{r}_total") for r, t in self.totals.items()}

    @property
    def over_subscribed(self) -> tuple[str, ...]:
        return tuple(r for r, u in self.utilization.items() if u > 1.0)

    def to_csv_rows(self) -> list[list]:
        rows = [["layer", "mults", "dsp", "lut", "ff", "bram"]]
        for l in self.layers:
            rows.append([l.name, l.multipliers, l.dsp, l.lut, l.ff, l.bram])
        rows.append(["total", sum(l.multipliers for l in self.layers),
                     *self.totals.values()])
        return rows

    def summary(self) -> str:
        totals, use, over = self.totals, self.utilization, self.over_subscribed
        lines = [f"resources for rf={self.reuse_factor}, {self.fmt.spec()} "
                 f"on {self.device.name} (LUT/FF coefficients uncalibrated)"]
        for r in RESOURCES:
            lines.append(f"  {r.upper():<4} {totals[r]:>9} / "
                         f"{getattr(self.device, f'{r}_total'):<9} ({use[r]:.1%})")
        if over:
            lines[1] += f"  OVER-SUBSCRIBED: {', '.join(over)}"
        return "\n".join(lines)


def estimate_resources(cfg: ModelConfig, fmt: FxFormat, rf: int,
                       dev: DeviceProfile) -> ResourceReport:
    if rf < 1:
        raise ValueError("reuse factor must be >= 1")
    bits = fmt.total_bits
    layers = []
    for name, mults, storage in _layers(cfg, bits):
        dsp = math.ceil(mults / rf)
        layers.append(LayerResource(name, mults, dsp,
                                    lut=round(dsp * LUT_PER_MULT_BIT * bits),
                                    ff=round(dsp * FF_PER_MULT_BIT * bits),
                                    bram=math.ceil(storage / BRAM_BLOCK_BITS)))
    return ResourceReport(tuple(layers), dev, rf, fmt)


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

    The calibration encodes the benchmark network, so any other geometry is
    refused rather than given the benchmark's figures.
    """
    if cfg != ModelConfig():
        raise ValueError("latency is calibrated for the benchmark geometry "
                         "ModelConfig() only")
    if rf < 1:
        raise ValueError("reuse factor must be >= 1")
    clock = Fraction(str(dev.clock_ns))
    ii_cycles = PUBLISHED_II_CYCLES * rf
    ii_ns = float(ii_cycles * clock)
    cycles = FIXED_DEPTH_CYCLES + ii_cycles
    latency_us = float(cycles * clock / 1000)
    return LatencyReport(latency_cycles=float(cycles), latency_us=latency_us,
                         ii_cycles=ii_cycles, ii_ns=ii_ns, reuse_factor=rf)
