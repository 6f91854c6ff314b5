"""Resource/latency estimator: exact identities and monotonicity."""
import dataclasses
import math

import pytest

from fxattn import costmodel as cm
from fxattn.fxp import FxFormat, parse_format
from fxattn.model import ModelConfig

CFG = ModelConfig()
DEV = cm.vu13p()
FMT = parse_format("fixed<20,10>")

# frozen by enumerating every layer of the default geometry
TOTAL_MULTIPLIERS = 4804


def test_count_multipliers_dense_layers():
    by_name = {l.name: l.multipliers
               for l in cm.estimate_resources(CFG, FMT, 1, DEV).layers}
    assert by_name["block0.ff1"] == 6 * 8
    assert by_name["head1"] == 90 * 32
    assert by_name["output"] == 8 * 3


def test_count_multipliers_attention_stages():
    by_name = {l.name: l.multipliers
               for l in cm.estimate_resources(CFG, FMT, 1, DEV).layers}
    assert by_name["block0.mha.qkv_proj"] == 2 * 6 * (2 * 3 + 3)
    assert by_name["block0.mha.scores"] == 2 * 3 * 15
    assert by_name["block0.mha.apply"] == 2 * 15 * 3
    assert by_name["block0.mha.out_proj"] == 2 * 3 * 6


def test_total_multipliers_frozen_fixture():
    layers = cm.estimate_resources(CFG, FMT, 1, DEV).layers
    assert sum(l.multipliers for l in layers) == TOTAL_MULTIPLIERS


def test_dsp_at_rf1_equals_multipliers():
    rep = cm.estimate_resources(CFG, FMT, 1, DEV)
    assert rep.totals["dsp"] == TOTAL_MULTIPLIERS
    for layer in rep.layers:
        assert layer.dsp == layer.multipliers


def test_dsp_monotone_nonincreasing_in_rf():
    reports = [cm.estimate_resources(CFG, FMT, rf, DEV) for rf in (1, 2, 4, 8)]
    for a, b in zip(reports, reports[1:]):
        assert b.totals["dsp"] <= a.totals["dsp"]
        for la, lb in zip(a.layers, b.layers):
            assert lb.dsp <= la.dsp


def test_dsp_ceiling_division():
    rep = cm.estimate_resources(CFG, FMT, 7, DEV)
    for layer in rep.layers:
        assert layer.dsp == math.ceil(layer.multipliers / 7)


def test_default_model_fits_vu13p_dsp():
    for rf in (1, 2, 4):
        rep = cm.estimate_resources(CFG, FxFormat(10, 10), rf, DEV)
        assert rep.totals["dsp"] <= DEV.dsp_total
        assert "dsp" not in rep.over_subscribed


def test_over_subscription_flagged_not_fatal():
    tiny = cm.DeviceProfile(name="tiny", dsp_total=10, lut_total=100, ff_total=100,
                            bram_total=1, clock_ns=5.0)
    rep = cm.estimate_resources(CFG, FMT, 1, tiny)
    assert "dsp" in rep.over_subscribed
    assert rep.utilization["dsp"] > 1.0


def test_totals_are_layer_sums():
    rep = cm.estimate_resources(CFG, FMT, 2, DEV)
    assert rep.totals["dsp"] == sum(l.dsp for l in rep.layers)
    assert rep.totals["lut"] == sum(l.lut for l in rep.layers)
    assert rep.totals["bram"] == sum(l.bram for l in rep.layers)


def test_csv_rows_shape():
    rep = cm.estimate_resources(CFG, FMT, 1, DEV)
    rows = rep.to_csv_rows()
    assert rows[0] == ["layer", "mults", "dsp", "lut", "ff", "bram"]
    assert rows[-1][0] == "total"
    assert len(rows) == len(rep.layers) + 2


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------

def test_rf1_reproduces_published_numbers():
    rep = cm.estimate_latency(CFG, 1, DEV)
    assert rep.ii_cycles == 49
    assert rep.ii_ns == 322.42
    assert rep.latency_us == 2.077


def test_latency_exact_identity():
    for rf in (1, 2, 3, 4, 8):
        rep = cm.estimate_latency(CFG, rf, DEV)
        assert rep.latency_us * 1000 == pytest.approx(
            rep.latency_cycles * DEV.clock_ns, abs=1e-9)
        assert rep.ii_ns == pytest.approx(rep.ii_cycles * DEV.clock_ns, abs=1e-9)


def test_ii_scales_linearly():
    r1 = cm.estimate_latency(CFG, 1, DEV)
    r4 = cm.estimate_latency(CFG, 4, DEV)
    assert r4.ii_cycles == 4 * r1.ii_cycles


def test_latency_strictly_increasing():
    lats = [cm.estimate_latency(CFG, rf, DEV).latency_us for rf in (1, 2, 4, 8)]
    assert all(b > a for a, b in zip(lats, lats[1:]))


def test_validation_against_published_within_half():
    for rf in (2, 4):
        rep = cm.estimate_latency(CFG, rf, DEV)
        ref = cm.PUBLISHED_LATENCY_US[rf]
        assert abs(rep.latency_us - ref) / ref <= 0.5


def test_latency_refused_off_the_calibrated_geometry():
    other = dataclasses.replace(CFG, head_dims=(16,))
    with pytest.raises(ValueError, match="calibrated"):
        cm.estimate_latency(other, 1, DEV)
    # resources follow the geometry and stay available
    rep = cm.estimate_resources(other, FMT, 1, DEV)
    assert rep.totals["dsp"] < TOTAL_MULTIPLIERS


def test_reuse_factor_validation():
    with pytest.raises(ValueError):
        cm.estimate_latency(CFG, 0, DEV)
    with pytest.raises(ValueError):
        cm.estimate_resources(CFG, FMT, -1, DEV)


def test_device_profiles():
    assert cm.device_by_name("vu13p").dsp_total == 12288
    with pytest.raises(ValueError):
        cm.device_by_name("zynq")
    with pytest.raises(ValueError):
        cm.DeviceProfile(name="bad", dsp_total=0, lut_total=1, ff_total=1,
                         bram_total=1, clock_ns=1.0)


def test_custom_device_file(tmp_path):
    import json
    path = tmp_path / "dev.json"
    path.write_text(json.dumps({"name": "toy", "dsp_total": 100, "lut_total": 1000,
                                "ff_total": 1000, "bram_total": 10, "clock_ns": 4.0}))
    dev = cm.device_by_name(f"custom:{path}")
    assert dev.name == "toy" and dev.clock_ns == 4.0
