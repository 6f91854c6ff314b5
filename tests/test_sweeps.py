"""Sweep determinism and CSV emission."""
import numpy as np
import pytest

from fxattn import costmodel as cm
from fxattn import data, model, sweeps
from fxattn.data import Dataset
from fxattn.fxp import parse_format


@pytest.fixture(scope="module")
def setup():
    cfg = model.ModelConfig()
    w = model.make_analytic_weights(cfg)
    ds = data.generate_synthetic(600, seed=77)
    return cfg, w, ds


def test_precision_sweep_columns_and_rows(setup):
    cfg, w, ds = setup
    res = sweeps.sweep_precision(cfg, w, ds, [10], [4, 10])
    assert list(res.columns) == sweeps.PRECISION_CSV_HEADER
    assert len(res.rows) == 2
    assert res.column("frac_bits") == [4, 10]
    for ratio in res.column("auc_ratio"):
        assert 0.0 < ratio < 1.2


def test_precision_sweep_deterministic(setup):
    cfg, w, ds = setup
    a = sweeps.sweep_precision(cfg, w, ds, [8], [6])
    b = sweeps.sweep_precision(cfg, w, ds, [8], [6])
    assert a == b


def test_precision_sweep_parallel_matches_serial(setup):
    cfg, w, ds = setup
    serial = sweeps.sweep_precision(cfg, w, ds, [8, 10], [4, 8])
    parallel = sweeps.sweep_precision(cfg, w, ds, [8, 10], [4, 8], jobs=2)
    assert serial == parallel


def test_precision_sweep_requires_all_classes(setup):
    cfg, w, ds = setup
    b = ds.labels() == "b"
    only_b = Dataset(ds.tracks[b], ds.n_tracks[b], ds.jet_labels[b])
    with pytest.raises(ValueError, match="missing classes"):
        sweeps.sweep_precision(cfg, w, only_b, [10], [10])


def test_precision_csv_bytes_stable(setup, tmp_path):
    cfg, w, ds = setup
    res = sweeps.sweep_precision(cfg, w, ds, [10], [4, 10])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    res.write_csv(p1)
    sweeps.sweep_precision(cfg, w, ds, [10], [4, 10]).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "int_bits,frac_bits,auc_b,auc_c,auc_light,auc_macro,auc_ratio"


def test_precision_sweep_zero_frac_bits_degrades(setup):
    # no fractional bits starve the statistic entirely (measured ratio 0.530)
    cfg, w, ds = setup
    res = sweeps.sweep_precision(cfg, w, ds, [10], [0])
    assert res.rows[0][6] < 0.6


def test_reuse_sweep(setup, tmp_path):
    cfg, _, _ = setup
    res = sweeps.sweep_reuse(cfg, [1, 2, 4], parse_format("fixed<20,10>"), cm.vu13p())
    assert res.column("rf") == [1, 2, 4]
    lat = res.column("latency_us")
    assert lat[0] == 2.077 and lat == sorted(lat)
    dsp = res.column("dsp")
    assert dsp[2] <= dsp[1] <= dsp[0]
    path = tmp_path / "reuse.csv"
    res.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rf,dsp,lut,ff,bram,latency_us,ii_ns"
    assert lines[1].startswith("1,4804,")
