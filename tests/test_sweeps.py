"""Sweep determinism and CSV emission."""
import logging
import threading
from pathlib import Path

import numpy as np
import pytest

from fxattn import costmodel as cm
from fxattn import data, metrics, model, sweeps
from fxattn.data import Dataset
from fxattn.fxp import FxFormat, parse_format


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


def test_precision_sweep_is_reentrant(setup, monkeypatch):
    # a sweep started inside another sweep's pass leaves the outer one whole
    cfg, w, ds = setup
    want = sweeps.sweep_precision(cfg, w, ds, [8, 10], [4, 8])
    other = data.generate_synthetic(300, seed=78)
    real, inner = sweeps.forward_batch, {}

    def forward_batch(cfg, weights, x, fmt=None):
        if fmt is not None and not inner:
            inner["started"] = True  # set first, so the inner sweep's passes run unhooked
            inner["rows"] = sweeps.sweep_precision(cfg, weights, other, [10], [6]).rows
        return real(cfg, weights, x, fmt=fmt)

    monkeypatch.setattr(sweeps, "forward_batch", forward_batch)
    assert sweeps.sweep_precision(cfg, w, ds, [8, 10], [4, 8]) == want
    assert len(inner["rows"]) == 1


def test_concurrent_sweeps_return_their_serial_rows(setup, monkeypatch):
    # A's int-4 pass overflows; it runs while B's watch is open, opened after A's
    cfg, w, ds = setup
    grids = {"A": ([4, 5], [8]), "B": ([10], [6])}
    want = {name: sweeps.sweep_precision(cfg, w, ds, *grid) for name, grid in grids.items()}
    real = sweeps.forward_batch
    a_open, b_open, a_ran = threading.Event(), threading.Event(), threading.Event()

    def forward_batch(cfg, weights, x, fmt=None):
        me = threading.current_thread().name
        if me == "A" and fmt == FxFormat(4, 8):  # inside A's watch
            a_open.set()
            assert b_open.wait(60)
            try:
                return real(cfg, weights, x, fmt=fmt)
            finally:
                a_ran.set()
        if me == "B" and fmt is None:  # B's float pass, before B opens a watch
            assert a_open.wait(60)
        elif me == "B":  # inside B's watch
            b_open.set()
            assert a_ran.wait(60)
        return real(cfg, weights, x, fmt=fmt)

    monkeypatch.setattr(sweeps, "forward_batch", forward_batch)
    got = {}

    def run(name):
        got[name] = sweeps.sweep_precision(cfg, w, ds, *grids[name])

    threads = [threading.Thread(target=run, args=(name,), name=name) for name in grids]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert got == want


@pytest.mark.parametrize("jobs", [0, -3])
def test_precision_sweep_refuses_jobs_below_1(setup, monkeypatch, jobs):
    cfg, w, ds = setup
    monkeypatch.setattr(sweeps, "forward_batch", lambda *a, **k: pytest.fail("a pass ran"))
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        sweeps.sweep_precision(cfg, w, ds, [10], [4], jobs=jobs)


def brute_force(cfg, w, ds, int_bits_list, frac_bits_list) -> list[tuple]:
    """The precision sweep's rows, every grid point run through forward_batch."""
    x, labels = ds.feature_tensor(), ds.labels()

    def aucs(fmt):
        per_class = metrics.one_vs_rest_aucs(model.forward_batch(cfg, w, x, fmt=fmt),
                                             labels, data.LABELS)
        return per_class, float(np.mean(list(per_class.values())))

    _, macro_float = aucs(None)
    rows = []
    for ib in int_bits_list:
        for fb in frac_bits_list:
            per_class, macro = aucs(FxFormat(ib, fb))
            rows.append((ib, fb, per_class["b"], per_class["c"], per_class["light"],
                         macro, macro / macro_float))
    return rows


@pytest.mark.parametrize("weights, int_bits, frac_bits, ran", [
    ("analytic", [6, 7, 8, 9, 10], [0, 4, 10], 6),  # int 7 proves every column
    ("random", [6, 8, 10], [4, 10], 6),  # no column proves
    # int 1 cannot hold the reciprocal table's 1.0, int 8 proves, 10 and the second 8 reuse it
    ("analytic", [8, 1, 10, 8], [10, 4], 4),
])
def test_pruned_sweep_matches_brute_force(setup, caplog, weights, int_bits, frac_bits, ran):
    cfg, w, ds = setup
    if weights == "random":  # the weights of the benchmark's infer workloads
        w = model.random_weights(cfg, np.random.default_rng([20240601, 1]))
    want = brute_force(cfg, w, ds, int_bits, frac_bits)
    points = len(set(int_bits)) * len(set(frac_bits))
    for jobs in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fxattn.sweeps"):
            got = sweeps.sweep_precision(cfg, w, ds, int_bits, frac_bits, jobs=jobs)
        assert list(got.rows) == want, jobs
        assert f"{ran} of {points} points ran" in caplog.text, jobs


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


def test_run_paper_sweeps_script(tmp_path, run_python):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_paper_sweeps.py"
    out = run_python(str(script), "--n", "200", "--jobs", "1", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    headers = {name: (tmp_path / name).read_text().splitlines()[0]
               for name in ("dataset.csv", "precision_sweep.csv", "reuse_sweep.csv")}
    assert headers == {
        "dataset.csv": "jet_id,label,d0,dz,sd0,sdz,dr,ptrel",
        "precision_sweep.csv": "int_bits,frac_bits,auc_b,auc_c,auc_light,auc_macro,auc_ratio",
        "reuse_sweep.csv": "rf,dsp,lut,ff,bram,latency_us,ii_ns",
    }
