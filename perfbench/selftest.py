"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection, so
test time and benchmark time never mix.
"""
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads as wl

UNRECORDED_SEED = 987_654_321


@pytest.fixture(scope="module")
def fx():
    return wl.load_fxattn(run.ROOT)


def _flip_on_call(op, call: int, flip):
    """Wrap op so that its call-th result comes back with one bit flipped."""
    count = [0]

    def wrapped():
        out = op()
        count[0] += 1
        return flip(out) if count[0] == call else out
    return wrapped


def _flip_float(out):
    out = out.copy()
    out.view(np.uint64)[3, 1] ^= 1
    return out


def _infer(fx, tmp_path, spec="fixed<20,10>"):
    w = wl.Infer("selftest", 40, spec, reference_jets=2)
    w.setup(fx, UNRECORDED_SEED, tmp_path)
    assert w.warm_check(w.op())
    return w


def test_flipped_output_bit_is_a_failed_op(fx, tmp_path):
    w = _infer(fx, tmp_path)
    w.op = _flip_on_call(w.op, 2, _flip_float)
    samples, failed, attempted = run.measure(w, 0.0, 4)
    assert (attempted, failed, len(samples)) == (4, 1, 3)


def test_flipped_streamed_bit_is_a_failed_op(fx, tmp_path):
    w = wl.StreamQ20(20)
    w.setup(fx, UNRECORDED_SEED, tmp_path)
    assert w.warm_check(w.op())

    def flip(out):
        raw = out.raw.copy()
        raw[7, 2] ^= 1
        return fx["fxp"].FxArray(raw, out.fmt)
    w.op = _flip_on_call(w.op, 3, flip)
    samples, failed, attempted = run.measure(w, 0.0, 5)
    assert (attempted, failed, len(samples)) == (5, 1, 4)


def test_exception_is_a_failed_op(fx, tmp_path):
    w = _infer(fx, tmp_path)

    def boom(out):
        raise RuntimeError("op failed")
    w.op = _flip_on_call(w.op, 1, boom)
    samples, failed, attempted = run.measure(w, 0.0, 3)
    assert (attempted, failed, len(samples)) == (3, 1, 2)


def test_recorded_digest_mismatch_fails_every_op(fx, tmp_path, monkeypatch):
    w = wl.Infer("selftest", 40, "fixed<20,10>")
    w.setup(fx, UNRECORDED_SEED, tmp_path)
    monkeypatch.setattr(wl, "recorded_digest", lambda name, seed: "0" * 64)
    assert not w.warm_check(w.op())
    samples, failed, attempted = run.measure(w, 0.0, 2)
    assert (attempted, failed, samples) == (2, 2, [])


@pytest.mark.parametrize("spec", ["fixed<20,10>", "fixed<64,32>", None])
def test_reference_path_agrees_and_catches_a_flip(fx, tmp_path, spec):
    w = wl.Infer("selftest", 12, spec, reference_jets=1)
    w.setup(fx, UNRECORDED_SEED, tmp_path)
    out = w.op()
    assert w.reference_ok(out)
    i = wl.sample_jets(UNRECORDED_SEED, 12, 1)[0]
    bad = out.copy()
    bad[i, 0] = np.nextafter(bad[i, 0], 1.0) if spec else bad[i, 0] * 1.001
    assert not w.reference_ok(bad)


def test_traced_self_times_add_up_to_each_op(fx, tmp_path):
    tracer = spans.Tracer(tmp_path / "spool")
    assert tracer.install(fx) == []
    w = wl.StreamQ20(10)
    tracer.root("setup", lambda: w.setup(fx, UNRECORDED_SEED, tmp_path))
    w.warm_check(w.op())
    samples, failed, _ = run.measure(w, 0.0, 3, tracer=tracer)
    assert failed == 0
    assert spans.check_attribution(tracer.spans) < 1e-9
    ops = [s for s in tracer.spans if s[3] == spans.ROOT_SPAN and s[0] != "setup"]
    selfs = spans.self_times(tracer.spans)
    for root in ops:
        total = sum(selfs[s[1]] for s in tracer.spans if s[0] == root[0])
        assert total == pytest.approx(root[5] - root[4], abs=1e-9)
    metrics = spans.layer_metrics(tracer.spans, jobs=0)
    for stage in ("stage1_project", "stage2_scores", "stage3_apply",
                  "stage4_concat_project"):
        assert metrics[f"attention.{stage}.self_s"] > 0
    assert metrics["data.load_csv.s"] > 0
    assert spans.varying_counts(tracer.spans) == []


def test_pool_worker_spans_are_collected(fx, tmp_path):
    tracer = spans.Tracer(tmp_path / "spool")
    tracer.install(fx)
    w = wl.SweepPaper(30, jobs=2)
    w.setup(fx, UNRECORDED_SEED, tmp_path)
    assert w.warm_check(w.op())
    samples, failed, _ = run.measure(w, 0.0, 1, tracer=tracer)
    assert failed == 0
    points = [s for s in tracer.spans if s[3] == "sweeps._precision_point"]
    assert len(points) == len(wl.SWEEP_INT_BITS) * len(wl.SWEEP_FRAC_BITS)
    assert all(s[1][0] != tracer._pid for s in points)
    assert spans.layer_metrics(tracer.spans, jobs=2)["sweeps.points"] == len(points)


def test_benchmark_json_matches_what_the_runs_report():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["run_seconds"] == run.RUN_SECONDS
    assert tuple(w["name"] for w in bench["workloads"]) == wl.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.metric_units()
    layer_map = json.loads((run.HERE / "layer_map.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    e2e = {*run.E2E_UNITS, "jet_ms_p50"}  # the median latency is printed, unbounded
    for row in layer_map:
        assert set(row["metrics"]) <= per_layer, row["layer"]
        assert set(row["should_move"]) <= e2e, row["layer"]
        assert set(row["on"]) | set(row["unchanged_on"]) <= set(wl.WORKLOADS), row["layer"]


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-q20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_digests_were_recorded_on_this_platform():
    for name in wl.WORKLOADS:
        assert wl.recorded_digest(name, run.DEFAULT_SEED) is not None, name
