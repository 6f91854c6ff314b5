"""CLI behavior: exit codes, reproducible artifacts, golden help text."""
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("cmd", ["top", "gen-data", "make-weights", "infer",
                                 "sweep-precision", "sweep-reuse", "report-resources"])
def test_help_matches_golden(cmd, run_cli):
    args = ["--help"] if cmd == "top" else [cmd, "--help"]
    out = run_cli(*args)
    assert out.returncode == 0
    golden = (GOLDEN / f"help_{cmd.replace('-', '_')}.txt").read_text()
    assert out.stdout == golden


def test_unknown_flag_exits_2(run_cli):
    assert run_cli("gen-data", "--bogus").returncode == 2


def test_unknown_command_exits_2(run_cli):
    assert run_cli("frobnicate").returncode == 2


def test_bad_format_string_exits_2(run_cli):
    out = run_cli("sweep-reuse", "--fmt", "float32")
    assert out.returncode == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_precision_jobs_below_1_exits_2(run_cli, jobs):
    out = run_cli("sweep-precision", "--weights", "w.json", "--data", "d.csv",
                  f"--jobs={jobs}")
    assert out.returncode == 2
    assert f"argument --jobs: must be at least 1, got {jobs}" in out.stderr


# every numeric flag below its bound, and the flag argparse names
OUT_OF_RANGE = [
    (["gen-data", "--n", "0"], "--n"),
    (["gen-data", "--n", "-3"], "--n"),
    (["gen-data", "--seed", "-1"], "--seed"),
    (["report-resources", "--rf", "0"], "--rf"),
    (["sweep-reuse", "--rf", "0"], "--rf"),
    (["sweep-reuse", "--rf", "2,-1"], "--rf"),
    (["sweep-precision", "--weights", "w.json", "--data", "d.csv", "--int-bits", "0"],
     "--int-bits"),
    (["sweep-precision", "--weights", "w.json", "--data", "d.csv", "--frac-bits", "-1"],
     "--frac-bits"),
]


@pytest.mark.parametrize("argv, flag", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
def test_out_of_range_numeric_flag_exits_2(tmp_path, run_cli, argv, flag):
    out = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert out.returncode == 2
    assert f"argument {flag}" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_gen_data_reproducible(tmp_path, run_cli):
    a = run_cli("gen-data", "--n", "50", "--seed", "7", "--out", str(tmp_path / "a"))
    b = run_cli("gen-data", "--n", "50", "--seed", "7", "--out", str(tmp_path / "b"))
    assert a.returncode == 0 and b.returncode == 0
    assert "gen-data: wrote 50 jets" in a.stdout
    assert (tmp_path / "a/dataset.csv").read_bytes() == \
           (tmp_path / "b/dataset.csv").read_bytes()


def test_missing_dataset_exits_1(tmp_path, run_cli):
    run_cli("make-weights", "--out", str(tmp_path))
    out = run_cli("infer", "--weights", str(tmp_path / "weights.json"),
                  "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
    assert out.returncode == 1
    assert "error:" in out.stderr


def test_infer_mismatched_weights_names_tensor(tmp_path, run_cli):
    import json
    run_cli("gen-data", "--n", "20", "--seed", "1", "--out", str(tmp_path))
    run_cli("make-weights", "--out", str(tmp_path))
    wpath = tmp_path / "weights.json"
    doc = json.loads(wpath.read_text())
    del doc["tensors"]["head2.w"]
    wpath.write_text(json.dumps(doc))
    out = run_cli("infer", "--weights", str(wpath),
                  "--data", str(tmp_path / "dataset.csv"), "--out", str(tmp_path))
    assert out.returncode == 1
    assert "head2.w" in out.stderr


def test_infer_malformed_header_is_diagnosed(tmp_path, run_cli):
    import json
    run_cli("gen-data", "--n", "20", "--seed", "1", "--out", str(tmp_path))
    run_cli("make-weights", "--out", str(tmp_path))
    wpath = tmp_path / "weights.json"
    doc = json.loads(wpath.read_text())
    doc["config"]["num_heads"] = 2.0
    wpath.write_text(json.dumps(doc))
    out = run_cli("infer", "--weights", str(wpath),
                  "--data", str(tmp_path / "dataset.csv"), "--out", str(tmp_path))
    assert out.returncode == 1
    assert "error:" in out.stderr and "num_heads" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("field, value", [
    ("residual_mha", False), ("residual_ff", False), ("num_features", 5),
    ("softmax_table_size", 3), ("softmax_table_size", 0),
    ("softmax_exp_lo", 2.0), ("softmax_exp_lo", float("-inf")),
])
def test_infer_header_the_network_cannot_take_exits_1(tmp_path, run_cli, field, value):
    import json
    run_cli("gen-data", "--n", "20", "--seed", "1", "--out", str(tmp_path))
    run_cli("make-weights", "--out", str(tmp_path))
    wpath = tmp_path / "weights.json"
    doc = json.loads(wpath.read_text())
    doc["config"][field] = value
    wpath.write_text(json.dumps(doc))
    out = run_cli("infer", "--weights", str(wpath),
                  "--data", str(tmp_path / "dataset.csv"), "--out", str(tmp_path))
    assert out.returncode == 1
    assert "error:" in out.stderr and field in out.stderr
    assert "Traceback" not in out.stderr


def test_full_flow_and_reuse_csv(tmp_path, run_cli):
    assert run_cli("gen-data", "--n", "40", "--seed", "3",
                   "--out", str(tmp_path)).returncode == 0
    assert run_cli("make-weights", "--out", str(tmp_path)).returncode == 0
    out = run_cli("infer", "--weights", str(tmp_path / "weights.json"),
                  "--data", str(tmp_path / "dataset.csv"),
                  "--fmt", "fixed<20,10>", "--out", str(tmp_path))
    assert out.returncode == 0
    assert (tmp_path / "predictions.csv").exists()

    out = run_cli("sweep-reuse", "--rf", "1,2,4", "--fmt", "fixed<20,10>",
                  "--out", str(tmp_path))
    assert out.returncode == 0
    lines = (tmp_path / "reuse_sweep.csv").read_text().splitlines()
    assert lines[0] == "rf,dsp,lut,ff,bram,latency_us,ii_ns"
    rf1 = lines[1].split(",")
    assert rf1[0] == "1" and rf1[5] == "2.077" and rf1[6] == "322.42"


def test_report_resources_writes_csv(tmp_path, run_cli):
    out = run_cli("report-resources", "--rf", "2", "--out", str(tmp_path))
    assert out.returncode == 0
    assert "DSP" in out.stdout
    assert (tmp_path / "resources.csv").read_text().startswith("layer,mults,dsp")


def test_sweep_precision_cli(tmp_path, run_cli):
    run_cli("gen-data", "--n", "60", "--seed", "9", "--out", str(tmp_path))
    run_cli("make-weights", "--out", str(tmp_path))
    out = run_cli("sweep-precision", "--weights", str(tmp_path / "weights.json"),
                  "--data", str(tmp_path / "dataset.csv"),
                  "--int-bits", "10", "--frac-bits", "4,10",
                  "--out", str(tmp_path))
    assert out.returncode == 0
    lines = (tmp_path / "precision_sweep.csv").read_text().splitlines()
    assert lines[0] == "int_bits,frac_bits,auc_b,auc_c,auc_light,auc_macro,auc_ratio"
    assert len(lines) == 3


# sha256 of (precision_sweep.csv, stdout) for the sweep below over gen-data
# --n 200 --seed 11 and the analytic weights, recorded while every grid
# point still ran its own pass
PINNED_SWEEP_SHA256 = (
    "9a4b01305afcadae367f11ba06780bd9a9ffedbb76fdb7c0c5492d3d7c4271fd",
    "c2ba6c6b3efa94a894e1b1723e363b431ae28d89e8611d618720a52b8fd1d0e8")


def test_sweep_precision_output_pinned_and_skips_logged(tmp_path, run_cli):
    import hashlib
    run_cli("gen-data", "--n", "200", "--seed", "11", "--out", str(tmp_path))
    run_cli("make-weights", "--out", str(tmp_path))
    # int 1 overflows, int 6 proves each column, and 7, 8 and 10 reuse it
    out = run_cli("sweep-precision", "--weights", str(tmp_path / "weights.json"),
                  "--data", str(tmp_path / "dataset.csv"), "--int-bits", "10,1,6-8,6",
                  "--frac-bits", "4,0,10", "--jobs", "2", "--out", "OUT",
                  cwd=tmp_path, FXATTN_LOG="info")
    assert out.returncode == 0, out.stderr
    got = (hashlib.sha256((tmp_path / "OUT" / "precision_sweep.csv").read_bytes()).hexdigest(),
           hashlib.sha256(out.stdout.encode()).hexdigest())
    assert got == PINNED_SWEEP_SHA256, out.stdout
    assert "precision sweep: 6 of 15 points ran, 9 reused" in out.stderr


def test_sweep_precision_validates_every_point_first(tmp_path, run_cli):
    run_cli("gen-data", "--n", "60", "--seed", "9", "--out", str(tmp_path))
    run_cli("make-weights", "--out", str(tmp_path))
    # int 6 would prove the column and skip int 70, which must still be refused
    out = run_cli("sweep-precision", "--weights", str(tmp_path / "weights.json"),
                  "--data", str(tmp_path / "dataset.csv"), "--int-bits", "6,70",
                  "--frac-bits", "0", "--out", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr == "error: total width 70 exceeds the 64-bit cap\n"
    assert not (tmp_path / "precision_sweep.csv").exists()


def test_int_list_parsing():
    from fxattn.cli import parse_int_list
    assert parse_int_list("1,2,4") == [1, 2, 4]
    assert parse_int_list("6-10") == [6, 7, 8, 9, 10]
    assert parse_int_list("4,8-10") == [4, 8, 9, 10]
    with pytest.raises(Exception):
        parse_int_list("10-6")


# sha256 of infer's predictions.csv for gen-data --n 200 --seed 11 and the
# analytic weights, recorded while each jet was still held as its own object
PINNED_PREDICTIONS_SHA256 = {
    None: "e130749a285ca3c09565780ffb2f0e6f34384d1db4dfb948a989ef4748d6153d",
    "fixed<16,6>": "d4a5e9d230a1275c6db3bace7f99e7747f29521dfd01170b3ea57ad6c268294f",
}


# sha256 of forward_batch's probability bytes over more jets than one chunk:
# generate_synthetic(1100, seed=20240601) and random_weights(default_rng(
# [20240601, 1])), recorded while the pass still ran the batch whole; the
# fixed entry is exact on any host, the float one on the recording host's BLAS
PINNED_CHUNKED_PROBS_SHA256 = {
    None: "1a0a9ffc3a8346c7b9ae8585b0d17fa477c5410b964ceb6b51e00d6417cbe017",
    "fixed<20,10>": "43554f33e0fd58b4a934436856aa24b513f33a36290901167525d4d4d1097f35",
}


# sha256 of forward_batch's probability bytes in formats wider than 60 bits,
# recorded while those formats still computed on Python ints in object arrays:
# 300 jets of generate_synthetic(300, seed=20240601) with random_weights(
# default_rng([20240601, 1])), and the first 60 of them in wrap/truncate with
# random_weights(default_rng([20240601, 3]), scale=3.0), a pass that overflows
PINNED_WIDE_PROBS_SHA256 = {
    ("fixed<64,32>", "saturate", "round_even", 1, 1.0, 300):
        "6d96099369209cd41745b960380ef2c02c09af8bc96d51d2bea6adc3ddf09f75",
    ("fixed<62,12>", "wrap", "truncate", 3, 3.0, 60):
        "c4ac970d569c6ba9dab30e5c42a7239647948f7a5f2b4c6d8f77b9602e4357b3",
}


def test_wide_probabilities_pinned():
    import hashlib

    import numpy as np

    from fxattn import attention as att
    from fxattn import data, fxp, model
    from draws import softmax_tables
    cfg = model.ModelConfig()
    x = data.generate_synthetic(300, seed=20240601).feature_tensor()
    for (spec, overflow, rounding, seed, scale, n), want in PINNED_WIDE_PROBS_SHA256.items():
        fmt = fxp.parse_format(spec, fxp.Overflow(overflow), fxp.Rounding(rounding))
        w = model.random_weights(cfg, np.random.default_rng([20240601, seed]), scale=scale)
        with fxp.overflow_watch() as watch:
            probs = model.forward_batch(cfg, w, x[:n], fmt=fmt)
        assert hashlib.sha256(probs.tobytes()).hexdigest() == want, spec
        assert (watch.events > 0) == (overflow == "wrap"), spec
        # the first block's attention, streamed jet by jet, equals its batch pass
        mha = att.quantize_mha_weights(w.blocks[0].mha, fmt)
        scfg = softmax_tables(fmt, cfg.seq_len + 1)
        xq = fxp.quantize_array(x[:3], fmt)
        batch = att.mha_forward_batch(cfg.encoder.mha, mha, scfg, xq)
        for i in range(3):
            streamed = att.run_mha_streaming(cfg.encoder.mha, mha, scfg, xq[i])
            assert streamed.raw.tolist() == batch.raw[i].tolist(), (spec, i)


def test_chunked_probabilities_pinned():
    import hashlib

    import numpy as np

    from fxattn import data, fxp, model
    cfg = model.ModelConfig()
    w = model.random_weights(cfg, np.random.default_rng([20240601, 1]))
    x = data.generate_synthetic(1100, seed=20240601).feature_tensor()
    for fmt, want in PINNED_CHUNKED_PROBS_SHA256.items():
        probs = model.forward_batch(cfg, w, x, fmt=fmt and fxp.parse_format(fmt))
        assert hashlib.sha256(probs.tobytes()).hexdigest() == want, fmt


def test_infer_predictions_pinned(tmp_path, run_cli):
    import hashlib
    run_cli("gen-data", "--n", "200", "--seed", "11", "--out", str(tmp_path))
    run_cli("make-weights", "--out", str(tmp_path))
    for fmt, want in PINNED_PREDICTIONS_SHA256.items():
        out_dir = tmp_path / str(fmt)
        out = run_cli("infer", "--weights", str(tmp_path / "weights.json"),
                      "--data", str(tmp_path / "dataset.csv"), "--out", str(out_dir),
                      *(["--fmt", fmt] if fmt else []))
        assert out.returncode == 0, out.stderr
        got = hashlib.sha256((out_dir / "predictions.csv").read_bytes()).hexdigest()
        assert got == want, fmt


def test_infer_non_finite_feature_exits_1(tmp_path, run_cli):
    run_cli("gen-data", "--n", "20", "--seed", "1", "--out", str(tmp_path))
    run_cli("make-weights", "--out", str(tmp_path))
    lines = (tmp_path / "dataset.csv").read_text().splitlines()
    fields = lines[4].split(",")
    fields[2] = "inf"
    lines[4] = ",".join(fields)
    (tmp_path / "dataset.csv").write_text("\n".join(lines) + "\n")
    for fmt in ([], ["--fmt", "fixed<20,10>"]):
        out = run_cli("infer", "--weights", str(tmp_path / "weights.json"),
                      "--data", str(tmp_path / "dataset.csv"), "--out", str(tmp_path),
                      *fmt)
        assert out.returncode == 1
        assert "error:" in out.stderr and "line 5" in out.stderr
        assert "Traceback" not in out.stderr


def test_infer_saturates_values_past_float_range_of_the_scale(tmp_path, run_cli):
    # 1e308 * 2**8 overflows float64; quantizing it must saturate, not raise
    import json
    run_cli("gen-data", "--n", "20", "--seed", "1", "--out", str(tmp_path))
    run_cli("make-weights", "--out", str(tmp_path))
    lines = (tmp_path / "dataset.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = "1e308"
    lines[1] = ",".join(fields)
    (tmp_path / "dataset.csv").write_text("\n".join(lines) + "\n")
    wpath = tmp_path / "weights.json"
    doc = json.loads(wpath.read_text())
    doc["tensors"]["output.b"][0] = 1e308
    wpath.write_text(json.dumps(doc))
    out = run_cli("infer", "--weights", str(wpath), "--data", str(tmp_path / "dataset.csv"),
                  "--fmt", "fixed<16,8>", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr


# sha256 of (artifact CSV, stdout with the --out directory shown as OUT) for
# each cost-model command; "tiny" is a custom device the rf=1 model overfills
TINY_DEVICE = {"name": "tiny", "dsp_total": 100, "lut_total": 10 ** 5,
               "ff_total": 10 ** 5, "bram_total": 10, "clock_ns": 5.0}
PINNED_COST_MODEL_SHA256 = {
    ("report-resources", "--rf", "1"): (
        "8305c228cd0b371135e3e855c7acf476f933cacb0e844d4db6e97d6dbf673124",
        "024c33a7d78201456fb70ef5b259acc8ba86e4500e8dccbe55278d575166d4c3"),
    ("report-resources", "--rf", "2"): (
        "0458e213eeccdd12a558d99e9ad08eed24040ce3d6f0f52f0c29cc0f2c1badc3",
        "15b4e1477759245464f12d0c3e7decabd38b4ddf0e249416ad1f9e691c235a27"),
    ("report-resources", "--rf", "7"): (
        "4cee0dc0da7d2f781a45a9412e97a513c14727f06e497f077ca6649a6f2a4a6c",
        "1841a198a65a938184cb92c751f434c3395f385e0b11855c594e58605a3b816f"),
    ("report-resources", "--rf", "3", "--fmt", "fixed<64,32>"): (
        "afcf3553e5c7795a5a422d967baa3a83e610025f9340c11b0d25ee51ea93655c",
        "faa4dd4b1d429e5b1e7ee1970e88c2fa08c14702a5fbf223bf7f59b1314d7f08"),
    ("report-resources", "--rf", "1", "--device", "custom:DEVICE"): (
        "8305c228cd0b371135e3e855c7acf476f933cacb0e844d4db6e97d6dbf673124",
        "47fc2fed3dfb5373819543b02273dd0e9ab6479b5ec97b9822e5e713ede0801d"),
    ("sweep-reuse", "--rf", "1,2,3,4,8"): (
        "80c82cbdbdfdf41cb8a8a865860932e6f8207ae9abc0f52fcb102f93b957f257",
        "f22845c486d374670cbbcd122f01be4d2b7cd960ae77c24713dbe17358aeb1a4"),
}


def test_cost_model_output_pinned(tmp_path, run_cli):
    import hashlib
    import json
    device = tmp_path / "tiny.json"
    device.write_text(json.dumps(TINY_DEVICE))
    for i, (argv, want) in enumerate(PINNED_COST_MODEL_SHA256.items()):
        out_dir = tmp_path / str(i)
        out = run_cli(*(a.replace("DEVICE", str(device)) for a in argv),
                      "--out", str(out_dir))
        assert out.returncode == 0, out.stderr
        artifact = "resources.csv" if argv[0] == "report-resources" else "reuse_sweep.csv"
        got = (hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest(),
               hashlib.sha256(out.stdout.replace(str(out_dir), "OUT").encode()).hexdigest())
        assert got == want, (argv, got, out.stdout)


@pytest.mark.parametrize("change, field", [
    ({"dsp_total": "100"}, "dsp_total"),
    ({"dsp_total": True}, "dsp_total"),
    ({"lut_total": 1.5}, "lut_total"),
    ({"bram_total": 0}, "bram_total"),
    ({"clock_ns": float("nan")}, "clock_ns"),
    ({"clock_ns": "5"}, "clock_ns"),
    ({"name": 7}, "name"),
])
def test_custom_device_bad_field_exits_1(tmp_path, run_cli, change, field):
    import json
    device = tmp_path / "dev.json"
    device.write_text(json.dumps({**TINY_DEVICE, **change}))
    out = run_cli("report-resources", "--device", f"custom:{device}", "--out", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {device}: device field '{field}' ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("text", ["[100, 1000, 1000, 10, 5.0]\n", '{"name": '])
def test_custom_device_not_a_json_map_exits_1(tmp_path, run_cli, text):
    device = tmp_path / "dev.json"
    device.write_text(text)
    out = run_cli("sweep-reuse", "--device", f"custom:{device}", "--out", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {device}: ")
    assert "device profile" in out.stderr
    assert "Traceback" not in out.stderr
