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
