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
