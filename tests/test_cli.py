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
