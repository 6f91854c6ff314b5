"""Synthetic generator invariants and CSV round-trip."""
import hashlib

import numpy as np
import pytest

from fxattn import data
from fxattn.data import Dataset, DatasetFormatError


def assert_same(a: Dataset, b: Dataset) -> None:
    for name in ("tracks", "n_tracks", "jet_labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_same_seed_identical():
    a = data.generate_synthetic(200, seed=42)
    b = data.generate_synthetic(200, seed=42)
    assert len(a) == len(b) == 200
    assert_same(a, b)


def test_different_seed_differs():
    a = data.generate_synthetic(50, seed=1)
    b = data.generate_synthetic(50, seed=2)
    assert not np.array_equal(a.tracks, b.tracks)


# sha256 of save_csv's bytes, recorded while each jet was still held as its
# own object; any change to the generator's draws or order moves them
PINNED_CSV_SHA256 = {
    (2000, 11): "1e7e5328fc57c1b457833b8dfcb7bd4b307ff7bb9f9db5932514da7126d1f2a6",
    (10000, 20240601): "edda91ba0fdd1d8540f4150fcf94f7215f19cb84f16191cd56e5c51c27b1944f",
}


@pytest.mark.parametrize("n,seed", sorted(PINNED_CSV_SHA256))
def test_csv_bytes_pinned(n, seed, tmp_path):
    path = tmp_path / "jets.csv"
    data.save_csv(path, data.generate_synthetic(n, seed=seed))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256[n, seed]


def test_class_mean_sd0_ordering():
    ds = data.generate_synthetic(10000, seed=99)
    x = ds.feature_tensor()
    labels = ds.labels()
    means = {}
    real_sd0 = np.where(ds.real_rows(), x[:, :, data.SD0_COLUMN], 0.0)
    for c in data.LABELS:
        means[c] = float(real_sd0[labels == c].sum() / ds.n_tracks[labels == c].sum())
    assert means["b"] > means["c"] > means["light"]


def test_every_sample_valid():
    ds = data.generate_synthetic(500, seed=5)
    ds.validate()  # raises on violation


DR, PTREL = data.FEATURES.index("dr"), data.FEATURES.index("ptrel")


def three_valid_jets() -> Dataset:
    """Jets of 3, 1 and 2 real tracks, every rule met."""
    tracks = np.zeros((3, 15, 6))
    n_tracks = np.array([3, 1, 2])
    for jet, n in enumerate(n_tracks):
        tracks[jet, :n, data.SD0_COLUMN] = np.arange(n, 0, -1)
        tracks[jet, :n, DR] = 0.1
        tracks[jet, :n, PTREL] = 0.5
    ds = Dataset(tracks, n_tracks, np.array(["b", "c", "light"]))
    ds.validate()
    return ds


def test_sample_validation_catches_bad_sort():
    ds = three_valid_jets()
    ds.tracks[2, 1, data.SD0_COLUMN] = 5.0
    with pytest.raises(ValueError, match="jet 2: .*descending"):
        ds.validate()


@pytest.mark.parametrize("array,index,value,message", [
    ("jet_labels", 1, "tau", "jet 1: unknown label"),
    ("n_tracks", 1, 16, r"jet 1: n_tracks outside \[1, 15\]"),
    ("n_tracks", 1, 0, r"jet 1: n_tracks outside \[1, 15\]"),
    ("tracks", (1, 14, 0), 1e-9, "jet 1: padding rows must be zero"),
    ("tracks", (2, 1, DR), 0.6, r"jet 2: dr outside \[0, 0.5\]"),
    ("tracks", (2, 1, DR), -0.1, r"jet 2: dr outside \[0, 0.5\]"),
    ("tracks", (2, 1, PTREL), 0.0, "jet 2: ptrel must be positive"),
], ids=["label", "n_tracks_high", "n_tracks_zero", "padding", "dr_high", "dr_negative",
        "ptrel"])
def test_validation_names_the_breaking_jet(array, index, value, message):
    ds = three_valid_jets()
    getattr(ds, array)[index] = value
    with pytest.raises(ValueError, match=message):
        ds.validate()


def test_validation_catches_bad_shapes():
    ds = three_valid_jets()
    ds.n_tracks = ds.n_tracks[:2]
    with pytest.raises(ValueError, match="array shapes"):
        ds.validate()


def test_validation_passes_negative_real_sd0():
    # the padding's zero sd0 after a negative real sd0 is not a sort breach
    ds = three_valid_jets()
    ds.tracks[1, 0, data.SD0_COLUMN] = -2.0
    ds.tracks[2, :2, data.SD0_COLUMN] = [-1.0, -3.0]
    ds.validate()


def test_all_classes_present():
    counts = data.generate_synthetic(1000, seed=3).class_counts()
    assert min(counts.values()) > 0


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    ds = data.generate_synthetic(80, seed=17)
    path = tmp_path / "jets.csv"
    data.save_csv(path, ds)
    assert_same(data.load_csv(path), ds)


def test_csv_truncates_to_15_largest(tmp_path):
    path = tmp_path / "jets.csv"
    rows = [data.CSV_HEADER]
    for i in range(20):
        rows.append(["0", "b", "0.1", "0.2", str(float(i)), "0.4", "0.3", "0.5"])
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")
    ds = data.load_csv(path)
    assert ds.n_tracks.tolist() == [15]
    assert np.array_equal(ds.tracks[0, :, data.SD0_COLUMN], np.arange(19.0, 4.0, -1.0))


def test_csv_empty_file_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert len(data.load_csv(path)) == 0


def test_csv_header_only_is_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(data.CSV_HEADER) + "\n")
    ds = data.load_csv(path)
    assert len(ds) == 0 and ds.feature_tensor().shape == (0, 15, 6)
    assert ds.class_counts() == {"b": 0, "c": 0, "light": 0}


def test_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(data.CSV_HEADER) + "\n"
                    + "0,b,0.1,0.2,0.3,0.4,0.3,0.5\n"
                    + "1,b,oops,0.2,0.3,0.4,0.3,0.5\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        data.load_csv(path)


def test_csv_unknown_label_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(data.CSV_HEADER) + "\n"
                    + "0,tau,0.1,0.2,0.3,0.4,0.3,0.5\n")
    with pytest.raises(DatasetFormatError, match="unknown label"):
        data.load_csv(path)


def test_csv_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(data.CSV_HEADER) + "\n0,b,0.1\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        data.load_csv(path)


def test_feature_tensor_shape():
    ds = data.generate_synthetic(7, seed=1)
    assert ds.feature_tensor().shape == (7, 15, 6)
    assert ds.feature_tensor() is ds.tracks


def test_csv_keeps_first_appearance_order_and_stable_sort(tmp_path):
    path = tmp_path / "jets.csv"
    path.write_text(",".join(data.CSV_HEADER) + "\n"
                    + "7,c,1,0,2.0,0,0.1,0.5\n"
                    + "3,b,1,0,1.0,0,0.1,0.5\n"
                    + "7,c,2,0,2.0,0,0.1,0.5\n"
                    + "7,c,3,0,4.0,0,0.1,0.5\n")
    ds = data.load_csv(path)
    assert ds.jet_labels.tolist() == ["c", "b"]
    assert ds.n_tracks.tolist() == [3, 1]
    # sd0 4, then the two sd0-2 tracks in file order
    assert ds.tracks[0, :3, 0].tolist() == [3.0, 1.0, 2.0]
    ds.validate()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_csv_non_finite_feature_reports_line(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(data.CSV_HEADER) + "\n"
                    + "0,b,0.1,0.2,0.3,0.4,0.3,0.5\n"
                    + f"1,b,0.1,0.2,0.3,{value},0.3,0.5\n")
    with pytest.raises(DatasetFormatError, match="line 3: non-finite sdz"):
        data.load_csv(path)
