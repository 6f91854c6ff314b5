"""Synthetic jet-track dataset generation and CSV ingestion.

A dataset of n jets is three arrays: ``tracks`` (n, 15, 6) holds each
jet's track matrix, columns (d0, dz, sd0, sdz, dr, ptrel), zero padded
past its ``n_tracks`` (n,) real rows; ``jet_labels`` (n,) holds b/c/light.
Real rows are sorted by descending transverse-impact-parameter significance
(sd0). The generator draws per-class distributions chosen so that mean sd0
orders b > c > light in expectation. The constants carry no claim of
physical fidelity; they exist to give the classifier something separable.

CSV schema (one row per real track):
    jet_id,label,d0,dz,sd0,sdz,dr,ptrel
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

LABELS = ("b", "c", "light")
FEATURES = ("d0", "dz", "sd0", "sdz", "dr", "ptrel")
SD0_COLUMN = FEATURES.index("sd0")
MAX_TRACKS = 15
NUM_FEATURES = len(FEATURES)

CSV_HEADER = ["jet_id", "label", *FEATURES]

# Generator distributions, per class. sd0 ~ offset + Gamma(shape, scale);
# heavier tails and larger location for b than c than light (displaced-vertex
# proxy). Track multiplicity is TRACK_MIN plus a Poisson count, at most 15.
CLASS_FRACTIONS = (0.3, 0.3, 0.4)
SD0_SHAPE = {"b": 2.0, "c": 2.0, "light": 1.5}
SD0_SCALE = {"b": 3.0, "c": 1.5, "light": 0.8}
SD0_OFFSET = {"b": 1.0, "c": 0.5, "light": 0.0}
SDZ_SCALE = {"b": 2.0, "c": 1.0, "light": 0.7}
TRACK_LAMBDA = {"b": 6.0, "c": 5.0, "light": 4.0}
TRACK_MIN = 2
D0_UNCERT_RANGE = (0.005, 0.02)
POSITIVE_SIGN_PROB = {"b": 0.75, "c": 0.75, "light": 0.5}


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass
class Dataset:
    """n jets as the three arrays the module docstring describes."""

    tracks: np.ndarray
    n_tracks: np.ndarray
    jet_labels: np.ndarray

    def __len__(self) -> int:
        return len(self.tracks)

    def feature_tensor(self) -> np.ndarray:
        """The (n, 15, 6) track matrices."""
        return self.tracks

    def labels(self) -> np.ndarray:
        return self.jet_labels

    def class_counts(self) -> dict[str, int]:
        return {c: int(np.count_nonzero(self.jet_labels == c)) for c in LABELS}

    def real_rows(self) -> np.ndarray:
        """(n, 15) mask of the real track rows."""
        return np.arange(MAX_TRACKS) < self.n_tracks[:, None]

    def validate(self) -> None:
        """Raise ValueError naming the first jet that breaks a layout rule."""
        shapes = (self.tracks.shape, self.n_tracks.shape, self.jet_labels.shape)
        if shapes != ((len(self), MAX_TRACKS, NUM_FEATURES), (len(self),), (len(self),)):
            raise ValueError(f"array shapes {shapes} != (n, 15, 6), (n,), (n,)")
        real = self.real_rows()
        sd0, dr, ptrel = (self.tracks[..., FEATURES.index(f)] for f in ("sd0", "dr", "ptrel"))
        rules = (  # (violations per jet or per row, message)
            (~np.isin(self.jet_labels, LABELS), "unknown label"),
            ((self.n_tracks < 1) | (self.n_tracks > MAX_TRACKS), "n_tracks outside [1, 15]"),
            # no rise into the padding is checked: a real sd0 may be negative
            ((sd0[:, 1:] > sd0[:, :-1]) & real[:, 1:],
             "real rows must be sorted by descending sd0"),
            (self.tracks.any(axis=2) & ~real, "padding rows must be zero"),
            (((dr < 0.0) | (dr > 0.5)) & real, "dr outside [0, 0.5]"),
            ((ptrel <= 0.0) & real, "ptrel must be positive on real rows"),
        )
        for bad, message in rules:
            if bad.any():
                raise ValueError(f"jet {np.nonzero(bad)[0][0]}: {message}")


def generate_synthetic(n: int, seed: int) -> Dataset:
    """Deterministic synthetic dataset: same seed, same bytes."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    classes = rng.choice(len(LABELS), size=n, p=list(CLASS_FRACTIONS))
    tracks = np.zeros((n, MAX_TRACKS, NUM_FEATURES))
    n_tracks = np.empty(n, dtype=np.int64)
    # one jet's draws at a time, in a fixed order: the bytes depend on it
    for i, label in enumerate(np.array(LABELS)[classes].tolist()):
        n_tracks[i] = m = min(TRACK_MIN + rng.poisson(TRACK_LAMBDA[label]), MAX_TRACKS)
        sd0 = SD0_OFFSET[label] + rng.gamma(SD0_SHAPE[label], SD0_SCALE[label], size=m)
        sdz = rng.gamma(1.8, SDZ_SCALE[label], size=m)
        # row 0 for d0, row 1 for dz: the same draws as one call per row
        signs = np.where(rng.random((2, m)) < [[POSITIVE_SIGN_PROB[label]], [0.5]], 1.0, -1.0)
        d0, dz = signs * np.stack([sd0, sdz]) * rng.uniform(*D0_UNCERT_RANGE, size=(2, m))
        dr = 0.5 * rng.beta(2.0, 5.0, size=m)
        ptrel = rng.beta(2.0, 8.0, size=m) + 1e-4
        order = np.argsort(-sd0, kind="stable")
        tracks[i, :m] = np.column_stack([d0, dz, sd0, sdz, dr, ptrel])[order]
    dataset = Dataset(tracks, n_tracks, np.array(LABELS)[classes])
    dataset.validate()
    return dataset


def save_csv(path, dataset: Dataset) -> None:
    jets = zip(dataset.jet_labels.tolist(), dataset.n_tracks.tolist(), dataset.tracks)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for jet_id, (label, n, tracks) in enumerate(jets):
            # csv writes a float as its repr, which reads back to the same float
            writer.writerows([jet_id, label, *feats] for feats in tracks[:n].tolist())


def load_csv(path) -> Dataset:
    """Group rows by jet_id in order of first appearance, sort each jet's
    tracks by descending sd0 (stable), keep the top 15, zero pad."""
    jets: dict[str, tuple[str, list]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and header != CSV_HEADER:
            raise DatasetFormatError(
                f"line 1: bad header {header!r}, expected {CSV_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise DatasetFormatError(
                    f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            jet_id, label = row[0], row[1]
            if label not in LABELS:
                raise DatasetFormatError(f"line {lineno}: unknown label {label!r}")
            try:
                feats = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from None
            if not all(map(math.isfinite, feats)):
                name = FEATURES[[math.isfinite(v) for v in feats].index(False)]
                raise DatasetFormatError(f"line {lineno}: non-finite {name}")
            first_label, rows = jets.setdefault(jet_id, (label, []))
            if first_label != label:
                raise DatasetFormatError(
                    f"line {lineno}: jet {jet_id} has conflicting labels")
            rows.append(feats)

    tracks = np.zeros((len(jets), MAX_TRACKS, NUM_FEATURES))
    n_tracks = np.empty(len(jets), dtype=np.int64)
    for i, (_, rows) in enumerate(jets.values()):
        rows = np.array(rows)
        n_tracks[i] = m = min(len(rows), MAX_TRACKS)
        tracks[i, :m] = rows[np.argsort(-rows[:, SD0_COLUMN], kind="stable")][:m]
    labels = np.array([label for label, _ in jets.values()], dtype=str)
    return Dataset(tracks, n_tracks, labels)
