"""Dataset construction: synthetic generators, CSV/IDX loaders, and encodings.

All functions return immutable :class:`Dataset` values and are deterministic
for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import math
import struct

import numpy as np

from .errors import DataLoadError
from .stein import _class_labels, _count, _non_negative_finite, _write_atomic

__all__ = [
    "Dataset",
    "gen_two_moons",
    "gen_rectangles",
    "load_csv",
    "save_csv",
    "load_idx",
    "standardize",
]


class Dataset:
    """A feature matrix with dense integer class labels.

    Attributes
    ----------
    features : (n, d) float64 array
    labels : (n,) int64 array; the given labels must be whole numbers in
        ``[0, num_classes)`` (a float such as 0.5 or NaN raises ``ValueError``
        and is never truncated)
    num_classes : an integer (not a bool), at least 2
    image_shape : optional ``(H, W, C)`` of positive integers with ``H * W * C == d``
    feature_std : per-column standard deviation of the raw features, each
        finite and non-negative, measured before any normalization and
        carried through :func:`standardize` so noise augmentation keeps its
        raw scale. When not supplied it is computed from ``features`` on
        first use; a supplied value is checked here.

    C-contiguous float64 ``features``/``feature_std`` and int64 ``labels``
    are kept uncopied and made read-only in place, so the caller's arrays
    turn read-only too: a copy would cost n x d values (12.5 MB for 2000
    28 x 28 images), and the baselines' memo relies on read-only arrays.
    """

    def __init__(self, features, labels, num_classes: int,
                 image_shape: tuple[int, int, int] | None = None,
                 feature_std: np.ndarray | None = None):
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        n, d = self.features.shape
        if n < 1 or d < 1:
            raise ValueError("dataset needs at least one row and one column")
        self.num_classes = _count("num_classes", num_classes, 2)
        self.labels = _class_labels(labels, n, self.num_classes)
        if image_shape is not None:
            shape = tuple(_count("image_shape entries", v) for v in image_shape)
            if len(shape) != 3 or math.prod(shape) != d:
                raise ValueError(f"image_shape {image_shape} must be three positive integers "
                                 f"(H, W, C) with H * W * C == d={d}")
            image_shape = shape
        self.image_shape = image_shape
        if feature_std is not None:
            feature_std = np.ascontiguousarray(feature_std, dtype=np.float64)
            if feature_std.shape != (d,):
                raise ValueError("feature_std must have one entry per column")
            # every entry is finite and >= 0 iff the least and the greatest are (NaN propagates)
            for v in (feature_std.min(), feature_std.max()):
                _non_negative_finite("feature_std entries", v)
            feature_std.setflags(write=False)
        self._feature_std = feature_std
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def feature_std(self) -> np.ndarray:
        if self._feature_std is None:
            self._feature_std = self.features.std(axis=0)
            self._feature_std.setflags(write=False)
        return self._feature_std

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def gen_two_moons(n: int, noise_std: float, seed: int) -> Dataset:
    """Two interleaved half-circle classes with additive Gaussian noise.

    Class 0 is the upper unit arc ``(cos t, sin t)``; class 1 is the arc
    point-reflected and offset, ``(1 - cos t, 0.5 - sin t)``; both with
    ``t`` evenly spaced over ``[0, pi]``. Class counts differ by at most 1.
    """
    n = _count("n", n, 2)
    noise_std = _non_negative_finite("noise_std", noise_std)
    n_outer = n // 2
    n_inner = n - n_outer
    t_outer = np.linspace(0.0, np.pi, n_outer)
    t_inner = np.linspace(0.0, np.pi, n_inner)
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    inner = np.column_stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)])
    features = np.vstack([outer, inner])
    rng = np.random.default_rng(seed)
    # scale=0 is valid for rng.normal and leaves the arcs exact
    features = features + rng.normal(0.0, noise_std, size=features.shape)
    labels = np.concatenate([np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)])
    return Dataset(features, labels, num_classes=2)


def gen_rectangles(n: int, seed: int) -> Dataset:
    """Three-class dataset tiling the unit square into vertical thirds.

    Class ``c`` occupies ``x in [c/3, (c+1)/3)`` with ``y`` uniform in
    ``[0, 1]``; class counts differ by at most 1.
    """
    n = _count("n", n, 3)
    rng = np.random.default_rng(seed)
    counts = [n // 3 + (1 if c < n % 3 else 0) for c in range(3)]
    blocks, labels = [], []
    for c, m in enumerate(counts):
        x = rng.uniform(c / 3.0, (c + 1) / 3.0, size=m)
        y = rng.uniform(0.0, 1.0, size=m)
        blocks.append(np.column_stack([x, y]))
        labels.append(np.full(m, c, dtype=np.int64))
    return Dataset(np.vstack(blocks), np.concatenate(labels), num_classes=3)


def load_csv(path, label_column: str = "label") -> Dataset:
    """Load a headered CSV with numeric feature columns and an integer label column.

    Labels are remapped to a dense ``[0, l)`` range preserving numeric order.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataLoadError(f"cannot read dataset file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataLoadError(f"{path}: empty file, missing header row")
        if label_column not in header:
            raise DataLoadError(f"{path}: label column {label_column!r} not found in header {header}")
        label_idx = header.index(label_column)
        feature_names = [name for i, name in enumerate(header) if i != label_idx]
        rows = []
        raw_labels = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataLoadError(f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}")
            feats = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    try:
                        raw_labels.append(int(cell))
                    except ValueError:
                        raise DataLoadError(
                            f"{path}: non-integer label {cell!r} at line {line_no}, column {label_column!r}"
                        ) from None
                else:
                    try:
                        feats.append(float(cell))
                    except ValueError:
                        name = header[i]
                        raise DataLoadError(
                            f"{path}: non-numeric value {cell!r} at line {line_no}, column {name!r}"
                        ) from None
            rows.append(feats)
        if not rows:
            raise DataLoadError(f"{path}: no data rows")
        if len(feature_names) < 1:
            raise DataLoadError(f"{path}: no feature columns besides {label_column!r}")
    features = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        row, col = bad[0]
        raise DataLoadError(f"{path}: non-finite value {float(features[row, col])} at line {row + 2}, "
                            f"column {feature_names[col]!r}")
    distinct = sorted(set(raw_labels))
    if len(distinct) < 2:
        raise DataLoadError(f"{path}: dataset defines only one class ({distinct[0]})")
    remap = {v: i for i, v in enumerate(distinct)}
    labels = np.array([remap[v] for v in raw_labels], dtype=np.int64)
    return Dataset(features, labels, num_classes=len(distinct))


def save_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write a dataset as a headered CSV that :func:`load_csv` round-trips exactly.

    Feature values are written with ``repr`` so text round-trips are bit-exact.
    The text is built in memory and written atomically (see
    ``stein._write_atomic``), so a failed write never leaves a truncated file.
    """
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow([f"x{i}" for i in range(dataset.d)] + [label_column])
    for row, label in zip(dataset.features, dataset.labels):
        writer.writerow([repr(float(v)) for v in row] + [int(label)])
    _write_atomic(path, text.getvalue().encode("utf-8"))


def _read_idx(path, rank: int, what: str) -> tuple[tuple[int, ...], np.ndarray]:
    """The dims and ``uint8`` body of a u8 IDX file of ``rank``. The file is
    read whole and compared with one expected size, so a header that claims
    more than the file holds allocates nothing."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataLoadError(f"cannot read IDX file {path}: {exc}") from exc
    if len(data) < 4:
        raise DataLoadError(f"truncated IDX file {path}: expected 4 bytes for magic")
    if data[:2] != b"\x00\x00" or data[2] != 0x08:
        raise DataLoadError(f"{path}: bad IDX magic {data[:4].hex()}, expected 0000 08 for u8 data")
    if data[3] != rank:
        raise DataLoadError(f"{path}: IDX rank mismatch, expected {rank}, got {data[3]}")
    header = 4 + 4 * rank
    if len(data) < header:
        raise DataLoadError(f"truncated IDX file {path}: expected {4 * rank} bytes for dimension sizes")
    dims = struct.unpack(f">{rank}I", data[4:header])
    size = math.prod(dims)
    if len(data) < header + size:
        raise DataLoadError(f"truncated IDX file {path}: expected {size} bytes for {what}")
    if len(data) > header + size:
        raise DataLoadError(f"{path}: trailing bytes after {what}")
    return dims, np.frombuffer(data, dtype=np.uint8, offset=header)


def load_idx(images_path, labels_path) -> Dataset:
    """Load a big-endian IDX image/label file pair (u8 rank-3 images, u8 rank-1 labels).

    Pixels are scaled to ``[0, 1]`` as ``value / 255``; ``image_shape`` is
    ``(H, W, 1)``.
    """
    (n, h, w), pixels = _read_idx(images_path, 3, "pixel data")
    (n_labels,), labels = _read_idx(labels_path, 1, "label data")
    if n_labels != n:
        raise DataLoadError(f"IDX count mismatch: {n} images vs {n_labels} labels")
    if n < 1:
        raise DataLoadError(f"{images_path}: empty IDX file")
    if h < 1 or w < 1:
        raise DataLoadError(f"{images_path}: IDX images of {h} x {w} pixels, expected at least 1 x 1")
    features = np.divide(pixels.reshape(n, h * w), 255.0)
    labels = labels.astype(np.int64)
    num_classes = max(int(labels.max()) + 1, 2)
    return Dataset(features, labels, num_classes=num_classes, image_shape=(h, w, 1))


def standardize(dataset: Dataset) -> Dataset:
    """Center each feature column at 0 and scale it to unit standard deviation.

    Zero-variance columns are left centered at 0. The returned dataset keeps
    the input's ``feature_std`` untouched so the raw noise scale survives.
    """
    if dataset.n < 2:
        raise ValueError("standardize needs at least 2 rows")
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    scaled = dataset.features - mean
    nonzero = std > 0
    scaled[:, nonzero] /= std[nonzero]
    return Dataset(
        scaled,
        dataset.labels,
        dataset.num_classes,
        image_shape=dataset.image_shape,
        feature_std=dataset.feature_std,
    )

