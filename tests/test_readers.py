"""Every strict prefix and every short extension of a valid model, cache or IDX
file is rejected with the format's own error; the untouched file round-trips
byte for byte."""

import struct

import numpy as np
import pytest

from hdexplain.data import load_idx
from hdexplain.errors import DataLoadError, ModelFormatError
from hdexplain.nnet import MLPClassifier, load_model
from hdexplain.stein import ScoreCache, load_cache

EXTENSIONS = (1, 8)


def model_bytes():
    rng = np.random.default_rng(0)
    dims = [2, 3, 2]
    return MLPClassifier(dims, [rng.normal(size=(a, b)) for a, b in zip(dims[:-1], dims[1:])],
                         [rng.normal(size=b) for b in dims[1:]]).serialize()


def cache_bytes():
    rng = np.random.default_rng(1)
    return bytes(ScoreCache(0x0123456789ABCDEF, "last-layer", rng.normal(size=(4, 3)),
                            rng.normal(size=(4, 3)), [0, 2, 1, 2]).serialize())


IMAGES = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4) * 10
LABELS = np.array([1, 0], dtype=np.uint8)


def idx_bytes():
    n, h, w = IMAGES.shape
    return (b"\x00\x00\x08\x03" + struct.pack(">III", n, h, w) + IMAGES.tobytes(),
            b"\x00\x00\x08\x01" + struct.pack(">I", n) + LABELS.tobytes())


def damaged(data):
    """Every strict prefix of ``data`` and ``data`` with a few bytes appended."""
    return [data[:size] for size in range(len(data))] + [data + bytes(extra) for extra in EXTENSIONS]


@pytest.mark.parametrize("make, load, error", [
    (model_bytes, load_model, ModelFormatError),
    (cache_bytes, load_cache, ModelFormatError),
], ids=["model", "cache"])
def test_every_prefix_and_extension_is_rejected(tmp_path, make, load, error):
    path = tmp_path / "file.bin"
    data = make()
    for bad in damaged(data):
        path.write_bytes(bad)
        with pytest.raises(error):
            load(path)
    path.write_bytes(data)
    assert bytes(load(path).serialize()) == data


@pytest.mark.parametrize("which", [0, 1], ids=["images", "labels"])
def test_every_idx_prefix_and_extension_is_rejected(tmp_path, which):
    paths = [tmp_path / "images.idx", tmp_path / "labels.idx"]
    pair = idx_bytes()
    paths[1 - which].write_bytes(pair[1 - which])
    for bad in damaged(pair[which]):
        paths[which].write_bytes(bad)
        with pytest.raises(DataLoadError):
            load_idx(*paths)


def test_idx_pair_round_trips(tmp_path):
    paths = [tmp_path / "images.idx", tmp_path / "labels.idx"]
    for path, data in zip(paths, idx_bytes()):
        path.write_bytes(data)
    ds = load_idx(*paths)
    n, h, w = IMAGES.shape
    assert ds.image_shape == (h, w, 1) and ds.num_classes == 2
    assert ds.features.tobytes() == (IMAGES.reshape(n, h * w) / 255.0).tobytes()
    pixels = np.rint(ds.features * 255.0).astype(np.uint8)
    written = (b"\x00\x00\x08\x03" + struct.pack(">III", n, h, w) + pixels.tobytes(),
               b"\x00\x00\x08\x01" + struct.pack(">I", ds.n) + ds.labels.astype(np.uint8).tobytes())
    assert written == idx_bytes()
