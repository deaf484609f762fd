import csv
import errno
import os
import struct
import tracemalloc

import numpy as np
import pytest

from hdexplain.data import (
    Dataset,
    gen_rectangles,
    gen_two_moons,
    load_csv,
    load_idx,
    save_csv,
    standardize,
)
from hdexplain.errors import DataLoadError
from hdexplain.nnet import MLPClassifier
from hdexplain.stein import make_stein_points


class TestTwoMoons:
    def test_shape_and_balance(self):
        ds = gen_two_moons(500, 0.1, seed=7)
        assert ds.n == 500 and ds.d == 2 and ds.num_classes == 2
        assert np.bincount(ds.labels).tolist() == [250, 250]

    def test_deterministic(self):
        a = gen_two_moons(500, 0.1, seed=7)
        b = gen_two_moons(500, 0.1, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_noise_points_lie_on_arcs(self):
        # independent geometric check: class 0 on the unit circle (upper half),
        # class 1 on the unit circle about (1, 0.5) (lower half)
        ds = gen_two_moons(4, 0.0, seed=0)
        for x, label in zip(ds.features, ds.labels):
            if label == 0:
                assert abs(np.linalg.norm(x) - 1.0) < 1e-12
                assert x[1] >= -1e-12
            else:
                assert abs(np.linalg.norm(x - np.array([1.0, 0.5])) - 1.0) < 1e-12
                assert x[1] <= 0.5 + 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gen_two_moons(1, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_two_moons(10, -0.1, seed=0)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, noise_std):
        with pytest.raises(ValueError, match="noise_std must be non-negative and finite"):
            gen_two_moons(10, noise_std, seed=0)


class TestRectangles:
    def test_shape(self):
        ds = gen_rectangles(500, seed=1)
        assert ds.n == 500 and ds.d == 2 and ds.num_classes == 3

    def test_minimal_one_point_per_class(self):
        ds = gen_rectangles(3, seed=0)
        assert np.bincount(ds.labels).tolist() == [1, 1, 1]

    def test_points_inside_unit_square(self):
        ds = gen_rectangles(300, seed=2)
        assert np.all(ds.features >= 0.0) and np.all(ds.features <= 1.0)

    def test_points_inside_their_class_region(self):
        ds = gen_rectangles(300, seed=3)
        for x, label in zip(ds.features, ds.labels):
            assert label / 3.0 <= x[0] <= (label + 1) / 3.0

    def test_balanced_counts(self):
        counts = np.bincount(gen_rectangles(500, seed=4).labels)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        assert np.array_equal(gen_rectangles(64, seed=9).features,
                              gen_rectangles(64, seed=9).features)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            gen_rectangles(2, seed=0)


class TestCSV:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n")
        ds = load_csv(path)
        assert ds.n == 3 and ds.d == 2 and ds.num_classes == 2
        assert ds.labels.tolist() == [0, 1, 1]

    def test_dense_label_remap_preserves_order(self, tmp_path):
        path = tmp_path / "remap.csv"
        path.write_text("x,label\n0.5,9\n0.6,5\n0.7,9\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [1, 0, 1]
        assert ds.num_classes == 2

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(DataLoadError, match=r"line 3.*'b'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b,label\n1.0,2.0,0\n3.0,4.0,1\n1.0,{cell},1\n")
        with pytest.raises(DataLoadError, match=r"non-finite value .* line 4, column 'b'"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataLoadError):
            load_csv(tmp_path / "nope.csv")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataLoadError, match="'label'"):
            load_csv(path)

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,label\n1,0\n2,0\n")
        with pytest.raises(DataLoadError, match="one class"):
            load_csv(path)

    def test_save_load_round_trip_exact(self, tmp_path):
        ds = gen_two_moons(50, 0.3, seed=11)
        path = tmp_path / "moons.csv"
        save_csv(ds, path)
        back = load_csv(path)
        # repr-based formatting keeps the text round trip bit-exact
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "moons.csv"
        save_csv(gen_two_moons(50, 0.3, seed=1), path)
        old = path.read_bytes()
        real_writer = csv.writer

        class FullDisk:
            """A CSV writer that fails as a full disk does after 20 rows."""

            def __init__(self, fh):
                self.writer = real_writer(fh)
                self.rows = 0

            def writerow(self, row):
                if self.rows == 20:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.rows += 1
                return self.writer.writerow(row)

        monkeypatch.setattr(csv, "writer", FullDisk)
        with pytest.raises(OSError, match="No space left"):
            save_csv(gen_two_moons(80, 0.3, seed=2), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["moons.csv"]


def _write_idx_pair(tmp_path, images, labels):
    n, h, w = images.shape
    images_path = tmp_path / "imgs.idx"
    labels_path = tmp_path / "labs.idx"
    images_path.write_bytes(
        b"\x00\x00\x08\x03" + struct.pack(">III", n, h, w) + images.astype(np.uint8).tobytes()
    )
    labels_path.write_bytes(
        b"\x00\x00\x08\x01" + struct.pack(">I", len(labels)) + bytes(labels)
    )
    return images_path, labels_path


class TestIDX:
    def test_header_arithmetic(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
        paths = _write_idx_pair(tmp_path, images, [i % 2 for i in range(10)])
        ds = load_idx(*paths)
        assert ds.n == 10 and ds.d == 784 and ds.image_shape == (28, 28, 1)

    def test_pixel_scaling(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        images[0, 0, 0] = 255
        images[1, 1, 1] = 51
        paths = _write_idx_pair(tmp_path, images, [0, 1])
        ds = load_idx(*paths)
        assert ds.features[0, 0] == 1.0
        assert abs(ds.features[1, 3] - 51 / 255) < 1e-15

    def test_every_pixel_value_scales_as_value_over_255(self, tmp_path):
        images = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        paths = _write_idx_pair(tmp_path, images, [0, 1, 0, 1])
        want = images.reshape(4, 64).astype(np.float64) / 255.0
        assert load_idx(*paths).features.tobytes() == want.tobytes()

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((10, 4, 4), dtype=np.uint8)
        paths = _write_idx_pair(tmp_path, images, [0, 1] * 4 + [0])
        with pytest.raises(DataLoadError, match="count mismatch"):
            load_idx(*paths)

    def test_wrong_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, [0, 1])
        data = bytearray(img_path.read_bytes())
        data[2] = 0x09
        img_path.write_bytes(bytes(data))
        with pytest.raises(DataLoadError, match="magic"):
            load_idx(img_path, lab_path)

    def test_rank_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, [0, 1])
        data = bytearray(img_path.read_bytes())
        data[3] = 2
        img_path.write_bytes(bytes(data))
        with pytest.raises(DataLoadError, match="rank"):
            load_idx(img_path, lab_path)

    def test_truncated(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, [0, 1])
        img_path.write_bytes(img_path.read_bytes()[:-5])
        with pytest.raises(DataLoadError, match="truncated"):
            load_idx(img_path, lab_path)

    @pytest.mark.parametrize("file, keep, what", [
        ("images", 2, "4 bytes for magic"),
        ("images", 8, "12 bytes for dimension sizes"),
        ("labels", 3, "4 bytes for magic"),
        ("labels", 6, "4 bytes for dimension sizes"),
    ])
    def test_truncated_header(self, tmp_path, file, keep, what):
        img_path, lab_path = _write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        path = img_path if file == "images" else lab_path
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataLoadError, match=f"truncated IDX file .*: expected {what}"):
            load_idx(img_path, lab_path)

    def test_bad_magic_is_reported_before_a_truncation(self, tmp_path):
        img_path, lab_path = _write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        img_path.write_bytes(b"\x00\x00\x09\x03\x00\x00")
        with pytest.raises(DataLoadError, match="bad IDX magic 00000903"):
            load_idx(img_path, lab_path)

    def test_zero_images(self, tmp_path):
        paths = _write_idx_pair(tmp_path, np.zeros((0, 3, 3), dtype=np.uint8), [])
        with pytest.raises(DataLoadError, match="empty IDX file"):
            load_idx(*paths)

    @pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0)])
    def test_zero_image_dimension(self, tmp_path, shape):
        paths = _write_idx_pair(tmp_path, np.zeros(shape, dtype=np.uint8), [0, 1])
        with pytest.raises(DataLoadError, match=f"IDX images of {shape[1]} x {shape[2]} pixels"):
            load_idx(*paths)

    def test_trailing_bytes(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, [0, 1])
        lab_path.write_bytes(lab_path.read_bytes() + b"\x00")
        with pytest.raises(DataLoadError, match="trailing bytes after label data"):
            load_idx(img_path, lab_path)

    @pytest.mark.parametrize("file, header", [
        ("images", (2**31, 2**16, 2**16)),
        ("images", (2**20, 2**10, 2**10)),
        ("labels", (2**32 - 1,)),
    ])
    def test_oversized_header_allocates_nothing(self, tmp_path, file, header):
        images = np.zeros((2, 10, 10), dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, [0, 1])
        path = img_path if file == "images" else lab_path
        data = bytearray(path.read_bytes())
        data[4:4 + 4 * len(header)] = struct.pack(f">{len(header)}I", *header)
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(DataLoadError, match="truncated IDX file"):
                load_idx(img_path, lab_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


class TestStandardize:
    def test_two_point_column(self):
        ds = Dataset(np.array([[0.0], [2.0]]), np.array([0, 1]), 2)
        out = standardize(ds)
        assert np.allclose(out.features[:, 0], [-1.0, 1.0])

    def test_constant_column_centered_at_zero(self):
        ds = Dataset(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]), np.array([0, 1, 0]), 2)
        out = standardize(ds)
        assert np.allclose(out.features[:, 0], 0.0)

    def test_idempotent(self):
        ds = gen_two_moons(100, 0.2, seed=5)
        once = standardize(ds)
        twice = standardize(once)
        assert np.allclose(once.features, twice.features, atol=1e-12)

    def test_column_moments(self):
        ds = gen_two_moons(200, 0.2, seed=6)
        out = standardize(ds)
        assert np.all(np.abs(out.features.mean(axis=0)) <= 1e-10)
        assert np.all(np.abs(out.features.std(axis=0) - 1.0) <= 1e-10)

    def test_keeps_raw_feature_std(self):
        ds = gen_two_moons(100, 0.2, seed=7)
        out = standardize(ds)
        assert np.array_equal(out.feature_std, ds.feature_std)

    def test_needs_two_rows(self):
        ds = Dataset(np.array([[1.0, 0.0]]), np.array([0]), 2)
        with pytest.raises(ValueError):
            standardize(ds)


def _one_hot_block(label, num_classes):
    """The one-hot block that the Stein point of one labelled row carries."""
    flat = MLPClassifier([1, num_classes], [np.zeros((1, num_classes))],
                         [np.zeros(num_classes)])
    z, _ = make_stein_points(flat, np.zeros((1, 1)), [label], "raw")
    return z[0, 1:]


class TestOneHot:
    def test_definition(self):
        assert _one_hot_block(1, 3).tolist() == [0.0, 1.0, 0.0]
        assert _one_hot_block(0, 2).tolist() == [1.0, 0.0]

    def test_single_unit_mass(self):
        for l in range(2, 8):
            for label in range(l):
                vec = _one_hot_block(label, l)
                assert vec.sum() == 1.0
                assert np.count_nonzero(vec) == 1


class TestDatasetInvariants:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)

    def test_image_shape_consistency(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 5)), np.array([0, 1]), 2, image_shape=(2, 2, 1))

    @pytest.mark.parametrize("shape", [(-1, -2, 1), (2, 1, 0, 1), (2.0, 1, 1), (2, 1)])
    def test_image_shape_of_positive_integers(self, shape):
        # each entry meets the count check first; only (2, 1) reaches the length check
        match = ("must be three positive integers" if shape == (2, 1)
                 else "image_shape entries must be an integer of at least 1")
        with pytest.raises(ValueError, match=match):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), 2, image_shape=shape)

    def test_image_shape_entries_become_ints(self):
        ds = Dataset(np.zeros((2, 6)), np.array([0, 1]), 2, image_shape=(np.int64(2), 3, 1))
        assert ds.image_shape == (2, 3, 1) and all(type(v) is int for v in ds.image_shape)

    @pytest.mark.parametrize("num_classes", [2.5, 3.0, "3", 1])
    def test_num_classes_is_an_integer_of_at_least_two(self, num_classes):
        with pytest.raises(ValueError, match="num_classes must be an integer of at least 2"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), num_classes)

    def test_arrays_read_only(self):
        ds = gen_two_moons(10, 0.1, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_unsupplied_feature_std_is_the_column_std(self):
        ds = gen_two_moons(50, 0.3, seed=1)
        std = ds.feature_std
        assert std.tobytes() == ds.features.std(axis=0).tobytes()
        assert ds.feature_std is std
        with pytest.raises(ValueError):
            std[0] = 1.0

    @pytest.mark.parametrize("bad", [np.ones(3), np.array([1.0, -0.5])])
    def test_bad_feature_std_raises_at_construction(self, bad):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2, feature_std=bad)

    def test_supplied_feature_std_is_kept_read_only(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2, feature_std=[0.5, 2.0])
        assert ds.feature_std.tolist() == [0.5, 2.0]
        assert not ds.feature_std.flags.writeable
