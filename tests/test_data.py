import math
import struct

import numpy as np
import pytest

from polyhead import data
from polyhead.data import (EmptyDatasetError, IdxFormatError, LabeledBatch,
                           batches, load_idx, make_blobs, write_idx)
from polyhead.polytope import ClassCountError, make_simplex
from reference import loop_blobs, traced_peak


def write_pair(tmp_path, images, labels, image_magic=0x00000803,
               label_magic=0x00000801, truncate_images=0, truncate_labels=0):
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    payload = struct.pack(">4i", image_magic, n, rows, cols) + images.tobytes()
    img_path.write_bytes(payload[:len(payload) - truncate_images])
    payload = struct.pack(">2i", label_magic, len(labels)) + labels.tobytes()
    lab_path.write_bytes(payload[:len(payload) - truncate_labels])
    return img_path, lab_path


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(12, 5, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=12, dtype=np.uint8)
    return write_pair(tmp_path, images, labels), images, labels


class TestLoadIdx:
    def test_shapes_and_scaling(self, idx_pair):
        (img, lab), images, labels = idx_pair
        batch = load_idx(img, lab)
        assert batch.inputs.shape == (12, 20)
        assert np.array_equal(batch.labels, labels)
        assert batch.inputs.min() >= 0.0 and batch.inputs.max() <= 1.0
        assert np.allclose(batch.inputs,
                           images.reshape(12, 20).astype(float) / 255.0)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        img, lab = write_pair(tmp_path, images, labels, image_magic=0)
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        img, lab = write_pair(tmp_path, images, labels, truncate_images=4)
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.zeros(5, dtype=np.uint8)
        img, lab = write_pair(tmp_path, images, labels)
        with pytest.raises(IdxFormatError, match="count"):
            load_idx(img, lab)

    @pytest.mark.parametrize("count,rows,cols,field", [
        (-2, 2, 2, "image count -2"), (-2, -2, 2, "image count -2"),
        (2, 0, 2, "rows 0"), (2, 2, 0, "columns 0"), (2, -1, 3, "rows -1"),
        (2, 3, -2 ** 31, "columns -2147483648")])
    def test_malformed_header_named(self, tmp_path, count, rows, cols, field):
        img, lab = tmp_path / "images.idx", tmp_path / "labels.idx"
        img.write_bytes(struct.pack(">4i", 0x00000803, count, rows, cols) + bytes(64))
        lab.write_bytes(struct.pack(">2i", 0x00000801, 2) + bytes(2))
        with pytest.raises(IdxFormatError, match=f"images.idx: header {field} is below"):
            load_idx(img, lab)

    def test_negative_label_count_named(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        img, lab = write_pair(tmp_path, images, np.zeros(2, dtype=np.uint8))
        lab.write_bytes(struct.pack(">2i", 0x00000801, -2) + bytes(2))
        with pytest.raises(IdxFormatError, match="labels.idx: header label count -2"):
            load_idx(img, lab)

    def test_zero_count_is_empty(self, tmp_path):
        img, lab = write_pair(tmp_path, np.zeros((0, 3, 3), dtype=np.uint8),
                              np.zeros(0, dtype=np.uint8))
        with pytest.raises(EmptyDatasetError):
            load_idx(img, lab)

    @pytest.mark.parametrize("emnist", [False, True])
    def test_decode_matches_astype_bitwise(self, idx_pair, emnist):
        (img, lab), images, _ = idx_pair
        if emnist:
            images = images.transpose(0, 2, 1)
        expected = images.reshape(12, 20).astype(np.float64) / 255.0
        assert load_idx(img, lab, emnist=emnist).inputs.tobytes() == expected.tobytes()

    def test_emnist_transpose(self, tmp_path):
        images = np.arange(6, dtype=np.uint8).reshape(1, 2, 3)
        labels = np.zeros(1, dtype=np.uint8)
        img, lab = write_pair(tmp_path, images, labels)
        plain = load_idx(img, lab)
        flipped = load_idx(img, lab, emnist=True)
        assert np.allclose(flipped.inputs.reshape(3, 2),
                           plain.inputs.reshape(2, 3).T)

    def test_round_trip(self, tmp_path, idx_pair):
        (img, lab), _, _ = idx_pair
        batch = load_idx(img, lab)
        img2, lab2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
        write_idx(batch, img2, lab2, rows=5, cols=4)
        again = load_idx(img2, lab2)
        assert np.abs(again.inputs - batch.inputs).max() <= 1.0 / 255.0
        assert np.array_equal(again.labels, batch.labels)


class TestMakeBlobs:
    @pytest.mark.parametrize("args", [(2, 1, 1, 1.0, 6.0, 0), (3, 5, 7, 0.5, -4.0, 9),
                                      (10, 40, 3, 2.0, 1e300, 1), (47, 6, 11, 0.0, 3.0, 2),
                                      (1000, 32, 10, 1.0, 6.0, 7)])
    def test_matches_loop_reference_bitwise(self, args):
        batch = make_blobs(*args)
        inputs, labels = loop_blobs(*args)
        assert batch.inputs.tobytes() == inputs.tobytes()
        assert batch.labels.dtype == labels.dtype
        assert np.array_equal(batch.labels, labels)

    @pytest.mark.parametrize("spread,separation", [(1e308, 6.0), (1e308, 0.0),
                                                   (1e308, -1e308)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_inputs_named(self, spread, separation):
        with pytest.raises(ValueError, match="^spread .* and separation .* give non-finite"):
            make_blobs(3, 4, 50, spread, separation, seed=0)

    def test_two_class_nearest_mean_oracle(self):
        batch = make_blobs(2, 2, 200, spread=1.0, separation=6.0, seed=1)
        # closed-form classifier: nearest class mean
        means = np.array([batch.inputs[batch.labels == c].mean(axis=0)
                          for c in range(2)])
        dists = ((batch.inputs[:, None, :] - means[None]) ** 2).sum(axis=2)
        preds = dists.argmin(axis=1)
        assert (preds == batch.labels).mean() >= 0.99

    def test_empty_per_class(self):
        with pytest.raises(EmptyDatasetError):
            make_blobs(3, 2, 0, 1.0, 5.0, seed=0)

    @pytest.mark.parametrize("classes,dim,per_class", [
        (2, 1, data.MAX_BLOB_ENTRIES // 2 + 1), (2, 10 ** 12, 1), (10 ** 6, 100, 1000)])
    def test_too_many_entries_refused_before_any_array(self, monkeypatch, classes,
                                                       dim, per_class):
        def no_arrays(*args):  # the first array make_blobs builds
            raise AssertionError("an array was built")
        monkeypatch.setattr(data, "simplex_rows", no_arrays)
        with pytest.raises(ValueError, match="MAX_BLOB_ENTRIES"):
            make_blobs(classes, dim, per_class, 1.0, 6.0, seed=0)

    @pytest.mark.parametrize("spread,separation,name", [
        (math.nan, 6.0, "spread"), (math.inf, 6.0, "spread"), (-1.0, 6.0, "spread"),
        (1.0, math.nan, "separation"), (1.0, math.inf, "separation"),
        (1.0, -math.inf, "separation")])
    def test_bad_spread_or_separation_named(self, spread, separation, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_blobs(3, 2, 5, spread, separation, seed=0)

    @pytest.mark.parametrize("classes", [1, 0, -3])
    def test_fewer_than_two_classes_refused(self, classes):
        # the rule of polytope.embedding_dim, met before any array is built
        with pytest.raises(ClassCountError,
                           match=f"^need at least 2 classes, got {classes}$"):
            make_blobs(classes, 2, 5, 1.0, 6.0, seed=0)

    def test_more_classes_than_the_largest_simplex_refused(self):
        # the means need two columns, but simplex_rows computes whole rows
        with pytest.raises(ClassCountError, match="4097x4096 matrix"):
            make_blobs(4097, 2, 1, 1.0, 6.0, seed=0)

    @pytest.mark.parametrize("seed", [-1, -3, -2 ** 63])
    def test_negative_seed_named(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be at least 0, got {seed}$"):
            make_blobs(3, 2, 5, 1.0, 6.0, seed)

    def test_k1000_means_never_build_the_simplex(self):
        # the whole 1000 x 999 simplex alone would be 8 MB
        assert traced_peak(make_blobs, 1000, 32, 10, 1.0, 6.0, 0) < 3 * 1000 * 10 * 32 * 8

    def test_zero_spread_puts_samples_on_their_means(self):
        batch = make_blobs(3, 2, 4, 0.0, -5.0, seed=0)
        assert np.array_equal(batch.inputs, -5.0 * make_simplex(3).rows[batch.labels])

    def test_deterministic(self):
        a = make_blobs(4, 3, 10, 0.5, 4.0, seed=9)
        b = make_blobs(4, 3, 10, 0.5, 4.0, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_means_on_padded_simplex(self):
        batch = make_blobs(3, 5, 2000, spread=0.1, separation=10.0, seed=2)
        directions = make_simplex(3).rows
        for c in range(3):
            mean = batch.inputs[batch.labels == c].mean(axis=0)
            assert np.allclose(mean[:2], 10.0 * directions[c], atol=0.05)
            assert np.allclose(mean[2:], 0.0, atol=0.05)


class TestBatches:
    @pytest.fixture
    def small(self):
        return LabeledBatch(np.arange(20, dtype=float).reshape(10, 2),
                            np.arange(10))

    def test_sizes_with_short_final(self, small):
        sizes = [len(b) for b in batches(small, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_partition_is_permutation(self, small):
        seen = np.concatenate(
            [b.labels for b in batches(small, 3, seed=1, epoch=2)])
        assert sorted(seen) == list(range(10))

    def test_epochs_differ(self, small):
        a = np.concatenate([b.labels for b in batches(small, 10, 5, epoch=0)])
        b = np.concatenate([b.labels for b in batches(small, 10, 5, epoch=1)])
        assert not np.array_equal(a, b)

    def test_same_epoch_identical(self, small):
        a = np.concatenate([b.labels for b in batches(small, 4, 5, epoch=3)])
        b = np.concatenate([b.labels for b in batches(small, 4, 5, epoch=3)])
        assert np.array_equal(a, b)
