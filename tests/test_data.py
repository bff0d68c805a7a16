import struct

import numpy as np
import pytest

from polyhead.data import (EmptyDatasetError, IdxFormatError, LabeledBatch,
                           batches, load_idx, make_blobs, write_idx)


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

    def test_deterministic(self):
        a = make_blobs(4, 3, 10, 0.5, 4.0, seed=9)
        b = make_blobs(4, 3, 10, 0.5, 4.0, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_means_on_padded_simplex(self):
        batch = make_blobs(3, 5, 2000, spread=0.1, separation=10.0, seed=2)
        from polyhead.polytope import make_simplex
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
