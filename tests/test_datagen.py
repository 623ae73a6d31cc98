"""Dataset generation, stratified splitting, scaling, and canonical CSV
serialization checks."""
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfedring import datagen as dg


class TestMakeCircles:
    def test_noiseless_radii_and_labels(self):
        feats, labels = dg.make_circles(200, noise=0.0, factor=0.5, seed=0)
        radii = np.linalg.norm(feats, axis=1)
        assert_allclose(radii[labels == 0], 1.0, atol=1e-12)
        assert_allclose(radii[labels == 1], 0.5, atol=1e-12)
        assert (labels == 0).sum() == 100 and (labels == 1).sum() == 100

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            dg.make_circles(7, noise=0.0, factor=0.5, seed=0)

    def test_noise_perturbs_but_preserves_structure(self):
        feats, labels = dg.make_circles(400, noise=0.1, factor=0.5, seed=3)
        radii = np.linalg.norm(feats, axis=1)
        assert abs(radii[labels == 0].mean() - 1.0) < 0.1
        assert abs(radii[labels == 1].mean() - 0.5) < 0.1
        assert radii[labels == 0].std() > 0.01

    def test_deterministic_per_seed(self):
        a = dg.make_circles(100, noise=0.1, factor=0.5, seed=5)
        b = dg.make_circles(100, noise=0.1, factor=0.5, seed=5)
        c = dg.make_circles(100, noise=0.1, factor=0.5, seed=6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="num_points"):
            dg.make_circles(2, noise=0.1, factor=0.5, seed=0)
        with pytest.raises(ValueError, match="noise"):
            dg.make_circles(10, noise=-0.1, factor=0.5, seed=0)
        with pytest.raises(ValueError, match="factor"):
            dg.make_circles(10, noise=0.1, factor=1.5, seed=0)

    @pytest.mark.parametrize("noise", [3e307, 6e307])
    def test_overflowing_noise_is_named_without_warnings(self, noise):
        # 3e307 used to fail later, in scale_and_split's span, after numpy's
        # overflow warnings; 6e307 drew infinite features, named only as "the data".
        # A RuntimeWarning would be raised here in place of the ValueError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"noise={noise!r} jitters")):
                dg.make_circles(1200, noise=noise, factor=0.5, seed=42)


def replay_split(labels, train_fraction, seed):
    """The (train, test) row indices scale_and_split draws, replayed from its rng."""
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        k = int(round(train_fraction * idx.size))
        train_parts.append(idx[:k])
        test_parts.append(idx[k:])
    return rng.permutation(np.concatenate(train_parts)), rng.permutation(np.concatenate(test_parts))


class TestScaleAndSplit:
    def test_split_sizes_stratified(self):
        feats, labels = dg.make_circles(200, noise=0.1, factor=0.5, seed=1)
        ds = dg.scale_and_split(feats, labels, train_fraction=0.8, seed=2)
        assert ds.train_labels.size == 160 and ds.test_labels.size == 40
        # Each class splits at the same fraction.
        assert (ds.train_labels == 0).sum() == 80
        assert (ds.train_labels == 1).sum() == 80
        assert (ds.test_labels == 0).sum() == 20

    def test_train_features_span_zero_to_pi(self):
        feats, labels = dg.make_circles(300, noise=0.1, factor=0.5, seed=1)
        ds = dg.scale_and_split(feats, labels, train_fraction=0.8, seed=2)
        assert ds.train_features.min() >= 0.0
        assert ds.train_features.max() <= math.pi
        assert_allclose(ds.train_features.min(axis=0), [0.0, 0.0], atol=1e-12)
        assert_allclose(ds.train_features.max(axis=0), [math.pi, math.pi], atol=1e-12)

    def test_scaling_uses_train_statistics_only(self):
        feats, labels = dg.make_circles(300, noise=0.1, factor=0.5, seed=1)
        ds = dg.scale_and_split(feats, labels, train_fraction=0.8, seed=2)
        train_idx, test_idx = replay_split(labels, 0.8, seed=2)
        lo, hi = feats[train_idx].min(axis=0), feats[train_idx].max(axis=0)
        # The whole data's range differs, so scaling by it would fail below.
        assert np.any(lo != feats.min(axis=0)) or np.any(hi != feats.max(axis=0))
        want = np.clip((feats[test_idx] - lo) / (hi - lo) * math.pi, 0.0, math.pi)
        assert_allclose(ds.test_features, want, rtol=0, atol=1e-12)
        assert_allclose(ds.train_features, (feats[train_idx] - lo) / (hi - lo) * math.pi,
                        rtol=0, atol=1e-12)

    def test_test_features_clamped_and_counted(self):
        feats, labels = dg.make_circles(400, noise=0.15, factor=0.5, seed=9)
        ds = dg.scale_and_split(feats, labels, train_fraction=0.8, seed=10)
        assert ds.test_features.min() >= 0.0
        assert ds.test_features.max() <= math.pi
        assert ds.num_clamped >= 0
        # Count is consistent with the raw data falling outside the train range.
        raw = feats
        train_idx, test_idx = replay_split(labels, 0.8, seed=10)
        lo = raw[train_idx].min(axis=0)
        hi = raw[train_idx].max(axis=0)
        outside = ((raw[test_idx] < lo) | (raw[test_idx] > hi)).sum()
        assert ds.num_clamped == outside

    def test_deterministic_per_seed(self):
        feats, labels = dg.make_circles(100, noise=0.1, factor=0.5, seed=4)
        a = dg.scale_and_split(feats, labels, train_fraction=0.8, seed=5)
        b = dg.scale_and_split(feats, labels, train_fraction=0.8, seed=5)
        c = dg.scale_and_split(feats, labels, train_fraction=0.8, seed=6)
        assert np.array_equal(a.train_features, b.train_features)
        assert np.array_equal(a.train_labels, b.train_labels)
        assert not np.array_equal(a.train_labels, c.train_labels)

    @pytest.mark.parametrize("lone", [0, 1])
    def test_validation(self, lone):
        feats, labels = dg.make_circles(50, noise=0.1, factor=0.5, seed=0)
        with pytest.raises(ValueError, match="train_fraction"):
            dg.scale_and_split(feats, labels, train_fraction=1.0, seed=0)
        with pytest.raises(ValueError, match=f"classes present, got only label {lone}$"):
            dg.scale_and_split(feats[:10], np.full(10, lone), 0.8, seed=0)
        with pytest.raises(ValueError, match="constant"):
            fixed = np.array(feats)
            fixed[:, 0] = 1.0
            dg.scale_and_split(fixed, labels, train_fraction=0.8, seed=0)

    @pytest.mark.parametrize("fraction", [0.3, 0.7])
    def test_fraction_that_empties_a_side_is_refused(self, fraction):
        # One row per class: 0.3 rounds each class's training share to 0 rows,
        # 0.7 to all of them.
        with pytest.raises(ValueError) as refused:
            dg.scale_and_split([[0.0, 0.0], [1.0, 1.0]], [0, 1], fraction, seed=0)
        assert str(refused.value) == "train_fraction leaves one side of the split empty"

    def test_overflowing_training_span_is_named_without_warnings(self):
        # Each class has two rows at each extreme, so any 3 of its 4 training
        # rows span 2e308, which used to overflow with numpy warnings (raised
        # here as errors).
        feats = np.column_stack([np.tile([-1e308, 1e308], 4), np.arange(8.0)])
        labels = np.repeat([0, 1], 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="span on the training split overflows"):
                dg.scale_and_split(feats, labels, train_fraction=0.75, seed=0)

    def test_dataset_validation(self):
        ok = dict(
            train_features=np.zeros((2, 2)),
            train_labels=np.array([0, 1]),
            test_features=np.zeros((1, 2)),
            test_labels=np.array([1]),
        )
        dg.Dataset(**ok)
        with pytest.raises(ValueError, match="labels"):
            dg.Dataset(**{**ok, "train_labels": np.array([0, 2])})
        with pytest.raises(ValueError, match="length"):
            dg.Dataset(**{**ok, "train_labels": np.array([0, 1, 1])})
        with pytest.raises(ValueError, match="non-empty"):
            dg.Dataset(
                train_features=np.zeros((0, 2)),
                train_labels=np.zeros(0, dtype=int),
                test_features=np.zeros((1, 2)),
                test_labels=np.array([0]),
            )


def read_dumped(path) -> dg.Dataset:
    """Rebuild a Dataset from a dump_csv file (header x1,x2,label,split)."""
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,label,split"
    rows = {"train": ([], []), "test": ([], [])}
    for line in lines[1:]:
        x1, x2, label, split = line.split(",")
        rows[split][0].append([float(x1), float(x2)])
        rows[split][1].append(int(label))
    return dg.Dataset(
        train_features=np.array(rows["train"][0]),
        train_labels=np.array(rows["train"][1]),
        test_features=np.array(rows["test"][0]),
        test_labels=np.array(rows["test"][1]),
    )


class TestSerialization:
    def test_csv_shape_and_header(self, small_dataset):
        text = dg.csv_text(small_dataset)
        lines = text.strip().split("\n")
        assert lines[0] == "x1,x2,label,split"
        n = small_dataset.train_labels.size + small_dataset.test_labels.size
        assert len(lines) == n + 1
        assert lines[1].endswith(",train")
        assert lines[-1].endswith(",test")
        x1, x2 = small_dataset.train_features[0]
        assert lines[1] == f"{x1:.9g},{x2:.9g},{small_dataset.train_labels[0]},train"

    def test_dump_writes_the_canonical_bytes(self, small_dataset, tmp_path):
        # The file is exactly the text the checksum hashes: ASCII, LF endings.
        path = tmp_path / "data.csv"
        dg.dump_csv(small_dataset, path)
        assert path.read_bytes() == dg.csv_text(small_dataset).encode("ascii")

    def test_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "data.csv"
        dg.dump_csv(small_dataset, path)
        loaded = read_dumped(path)
        # Values survive at 9 significant digits.
        assert_allclose(loaded.train_features, small_dataset.train_features, rtol=1e-8)
        assert np.array_equal(loaded.train_labels, small_dataset.train_labels)
        assert_allclose(loaded.test_features, small_dataset.test_features, rtol=1e-8)
        assert np.array_equal(loaded.test_labels, small_dataset.test_labels)

    def test_round_trip_preserves_checksum(self, small_dataset, tmp_path):
        path = tmp_path / "data.csv"
        dg.dump_csv(small_dataset, path)
        assert dg.dataset_checksum(read_dumped(path)) == dg.dataset_checksum(small_dataset)

    def test_checksum_distinguishes_datasets(self, small_dataset):
        feats, labels = dg.make_circles(100, noise=0.1, factor=0.5, seed=99)
        other = dg.scale_and_split(feats, labels, train_fraction=0.8, seed=100)
        assert dg.dataset_checksum(other) != dg.dataset_checksum(small_dataset)
        assert dg.dataset_checksum(small_dataset) == dg.dataset_checksum(small_dataset)

    def test_checksum_is_hex_sha256(self, small_dataset):
        digest = dg.dataset_checksum(small_dataset)
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)

    def test_lf_line_endings(self, small_dataset, tmp_path):
        path = tmp_path / "data.csv"
        dg.dump_csv(small_dataset, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
