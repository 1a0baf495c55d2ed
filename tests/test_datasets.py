import numpy as np
import pytest

from hetfed.datasets import (
    PartitionConfig,
    gen_synthetic,
    load_csv,
    partition,
    split_global,
)

from oracles import class_histogram, label_divergence, save_csv

# Frozen output of partition(blobs(30, 3, 3, noise .5, seed 11),
# dirichlet alpha=0.5, 3 clients, seed 77); guards determinism.
GOLDEN_DIRICHLET = [
    [4, 22],
    [0, 1, 3, 6, 7, 10, 13, 15, 16, 17, 18, 20, 21, 24, 25, 26, 28, 29],
    [2, 5, 8, 9, 11, 12, 14, 19, 23, 27],
]


class TestSynthetic:
    def test_noiseless_blobs_nearest_centroid_is_perfect(self):
        ds = gen_synthetic("blobs", 60, 5, 4, noise=0.0, seed=3)
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        dists = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(dists, axis=1), ds.labels)

    def test_same_seed_identical(self):
        a = gen_synthetic("blobs", 50, 4, 3, 0.4, seed=9)
        b = gen_synthetic("blobs", 50, 4, 3, 0.4, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = gen_synthetic("blobs", 50, 4, 3, 0.4, seed=10)
        assert not np.array_equal(a.features, c.features)

    def test_round_robin_class_counts(self):
        ds = gen_synthetic("blobs", 10, 4, 3, 0.1, seed=0)
        counts = np.bincount(ds.labels, minlength=3)
        assert sorted(counts.tolist(), reverse=True) == [4, 3, 3]
        assert counts[0] == 4  # remainder goes to the lowest classes

    def test_spiral_balanced_and_deterministic(self):
        a = gen_synthetic("spiral", 90, 3, 3, 0.2, seed=1)
        b = gen_synthetic("spiral", 90, 3, 3, 0.2, seed=1)
        assert np.array_equal(a.features, b.features)
        assert np.bincount(a.labels).tolist() == [30, 30, 30]

    def test_spiral_needs_two_dims(self):
        with pytest.raises(ValueError):
            gen_synthetic("spiral", 10, 1, 2, 0.1, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_synthetic("rings", 10, 2, 2, 0.1, seed=0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"noise": -1.0}, "data.noise: must be >= 0, got -1.0"),
        ({"clusters_per_class": 0}, "data.clusters_per_class: must be >= 1, got 0"),
        ({"layout": "lattice", "clusters_per_class": 3}, "data.layout: lattice needs model.input_dim >= "
                                                          "log2(num_classes * clusters_per_class), got 2"),
    ])
    def test_generator_checks_the_load_rules_first(self, kwargs, message):
        args = {"kind": "blobs", "n": 10, "input_dim": 2, "num_classes": 2, "noise": 0.1, "seed": 0, **kwargs}
        with pytest.raises(ValueError) as excinfo:
            gen_synthetic(**args)
        assert str(excinfo.value) == message

    def test_features_standardized(self):
        ds = gen_synthetic("blobs", 500, 6, 4, 0.7, seed=2)
        assert np.allclose(ds.features.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(ds.features.std(axis=0), 1.0, atol=1e-9)

    def test_multi_cluster_blobs(self):
        ds = gen_synthetic("blobs", 120, 4, 3, 0.01, seed=5, clusters_per_class=2)
        # sample i of class c belongs to cluster (i // classes) % clusters
        idx = np.arange(120)
        cluster = (idx // 3) % 2
        for c in range(3):
            group_a = ds.features[(ds.labels == c) & (cluster == 0)]
            group_b = ds.features[(ds.labels == c) & (cluster == 1)]
            within = np.linalg.norm(group_a - group_a.mean(axis=0), axis=1).max()
            between = np.linalg.norm(group_a.mean(axis=0) - group_b.mean(axis=0))
            assert between > 10 * within


class TestPartition:
    def test_iid_sizes_even(self):
        ds = gen_synthetic("blobs", 10, 3, 2, 0.1, seed=0)
        parts = partition(ds, PartitionConfig("iid", num_clients=2, seed=4))
        assert sorted(p.size for p in parts) == [5, 5]

    def test_disjoint_union_covers_everything(self):
        ds = gen_synthetic("blobs", 101, 3, 4, 0.5, seed=1)
        for mode, alpha in (("iid", 1.0), ("dirichlet", 0.3), ("dirichlet", 100.0)):
            parts = partition(ds, PartitionConfig(mode, num_clients=7, alpha=alpha, seed=2))
            merged = np.concatenate(parts)
            assert merged.size == 101
            assert np.array_equal(np.sort(merged), np.arange(101))
            assert all(p.size >= 1 for p in parts)

    def test_more_clients_than_samples_rejected(self):
        ds = gen_synthetic("blobs", 5, 3, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            partition(ds, PartitionConfig("iid", num_clients=6, seed=0))

    def test_huge_alpha_matches_global_histogram(self):
        # alpha -> inf approaches an even split of every class; histograms
        # land within 2% absolute of the global one (averaged over seeds).
        deviations = []
        for seed in range(5):
            ds = gen_synthetic("blobs", 1000, 4, 5, 0.5, seed=seed)
            global_hist = class_histogram(ds.labels, 5)
            parts = partition(ds, PartitionConfig("dirichlet", num_clients=4, alpha=1e6, seed=seed))
            for p in parts:
                hist = class_histogram(ds.labels[p], 5)
                deviations.append(np.abs(hist - global_hist).max())
        assert float(np.mean(deviations)) < 0.02

    def test_lower_alpha_more_divergent(self):
        skew_low, skew_high = [], []
        for seed in range(5):
            ds = gen_synthetic("blobs", 1000, 4, 5, 0.5, seed=seed)
            global_hist = class_histogram(ds.labels, 5)
            for alpha, bucket in ((0.5, skew_low), (5.0, skew_high)):
                parts = partition(ds, PartitionConfig("dirichlet", num_clients=10, alpha=alpha, seed=seed))
                bucket.append(np.mean([label_divergence(ds.labels[p], global_hist) for p in parts]))
        assert np.mean(skew_low) > np.mean(skew_high)

    def test_golden_dirichlet_partition(self):
        ds = gen_synthetic("blobs", 30, 3, 3, 0.5, seed=11)
        parts = partition(ds, PartitionConfig("dirichlet", num_clients=3, alpha=0.5, seed=77))
        assert [p.tolist() for p in parts] == GOLDEN_DIRICHLET

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dirichlet_repair_fills_every_empty_client(self, seed):
        # alpha = 0.05 over 20 clients leaves 15, 11 and 12 of them empty
        # before the repair moves single rows to them from the largest.
        ds = gen_synthetic("blobs", 40, 3, 3, 0.5, seed=0)
        cfg = PartitionConfig("dirichlet", num_clients=20, alpha=0.05, seed=seed)
        parts = partition(ds, cfg)
        assert all(p.size >= 1 for p in parts)
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(40))
        assert [p.tolist() for p in partition(ds, cfg)] == [p.tolist() for p in parts]

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionConfig("pathological", num_clients=2)
        with pytest.raises(ValueError):
            PartitionConfig("dirichlet", num_clients=2, alpha=0.0)


class TestSplits:
    def test_fraction_arithmetic(self):
        ds = gen_synthetic("blobs", 100, 3, 4, 0.5, seed=0)
        train, test, public = split_global(ds, 0.2, 0.1, seed=1)
        assert (train.n, test.n, public.shape[0]) == (70, 20, 10)

    def test_zero_public_fraction_allowed(self):
        ds = gen_synthetic("blobs", 50, 3, 4, 0.5, seed=0)
        train, test, public = split_global(ds, 0.2, 0.0, seed=1)
        assert public.shape[0] == 0
        assert train.n + test.n == 50

    def test_same_seed_identical_disjoint(self):
        ds = gen_synthetic("blobs", 80, 3, 4, 0.5, seed=0)
        a = split_global(ds, 0.25, 0.125, seed=3)
        b = split_global(ds, 0.25, 0.125, seed=3)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].labels, b[1].labels)
        assert np.array_equal(a[2], b[2])
        total = a[0].n + a[1].n + a[2].shape[0]
        assert total == 80

    def test_invalid_fractions(self):
        ds = gen_synthetic("blobs", 20, 3, 2, 0.5, seed=0)
        with pytest.raises(ValueError):
            split_global(ds, 0.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            split_global(ds, 0.5, 0.5, seed=0)


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = gen_synthetic("blobs", 17, 5, 3, 0.7, seed=13)
        path = str(tmp_path / "data.csv")
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_two_row_file(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("f0,f1,label\n0.5,-1.25,0\n3.0,2.0,1\n")
        ds = load_csv(str(path))
        assert ds.n == 2
        assert ds.labels.tolist() == [0, 1]

    def test_column_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n0.5,0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(str(path))

    def test_error_names_physical_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n\n0.5,0.5,0\n\n0.5,0\n")
        with pytest.raises(ValueError, match="line 5:"):
            load_csv(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n0.5,0.5,0\n0.5,{value},1\n")
        with pytest.raises(ValueError, match="line 3: non-finite feature"):
            load_csv(str(path))

    def test_non_integer_label_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n0.5,0.5,zebra\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(str(path))

    def test_empty_file_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(str(path))

    @pytest.mark.parametrize("text,message", [
        ("f0,f1,target\n0.5,0.5,0\n", "header must be f0,...,f{d-1},label"),
        ("f0,f1,label\n0.5,0.5,0\n0.5,abc,1\n",
         "line 3: bad feature value (could not convert string to float: 'abc')"),
        ("f0,f1,label\n0.5,0.5,-1\n", "line 2: label must be >= 0"),
        ("f0,f1,label\n", "no data rows"),
    ], ids=["no_label_column", "non_numeric_feature", "negative_label", "header_only"])
    def test_refusal_names_the_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            load_csv(str(path))
        assert str(excinfo.value) == f"{path}: {message}"
