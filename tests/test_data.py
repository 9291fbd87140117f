from __future__ import annotations

import json

import numpy as np
import pytest

from adrgnn.data import (DataFormatError, DatasetBundle, TemporalDataset,
                         dataset_checksum, from_temporal_json, generate_splits,
                         load_graph_dataset, load_temporal_dataset,
                         make_planted_partition, make_transport_task, make_windows,
                         normalize_series, save_bundle, save_temporal)
from adrgnn.graph import build_graph, erdos_renyi
from adrgnn.runtime import philox


def small_bundle(n=12, seed=0, k=2) -> DatasetBundle:
    gen = philox(seed)
    graph = erdos_renyi(n, 0.4, seed=seed)
    labels = gen.integers(0, 3, n)
    return DatasetBundle(
        graph=graph, features=gen.standard_normal((n, 5)), labels=labels,
        splits=generate_splits(n, (0.5, 0.25, 0.25), k=k, seed=seed),
        name="toy", homophily=0.5, row_normalized=False, split_source="generated")


class TestContainerRoundTrip:
    def test_bundle_round_trip_bit_exact(self, tmp_path):
        bundle = small_bundle()
        save_bundle(bundle, tmp_path / "toy")
        loaded = load_graph_dataset(tmp_path / "toy")
        assert loaded.name == "toy"
        assert loaded.graph.n_nodes == bundle.graph.n_nodes
        assert np.array_equal(loaded.graph.edge_src, bundle.graph.edge_src)
        assert np.array_equal(loaded.features, bundle.features)
        assert np.array_equal(loaded.labels, bundle.labels)
        for (a, b, c), (x, y, z) in zip(loaded.splits, bundle.splits):
            assert np.array_equal(a, x) and np.array_equal(b, y) and np.array_equal(c, z)

    def test_sidecar_files_for_large_arrays(self, tmp_path):
        bundle = small_bundle(n=40)
        out = save_bundle(bundle, tmp_path / "big", inline_limit=16)
        assert (out / "features.bin").exists()
        loaded = load_graph_dataset(out)
        assert np.array_equal(loaded.features, bundle.features)

    def test_minimal_two_node_fixture(self, tmp_path):
        graph = build_graph([(0, 1)], 2)
        bundle = DatasetBundle(
            graph=graph, features=np.array([[1.0], [2.0]]), labels=np.array([0, 1]),
            splits=[(np.array([True, False]), np.array([False, True]),
                     np.array([False, True]))],
            name="mini")
        # val and test overlap is rejected, so write disjoint masks
        bundle.splits = [(np.array([True, False]), np.array([False, True]),
                          np.array([False, False]))]
        save_bundle(bundle, tmp_path / "mini")
        loaded = load_graph_dataset(tmp_path / "mini")
        assert loaded.graph.n_nodes == 2
        assert len(loaded.splits) == 1

    def test_temporal_round_trip(self, tmp_path):
        gen = philox(1)
        ds = TemporalDataset(graph=erdos_renyi(6, 0.5, seed=1),
                             series=gen.standard_normal((9, 6, 2)),
                             timestamps=np.arange(9, dtype=np.float64),
                             tau_in=3, tau_out=2, name="series")
        save_temporal(ds, tmp_path / "series")
        loaded = load_temporal_dataset(tmp_path / "series")
        assert np.array_equal(loaded.series, ds.series)
        assert loaded.tau_in == 3 and loaded.tau_out == 2

    def test_checksum_stable_and_content_sensitive(self, tmp_path):
        bundle = small_bundle()
        out = save_bundle(bundle, tmp_path / "c1", inline_limit=8)
        first = dataset_checksum(out)
        assert first == dataset_checksum(out)
        bundle.features[0, 0] += 1.0
        out2 = save_bundle(bundle, tmp_path / "c2", inline_limit=8)
        assert dataset_checksum(out2) != first


class TestLoaderValidation:
    def _manifest(self, tmp_path, mutate):
        bundle = small_bundle()
        out = save_bundle(bundle, tmp_path / "bundle")
        manifest = json.loads((out / "manifest.json").read_text())
        mutate(manifest)
        (out / "manifest.json").write_text(json.dumps(manifest))
        return out

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph_dataset(tmp_path / "nothing")

    def test_bad_schema_version(self, tmp_path):
        out = self._manifest(tmp_path, lambda m: m.update(schema="other-v9"))
        with pytest.raises(DataFormatError, match="/schema"):
            load_graph_dataset(out)

    def test_missing_split_located(self, tmp_path):
        out = self._manifest(tmp_path, lambda m: m["arrays"].pop("split_val"))
        with pytest.raises(DataFormatError, match="/arrays/split_val"):
            load_graph_dataset(out)

    def test_overlapping_masks_rejected(self, tmp_path):
        def overlap(m):
            n = m["n_nodes"]
            for part, fill in (("split_train", 1), ("split_val", 1), ("split_test", 0)):
                m["arrays"][part] = {"dtype": "int64", "shape": [1, n], "inline": [fill] * n}

        out = self._manifest(tmp_path, overlap)
        with pytest.raises(DataFormatError, match="overlap"):
            load_graph_dataset(out)

    def test_wrong_feature_rows(self, tmp_path):
        def bad_rows(m):
            m["arrays"]["features"]["inline"] = [0.0] * 5
            m["arrays"]["features"]["shape"] = [1, 5]

        out = self._manifest(tmp_path, bad_rows)
        with pytest.raises(DataFormatError, match="/arrays/features"):
            load_graph_dataset(out)

    def test_negative_label_rejected(self, tmp_path):
        def negative(m):
            m["arrays"]["labels"]["inline"][0] = -1

        out = self._manifest(tmp_path, negative)
        with pytest.raises(DataFormatError, match=r"^/arrays/labels: .*-1"):
            load_graph_dataset(out)

    def test_bad_dtype(self, tmp_path):
        out = self._manifest(tmp_path,
                             lambda m: m["arrays"]["features"].update(dtype="float16"))
        with pytest.raises(DataFormatError, match="dtype"):
            load_graph_dataset(out)

    @pytest.mark.parametrize("shape", [["30"], 12, [2.0, 5], [-1, 5], [True, 5], None])
    def test_shape_must_be_a_list_of_counts(self, tmp_path, shape):
        out = self._manifest(tmp_path, lambda m: m["arrays"]["features"].update(shape=shape))
        with pytest.raises(DataFormatError, match=r"^/arrays/features/shape: must be a list"):
            load_graph_dataset(out)

    @pytest.mark.parametrize("key", ["tau_in", "tau_out"])
    @pytest.mark.parametrize("value", [2.5, 0, -1, "2", True])
    def test_window_lengths_must_be_positive_integers(self, tmp_path, key, value):
        ds = TemporalDataset(graph=erdos_renyi(4, 0.6, seed=1),
                             series=philox(1).standard_normal((9, 4, 1)),
                             timestamps=np.arange(9, dtype=np.float64))
        out = save_temporal(ds, tmp_path / "series")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[key] = value
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match=rf"^/{key}: must be an integer >= 1"):
            load_temporal_dataset(out)


class TestGenerateSplits:
    def test_sizes_48_32_20(self):
        (train, val, test), = generate_splits(100, (0.48, 0.32, 0.20), k=1, seed=0)
        assert train.sum() == 48 and val.sum() == 32 and test.sum() == 20

    def test_disjoint_and_covering(self):
        for train, val, test in generate_splits(50, (0.48, 0.32, 0.20), k=5, seed=1):
            combined = train.astype(int) + val.astype(int) + test.astype(int)
            assert combined.max() == 1 and combined.min() == 1

    def test_deterministic(self):
        a = generate_splits(30, k=3, seed=7)
        b = generate_splits(30, k=3, seed=7)
        for (t1, v1, s1), (t2, v2, s2) in zip(a, b):
            assert np.array_equal(t1, t2) and np.array_equal(v1, v2) and np.array_equal(s1, s2)

    def test_stratified_keeps_class_shares(self):
        labels = np.repeat([0, 1], 50)
        (train, _val, _test), = generate_splits(100, (0.48, 0.32, 0.20), k=1, seed=2,
                                                labels=labels, stratified=True)
        assert labels[train].sum() == 24  # half of the 48 train nodes per class

    def test_stratified_needs_labels(self):
        with pytest.raises(ValueError, match="stratified splits need labels"):
            generate_splits(100, k=1, seed=2, stratified=True)

    def test_too_small_pool_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            generate_splits(2, (0.48, 0.32, 0.20), k=1, seed=0)

    def test_ratio_sum_validated(self):
        with pytest.raises(ValueError, match="sum"):
            generate_splits(10, (0.9, 0.3, 0.2), k=1, seed=0)


class TestWindows:
    def _dataset(self, t, tau_in=4, tau_out=1, n=3, c=2, seed=0):
        gen = philox(seed)
        return TemporalDataset(graph=erdos_renyi(n, 0.9, seed=seed),
                               series=gen.standard_normal((t, n, c)),
                               timestamps=np.arange(t, dtype=np.float64),
                               tau_in=tau_in, tau_out=tau_out)

    def test_single_window(self):
        assert len(make_windows(self._dataset(5))) == 1

    def test_six_windows_with_expected_targets(self):
        ds = self._dataset(10)
        windows = make_windows(ds)
        assert len(windows) == 6
        for i, (_x, y, _t) in enumerate(windows):
            np.testing.assert_array_equal(y, ds.series[i + 4].reshape(3, -1))

    def test_contents_match_direct_slices(self):
        ds = self._dataset(8, tau_in=3, tau_out=2)
        for i, (x, y, times) in enumerate(make_windows(ds)):
            np.testing.assert_array_equal(
                x, ds.series[i:i + 3].transpose(1, 0, 2).reshape(3, -1))
            np.testing.assert_array_equal(
                y, ds.series[i + 3:i + 5].transpose(1, 0, 2).reshape(3, -1))
            np.testing.assert_array_equal(times, ds.timestamps[i:i + 3])

    def test_too_short_series(self):
        with pytest.raises(ValueError, match="length"):
            make_windows(self._dataset(4, tau_in=4, tau_out=1))

    def test_last_frame_columns_are_newest(self):
        ds = self._dataset(6, tau_in=3, tau_out=1, c=2)
        x, _y, _t = make_windows(ds)[0]
        np.testing.assert_array_equal(x[:, -2:], ds.series[2])

    def test_timestamps_must_match_the_frames(self):
        ds = self._dataset(30)
        ds.timestamps = ds.timestamps[:25]
        with pytest.raises(ValueError, match="^25 timestamps for a series of 30 frames$"):
            make_windows(ds)

    def test_windows_are_read_only_views_of_one_array(self):
        ds = self._dataset(12, tau_in=3, tau_out=2)
        windows = make_windows(ds)
        base = windows[0][0].base
        assert not base.flags.writeable
        assert not np.shares_memory(base, ds.series)
        for x, y, times in windows:
            for arr in (x, y):
                assert arr.base is base and not arr.flags.writeable
            assert times.base is ds.timestamps
        with pytest.raises(ValueError, match="read-only"):
            windows[0][1][0, 0] = 1.0


class TestTransportTask:
    def test_invariants(self):
        task = make_transport_task(5, 0.55, 2, seed=2)
        assert task.source_features.sum() == pytest.approx(1.0, abs=1e-12)
        assert task.target_features.sum() == 1.0
        assert task.destination not in set(task.source_set.tolist())
        assert task.source_features[task.destination, 0] == 0.0

    def test_deterministic(self):
        a = make_transport_task(6, 0.5, 2, seed=4)
        b = make_transport_task(6, 0.5, 2, seed=4)
        assert a.destination == b.destination
        assert np.array_equal(a.source_set, b.source_set)
        assert np.array_equal(a.graph.edge_src, b.graph.edge_src)

    def test_retry_cap_error_suggests_larger_p(self):
        with pytest.raises(ValueError, match="increase p"):
            make_transport_task(30, 0.0, 3, seed=0)

    def test_sources_connected_to_destination(self):
        from scipy.sparse.csgraph import connected_components
        for seed in range(5):
            task = make_transport_task(8, 0.3, 2, seed=seed)
            _count, comp = connected_components(task.graph.adjacency(), directed=False)
            assert len({comp[s] for s in task.source_set} | {comp[task.destination]}) == 1

    def test_source_count_validated(self):
        with pytest.raises(ValueError, match="n_sources"):
            make_transport_task(4, 0.5, 4, seed=0)


class TestNormalizeSeries:
    def _dataset(self, series):
        n = series.shape[1]
        return TemporalDataset(graph=erdos_renyi(n, 0.9, seed=0), series=series,
                               timestamps=np.arange(series.shape[0], dtype=np.float64))

    def test_zscore_then_inverse_is_identity(self):
        series = philox(0).standard_normal((12, 4, 2)) * 3 + 5
        ds, inv = normalize_series(self._dataset(series))
        np.testing.assert_allclose(inv.inverse(ds.series), series, atol=1e-12)

    def test_per_node_statistics(self):
        series = philox(1).standard_normal((200, 3, 1)) * 2 + 4
        ds, _inv = normalize_series(self._dataset(series))
        np.testing.assert_allclose(ds.series.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(ds.series.std(axis=0), 1.0, atol=1e-10)

    def test_constant_series_identity_with_warning(self, caplog):
        series = np.full((10, 3, 1), 7.0)
        with caplog.at_level("WARNING"):
            ds, inv = normalize_series(self._dataset(series))
        assert "zero-variance" in caplog.text
        np.testing.assert_array_equal(ds.series, series)

    def test_global_scheme(self):
        series = philox(2).standard_normal((50, 4, 1)) * 5
        ds, _inv = normalize_series(self._dataset(series), scheme="global")
        assert abs(ds.series.mean()) < 1e-10
        assert abs(ds.series.std() - 1) < 1e-10

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            normalize_series(self._dataset(np.zeros((5, 2, 1))), scheme="minmax")


class TestTemporalJsonIngestion:
    def test_converts_upstream_shape(self):
        payload = {"edges": [[0, 1], [1, 2]],
                   "FX": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]}
        ds = from_temporal_json(payload, name="epidemic", tau_in=2, tau_out=1)
        assert ds.series.shape == (3, 3, 1)
        assert ds.graph.n_edges == 4
        assert ds.name == "epidemic"

    def test_missing_keys(self):
        with pytest.raises(DataFormatError):
            from_temporal_json({"edges": []})


class TestPlantedPartition:
    def test_shapes_and_metadata(self):
        bundle = make_planted_partition(30, 3, 0.3, 0.02, feat_dim=4, noise=0.5, seed=0)
        assert bundle.features.shape == (30, 4)
        assert bundle.n_classes == 3
        assert 0.5 < bundle.homophily <= 1.0
        assert len(bundle.splits) == 3

    def test_deterministic(self):
        a = make_planted_partition(20, 2, 0.4, 0.05, 3, 0.5, seed=1)
        b = make_planted_partition(20, 2, 0.4, 0.05, 3, 0.5, seed=1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
