"""Tests for clustering-result persistence."""

import numpy as np
import pytest

from repro.algorithms.exact_grid import exact_grid_dbscan
from repro.core.result import NOISE, Clustering
from repro.core.serialize import from_dict, load_clustering, save_clustering, to_dict
from repro.errors import DataError

from .conftest import make_blobs


def multi_membership_result():
    # Border point 2 in both clusters — the hard case for round-trips.
    mask = np.array([True, False, False, True])
    return Clustering(4, [{0, 2}, {2, 3}], mask, meta={"algorithm": "handmade", "eps": 1.5})


class TestDictRoundTrip:
    def test_roundtrip_preserves_everything(self):
        original = multi_membership_result()
        restored = from_dict(to_dict(original))
        assert restored == original
        assert restored.meta["algorithm"] == "handmade"
        assert restored.memberships_of(2) == (0, 1)

    def test_v1_payload_still_read(self):
        payload = {
            "format": "repro.clustering/v1",
            "n": 4,
            "clusters": [[2, 3], [0, 2]],
            "core_mask": [True, False, False, True],
            "meta": {"algorithm": "handmade"},
        }
        assert from_dict(payload) == multi_membership_result()

    def test_v2_payload_shape(self):
        payload = to_dict(multi_membership_result())
        assert payload["format"] == "repro.clustering/v2"
        assert payload["labels"] == [0, NOISE, 0, 1]
        assert payload["core_mask"] == [1, 0, 0, 1]
        assert payload["overflow_points"] == [2]
        assert payload["overflow_clusters"] == [1]
        assert payload["n_clusters"] == 2

    @pytest.mark.parametrize(
        "edit",
        [
            {"overflow_clusters": []},
            {"overflow_points": [[2]]},
            {"labels": [0, NOISE, 0]},
            {"labels": None},
            {"core_mask": None},
        ],
        ids=["overflow-lengths", "overflow-2d", "labels-short", "no-labels", "no-core-mask"],
    )
    def test_malformed_v2_rejected(self, edit):
        payload = to_dict(multi_membership_result())
        for key, value in edit.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        with pytest.raises(DataError):
            from_dict(payload)

    def test_v2_cluster_count_recomputed(self):
        payload = to_dict(multi_membership_result())
        del payload["n_clusters"]
        assert from_dict(payload) == multi_membership_result()

    def test_bad_format_rejected(self):
        with pytest.raises(DataError):
            from_dict({"format": "something/else"})

    def test_numpy_meta_becomes_plain(self):
        mask = np.array([True])
        result = Clustering(1, [{0}], mask, meta={"eps": np.float64(2.0),
                                                  "ids": np.array([1, 2])})
        payload = to_dict(result)
        assert payload["meta"]["eps"] == 2.0
        assert payload["meta"]["ids"] == [1, 2]


@pytest.mark.parametrize("ext", [".json", ".npz"])
class TestFileRoundTrip:
    def test_handmade(self, tmp_path, ext):
        original = multi_membership_result()
        path = str(tmp_path / f"result{ext}")
        save_clustering(original, path)
        restored = load_clustering(path)
        assert restored == original
        assert restored.memberships_of(2) == (0, 1)

    def test_real_clustering(self, tmp_path, ext):
        pts = make_blobs(150, 3, 3, spread=1.2, domain=30.0, seed=0)
        original = exact_grid_dbscan(pts, 2.5, 5)
        path = str(tmp_path / f"result{ext}")
        save_clustering(original, path)
        restored = load_clustering(path)
        assert restored.same_clusters(original)
        assert (restored.core_mask == original.core_mask).all()
        assert restored.meta["algorithm"] == "exact_grid"

    def test_cluster_only_in_overflow(self, tmp_path, ext):
        # Cluster {1} has no point whose primary label is its id, so the
        # labels alone under-count the clusters.
        original = Clustering(3, [{0, 1}, {1}], np.zeros(3, dtype=bool))
        path = str(tmp_path / f"overflow{ext}")
        save_clustering(original, path)
        restored = load_clustering(path)
        assert restored == original
        assert restored.n_clusters == 2
        assert restored.memberships_of(1) == (0, 1)

    def test_all_noise(self, tmp_path, ext):
        original = Clustering(3, [], np.zeros(3, dtype=bool))
        path = str(tmp_path / f"noise{ext}")
        save_clustering(original, path)
        restored = load_clustering(path)
        assert restored.n_clusters == 0
        assert restored.n == 3


class TestOlderFiles:
    def test_npz_from_set_based_model(self, tmp_path):
        # A file as the set-based result model wrote it (bool core mask).
        path = str(tmp_path / "old.npz")
        np.savez_compressed(
            path,
            labels=np.array([0, -1, 0, 1]),
            core_mask=np.array([True, False, False, True]),
            overflow_points=np.array([2]),
            overflow_clusters=np.array([1]),
            meta=np.frombuffer(b'{"algorithm": "handmade"}', dtype=np.uint8),
        )
        restored = load_clustering(path)
        assert restored == multi_membership_result()
        assert restored.meta == {"algorithm": "handmade"}


class TestErrors:
    def test_unsupported_extension(self, tmp_path):
        with pytest.raises(DataError):
            save_clustering(multi_membership_result(), str(tmp_path / "x.pickle"))

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_clustering("/nonexistent/result.json")
