"""Tests for the Clustering result model (Problem 1/2 semantics)."""

import numpy as np
import pytest

from repro.core.result import NOISE, Clustering, build_clustering
from repro.errors import AlgorithmError


def make(n, clusters, cores):
    mask = np.zeros(n, dtype=bool)
    mask[list(cores)] = True
    return Clustering(n, clusters, mask)


class TestConstruction:
    def test_canonical_order_by_min_member(self):
        c = make(6, [{4, 5}, {0, 1}], cores={0, 4})
        assert c.clusters == (frozenset({0, 1}), frozenset({4, 5}))

    def test_labels_primary(self):
        c = make(6, [{4, 5}, {0, 1}], cores={0, 4})
        assert c.labels.tolist() == [0, 0, NOISE, NOISE, 1, 1]

    def test_empty_cluster_rejected(self):
        with pytest.raises(AlgorithmError):
            make(3, [set()], cores=set())

    def test_out_of_range_member_rejected(self):
        with pytest.raises(AlgorithmError):
            make(3, [{5}], cores=set())

    def test_core_in_two_clusters_rejected(self):
        with pytest.raises(AlgorithmError):
            make(4, [{0, 1}, {1, 2}], cores={1})

    def test_border_in_two_clusters_allowed(self):
        # The paper's o10: a border point shared by two clusters.
        c = make(5, [{0, 2}, {2, 4}], cores={0, 4})
        assert c.memberships_of(2) == (0, 1)
        assert c.labels[2] == 0  # primary label = smallest cluster id

    def test_no_clusters(self):
        c = make(3, [], cores=set())
        assert c.n_clusters == 0
        assert c.noise_mask.all()

    def test_bad_core_mask_shape(self):
        with pytest.raises(AlgorithmError):
            Clustering(3, [{0}], np.zeros(4, dtype=bool))


class TestMasks:
    def test_border_mask(self):
        c = make(4, [{0, 1}], cores={0})
        assert c.border_mask.tolist() == [False, True, False, False]

    def test_noise_mask(self):
        c = make(4, [{0, 1}], cores={0})
        assert c.noise_mask.tolist() == [False, False, True, True]

    def test_cluster_sizes(self):
        c = make(6, [{0, 1, 2}, {4, 5}], cores={0, 4})
        assert c.cluster_sizes() == [3, 2]

    def test_core_points_of(self):
        c = make(4, [{0, 1, 2}], cores={0, 2})
        assert c.core_points_of(0) == frozenset({0, 2})

    def test_memberships_of_noise(self):
        c = make(3, [{0}], cores={0})
        assert c.memberships_of(2) == ()


class TestComparison:
    def test_same_clusters_ignores_construction_order(self):
        a = make(4, [{0, 1}, {2, 3}], cores={0, 2})
        b = make(4, [{2, 3}, {0, 1}], cores={0, 2})
        assert a.same_clusters(b)
        assert a == b

    def test_different_membership_not_equal(self):
        a = make(4, [{0, 1}], cores={0})
        b = make(4, [{0, 1, 2}], cores={0})
        assert not a.same_clusters(b)

    def test_eq_requires_same_core_mask(self):
        a = make(4, [{0, 1}], cores={0})
        b = make(4, [{0, 1}], cores={0, 1})
        assert a.same_clusters(b)
        assert a != b

    def test_shared_smallest_member_is_canonical(self):
        # Two clusters share their smallest member 0, a border point; the
        # input order must not decide the ids (eq/hash contract).
        a = make(5, [{0, 1}, {0, 3}], cores={1, 3})
        b = make(5, [{0, 3}, {0, 1}], cores={1, 3})
        assert a == b and hash(a) == hash(b)
        assert a.labels.tolist() == b.labels.tolist() == [0, 0, NOISE, 1, NOISE]
        assert a.clusters == b.clusters == (frozenset({0, 1}), frozenset({0, 3}))

    def test_shared_smallest_member_orders_by_smallest_core(self):
        # By sorted members {0, 1, 4} would come first; the smaller core
        # member (2 < 4) puts {0, 2} first.
        c = make(5, [{0, 1, 4}, {0, 2}], cores={2, 4})
        assert c.clusters == (frozenset({0, 2}), frozenset({0, 1, 4}))
        assert c.labels.tolist() == [0, 1, 0, NOISE, 1]

    def test_same_clusters_across_core_masks(self):
        # Canonical ids depend on the core points; the cluster sets do not.
        a = make(5, [{0, 1}, {0, 3}], cores={1, 3})
        b = make(5, [{0, 1}, {0, 3}], cores={3})
        assert a.labels.tolist() != b.labels.tolist()
        assert a.same_clusters(b) and b.same_clusters(a)
        assert a != b

    def test_hashable(self):
        a = make(4, [{0, 1}], cores={0})
        b = make(4, [{0, 1}], cores={0})
        assert len({a, b}) == 1

    def test_eq_other_type(self):
        assert make(2, [], set()).__eq__(42) is NotImplemented


class TestReprSummary:
    def test_repr_mentions_algorithm(self):
        c = Clustering(3, [{0}], np.array([True, False, False]), meta={"algorithm": "x"})
        assert "x" in repr(c)

    def test_summary_counts(self):
        c = make(5, [{0, 1}], cores={0})
        s = c.summary()
        assert "1 cluster" in s and "3 noise" in s and "1 border" in s


class TestBuildClustering:
    def test_assembles_cores_and_borders(self):
        core_mask = np.array([True, True, False, False])
        core_labels = np.array([0, 1, -1, -1])
        borders = {2: (0, 1)}
        c = build_clustering(4, core_mask, core_labels, borders)
        assert c.n_clusters == 2
        assert c.memberships_of(2) == (0, 1)
        assert c.labels[3] == NOISE

    def test_no_cores(self):
        c = build_clustering(3, np.zeros(3, dtype=bool), np.full(3, -1), {})
        assert c.n_clusters == 0

    def test_meta_preserved(self):
        c = build_clustering(
            1, np.array([True]), np.array([0]), {}, meta={"algorithm": "t"}
        )
        assert c.meta["algorithm"] == "t"
