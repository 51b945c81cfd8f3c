"""Differential oracle: the array-native result model vs the set-based one.

``tests/oracles/setresult.py`` keeps the frozenset representation the
result model used to store.  Every view the production model derives from
its arrays — ``clusters``, ``labels``, ``memberships_of``,
``cluster_sizes``, ``core_points_of``, equality and hashing, and every
``AlgorithmError`` rejection — must agree with it, on random hand-built
cluster sets, through every persistence format, and on the output of
every ``dbscan`` path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusteringEngine, approx_dbscan, dbscan
from repro.api import EXACT_ALGORITHMS
from repro.core.result import Clustering, build_clustering
from repro.core.serialize import from_dict, load_clustering, save_clustering, to_dict
from repro.errors import AlgorithmError
from repro.parallel import ParallelConfig

from .conftest import make_blobs
from .oracles.setresult import SetClustering, build_set_clustering


def assert_matches(result: Clustering, ref: SetClustering) -> None:
    assert result.n == ref.n
    assert result.n_clusters == ref.n_clusters
    assert result.clusters == ref.clusters
    assert result.labels.tolist() == ref.labels.tolist()
    assert result.core_mask.tolist() == ref.core_mask.tolist()
    assert result.cluster_sizes() == ref.cluster_sizes()
    for i in range(result.n):
        assert result.memberships_of(i) == ref.memberships_of(i)
    for cid in range(result.n_clusters):
        assert result.core_points_of(cid) == ref.core_points_of(cid)


def build_both(n, clusters, core_mask):
    """Both models on the same input, or the error class each raised."""
    outcomes = []
    for model in (SetClustering, Clustering):
        try:
            outcomes.append(model(n, clusters, core_mask))
        except AlgorithmError:
            outcomes.append(AlgorithmError)
    return outcomes


@st.composite
def cluster_sets(draw, valid_only=False):
    """Random hand-built inputs: shared borders and minima, core-less
    clusters, n = 0; optionally empty clusters and out-of-range members."""
    n = draw(st.integers(0, 10))
    core_mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    if n == 0:
        return n, [], core_mask
    hi = n - 1 if valid_only else n + 1
    member = st.integers(0 if valid_only else -1, hi)
    clusters = draw(st.lists(
        st.frozensets(member, min_size=1 if valid_only else 0, max_size=n),
        max_size=6,
        unique=True,
    ))
    return n, clusters, core_mask


@st.composite
def dbscan_shaped(draw):
    """Valid DBSCAN-shaped inputs: every core point in exactly one cluster,
    non-core points in any number of clusters, plus core-less clusters."""
    n = draw(st.integers(1, 12))
    core_mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    k = draw(st.integers(0, 5))
    owner = [draw(st.integers(0, k)) for _ in range(n)]  # k means "no cluster"
    clusters = [{i for i in range(n) if core_mask[i] and owner[i] == c} for c in range(k)]
    for i in np.flatnonzero(~core_mask):
        for c in draw(st.sets(st.integers(0, k - 1), max_size=k) if k else st.just(set())):
            clusters[c].add(int(i))
    return n, [c for c in clusters if c], core_mask


class TestHandBuilt:
    @settings(max_examples=400, deadline=None)
    @given(cluster_sets())
    def test_matches_reference_or_both_reject(self, case):
        n, clusters, core_mask = case
        ref, result = build_both(n, clusters, core_mask)
        assert (ref is AlgorithmError) == (result is AlgorithmError)
        if ref is not AlgorithmError:
            assert_matches(result, ref)

    @settings(max_examples=400, deadline=None)
    @given(dbscan_shaped())
    def test_dbscan_shaped_matches_reference(self, case):
        ref, result = build_both(*case)
        assert ref is not AlgorithmError and result is not AlgorithmError
        assert_matches(result, ref)

    @settings(max_examples=200, deadline=None)
    @given(cluster_sets(valid_only=True) | dbscan_shaped(), st.randoms(use_true_random=False))
    def test_input_order_never_matters(self, case, rnd):
        n, clusters, core_mask = case
        ref, result = build_both(n, clusters, core_mask)
        if result is AlgorithmError:
            return
        shuffled = [rnd.sample(sorted(c), len(c)) for c in clusters]
        rnd.shuffle(shuffled)
        other = Clustering(n, shuffled, core_mask)
        assert other == result and hash(other) == hash(result)
        assert other.labels.tolist() == result.labels.tolist()
        assert other == Clustering(n, [*clusters, *clusters[:1]], core_mask)

    @settings(max_examples=300, deadline=None)
    @given(cluster_sets(valid_only=True) | dbscan_shaped(), st.data())
    def test_equality_agrees_with_reference(self, case, data):
        # The second result differs from the first by at most one core flag
        # and one dropped cluster, so equal and near-equal pairs are common.
        n, clusters, core_mask = case
        other_mask, other_clusters = core_mask.copy(), list(clusters)
        if n and data.draw(st.booleans()):
            other_mask[data.draw(st.integers(0, n - 1))] ^= True
        if clusters and data.draw(st.booleans()):
            other_clusters.pop(data.draw(st.integers(0, len(clusters) - 1)))
        ref_a, res_a = build_both(n, clusters, core_mask)
        ref_b, res_b = build_both(n, other_clusters, other_mask)
        if ref_a is AlgorithmError or ref_b is AlgorithmError:
            return
        assert (res_a == res_b) == (ref_a == ref_b)
        assert res_a.same_clusters(res_b) == ref_a.same_clusters(ref_b)
        if res_a == res_b:
            assert hash(res_a) == hash(res_b)


class TestPersistence:
    @settings(max_examples=150, deadline=None)
    @given(case=cluster_sets(valid_only=True) | dbscan_shaped())
    def test_v1_v2_and_npz(self, tmp_path_factory, case):
        n, clusters, core_mask = case
        ref, result = build_both(n, clusters, core_mask)
        if result is AlgorithmError:
            return
        v1 = {
            "format": "repro.clustering/v1",
            "n": n,
            "clusters": [sorted(c) for c in ref.clusters],
            "core_mask": core_mask.tolist(),
            "meta": {"algorithm": "handmade"},
        }
        assert_matches(from_dict(json.loads(json.dumps(v1))), ref)
        v2 = json.loads(json.dumps(to_dict(result)))
        assert v2["format"] == "repro.clustering/v2"
        assert_matches(from_dict(v2), ref)
        path = str(tmp_path_factory.mktemp("npz") / "result.npz")
        save_clustering(result, path)
        assert_matches(load_clustering(path), ref)


def brute_reference(pts, eps, min_pts):
    """Definition-level DBSCAN in difference form, assembled set by set."""
    n = len(pts)
    near = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2) <= eps * eps
    core = near.sum(axis=1) >= min_pts
    labels = np.full(n, -1, dtype=np.int64)
    k = 0
    for seed in np.flatnonzero(core):
        if labels[seed] >= 0:
            continue
        stack = [seed]
        labels[seed] = k
        while stack:
            p = stack.pop()
            for q in np.flatnonzero(near[p] & core & (labels < 0)):
                labels[q] = k
                stack.append(q)
        k += 1
    borders = {
        int(q): tuple(sorted({int(labels[c]) for c in np.flatnonzero(near[q] & core)}))
        for q in np.flatnonzero(~core & (near[:, core].any(axis=1) if core.any() else False))
    }
    return build_set_clustering(n, core, labels, borders)


@pytest.fixture(scope="module")
def blobs():
    return make_blobs(240, 2, 4, spread=1.0, domain=40.0, seed=3)


EPS, MIN_PTS = 1.6, 6


class TestDbscanPaths:
    @pytest.mark.parametrize("algorithm", EXACT_ALGORITHMS)
    def test_every_exact_algorithm(self, blobs, algorithm):
        ref = brute_reference(blobs, EPS, MIN_PTS)
        assert_matches(dbscan(blobs, EPS, MIN_PTS, algorithm=algorithm), ref)

    def test_workers_two(self, blobs):
        cfg = ParallelConfig(workers=2, min_points=0)
        ref = brute_reference(blobs, EPS, MIN_PTS)
        assert_matches(dbscan(blobs, EPS, MIN_PTS, workers=cfg), ref)
        approx = approx_dbscan(blobs, EPS, MIN_PTS, rho=0.01)
        assert approx_dbscan(blobs, EPS, MIN_PTS, rho=0.01, workers=cfg) == approx
        assert_matches(approx, SetClustering(approx.n, approx.clusters, approx.core_mask))

    def test_sweep(self, blobs):
        eps_list = [1.2, EPS, 2.2]
        for eps, result in zip(eps_list, ClusteringEngine(blobs).sweep(eps_list, MIN_PTS)):
            assert_matches(result, brute_reference(blobs, eps, MIN_PTS))
        approx = ClusteringEngine(blobs).sweep(eps_list, MIN_PTS, algorithm="approx", rho=0.01)
        for eps, result in zip(eps_list, approx):
            assert result == approx_dbscan(blobs, eps, MIN_PTS, rho=0.01)

    def test_build_clustering_matches_set_assembly(self):
        rng = np.random.default_rng(5)
        n = 60
        core = rng.random(n) < 0.4
        core_labels = np.where(core, rng.integers(0, 5, n), -1)
        present = np.unique(core_labels[core])
        core_labels[core] = np.searchsorted(present, core_labels[core])
        k = len(present)
        borders = {
            int(q): tuple(sorted(set(rng.integers(0, k, rng.integers(1, 3)).tolist())))
            for q in np.flatnonzero(~core)[::2]
        }
        ref = build_set_clustering(n, core, core_labels, borders)
        assert_matches(build_clustering(n, core, core_labels, borders), ref)
