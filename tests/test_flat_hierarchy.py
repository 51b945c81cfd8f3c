"""Differential and property tests for the flat batched Lemma 5 kernel.

:class:`~repro.grid.FlatHierarchy` must be the *same structure* as the
reference :class:`~tests.oracles.counting.CountingHierarchy` — identical
node set, identical Lemma 5 contract — with batched answers equal to its own looped
answers everywhere, equal to the reference's answers wherever the contract
is exact (the don't-care band may round differently between the two
traversals), and inside the brute-force sandwich always.  The suite also
pins the integration seams: workers>1, engine-cache reuse, and the
``kernel_counters`` observability channel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusteringEngine, StructureCache, approx_dbscan
from repro.errors import DataError
from repro.geometry import distance as dm
from repro.grid import counters
from repro.grid.hierarchy import FlatHierarchy

from .oracles.counting import CountingHierarchy

DIMS = (2, 3, 4, 5)
RHOS = (0.001, 0.5, 1.0)
LEAF_SIZES = (0, 8)


def make_instance(d, n=220, seed=3):
    """A clustered-plus-noise instance with queries inside and outside."""
    rng = np.random.default_rng(seed + d)
    points = np.vstack([
        rng.normal(20.0, 3.0, size=(n // 2, d)),
        rng.normal(60.0, 5.0, size=(n // 3, d)),
        rng.uniform(0.0, 100.0, size=(n - n // 2 - n // 3, d)),
    ])
    queries = np.vstack([
        points[:: max(1, len(points) // 40)],
        rng.uniform(-30.0, 130.0, size=(25, d)),
    ])
    return points, queries


def brute_bounds(points, queries, eps, rho):
    """The Lemma 5 sandwich ``[count(eps), count(eps(1+rho))]`` per query."""
    sq = ((points[None, :, :] - queries[:, None, :]) ** 2).sum(axis=2)
    lo = (sq <= dm.sq_radius(eps)).sum(axis=1)
    hi = (sq <= (eps * (1.0 + rho)) ** 2).sum(axis=1)
    return lo, hi


# ------------------------------------------------------------ structure shape


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("leaf", LEAF_SIZES)
def test_same_node_set_as_reference(d, rho, leaf):
    points, _ = make_instance(d)
    eps = 12.0
    ref = CountingHierarchy(points, eps, rho, exact_leaf_size=leaf)
    flat = FlatHierarchy(points, eps, rho, exact_leaf_size=leaf)
    assert flat.n_levels == ref.n_levels
    assert flat.node_count() == ref.node_count()
    # Level 0 is the same cell set the reference keys its roots by.
    roots = {tuple(row) for row in flat._coords[0].tolist()}
    assert roots == set(ref._roots.keys())


def test_per_level_counts_match_point_total():
    points, _ = make_instance(3)
    flat = FlatHierarchy(points, 9.0, 0.25)
    # Every level partitions the points still being subdivided, so level 0
    # counts sum to n exactly.
    assert int(flat._counts[0].sum()) == len(points)
    # Each split node's children partition its points.
    for level in range(len(flat._child_n) ):
        cn = flat._child_n[level]
        split = cn > 0
        if not split.any() or level + 1 >= len(flat._counts):
            continue
        child_counts = flat._counts[level + 1]
        for node in np.nonzero(split)[0][:50]:
            off, k = flat._child_off[level][node], cn[node]
            assert int(child_counts[off:off + k].sum()) == int(flat._counts[level][node])


# ------------------------------------------------------------------ contracts


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("leaf", LEAF_SIZES)
def test_sandwich_and_exact_contract(d, rho, leaf):
    points, queries = make_instance(d)
    eps = 12.0
    ref = CountingHierarchy(points, eps, rho, exact_leaf_size=leaf)
    flat = FlatHierarchy(points, eps, rho, exact_leaf_size=leaf)
    got = flat.count_many(queries)
    any_got = flat.contains_any_many(queries)
    lo, hi = brute_bounds(points, queries, eps, rho)
    for i, q in enumerate(queries):
        # Sandwich bound against brute force, always.
        assert lo[i] <= got[i] <= hi[i]
        # Exact contract: where the sandwich collapses, flat == reference ==
        # brute (no don't-care freedom left).
        if lo[i] == hi[i]:
            assert got[i] == ref.count(q) == lo[i]
        # contains_any: definite yes / definite no must agree everywhere.
        if lo[i] > 0:
            assert any_got[i] and ref.contains_any(q)
        if hi[i] == 0:
            assert not any_got[i] and not ref.contains_any(q)


@pytest.mark.parametrize("d", (2, 4))
@pytest.mark.parametrize("rho", RHOS)
def test_batched_equals_looped(d, rho):
    points, queries = make_instance(d, seed=11)
    flat = FlatHierarchy(points, 10.0, rho)
    batched_counts = flat.count_many(queries)
    batched_any = flat.contains_any_many(queries)
    for i, q in enumerate(queries):
        assert flat.count(q) == batched_counts[i]
        assert flat.contains_any(q) == batched_any[i]
    assert flat.any_contains(queries) == bool(batched_any.any())


def test_any_contains_matches_per_query_or():
    points, _ = make_instance(3)
    flat = FlatHierarchy(points, 8.0, 0.001)
    rng = np.random.default_rng(0)
    hit = points[:3] + 0.5
    miss = rng.uniform(500.0, 600.0, size=(5, 3))
    assert flat.any_contains(np.vstack([miss, hit]))
    assert flat.any_contains(hit)
    assert not flat.any_contains(miss)


# ----------------------------------------------------------------- edge cases


def test_single_point():
    flat = FlatHierarchy(np.array([[5.0, 5.0]]), 2.0, 0.5)
    assert flat.count(np.array([5.0, 5.0])) == 1
    assert flat.count(np.array([50.0, 50.0])) == 0
    assert flat.contains_any(np.array([5.5, 5.0]))
    assert not flat.contains_any(np.array([50.0, 50.0]))


def test_empty_frontier_far_queries():
    points, _ = make_instance(3)
    flat = FlatHierarchy(points, 5.0, 0.001)
    far = np.full((7, 3), 1e6)
    assert (flat.count_many(far) == 0).all()
    assert not flat.contains_any_many(far).any()
    assert not flat.any_contains(far)


def test_zero_queries():
    points, _ = make_instance(2)
    flat = FlatHierarchy(points, 5.0, 0.5)
    assert flat.count_many(np.empty((0, 2))).shape == (0,)
    assert flat.contains_any_many(np.empty((0, 2))).shape == (0,)
    assert not flat.any_contains(np.empty((0, 2)))


def test_rejects_bad_inputs():
    with pytest.raises(DataError):
        FlatHierarchy(np.empty((0, 2)), 1.0, 0.5)
    flat = FlatHierarchy(np.array([[0.0, 0.0]]), 1.0, 0.5)
    with pytest.raises(DataError):
        flat.count_many(np.zeros((3, 5)))


def test_chunked_batches_match_small_batches():
    points, _ = make_instance(3, n=300, seed=5)
    flat = FlatHierarchy(points, 10.0, 0.5)
    rng = np.random.default_rng(2)
    queries = rng.uniform(-10.0, 110.0, size=(5000, 3))  # > _QUERY_CHUNK
    whole = flat.count_many(queries)
    parts = np.concatenate([
        flat.count_many(queries[i:i + 777]) for i in range(0, len(queries), 777)
    ])
    assert np.array_equal(whole, parts)


def test_pickle_roundtrip():
    import pickle

    points, queries = make_instance(3)
    flat = FlatHierarchy(points, 10.0, 0.001)
    clone = pickle.loads(pickle.dumps(flat))
    assert np.array_equal(clone.count_many(queries), flat.count_many(queries))
    assert clone.nbytes == flat.nbytes > 0


def test_nbytes_counts_all_levels():
    points, _ = make_instance(3)
    flat = FlatHierarchy(points, 10.0, 0.001)
    raw = sum(a.nbytes for lvl in (flat._coords, flat._counts) for a in lvl)
    assert flat.nbytes >= raw + flat.points.nbytes


# ------------------------------------------------------------------ properties


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    d=st.sampled_from(DIMS),
    rho=st.sampled_from(RHOS),
    leaf=st.sampled_from(LEAF_SIZES),
)
def test_property_sandwich_random(seed, d, rho, leaf):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 50.0, size=(rng.integers(1, 80), d))
    eps = float(rng.uniform(1.0, 20.0))
    flat = FlatHierarchy(points, eps, rho, exact_leaf_size=leaf)
    queries = np.vstack([points[:10], rng.uniform(-20.0, 70.0, size=(10, d))])
    got = flat.count_many(queries)
    lo, hi = brute_bounds(points, queries, eps, rho)
    assert ((lo <= got) & (got <= hi)).all()
    any_got = flat.contains_any_many(queries)
    assert not (any_got & (hi == 0)).any()
    assert ((lo > 0) <= any_got).all()


# ----------------------------------------------------- integration: pipeline


@pytest.fixture()
def blob_points():
    rng = np.random.default_rng(7)
    return np.vstack([
        rng.normal((100.0, 100.0), 8.0, size=(120, 2)),
        rng.normal((400.0, 120.0), 10.0, size=(140, 2)),
        rng.normal((250.0, 420.0), 12.0, size=(130, 2)),
        rng.uniform(0.0, 500.0, size=(60, 2)),
    ])


def test_parallel_run_matches_serial(blob_points):
    serial = approx_dbscan(blob_points, 30.0, 10, rho=0.01)
    parallel = approx_dbscan(blob_points, 30.0, 10, rho=0.01, workers=2)
    assert np.array_equal(serial.labels, parallel.labels)
    assert np.array_equal(serial.core_mask, parallel.core_mask)


def test_engine_cache_reuse_matches_one_shot(blob_points):
    engine = ClusteringEngine(blob_points, cache=StructureCache())
    cold = engine.approx_dbscan(30.0, 10, rho=0.01)
    warm = engine.approx_dbscan(30.0, 10, rho=0.01)
    fresh = approx_dbscan(blob_points, 30.0, 10, rho=0.01)
    assert np.array_equal(cold.labels, fresh.labels)
    assert np.array_equal(warm.labels, fresh.labels)
    assert np.array_equal(warm.core_mask, fresh.core_mask)


def test_kernel_counters_in_meta(blob_points):
    result = approx_dbscan(blob_points, 30.0, 10, rho=0.01)
    kc = result.meta.get("kernel_counters")
    assert kc, "approx runs must report kernel counters"
    # The staged edge kernel accounts for every candidate pair; Lemma 5
    # probes only run for pairs the vectorised stages could not settle,
    # so the lemma5_* counters may legitimately be absent here.
    assert kc["edge_pairs_total"] > 0
    settled = (
        kc.get("edge_quick_accept", 0)
        + kc.get("edge_quick_reject", 0)
        + kc.get("edge_survivors", 0)
        + kc.get("edge_connected_skip", 0)
    )
    assert settled == kc["edge_pairs_total"]
    assert kc.get("edge_survivors", 0) == (
        kc.get("edge_scheduled_skip", 0) + kc.get("edge_predicate_tests", 0)
    )
    if "lemma5_queries" in kc:
        assert kc["lemma5_frontier_pairs"] >= kc["lemma5_batches"]


def test_counters_registry_roundtrip():
    before = counters.snapshot()
    counters.add("test_counter_xyz", 3)
    counters.add("test_counter_xyz")
    delta = counters.delta_since(before)
    assert delta["test_counter_xyz"] == 4
