"""Unit and property tests for the union-find structures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.unionfind import DenseUnionFind, UnionFind

from .oracles.unionfind import KeyedUnionFind


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        assert not uf.connected(0, 1)

    def test_union_connects(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.connected(0, 1)
        assert uf.n_components == 3

    def test_union_idempotent(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.n_components == 2

    def test_transitivity(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.connected(0, 2)
        assert not uf.connected(2, 3)

    def test_self_union(self):
        uf = UnionFind(2)
        assert not uf.union(0, 0)
        assert uf.n_components == 2

    def test_components_ordering(self):
        uf = UnionFind(6)
        uf.union(5, 3)
        uf.union(1, 4)
        comps = uf.components()
        # Ordered by smallest member; members sorted ascending.
        assert comps == [[0], [1, 4], [2], [3, 5]]

    def test_len(self):
        assert len(UnionFind(7)) == 7

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_zero_size(self):
        uf = UnionFind(0)
        assert uf.n_components == 0
        assert uf.components() == []

    def test_find_path_compression_consistent(self):
        uf = UnionFind(100)
        for i in range(99):
            uf.union(i, i + 1)
        root = uf.find(0)
        assert all(uf.find(i) == root for i in range(100))
        assert uf.n_components == 1

    def test_add_appends_singletons(self):
        uf = UnionFind(2)
        assert uf.add() == 2
        assert uf.add() == 3
        assert len(uf) == 4
        assert uf.n_components == 4
        uf.union(1, 3)
        assert uf.connected(1, 3)
        assert not uf.connected(2, 3)


class TestKeyedUnionFind:
    def test_add_and_contains(self):
        uf = KeyedUnionFind()
        uf.add(("a", 1))
        assert ("a", 1) in uf
        assert ("b", 2) not in uf

    def test_union_registers_new_keys(self):
        uf = KeyedUnionFind()
        uf.union("x", "y")
        assert uf.connected("x", "y")
        assert len(uf) == 2

    def test_connected_unknown_keys(self):
        uf = KeyedUnionFind(["a"])
        assert not uf.connected("a", "zzz")

    def test_init_from_keys(self):
        uf = KeyedUnionFind([(0, 0), (0, 1), (1, 1)])
        assert len(uf) == 3
        assert uf.n_components == 3

    def test_add_idempotent(self):
        uf = KeyedUnionFind()
        first = uf.add("k")
        second = uf.add("k")
        assert first == second
        assert len(uf) == 1

    def test_component_labels_dense_and_deterministic(self):
        uf = KeyedUnionFind(["a", "b", "c", "d"])
        uf.union("a", "c")
        labels = uf.component_labels()
        assert set(labels.values()) == {0, 1, 2}
        assert labels["a"] == labels["c"]
        # First-appearance ordering: "a" (and "c") get 0, "b" gets 1, "d" 2.
        assert labels["a"] == 0 and labels["b"] == 1 and labels["d"] == 2


class TestDenseUnionFind:
    def test_basic_semantics_match_unionfind(self):
        uf = DenseUnionFind(5)
        assert uf.n_components == 5
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        uf.union(1, 2)
        assert uf.connected(0, 2)
        assert not uf.connected(0, 3)
        assert uf.n_components == 3

    def test_union_many_matches_sequential_unions(self):
        xs = np.array([0, 1, 0, 2, 5], dtype=np.int64)
        ys = np.array([1, 2, 2, 3, 4], dtype=np.int64)
        batched = DenseUnionFind(7)
        batched.union_many(xs, ys)
        _assert_same_partition(batched, xs.tolist(), ys.tolist())
        # {0, 1, 2, 3}, {4, 5} and the untouched singleton 6.
        assert batched.n_components == 3
        assert batched.component_labels().tolist() == [0, 0, 0, 0, 1, 1, 2]

    def test_union_many_length_mismatch(self):
        with pytest.raises(ValueError):
            DenseUnionFind(3).union_many(np.array([0]), np.array([1, 2]))

    def test_roots_vectorised_matches_scalar_find(self):
        uf = DenseUnionFind(50)
        rng = np.random.default_rng(3)
        for a, b in rng.integers(0, 50, size=(40, 2)).tolist():
            uf.union(a, b)
        roots = uf.roots()
        assert roots.tolist() == [uf.find(i) for i in range(50)]
        # roots() writes the compressed forest back.
        assert all(roots[i] == roots[roots[i]] for i in range(50))

    def test_component_labels_match_keyed(self):
        rng = np.random.default_rng(11)
        dense = DenseUnionFind(30)
        keyed = KeyedUnionFind(range(30))
        for a, b in rng.integers(0, 30, size=(25, 2)).tolist():
            dense.union(a, b)
            keyed.union(a, b)
        keyed_labels = keyed.component_labels()
        assert dense.component_labels().tolist() == [
            keyed_labels[i] for i in range(30)
        ]
        assert dense.n_components == keyed.n_components

    def test_empty(self):
        uf = DenseUnionFind(0)
        assert uf.n_components == 0
        assert len(uf.roots()) == 0
        assert len(uf.component_labels()) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DenseUnionFind(-2)


def _assert_same_partition(batched, xs, ys, *, before=()):
    """``batched`` must hold the partition sequential unions build.

    The baselines are scalar :meth:`DenseUnionFind.union` calls and the
    keyed oracle, each fed the ``before`` pairs and then ``(xs, ys)`` one
    pair at a time.
    """
    n = len(batched)
    scalar = DenseUnionFind(n)
    keyed = KeyedUnionFind(range(n))
    for a, b in list(before) + list(zip(xs, ys)):
        scalar.union(a, b)
        keyed.union(a, b)
    keyed_labels = keyed.component_labels()
    expected = [keyed_labels[i] for i in range(n)]
    assert batched.component_labels().tolist() == expected
    assert scalar.component_labels().tolist() == expected
    assert batched.n_components == scalar.n_components == keyed.n_components
    roots = batched.roots()
    for a, b in zip(xs, ys):
        assert roots[a] == roots[b]


_PAIR = st.tuples(st.integers(0, 59), st.integers(0, 59))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 60),
    before=st.lists(_PAIR, max_size=30),
    batch=st.lists(_PAIR, max_size=120),
)
def test_property_union_many_matches_sequential(n, before, batch):
    """A batch merges exactly like sequential unions, on a fresh forest
    or on one that scalar unions already partly merged."""
    before = [(a % n, b % n) for a, b in before]
    xs = [a % n for a, _ in batch]
    ys = [b % n for _, b in batch]
    uf = DenseUnionFind(n)
    for a, b in before:
        uf.union(a, b)
    uf.union_many(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64))
    _assert_same_partition(uf, xs, ys, before=before)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 300),
    shape=st.sampled_from(["chain_up", "chain_down", "star_high", "star_low"]),
    seed=st.integers(0, 2 ** 16),
    preunited=st.integers(0, 20),
)
def test_property_union_many_adversarial_shapes(n, shape, seed, preunited):
    """Long chains in both orientations and stars around a high-id or a
    low-id centre — the shapes that need the most hook rounds — over a
    forest that scalar unions partly merged beforehand."""
    ids = np.arange(n, dtype=np.int64)
    if shape == "chain_up":
        xs, ys = ids[:-1], ids[1:]
    elif shape == "chain_down":
        xs, ys = ids[1:][::-1], ids[:-1][::-1]
    else:
        centre = n - 1 if shape == "star_high" else 0
        ys = ids[ids != centre]
        xs = np.full(len(ys), centre, dtype=np.int64)
    rng = np.random.default_rng(seed)
    flip = rng.random(len(xs)) < 0.5
    xs, ys = np.where(flip, ys, xs), np.where(flip, xs, ys)
    before = rng.integers(0, n, size=(preunited, 2)).tolist()
    uf = DenseUnionFind(n)
    for a, b in before:
        uf.union(a, b)
    uf.union_many(xs, ys)
    _assert_same_partition(uf, xs.tolist(), ys.tolist(), before=before)
    assert uf.n_components == 1


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    unions=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
)
def test_property_dense_matches_keyed(n, unions):
    """DenseUnionFind must agree with KeyedUnionFind on any union sequence."""
    dense = DenseUnionFind(n)
    keyed = KeyedUnionFind(range(n))
    for a, b in unions:
        if a < n and b < n:
            assert dense.union(a, b) == keyed.union(a, b)
    assert dense.n_components == keyed.n_components
    keyed_labels = keyed.component_labels()
    assert dense.component_labels().tolist() == [keyed_labels[i] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    unions=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
)
def test_property_matches_graph_components(n, unions):
    """Union-find must agree with a graph BFS on the same edges."""
    uf = UnionFind(n)
    adj = {i: set() for i in range(n)}
    for a, b in unions:
        if a < n and b < n:
            uf.union(a, b)
            adj[a].add(b)
            adj[b].add(a)

    # BFS components.
    seen = [False] * n
    components = 0
    comp_id = [0] * n
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            comp_id[u] = components
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)

    assert uf.n_components == components
    for i in range(n):
        for j in range(i + 1, n):
            assert uf.connected(i, j) == (comp_id[i] == comp_id[j])
