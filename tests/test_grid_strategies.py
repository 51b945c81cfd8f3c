"""The grid's two cell-adjacency builders against a brute-force oracle.

The grid builds its eps-neighbour cell adjacency either with the offset
probe (one packed-key lookup pass per offset-table entry) or with the
coarse-bucket join (candidate pairs from adjacent ``coords // reach``
buckets); :meth:`Grid._build_adjacency` picks one from the grid's own
candidate counts.  Both builders look packed cell keys up through
``_offset_hits``, with a direct-indexed table or ``searchsorted``.  This
suite forces each builder and each lookup in turn, through the module's
selection ratio and table decision, and checks them against
``tests/oracles/adjacency.box_gap_pairs``.
"""

import math
from unittest import mock

import numpy as np
import pytest

from repro.grid import cells as grid_cells
from repro.grid import counters
from repro.grid.cells import Grid

from .conftest import make_blobs
from .oracles.adjacency import box_gap_pairs, neighbor_cell_pair_arrays
from .oracles.cellview import CellView

BUILDERS = {"probe": 0.0, "join": math.inf}
#: The two packed-key lookups of ``_offset_hits``, forced through the
#: module's table decision: the direct-indexed table or ``searchsorted``.
LOOKUPS = {"table": True, "searchsorted": False}


def forced(points, eps, builder, side=None):
    """A grid whose adjacency was built by ``builder`` (checked by counter)."""
    grid = Grid(points, eps, side)
    before = counters.snapshot()
    with mock.patch.object(grid_cells, "_JOIN_RATIO", BUILDERS[builder]):
        grid.warm_neighbors()
    if len(grid) > 1:
        assert counters.delta_since(before).get(f"adjacency_{builder}") == 1
    return grid


def rows_of(pairs, cell):
    return sorted(b for a, b in pairs if a == cell)


def assert_ring_order(grid, truth):
    """Each CSR row lists exactly its Chebyshev-1 neighbours first."""
    adjacency = grid.adjacency()
    keys, indptr = CellView(grid).keys, adjacency.indptr
    assert len(adjacency.inner) == len(keys)
    for t, cell in enumerate(keys):
        row = [keys[j] for j in adjacency.indices[indptr[t]:indptr[t + 1]].tolist()]
        ring = {
            b for b in rows_of(truth, cell)
            if max(abs(x - y) for x, y in zip(cell, b)) == 1
        }
        assert set(row[:adjacency.inner[t]]) == ring, cell
        assert len(row) == len(set(row))


def assert_matches_oracle(grid, subset=None):
    truth = box_gap_pairs(grid)
    view = CellView(grid)
    for cell in view.keys:
        assert sorted(view.neighbor_cells(cell)) == rows_of(truth, cell), cell
    assert_ring_order(grid, truth)
    allowed = set(view.keys) if subset is None else set(subset)
    expected = {(a, b) for a, b in truth if a < b and a in allowed and b in allowed}
    got = view.neighbor_cell_pairs(subset=subset)
    assert len(got) == len(set(got))
    assert set(got) == expected


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("seed", [0, 1])
def test_neighbor_cells_agree(d, seed):
    pts = make_blobs(150, d, 3, spread=1.0, domain=30.0, seed=seed)
    for builder in BUILDERS:
        assert_matches_oracle(forced(pts, 3.0, builder))


@pytest.mark.parametrize("d", [2, 3])
def test_neighbor_cells_include_self_agree(d):
    pts = make_blobs(100, d, 2, spread=1.0, domain=20.0, seed=2)
    for builder in BUILDERS:
        grid = forced(pts, 2.5, builder)
        truth = box_gap_pairs(grid)
        view = CellView(grid)
        adjacency = grid.adjacency()
        for t, cell in enumerate(view.keys):
            # A row never lists its own cell; with it, it is the closed
            # neighbourhood.
            assert t not in adjacency.indices[adjacency.indptr[t]:adjacency.indptr[t + 1]]
            got = sorted(list(view.neighbor_cells(cell)) + [cell])
            assert got == sorted(rows_of(truth, cell) + [cell])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_neighbor_cell_pairs_agree(d):
    pts = make_blobs(120, d, 3, spread=1.2, domain=25.0, seed=3)
    for builder in BUILDERS:
        grid = forced(pts, 3.0, builder)
        keys = CellView(grid).keys
        ii, jj, _ = neighbor_cell_pair_arrays(grid)
        # Orientation contract: the i-side cell precedes its partner.
        assert all(keys[i] < keys[j] for i, j in zip(ii.tolist(), jj.tolist()))
        assert_matches_oracle(grid)


def test_neighbor_cell_pairs_subset_agree():
    pts = make_blobs(150, 3, 3, spread=1.2, domain=25.0, seed=4)
    for builder in BUILDERS:
        grid = forced(pts, 3.0, builder)
        assert_matches_oracle(grid, subset=CellView(grid).keys[::2])


def test_cells_at_gap_exactly_eps():
    # side = eps / sqrt(2): the (+-2, +-2) diagonal cells sit at gap
    # sqrt(2) * side = eps exactly, (3, 0) just beyond it.
    eps = 1.0
    side = eps / np.sqrt(2)
    coords = np.array([
        (0, 0), (2, 2), (-2, -2), (2, -2), (-2, 2), (3, 0), (0, -3),
        (2, 1), (5, 5), (4, 4),
    ])
    pts = (coords + 0.5) * side
    for builder in BUILDERS:
        grid = forced(pts, eps, builder)
        assert_matches_oracle(grid)
        row = set(CellView(grid).neighbor_cells((0, 0)))
        assert {(2, 2), (-2, -2), (2, -2), (-2, 2)} <= row
        assert (3, 0) not in row and (0, -3) not in row


def forced_lookup(points, eps, builder, lookup, *, packed=True):
    """A grid built by ``builder`` with every key lookup forced to ``lookup``.

    ``packed=False`` marks a grid whose keys overflow int64: it never
    builds a table, whatever the decision says.
    """
    grid = Grid(points, eps)
    before = counters.snapshot()
    with mock.patch.object(grid_cells, "_JOIN_RATIO", BUILDERS[builder]), \
            mock.patch.object(
                grid_cells, "_use_direct_table", lambda span, lookups: LOOKUPS[lookup]
            ):
        grid.warm_neighbors()
    moved = counters.delta_since(before)
    if len(grid) > 1:
        assert moved.get(f"adjacency_{builder}") == 1
        # Only the cell probe reports the table; the join's bucket
        # lookups take the same path without a counter.
        table = packed and builder == "probe" and lookup == "table"
        assert moved.get("adjacency_table", 0) == int(table)
    return grid


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("lookup", LOOKUPS)
@pytest.mark.parametrize("builder", BUILDERS)
def test_offset_lookups_agree(d, lookup, builder):
    pts = make_blobs(150, d, 3, spread=1.0, domain=30.0, seed=10 + d)
    assert_matches_oracle(forced_lookup(pts, 3.0, builder, lookup))


#: Cells per axis of the compact grids below: few enough at high ``d``
#: that a forced direct table (one int32 per packed key, padded by the
#: reach on each side) stays within ~40 MB.
COMPACT_CELLS = {1: 12, 2: 10, 3: 8, 4: 6, 5: 5, 6: 4, 7: 4}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("lookup", LOOKUPS)
@pytest.mark.parametrize("builder", BUILDERS)
def test_ring_ordered_rows(d, lookup, builder):
    """Inner ring first, under every builder, lookup and dimension.

    Points fill a box of ``COMPACT_CELLS[d]`` cells per axis, so every
    row has both rings and the outer shell is cut by the box gap.
    """
    eps = 3.0
    side = eps / np.sqrt(d)
    rng = np.random.default_rng(20 + d)
    pts = rng.uniform(0, COMPACT_CELLS[d] * side, size=(60 if d >= 6 else 120, d))
    grid = forced_lookup(pts, eps, builder, lookup)
    adjacency = grid.adjacency()
    lengths = np.diff(adjacency.indptr)
    assert (adjacency.inner > 0).any() and (adjacency.inner < lengths).any()
    assert_matches_oracle(grid)
    # The pair arrays flag exactly the inner-ring pairs.
    ii, jj, inner = neighbor_cell_pair_arrays(grid)
    coords = grid.cell_coords
    cheb = np.abs(coords[ii] - coords[jj]).reshape(len(ii), d).max(axis=1)
    assert np.array_equal(inner, cheb == 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("lookup", LOOKUPS)
@pytest.mark.parametrize("builder", BUILDERS)
def test_indices_are_int32(d, lookup, builder):
    pts = make_blobs(150, d, 3, spread=1.0, domain=30.0, seed=30 + d)
    adjacency = forced_lookup(pts, 3.0, builder, lookup).adjacency()
    assert adjacency.indices.dtype == np.int32
    assert adjacency.indptr.dtype == np.int64


@pytest.mark.parametrize("n", [0, 1, 3])
def test_tiny_grid_indices_are_int32(n):
    # No points, one point, three points in one cell: m < 2 never runs a
    # builder, yet its empty adjacency has the same dtypes.
    grid = Grid(np.full((n, 2), 0.25), 1.0)
    assert len(grid) == min(n, 1)
    adjacency = grid.adjacency()
    assert adjacency.indices.dtype == np.int32 and len(adjacency.indices) == 0
    assert adjacency.indptr.tolist() == [0] * (len(grid) + 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_probe_rows_identical_across_lookups(d):
    """The table and searchsorted lookups give the same bytes, rings ascending."""
    pts = make_blobs(200, d, 3, spread=1.0, domain=30.0, seed=40 + d)
    table, searched = (
        forced_lookup(pts, 3.0, "probe", lookup).adjacency() for lookup in LOOKUPS
    )
    for name in ("indptr", "indices", "inner"):
        a, b = getattr(table, name), getattr(searched, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    indptr, indices = table.indptr, table.indices
    assert (table.inner > 0).any() and (table.inner < np.diff(indptr)).any()
    for t in range(len(table.inner)):
        mid = indptr[t] + table.inner[t]
        # Offsets are listed in lexicographic order inside each ring, and
        # cell ids follow lexicographic coordinates.
        assert (np.diff(indices[indptr[t]:mid]) > 0).all()
        assert (np.diff(indices[mid:indptr[t + 1]]) > 0).all()


def test_wide_span_takes_searchsorted():
    # Two blobs ~5,000 apart in every axis of a 3-D grid with eps = 1: the
    # packed keys fit in int64, but their span (~7e11 keys) dwarfs the
    # probe's own lookup count, so the table must not be built.
    rng = np.random.default_rng(12)
    pts = np.vstack([
        rng.uniform(0, 3.0, size=(60, 3)),
        rng.uniform(5_000, 5_003, size=(60, 3)),
    ])
    grid = Grid(pts, 1.0)
    before = counters.snapshot()
    with mock.patch.object(grid_cells, "_JOIN_RATIO", 0.0):
        grid.warm_neighbors()
    moved = counters.delta_since(before)
    assert moved.get("adjacency_probe") == 1
    assert "adjacency_table" not in moved
    assert_matches_oracle(grid)


def test_dense_grid_takes_direct_table():
    rng = np.random.default_rng(13)
    grid = Grid(rng.uniform(0, 100, size=(500, 2)), 5.0)
    before = counters.snapshot()
    grid.warm_neighbors()
    moved = counters.delta_since(before)
    assert moved.get("adjacency_probe") == 1 and moved.get("adjacency_table") == 1
    assert_matches_oracle(grid)


def test_direct_table_is_capped_by_chunk_budget(monkeypatch):
    # The same dense grid, with a chunk budget too small for its table.
    monkeypatch.setenv("REPRO_CHUNK_BUDGET", "100")
    assert not grid_cells._use_direct_table(201.0, 10_000)
    assert grid_cells._use_direct_table(200.0, 10_000)
    rng = np.random.default_rng(13)
    grid = Grid(rng.uniform(0, 100, size=(500, 2)), 5.0)
    before = counters.snapshot()
    grid.warm_neighbors()
    moved = counters.delta_since(before)
    assert moved.get("adjacency_probe") == 1 and "adjacency_table" not in moved
    assert_matches_oracle(grid)


def test_packed_key_overflow_5d():
    # Two blobs ~62k apart in every axis of a 5-D grid with eps = 1: the
    # cell-span product is ~4e25, past int64, so both the cell probe and
    # the bucket lookup must fall back to structured-row keys.  Wrapped
    # int64 keys would usually still agree on so few cells, hence the spy.
    rng = np.random.default_rng(8)
    near = rng.uniform(0, 3.0, size=(60, 5))
    far = rng.uniform(62_000, 62_003, size=(60, 5))
    pts = np.vstack([near, far])
    grid = Grid(pts, 1.0)
    spans = np.ptp(grid.cell_coords, axis=0) + 1
    assert float(np.prod(spans.astype(np.float64))) > 2.0 ** 63
    for builder in BUILDERS:
        # Even a forced table decision must not build a table here.
        for lookup in LOOKUPS:
            with mock.patch.object(
                grid_cells, "_row_view", wraps=grid_cells._row_view
            ) as row_view:
                grid = forced_lookup(pts, 1.0, builder, lookup, packed=False)
            assert row_view.called, (builder, lookup)
            assert_matches_oracle(grid)


def test_high_dimension_picks_join():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 100_000, size=(500, 7))
    grid = Grid(pts, 5000.0)
    before = counters.snapshot()
    grid.warm_neighbors()
    moved = counters.delta_since(before)
    assert moved.get("adjacency_join") == 1 and "adjacency_probe" not in moved
    assert not grid.uses_allpairs_adjacency


def test_low_dimension_picks_offsets():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 100, size=(500, 2))
    grid = Grid(pts, 5.0)
    before = counters.snapshot()
    grid.warm_neighbors()
    moved = counters.delta_since(before)
    assert moved.get("adjacency_probe") == 1 and "adjacency_join" not in moved


def test_sparse_5d_run_reports_join():
    """The adjacency counters reach a run's meta, ratio included."""
    from repro import dbscan

    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 1_000, size=(800, 5))
    meta = dbscan(pts, 60.0, 3, algorithm="grid").meta["kernel_counters"]
    assert meta.get("adjacency_join") == 1 and "adjacency_probe" not in meta
    assert meta["adjacency_candidates"] >= meta["adjacency_entries"] > 0
    assert meta["adjacency_candidates"] < 0.2 * meta["adjacency_probe_work"]


def test_full_clustering_agrees_in_7d():
    """End-to-end: force both builders through the exact algorithm."""
    from repro.algorithms.brute import brute_dbscan
    from repro.core.border import assign_borders
    from repro.core.cellgraph import exact_components
    from repro.core.labeling import label_cores
    from repro.core.result import build_clustering

    rng = np.random.default_rng(7)
    pts = np.vstack([
        rng.normal(20, 1.0, size=(60, 7)),
        rng.normal(60, 1.0, size=(60, 7)),
    ])
    eps, min_pts = 6.0, 5
    reference = brute_dbscan(pts, eps, min_pts)
    for builder in BUILDERS:
        grid = forced(pts, eps, builder)
        core = label_cores(grid, min_pts)
        labels, _k = exact_components(grid, core)
        borders = assign_borders(grid, core, labels)
        result = build_clustering(len(pts), core, labels, borders)
        assert result.same_clusters(reference)
