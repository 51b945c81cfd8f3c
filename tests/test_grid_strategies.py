"""The grid's two cell-adjacency builders against a brute-force oracle.

The grid builds its eps-neighbour cell adjacency either with the offset
probe (one packed-key lookup pass per offset-table entry) or with the
coarse-bucket join (candidate pairs from adjacent ``coords // reach``
buckets); :meth:`Grid._build_adjacency` picks one from the grid's own
candidate counts.  This suite forces each builder in turn, through the
module's selection ratio, and checks it against
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
from .oracles.adjacency import box_gap_pairs

BUILDERS = {"probe": 0.0, "join": math.inf}


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


def assert_matches_oracle(grid, subset=None):
    truth = box_gap_pairs(grid)
    for cell in grid.cells:
        assert sorted(grid.neighbor_cells(cell)) == rows_of(truth, cell), cell
    allowed = set(grid.cells) if subset is None else set(subset)
    expected = {(a, b) for a, b in truth if a < b and a in allowed and b in allowed}
    got = list(grid.neighbor_cell_pairs(subset=subset))
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
        cell = next(iter(grid.cells))
        got = sorted(grid.neighbor_cells(cell, include_self=True))
        assert got == sorted(rows_of(truth, cell) + [cell])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_neighbor_cell_pairs_agree(d):
    pts = make_blobs(120, d, 3, spread=1.2, domain=25.0, seed=3)
    for builder in BUILDERS:
        grid = forced(pts, 3.0, builder)
        keys, ii, jj = grid.neighbor_cell_pair_arrays()
        # Orientation contract: the i-side cell precedes its partner.
        assert all(keys[i] < keys[j] for i, j in zip(ii.tolist(), jj.tolist()))
        assert_matches_oracle(grid)


def test_neighbor_cell_pairs_subset_agree():
    pts = make_blobs(150, 3, 3, spread=1.2, domain=25.0, seed=4)
    for builder in BUILDERS:
        grid = forced(pts, 3.0, builder)
        assert_matches_oracle(grid, subset=list(grid.cells)[::2])


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
        row = set(grid.neighbor_cells((0, 0)))
        assert {(2, 2), (-2, -2), (2, -2), (-2, 2)} <= row
        assert (3, 0) not in row and (0, -3) not in row


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
    spans = np.ptp(np.asarray(list(grid.cells)), axis=0) + 1
    assert float(np.prod(spans.astype(np.float64))) > 2.0 ** 63
    for builder in BUILDERS:
        with mock.patch.object(
            grid_cells, "_row_view", wraps=grid_cells._row_view
        ) as row_view:
            grid = forced(pts, 1.0, builder)
        assert row_view.called, builder
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
