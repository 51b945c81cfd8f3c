"""Unit tests for the grid T (sorted cell layout, adjacency rows, pairs)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.grid import cells as grid_cells
from repro.grid.cells import Grid, _take_ranges, default_side, neighbor_offsets

from .oracles.adjacency import box_gap_pairs, neighbor_cell_pair_arrays
from .oracles.cellview import CellView


class TestDefaultSide:
    def test_2d(self):
        assert default_side(1.0, 2) == pytest.approx(1.0 / np.sqrt(2))

    def test_same_cell_within_eps(self):
        # The defining property: the diagonal of a cell equals eps.
        for d in (1, 2, 3, 5, 7):
            side = default_side(10.0, d)
            assert np.sqrt(d) * side == pytest.approx(10.0)


class TestNeighborOffsets:
    def test_2d_neighbor_count(self):
        # The paper counts 21 eps-neighbour cells per 2D cell (its count
        # includes the cell itself and omits the four diagonal cells at
        # offset (+-2, +-2), whose minimum box distance is *exactly* eps —
        # a qualifying pair could only sit on the touching corners).  Our
        # table keeps those corners for inclusive <=-eps safety, giving the
        # full 5x5 block of 25 offsets.
        offsets = neighbor_offsets(1.0, default_side(1.0, 2), 2)
        assert len(offsets) == 25

    def test_2d_strict_interior_neighbor_count_is_21(self):
        # Dropping the exactly-at-eps corner cells recovers the paper's 21
        # (20 strict neighbours + the cell itself).
        side = default_side(1.0, 2)
        offsets = neighbor_offsets(1.0, side, 2)
        strict = [
            o for o in offsets.tolist()
            if (max(abs(o[0]) - 1, 0) ** 2 + max(abs(o[1]) - 1, 0) ** 2) * side ** 2
            < 1.0 - 1e-9
        ]
        assert len(strict) == 21

    def test_includes_zero_offset(self):
        offsets = neighbor_offsets(1.0, default_side(1.0, 3), 3)
        assert any(not off.any() for off in offsets)

    def test_symmetric(self):
        offsets = neighbor_offsets(1.0, default_side(1.0, 3), 3)
        table = {tuple(o) for o in offsets.tolist()}
        assert all(tuple(-v for v in o) in table for o in table)

    def test_1d(self):
        # side = eps in 1D: offsets -2..2 qualify (gap (|o|-1)*eps <= eps).
        offsets = neighbor_offsets(1.0, 1.0, 1)
        assert sorted(o[0] for o in offsets.tolist()) == [-2, -1, 0, 1, 2]

    def test_invalid_side(self):
        with pytest.raises(ParameterError):
            neighbor_offsets(1.0, 0.0, 2)

    def test_caching_returns_same_object(self):
        a = neighbor_offsets(2.0, default_side(2.0, 3), 3)
        b = neighbor_offsets(4.0, default_side(4.0, 3), 3)  # same ratio
        assert a is b


def cell_points(grid, t):
    """Point indices of cell ``t``, read off the sorted layout."""
    return grid.order[grid.cell_start[t]:grid.cell_start[t + 1]]


def row(grid, t):
    """Cell ids of cell ``t``'s adjacency row."""
    adjacency = grid.adjacency()
    return adjacency.indices[adjacency.indptr[t]:adjacency.indptr[t + 1]].tolist()


def cell_id(grid, coord):
    """Id of the cell at ``coord`` (or None when it holds no point)."""
    hit = np.flatnonzero((grid.cell_coords == np.asarray(coord)).all(axis=1))
    return int(hit[0]) if len(hit) else None


class TestGridBasics:
    def test_cell_assignment(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [5.0, 5.0]])
        grid = Grid(pts, eps=np.sqrt(2))  # side = 1
        assert grid.cell_coords.tolist() == [[0, 0], [5, 5]]
        assert grid.point_cell.tolist() == [0, 0, 1]
        assert len(grid) == 2

    def test_negative_coordinates(self):
        pts = np.array([[-0.5, -0.5], [0.5, 0.5]])
        grid = Grid(pts, eps=np.sqrt(2))
        assert grid.cell_coords[grid.point_cell].tolist() == [[-1, -1], [0, 0]]

    def test_points_in(self):
        pts = np.array([[0.1, 0.1], [0.2, 0.2], [9.0, 9.0]])
        grid = Grid(pts, eps=np.sqrt(2))
        assert cell_points(grid, cell_id(grid, (0, 0))).tolist() == [0, 1]
        assert cell_id(grid, (100, 100)) is None
        assert grid.sizes.tolist() == [2, 1]
        assert grid.offsets.tolist() == [0, 2]

    def test_same_cell_points_within_eps(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 50, size=(500, 3))
        eps = 4.0
        grid = Grid(pts, eps)
        for t in range(len(grid)):
            block = pts[cell_points(grid, t)]
            diff = block[:, None, :] - block[None, :, :]
            assert ((diff ** 2).sum(axis=2) <= eps * eps + 1e-9).all()

    def test_invalid_eps(self):
        with pytest.raises(ParameterError):
            Grid(np.zeros((2, 2)), eps=0.0)

    def test_contains(self):
        grid = Grid(np.array([[1.0, 1.0]]), eps=np.sqrt(2))
        assert cell_id(grid, (1, 1)) == 0
        assert cell_id(grid, (0, 0)) is None

    def test_nbytes_leaves_out_the_shared_offset_table(self):
        # Every 7-D grid at one eps/side ratio shares the module-cached
        # offset table (257,675 offsets, ~14 MB): charging it to each grid
        # would make a structure cache evict for memory it cannot free.
        rng = np.random.default_rng(11)
        a = Grid(rng.uniform(0, 50, size=(200, 7)), 6.0)
        b = Grid(rng.uniform(0, 50, size=(300, 7)), 6.0)
        assert a._offset_table is b._offset_table
        own = sum(x.nbytes for x in (
            a.order, a.cell_start, a.sizes, a.cell_coords, a.point_cell
        ))
        assert a.nbytes == own < a._offset_table.nbytes
        adj = a.adjacency()
        assert a.nbytes == own + adj.indptr.nbytes + adj.indices.nbytes + adj.inner.nbytes


class TestNeighborCells:
    def test_finds_adjacent_cells(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [50.0, 50.0]])
        grid = Grid(pts, eps=np.sqrt(2))  # side 1
        neighbors = row(grid, cell_id(grid, (0, 0)))
        assert cell_id(grid, (1, 0)) in neighbors
        assert cell_id(grid, (50, 50)) not in neighbors

    def test_excludes_self_by_default(self):
        pts = np.array([[0.5, 0.5]])
        grid = Grid(pts, eps=np.sqrt(2))
        assert row(grid, 0) == []

    def test_coverage_guarantee(self):
        # Every pair of points within eps must live in the same or
        # neighbouring cells — the one-sided guarantee everything relies on.
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 30, size=(200, 3))
        eps = 3.0
        grid = Grid(pts, eps)
        sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        for i, j in zip(*np.nonzero(sq <= eps * eps)):
            ci, cj = grid.point_cell[i], grid.point_cell[j]
            if ci == cj:
                continue
            assert cj in row(grid, ci), (ci, cj)

    def test_neighbor_points_match_cells(self):
        # The kernels gather a row's points through ``_take_ranges`` over
        # the sorted layout; it must equal the per-cell concatenation.
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 10, size=(80, 2))
        grid = Grid(pts, eps=2.0)
        ids = np.asarray(row(grid, grid.point_cell[0]), dtype=np.int64)
        via_cells = [int(i) for c in ids.tolist() for i in cell_points(grid, c)]
        gathered = _take_ranges(grid.order, grid.offsets[ids], grid.sizes[ids])
        assert gathered.tolist() == via_cells


class TestNeighborCellPairs:
    def test_each_pair_once(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 20, size=(150, 2))
        grid = Grid(pts, eps=3.0)
        ii, jj, _ = neighbor_cell_pair_arrays(grid)
        keys = {frozenset(p) for p in zip(ii.tolist(), jj.tolist())}
        assert len(keys) == len(ii)  # no duplicates in either order
        assert (ii < jj).all()

    def test_pairs_are_neighbors(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 20, size=(100, 3))
        grid = Grid(pts, eps=4.0)
        ii, jj, _ = neighbor_cell_pair_arrays(grid)
        for a, b in zip(ii.tolist(), jj.tolist()):
            assert b in row(grid, a) and a in row(grid, b)

    def test_subset_restriction(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [2.5, 0.5]])
        grid = Grid(pts, eps=np.sqrt(2))
        # Cells (0, 0), (1, 0), (2, 0); the subset keeps ids 0 and 2, and
        # the pairs name positions in it.
        ii, jj, inner = neighbor_cell_pair_arrays(grid, subset=np.array([0, 2]))
        assert ii.tolist() == [0] and jj.tolist() == [1] and inner.tolist() == [False]

    def test_completeness_against_brute(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 15, size=(120, 2))
        eps = 2.5
        grid = Grid(pts, eps)
        ii, jj, _ = neighbor_cell_pair_arrays(grid)
        got = {frozenset(p) for p in zip(ii.tolist(), jj.tolist())}
        # Brute force: every unordered pair of distinct non-empty cells with
        # box distance <= eps must be present.
        cells = grid.cell_coords
        side = grid.side
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                gap = np.maximum(np.abs(cells[i] - cells[j]) - 1, 0) * side
                if (gap ** 2).sum() <= eps * eps:
                    assert frozenset((i, j)) in got


def _layout_points(draw_seed, n, d, duplicates, shift):
    rng = np.random.default_rng(draw_seed)
    pts = rng.uniform(-12.0, 12.0, size=(n, d))
    if duplicates and n > 1:
        pts[rng.integers(0, n, size=n // 2)] = pts[rng.integers(0, n, size=n // 2)]
    return pts + shift


class TestLayoutProperties:
    """The sorted cell layout, over d = 1..7, duplicates, negative
    coordinates, a 1e7 shift and n = 0, 1, 2."""

    def check(self, pts, eps):
        grid = Grid(pts, eps)
        n, d = pts.shape
        m = len(grid)
        coords = grid.cell_coords
        assert coords.shape == (m, d) and grid.cell_start.shape == (m + 1,)
        # Strictly increasing cell coordinates, lexicographically.
        for a, b in zip(coords[:-1].tolist(), coords[1:].tolist()):
            assert a < b
        # ``cell_start`` partitions ``order``, which is a permutation.
        assert grid.cell_start[0] == 0 and grid.cell_start[-1] == n
        assert (np.diff(grid.cell_start) > 0).all()
        assert np.array_equal(np.sort(grid.order), np.arange(n))
        assert np.array_equal(grid.sizes, np.diff(grid.cell_start))
        for t in range(m):
            members = cell_points(grid, t)
            assert (np.diff(members) > 0).all()  # ascending inside a cell
            assert (grid.point_cell[members] == t).all()
        # ``point_cell`` agrees with floor(points / side).
        expected = np.floor(pts / grid.side).astype(np.int64)
        assert np.array_equal(coords[grid.point_cell].reshape(n, d), expected)
        # Adjacency rows equal the brute-force box-gap oracle, both builders.
        view = CellView(grid)
        truth = box_gap_pairs(grid)
        for builder, ratio in (("probe", 0.0), ("join", math.inf)):
            built = Grid(pts, eps)
            with mock.patch.object(grid_cells, "_JOIN_RATIO", ratio):
                built.warm_neighbors()
            adjacency = built.adjacency()
            got = {
                (view.keys[t], view.keys[j])
                for t in range(m)
                for j in adjacency.indices[adjacency.indptr[t]:adjacency.indptr[t + 1]].tolist()
            }
            assert got == truth, builder

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        n=st.integers(0, 60),
        d=st.integers(1, 7),
        duplicates=st.booleans(),
        shift=st.sampled_from([0.0, -1e7, 1e7]),
        eps=st.sampled_from([1.0, 2.5, 6.0]),
    )
    def test_layout(self, seed, n, d, duplicates, shift, eps):
        self.check(_layout_points(seed, n, d, duplicates, shift), eps)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_tiny(self, n, d):
        self.check(_layout_points(n + d, n, d, False, 1e7), 2.0)

    def test_all_duplicates(self):
        pts = np.tile([[-3.5, 1e7, 0.25]], (5, 1))
        grid = Grid(pts, 1.0)
        assert len(grid) == 1 and grid.order.tolist() == [0, 1, 2, 3, 4]
        self.check(pts, 1.0)
