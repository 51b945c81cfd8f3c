"""Spatially contiguous sharding of the grid ``T`` for the worker pool.

A *shard* is a block of grid cells handed to one worker task.  Shards are
built by sorting the non-empty cell coordinates lexicographically and
cutting the sorted sequence into runs of roughly equal point count:

* lexicographic order keeps a shard spatially coherent (cells that share a
  prefix of coordinates are neighbours along the last axes), so the search
  structures a worker builds for one cell tend to be reused by the next;
* balancing on *point* count rather than cell count evens out the skewed
  occupancy the seed spreader produces (a few dense cells, many sparse
  ones).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping

from repro.grid.cells import CellCoord


def shard_cells(
    cells: Iterable[CellCoord],
    n_shards: int,
    weights: Mapping[CellCoord, int] | None = None,
) -> List[List[CellCoord]]:
    """Partition ``cells`` into up to ``n_shards`` contiguous blocks.

    ``weights`` (default: 1 per cell) is typically the number of points
    per cell; the greedy cut aims each block at ``total / n_shards``
    weight.  Empty blocks are dropped, so the result may hold fewer than
    ``n_shards`` entries when there are few cells.
    """
    ordered = sorted(cells)
    if n_shards <= 1 or len(ordered) <= 1:
        return [ordered] if ordered else []
    total = sum(1 if weights is None else int(weights[c]) for c in ordered)
    target = max(1.0, total / n_shards)
    shards: List[List[CellCoord]] = []
    block: List[CellCoord] = []
    acc = 0
    remaining = total
    for cell in ordered:
        w = 1 if weights is None else int(weights[cell])
        block.append(cell)
        acc += w
        remaining -= w
        # Cut when the block reached its target, but never strand the tail:
        # leave at least one cell per remaining shard.
        if acc >= target and len(shards) < n_shards - 1 and remaining > 0:
            shards.append(block)
            block, acc = [], 0
    if block:
        shards.append(block)
    return shards
