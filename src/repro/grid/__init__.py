"""Grid substrates: the cell grid T and the Lemma 5 counting hierarchy."""

from repro.grid.cells import Grid, default_side, neighbor_offsets
from repro.grid.hierarchy import FlatHierarchy

__all__ = [
    "Grid",
    "FlatHierarchy",
    "default_side",
    "neighbor_offsets",
]
