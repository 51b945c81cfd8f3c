"""Generic utilities: union-find, RNG plumbing, input validation."""

from repro.utils.unionfind import UnionFind
from repro.utils.rng import make_rng

__all__ = ["UnionFind", "make_rng"]
