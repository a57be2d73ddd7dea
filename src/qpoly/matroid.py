"""Rank functions of cycle and bond matroids.

Only the graphic case and its dual are needed: the cycle matroid C(g) of
an ordinary multigraph with r(F) = v - c(F), and bond matroids obtained
from it by matroid duality r*(H) = |H| + r(M \\ H) - r(M).  Subsets are
bitmasks over the ground set in declaration order, with edge-label
iterables accepted everywhere.  No qp command reads ranks: only the
library API and the tests' Las Vergnas reference do.
"""

from __future__ import annotations

from .graphs import MultiGraph

__all__ = [
    "RankFunction",
    "cycle_matroid",
    "bond_matroid",
]


class RankFunction:
    """A matroid presented by its rank oracle over a fixed ground set."""

    def __init__(self, ground, rank_of_mask, name="rank"):
        self.ground = tuple(ground)
        if len(self.ground) > 64:
            raise ValueError("ground sets are capped at 64 elements")
        self._index = {}
        for i, label in enumerate(self.ground):
            if label in self._index:
                raise ValueError("duplicate ground element %r" % (label,))
            self._index[label] = i
        self._rank_of_mask = rank_of_mask
        self.name = name

    @property
    def full_mask(self):
        return (1 << len(self.ground)) - 1

    def mask(self, subset):
        if isinstance(subset, int):
            if subset < 0 or subset > self.full_mask:
                raise ValueError("mask %#x out of range" % subset)
            return subset
        m = 0
        for label in subset:
            try:
                m |= 1 << self._index[label]
            except KeyError:
                raise ValueError("%r is not in the ground set" % (label,)) from None
        return m

    def rank(self, subset):
        return self._rank_of_mask(self.mask(subset))

    __call__ = rank

    def nullity(self, subset):
        m = self.mask(subset)
        return m.bit_count() - self._rank_of_mask(m)

    def dual(self):
        """The dual matroid: r*(H) = |H| + r(M \\ H) - r(M)."""
        full = self.full_mask
        base = self._rank_of_mask(full)
        inner = self._rank_of_mask

        def rk(mask):
            return mask.bit_count() + inner(full ^ mask) - base

        return RankFunction(self.ground, rk, name=self.name + "*")

    def __repr__(self):
        return "<RankFunction %s on %d elements>" % (self.name, len(self.ground))


def cycle_matroid(g):
    """C(g) for a MultiGraph g, with r(F) = v - c(F)."""
    if not isinstance(g, MultiGraph):
        raise TypeError("cycle_matroid expects a MultiGraph")
    nv = g.n_vertices

    def rk(mask):
        return nv - g.components(mask)

    return RankFunction(g.edge_labels, rk, name="cycle")


def bond_matroid(g):
    """B(g), the dual of the cycle matroid."""
    return cycle_matroid(g).dual()
