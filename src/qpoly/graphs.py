"""Ordinary labelled multigraphs (loops and parallel edges allowed).

This is the underlying-graph side of a ribbon graph: everything a rank
function or a Tutte sum needs, nothing topological.  Edge subsets are
bitmasks in edge declaration order, matching the convention used for
ribbon graphs.  RibbonGraph borrows the mask helpers, components and
nullity, since both classes keep the index of every edge label in
_edge_index and the vertex pair of edge i in _ends[i] and count their
vertices by n_vertices; each class names the exception its helpers raise
in _error.
"""

from __future__ import annotations

__all__ = ["MultiGraph"]


def _join(parent, ends):
    """Unite the classes of an edge's two ends in the union-find parent;
    the root that moved under the other, or -1 when they were one class
    already.

    Roots are linked without path compression, so resetting the moved
    root (parent[r] = r) undoes the union; the quasi-tree descent rolls
    its unions back that way.  The subset sweep of the brute-force sums
    (ribbon._sweep) runs the same finds and links inline in each step,
    saving a call per decided edge, and calls this only for the unmarked
    edges it joins before it starts.
    """
    a, b = ends
    while parent[a] != a:
        a = parent[a]
    while parent[b] != b:
        b = parent[b]
    if a == b:
        return -1
    parent[a] = b
    return a


def _forest(g, edge_order):
    """A spanning forest of g as an edge mask, by Kruskal: each edge of
    edge_order is kept when it joins two classes of the forest so far."""
    parent = list(range(g.n_vertices))
    ends = g._ends
    forest = 0
    for ei in edge_order:
        if _join(parent, ends[ei]) >= 0:
            forest |= 1 << ei
    return forest


class MultiGraph:
    """A multigraph with ordered vertices and labelled edges.

    vertices: iterable of hashable vertex labels.
    edges: iterable of (label, u, w) triples; u and w must be declared
    vertices, u == w gives a loop.
    """

    _error = ValueError

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self._vindex = {}
        for v in self.vertices:
            if v in self._vindex:
                raise ValueError("duplicate vertex %r" % (v,))
            self._vindex[v] = len(self._vindex)
        eds = []
        self._edge_index = {}
        for label, u, w in edges:
            if u not in self._vindex or w not in self._vindex:
                raise ValueError("edge %r joins undeclared vertices" % (label,))
            if label in self._edge_index:
                raise ValueError("duplicate edge label %r" % (label,))
            self._edge_index[label] = len(eds)
            eds.append((label, u, w))
        self.edges = tuple(eds)
        self.edge_labels = tuple(e[0] for e in eds)
        self._ends = tuple((self._vindex[u], self._vindex[w]) for _, u, w in eds)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def full_mask(self):
        return (1 << len(self.edges)) - 1

    def edge_mask(self, labels):
        mask = 0
        for label in labels:
            try:
                mask |= 1 << self._edge_index[label]
            except KeyError:
                raise self._error("unknown edge %r" % (label,)) from None
        return mask

    def _norm_mask(self, mask):
        if mask is None:
            return self.full_mask
        if isinstance(mask, int):
            if mask < 0 or mask > self.full_mask:
                raise self._error("edge mask %#x out of range" % mask)
            return mask
        return self.edge_mask(mask)

    def components(self, mask=None):
        """Connected components of the spanning subgraph on the given edges."""
        mask = self._norm_mask(mask)
        parent = list(range(self.n_vertices))
        ends = self._ends
        c = len(parent)
        m = mask
        while m:
            ei = (m & -m).bit_length() - 1
            m &= m - 1
            c -= _join(parent, ends[ei]) >= 0
        return c

    def nullity(self, mask=None):
        """Cycle-space dimension e(F) - v + c(F) of the spanning subgraph."""
        mask = self._norm_mask(mask)
        return mask.bit_count() - self.n_vertices + self.components(mask)

    def __repr__(self):
        return "<MultiGraph v=%d e=%d>" % (len(self.vertices), len(self.edges))
