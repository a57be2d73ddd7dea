"""Quasi-trees, activity partitions, the resolution tree, and the
quasi-tree expansion of the Krushkal polynomial with its specializations.

A quasi-tree of a connected ribbon graph is a spanning subgraph whose
ribbon neighbourhood has exactly one boundary circle.  Taking the partial
dual with respect to a quasi-tree Q turns the graph into a one-vertex
ribbon graph; the cyclic word of half-edges around that vertex governs
everything else.  An edge is live when no lower-ordered edge interleaves
with it in the word, and orientable when its loop in the partial dual is
untwisted.  Crossing liveness with internal/external and orientability
splits E(G) into six classes, and the subsets VI(Q) union S over choices
S of live orientable edges partition all 2^e spanning subgraphs.

expansion_krushkal sums one closed-form term per quasi-tree.  The
Bollobas-Riordan and Las Vergnas expansions are its images under the
specialization maps of invariants, so there is one per-quasi-tree sum;
all of them must agree with the subset-sum oracles in invariants
coefficient for coefficient.
"""

from __future__ import annotations

from .graphs import MultiGraph
from .invariants import PolyKind, specialize, tutte
from .laurent import LaurentPoly
from .ribbon import EmbeddedGraph, RibbonError, RibbonGraph

__all__ = [
    "VertexWord",
    "ActivityPartition",
    "ResolutionNode",
    "ResolutionTree",
    "quasi_tree_masks",
    "one_vertex_word",
    "activities",
    "resolution_tree",
    "quasi_tree_partition",
    "build_minor_graphs",
    "expansion_krushkal",
    "expansion_br",
    "expansion_lv",
]


class VertexWord:
    """The boundary word of a one-vertex ribbon graph.

    tokens is a cyclic sequence of (edge label, end, sign) triples, end
    being 1 or 2 for the edge's declared half-edges and sign the twist of
    the edge in the one-vertex graph.  Every edge appears exactly twice.
    """

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        self._positions = {}
        for i, (label, _end, _sign) in enumerate(self.tokens):
            self._positions.setdefault(label, []).append(i)
        for label, pos in self._positions.items():
            if len(pos) != 2:
                raise RibbonError("edge %r appears %d times in the word"
                                  % (label, len(pos)))

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def sign(self, label):
        i = self._positions[label][0]
        return self.tokens[i][2]

    def links(self, e, f):
        """Whether the occurrences of e and f interleave cyclically."""
        if e == f:
            raise ValueError("links needs two distinct edges")
        p1, p2 = self._positions[e]
        q1, q2 = self._positions[f]
        return (p1 < q1 < p2) != (p1 < q2 < p2)

    def __repr__(self):
        bits = ["%s%s%s" % (l, e, "'" if s < 0 else "") for l, e, s in self.tokens]
        return "<VertexWord %s>" % " ".join(bits)


def quasi_tree_masks(g):
    """Bitmasks of all spanning subgraphs with one boundary circle."""
    if g.components() != 1:
        raise RibbonError("quasi-trees are defined for connected graphs")
    return [mask for mask in range(g.full_mask + 1)
            if g.boundary_components(mask) == 1]


def one_vertex_word(g, q):
    """The vertex word of partial_dual(g, Q) for a quasi-tree Q, read off
    the corner walk of Q without building the partial dual."""
    walks, signs = g._dual_walks(g._norm_mask(q))
    if len(walks) + g._bare != 1:
        raise RibbonError("subgraph is not a quasi-tree (bc != 1)")
    return VertexWord((g.edge_labels[h >> 1], 1 + (h & 1), signs[h >> 1])
                      for walk in walks for h in walk)


class ActivityPartition:
    """The six activity classes of the edges relative to a quasi-tree."""

    def __init__(self, di, i_o, i_n, de, e_o, e_n):
        self.di = frozenset(di)
        self.i_o = frozenset(i_o)
        self.i_n = frozenset(i_n)
        self.de = frozenset(de)
        self.e_o = frozenset(e_o)
        self.e_n = frozenset(e_n)

    @property
    def vi(self):
        """Internally dead or nonorientable-live: DI union I_n."""
        return self.di | self.i_n

    @property
    def ve(self):
        return self.de | self.e_n

    def as_dict(self):
        return {"DI": self.di, "I_o": self.i_o, "I_n": self.i_n,
                "DE": self.de, "E_o": self.e_o, "E_n": self.e_n}

    def __eq__(self, other):
        if not isinstance(other, ActivityPartition):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None

    def __repr__(self):
        parts = ["%s={%s}" % (k, ",".join(sorted(v)))
                 for k, v in self.as_dict().items() if v]
        return "<ActivityPartition %s>" % " ".join(parts)


def _check_order(g, order):
    if order is None:
        return tuple(g.edge_labels)
    order = tuple(order)
    if sorted(order) != sorted(g.edge_labels):
        raise RibbonError("edge order must be a permutation of the edge labels")
    return order


def activities(g, order, q, word=None):
    """Classify every edge relative to the quasi-tree q under the order.

    An edge is live when no strictly lower-ordered edge links it in the
    one-vertex word of the partial dual, internal when it lies in q, and
    orientable when its loop in the partial dual is untwisted.
    """
    order = _check_order(g, order)
    mask = g._norm_mask(q)
    if word is None:
        word = one_vertex_word(g, mask)
    return _classify(g, _ranks(order), mask, word)


def _ranks(order):
    return {label: i for i, label in enumerate(order)}


def _classify(g, rank, mask, word):
    sets = {k: [] for k in ("di", "i_o", "i_n", "de", "e_o", "e_n")}
    for label in g.edge_labels:
        live = not any(word.links(label, f) for f in g.edge_labels
                       if rank[f] < rank[label])
        internal = bool(mask & (1 << g._edge_index[label]))
        if not live:
            sets["di" if internal else "de"].append(label)
        elif word.sign(label) > 0:
            sets["i_o" if internal else "e_o"].append(label)
        else:
            sets["i_n" if internal else "e_n"].append(label)
    return ActivityPartition(**sets)


def _each_quasi_tree(g, order):
    """(Q mask, activities) for every quasi-tree, checking the order once."""
    rank = _ranks(_check_order(g, order))
    for qmask in quasi_tree_masks(g):
        yield qmask, _classify(g, rank, qmask, one_vertex_word(g, qmask))


# ----------------------------------------------------------------------
# resolution tree


class ResolutionNode:
    """A partial resolution rho: E -> {0, 1, *}.

    Interior nodes branch on one edge; leaves carry the unique quasi-tree
    completing their resolution and the labels left unresolved (*).
    """

    __slots__ = ("ones", "zeros", "edge", "zero", "one",
                 "quasi_tree", "unresolved")

    def __init__(self, ones, zeros):
        self.ones = ones
        self.zeros = zeros
        self.edge = None
        self.zero = None
        self.one = None
        self.quasi_tree = None
        self.unresolved = None

    @property
    def is_leaf(self):
        return self.edge is None

    def __repr__(self):
        if self.is_leaf:
            return "<leaf Q=%#x unresolved={%s}>" % (
                self.quasi_tree, ",".join(sorted(self.unresolved)))
        return "<node on %s>" % self.edge


class ResolutionTree:
    def __init__(self, graph, order, root, leaves):
        self.graph = graph
        self.order = tuple(order)
        self.root = root
        self.leaves = tuple(leaves)

    @property
    def leaf_count(self):
        return len(self.leaves)

    def __repr__(self):
        return "<ResolutionTree %d leaves>" % len(self.leaves)


def resolution_tree(g, order=None):
    """Build the binary resolution tree of (g, order).

    Edges are examined from the highest order downward.  When both ways
    of deciding the next edge still admit a quasi-tree completion the
    node branches (0-child first); otherwise the edge is nugatory and is
    skipped for good, staying unresolved in every leaf below.  Each leaf
    admits exactly one quasi-tree completion.
    """
    order = _check_order(g, order)
    qts = quasi_tree_masks(g)
    desc = [g._edge_index[label] for label in reversed(order)]
    labels = {ei: g.edge_labels[ei] for ei in desc}
    full = g.full_mask
    leaves = []

    def viable(ones, zeros):
        return any(q & zeros == 0 and q & ones == ones for q in qts)

    def build(ones, zeros, idx):
        node = ResolutionNode(ones, zeros)
        for j in range(idx, len(desc)):
            bit = 1 << desc[j]
            if (ones | zeros) & bit:
                continue
            if viable(ones, zeros | bit) and viable(ones | bit, zeros):
                node.edge = labels[desc[j]]
                node.zero = build(ones, zeros | bit, j + 1)
                node.one = build(ones | bit, zeros, j + 1)
                return node
            # nugatory: the edge keeps resolution * below this node
        done = [q for q in qts if q & zeros == 0 and q & ones == ones]
        if len(done) != 1:
            raise RibbonError("leaf with %d quasi-tree completions; "
                              "the resolution tree construction is broken"
                              % len(done))
        node.quasi_tree = done[0]
        node.unresolved = frozenset(
            g.edge_labels[ei] for ei in range(len(g.edges))
            if not ((ones | zeros) >> ei) & 1)
        leaves.append(node)
        return node

    root = build(0, 0, 0)
    assert len(leaves) == len(qts)
    return ResolutionTree(g, order, root, leaves)


# ----------------------------------------------------------------------
# the spanning-subgraph partition


def quasi_tree_partition(g, order=None):
    """Map every spanning subgraph to its quasi-tree.

    Returns {F mask: (Q mask, S mask)} with F = VI(Q) union S and S a
    subset of the live orientable edges of Q.  The map being total and
    single-valued is the partition theorem; violations raise.
    """
    table = {}
    for qmask, ap in _each_quasi_tree(g, order):
        vi = g.edge_mask(ap.vi)
        free = sorted(g._edge_index[label] for label in (ap.i_o | ap.e_o))
        for pick in range(1 << len(free)):
            smask = 0
            for bitpos, ei in enumerate(free):
                if (pick >> bitpos) & 1:
                    smask |= 1 << ei
            fmask = vi | smask
            if fmask in table:
                raise RibbonError("spanning subgraph %#x reached from two "
                                  "quasi-trees; partition broken" % fmask)
            table[fmask] = (qmask, smask)
    if len(table) != g.full_mask + 1:
        raise RibbonError("partition covers %d of %d spanning subgraphs"
                          % (len(table), g.full_mask + 1))
    return table


# ----------------------------------------------------------------------
# minor graphs and the expansions


def _contracted_multigraph(graph, base_mask, edge_labels):
    """The ordinary graph on the components of base_mask, with the given
    edges of `graph` re-attached to the components of their endpoints."""
    comp = graph.components(base_mask, labels=True)
    names = ["c%d" % i for i in range(max(comp, default=-1) + 1)]
    eds = []
    for label in sorted(edge_labels, key=graph._edge_index.get):
        a, b = graph._ends[graph._edge_index[label]]
        eds.append((label, names[comp[a]], names[comp[b]]))
    return MultiGraph(names, eds)


def build_minor_graphs(g, order, q, dual=None, ap=None):
    """(G_Q, G*_Q*): vertices are the components of F_VI (resp. R_VE in
    the dual), edges the live orientable internal (resp. external) ones.
    order is only read when ap, the activities of q, is not given."""
    if ap is None:
        ap = activities(g, order, q)
    if dual is None:
        dual = g.dual()
    gq = _contracted_multigraph(g, g.edge_mask(ap.vi), ap.i_o)
    gstar = _contracted_multigraph(dual, dual.edge_mask(ap.ve), ap.e_o)
    return gq, gstar


def _substituted_tutte(memo, graph, bindings):
    """tutte(graph).substitute(bindings), memoized on the exact structure
    of the graph: the Tutte polynomial does not read the edge labels, and
    the minors of different quasi-trees often coincide."""
    key = (graph.n_vertices, graph._ends)
    poly = memo.get(key)
    if poly is None:
        poly = memo[key] = tutte(graph).substitute(bindings)
    return poly


def expansion_krushkal(emb, order=None):
    """Quasi-tree expansion of the Krushkal polynomial.

    Sum over quasi-trees of
    T_{G_Q}(X, A) T_{G*_Q*}(Y, B) A^(s(F_VI)/2) B^(s(R_VE)/2).
    Needs a connected cellular embedding.
    """
    if isinstance(emb, RibbonGraph):
        emb = EmbeddedGraph(emb)
    if not emb.is_cellular:
        raise RibbonError("the Krushkal expansion needs a cellular embedding")
    g = emb.cellulation
    d = emb.dual_cellulation
    var = LaurentPoly.variable
    inner = {"Y": var("A")}
    outer = {"X": var("Y"), "Y": var("B")}
    memo_in, memo_out = {}, {}
    acc = {}
    for qmask, ap in _each_quasi_tree(g, order):
        gq, gstar = build_minor_graphs(g, order, qmask, d, ap)
        t_in = _substituted_tutte(memo_in, gq, inner)
        t_out = _substituted_tutte(memo_out, gstar, outer)
        # A^(s/2) and B^(s/2) shift the doubled A and B exponents by s;
        # s = 2c - v + e - bc with c(F_VI) = v(G_Q), bc(F_VI) = |I_o| + 1
        # and, in the dual, c(R_VE) = v(G*_Q*), bc(R_VE) = |E_o| + 1
        s_vi = (2 * gq.n_vertices - g.n_vertices + len(ap.vi)
                - len(ap.i_o) - 1)
        s_ve = (2 * gstar.n_vertices - d.n_vertices + len(ap.ve)
                - len(ap.e_o) - 1)
        for (x, y, a, b, z), c in (t_in * t_out).items_doubled():
            key = (x, y, a + s_vi, b + s_ve, z)
            acc[key] = acc.get(key, 0) + c
    return LaurentPoly(acc)


def expansion_br(g, order=None):
    """Quasi-tree expansion of the Bollobas-Riordan polynomial.

    The Krushkal expansion of g, taken as its own cellulation, under the
    specialization Y^(s/2) K(X, Y, Y Z^2, Y^-1).  Works for any connected
    ribbon graph.
    """
    if isinstance(g, EmbeddedGraph):
        if not g.is_cellular:
            raise RibbonError("pass the marked ribbon subgraph itself for "
                              "non-cellular embeddings")
        g = g.cellulation
    return specialize(expansion_krushkal(g, order), PolyKind.BR,
                      s=g.genus_s())


def expansion_lv(emb, order=None):
    """Quasi-tree expansion of the Las Vergnas polynomial.

    The Krushkal expansion under the specialization
    Z^(delta/2) K(X-1, Y-1, Z^-1, Z).  Needs a connected cellular
    embedding.
    """
    if isinstance(emb, RibbonGraph):
        emb = EmbeddedGraph(emb)
    if not emb.is_cellular:
        raise RibbonError("the Las Vergnas expansion needs a cellular embedding")
    _, _, delta = emb.surface_invariants()
    return specialize(expansion_krushkal(emb, order), PolyKind.LV,
                      delta=delta)
