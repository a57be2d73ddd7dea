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
S of live orientable edges partition all 2^e spanning subgraphs.  That
partition is resolution_tree(g, order).leaves: a leaf's ones is VI(Q)
and its unresolved edges are the live orientable ones, I_o u E_o.

Everything is edge masks internally.  The interlace matrix A_Q of the
word (A[e][f] = 1 when e and f link, A[e][e] = 1 when e's loop is
twisted) is kept as int bitset rows, and the quasi-trees are Q xor X for
the sets X with A_Q[X] nonsingular over GF(2) (Bouchet's delta-matroid of
the map).  The expansions and the resolution tree come from one descent
of that tree, a recursive walk shaped like ribbon._sweep: it starts at a
spanning tree, reads its rows off the corner walk once, and reaches each
other quasi-tree by a principal pivot transform of the rows on one or
two edges, once per branching node, so it costs about the number of
quasi-trees and never scans the 2^e subsets.  Below a node only the rows
of the edges not yet examined are ever read, and the pivot of A on X
restricted to a principal submatrix on F containing X is the pivot of
A[F] on X (Tsatsomeros 2000), so a pivot rewrites only those rows.  A
callback takes each leaf, and no node is built.  Liveness is one AND of
a row with the mask of the lower edges, orientability the diagonal bit.
quasi_tree_masks, the subsets with bc = 1 read off the 2^e subset sweep
of the brute-force sums, stays the independent oracle of the descent.
ActivityPartition is the label view of the class masks, and
one_vertex_word spells the word out as (label, end, sign) tokens.

expansion_krushkal sums one closed-form term per quasi-tree, read off the
leaves of the descent alone.  At a leaf the resolved-to-1 edges are VI(Q)
= DI u I_n, the resolved-to-0 edges VE(Q) = DE u E_n, and the unresolved
ones I_o u E_o, split by Q.  The descent carries union-finds of the
1-edges in G and of the 0-edges in the dual, one union per child that
the call undoes on return, so the leaf callback also knows c(F_VI) and
c(R_VE).  Q and E - Q are connected, so both minors are: one with
|I_o| = c(F_VI) - 1 edges is a tree, keyed by the path of that length,
and one with c(F_VI) = 1 a bouquet, keyed by that many loops (likewise
|E_o| and c(R_VE) in the dual).  Only the other minors are relabelled,
keyed by the end pairs of their I_o (or E_o) edges on the live
classes.  The Tutte polynomial of a minor is 1 + Y per loop and 1 + X
per bridge in closed form, a bridge being an edge whose ends the
union-find of the other non-loop edges leaves apart, times the subset
sweep of invariants.tutte on the core of the remaining edges, which has
no loop or bridge, once per distinct core.  Minor polynomials stay
{(i, j): coefficient} dicts; the terms sharing an outer minor and a B
shift are summed before one multiplication by the outer polynomial.
The Bollobas-Riordan and Las Vergnas expansions are its images under the
specialization maps of invariants, so there is one per-quasi-tree sum;
all of them must agree with the subset-sum oracles in invariants
coefficient for coefficient.
"""

from __future__ import annotations

from math import comb

from .graphs import MultiGraph, _forest, _join
from .invariants import PolyKind, specialize, tutte
from .laurent import LaurentPoly
from .ribbon import EmbeddedGraph, RibbonError, RibbonGraph, _sweep

__all__ = [
    "ActivityPartition",
    "ResolutionNode",
    "ResolutionTree",
    "quasi_tree_masks",
    "one_vertex_word",
    "activities",
    "resolution_tree",
    "expansion_krushkal",
    "expansion_br",
    "expansion_lv",
]


def quasi_tree_masks(g):
    """Ascending bitmasks of all spanning subgraphs with one boundary circle."""
    if g.components() != 1:
        raise RibbonError("quasi-trees are defined for connected graphs")
    out = []
    _sweep(g, g.full_mask, None,
           lambda f, k, c, _, bc: bc == 1 and out.append(f))
    return out


def _one_walk(g, mask):
    """The vertex word of the partial dual on the quasi-tree mask, as
    half-edge indexes (empty when g has no edges), and the twists of its
    loops; RibbonError unless the corner walk of mask has one circle."""
    walks, signs = g._dual_walks(mask)
    if len(walks) + g._bare != 1:
        raise RibbonError("subgraph is not a quasi-tree (bc != 1)")
    return (walks[0] if walks else ()), signs


def one_vertex_word(g, q):
    """The vertex word of partial_dual(g, Q) for a quasi-tree Q, read off
    the corner walk of Q without building the partial dual: a tuple of
    (edge label, end, sign) tokens, end being 1 or 2 for the edge's
    declared half-edges and sign the twist of its loop there."""
    word, signs = _one_walk(g, g._norm_mask(q))
    return tuple((g.edge_labels[h >> 1], 1 + (h & 1), signs[h >> 1])
                 for h in word)


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


def activities(g, order, q):
    """Classify every edge relative to the quasi-tree q under the order.

    An edge is live when no strictly lower-ordered edge links it in the
    one-vertex word of the partial dual, internal when it lies in q, and
    orientable when its loop in the partial dual is untwisted.
    """
    lower = _lower_masks(g, order)
    mask = g._norm_mask(q)
    classes = _classes(_walk_rows(g, mask), lower, mask)
    return ActivityPartition(*map(g.mask_labels, classes))


def _lower_masks(g, order):
    """Check the order (None is declaration order); lower[ei] is the mask
    of the edges strictly below edge ei in it."""
    order = g.edge_labels if order is None else tuple(order)
    if sorted(order) != sorted(g.edge_labels):
        raise RibbonError("edge order must be a permutation of the edge labels")
    lower, below = [0] * len(g.edges), 0
    for ei in map(g._edge_index.get, order):
        lower[ei], below = below, below | 1 << ei
    return lower


def _walk_rows(g, mask):
    """The rows of the interlace matrix of the quasi-tree mask, read off
    its corner walk: bit f of row e is set when e and f link in the vertex
    word, bit e when e's loop there is twisted."""
    word, signs = _one_walk(g, mask)
    # acc is the running XOR of edge bits along the one vertex word; its
    # values just before the two ends of e differ in e's own bit and in the
    # bits flipped once in between, which are exactly the edges linking e
    rows = [0] * len(g.edges)
    acc = 0
    for h in word:
        rows[h >> 1] ^= acc
        acc ^= 1 << (h >> 1)
    # e's own bit is left set in its row; it stays only if e is twisted
    for ei, sign in enumerate(signs):
        if sign > 0:
            rows[ei] ^= 1 << ei
    return rows


def _classes(rows, lower, mask):
    """The masks (DI, I_o, I_n, DE, E_o, E_n) of the quasi-tree mask with
    interlace rows rows: e is dead when a lower edge links it and
    orientable when its diagonal bit is 0."""
    dead = orientable = 0
    for ei, row in enumerate(rows):
        if row & lower[ei]:
            dead |= 1 << ei
        elif not (row >> ei) & 1:
            orientable |= 1 << ei
    full = (1 << len(rows)) - 1
    nonorientable = full ^ dead ^ orientable
    ext = full ^ mask
    return (dead & mask, orientable & mask, nonorientable & mask,
            dead & ext, orientable & ext, nonorientable & ext)


def _pivot(rows, e, free):
    """(X, rows of the interlace matrix of Q xor X on free) for the
    principal pivot transform of Q's rows on X = {e} if e's diagonal bit
    is set, else on X = {e, f} for the lowest f in free linking e.  A[X]
    is then nonsingular over GF(2), so Q xor X is a quasi-tree.

    free holds the edges not yet examined, e among them.  The pivot of A
    on X, restricted to the principal submatrix on free, is the pivot of
    A[free] on X, so only the rows of free edges linking e or f are
    rewritten; each at full width, so the rows of free stay exact while
    those of the examined edges go stale.  The loops walk the set bits of
    that mask, and read the rewritten rows e and f once."""
    rows = list(rows)
    be = 1 << e
    re = rows[e]
    if re & be:
        # inverse block [1]: row e stays and every row linking e adds it
        # off the diagonal
        off = re ^ be
        m = off & free
        while m:
            low = m & -m
            rows[low.bit_length() - 1] ^= off
            m ^= low
        return be, rows
    # A[X] = [[0, 1], [1, a]] with a = A[f][f] has inverse [[a, 1], [1, 0]]
    bf = re & free & -(re & free)
    f = bf.bit_length() - 1
    x = be | bf
    rf = rows[f]
    ye, yf = re & ~x, rf & ~x
    ne = rows[e] = (yf | bf) ^ (ye | be if rf & bf else 0)
    nf = rows[f] = ye | be
    m = (ye | yf) & free
    while m:
        low = m & -m
        i = low.bit_length() - 1
        row = rows[i]
        new = row & ~x
        if row & be:
            new ^= ne
        if row & bf:
            new ^= nf
        rows[i] = new
        m ^= low
    return x, rows


def _descent(g, lower, leaf, d=None):
    """Walk the resolution tree of g under the order given by lower, depth
    first with the 0-child first, calling leaf(ones, zeros, Q, c_g, c_d,
    g_parent, d_parent) at each leaf in pre-order, Q being the quasi-tree
    completing the leaf's resolution.  Each node carries a quasi-tree Q
    completing its resolution and the interlace rows of Q's vertex word;
    where it branches on edge index ei they are exact on the edges
    lower[ei] | 1 << ei not yet examined and stale on the examined ones.

    The quasi-trees completing a node are Q xor X for the sets X of edges
    not yet examined with A_Q[X] nonsingular over GF(2) (Bouchet), so the
    next edge e branches exactly when its row meets those edges; otherwise
    it is nugatory and skipped.  The child agreeing with Q on e keeps (Q,
    rows), the other one pivots.  Both read only the rows of edges below
    e, so the pivot rewrites only those (see _pivot).

    With d, a graph on the same edges (the dual cellulation, for the
    expansion), two rollback union-finds ride along: g_parent holds the
    edges of ones in g and d_parent those of zeros in d, and c_g and c_d
    count their classes.  The 0-child joins its edge's ends in d, the
    1-child in g, and the union is undone by resetting the moved root on
    return, as in ribbon._sweep, so the lists are only valid inside the
    leaf call.  Without d both are None, c_g stays g.n_vertices and c_d 0.
    At a leaf, ones is VI(Q) = DI u I_n, zeros is VE(Q) = DE u E_n and the
    unresolved edges are I_o u E_o.  The recursion is one level per
    branching edge, at most 64 deep.
    """
    if g.components() != 1:
        raise RibbonError("quasi-trees are defined for connected graphs")
    desc = sorted(range(len(lower)), key=lower.__getitem__, reverse=True)
    n = len(desc)
    g_parent = g_ends = d_parent = d_ends = None
    if d is not None:
        g_parent, g_ends = list(range(g.n_vertices)), g._ends
        d_parent, d_ends = list(range(d.n_vertices)), d._ends
    # frees[j]: the edges not yet examined when desc[j] is reached
    frees = [lower[ei] | 1 << ei for ei in desc]

    def visit(j, ones, zeros, q, rows, c_g, c_d):
        while j < n:
            ei = desc[j]
            free = frees[j]
            if rows[ei] & free:
                break
            j += 1
        else:
            leaf(ones, zeros, q, c_g, c_d, g_parent, d_parent)
            return
        bit = 1 << ei
        x, flipped = _pivot(rows, ei, free)
        if q & bit:
            zero_q, zero_rows, one_q, one_rows = q ^ x, flipped, q, rows
        else:
            zero_q, zero_rows, one_q, one_rows = q, rows, q ^ x, flipped
        r = -1 if d_parent is None else _join(d_parent, d_ends[ei])
        visit(j + 1, ones, zeros | bit, zero_q, zero_rows,
              c_g, c_d - (r >= 0))
        if r >= 0:
            d_parent[r] = r
        r = -1 if g_parent is None else _join(g_parent, g_ends[ei])
        visit(j + 1, ones | bit, zeros, one_q, one_rows,
              c_g - (r >= 0), c_d)
        if r >= 0:
            g_parent[r] = r

    # a spanning tree's ribbon neighbourhood is a disc, so it is a quasi-tree
    q = _forest(g, range(len(g.edges)))
    visit(0, 0, 0, q, _walk_rows(g, q), g.n_vertices,
          0 if d is None else d.n_vertices)


# ----------------------------------------------------------------------
# resolution tree


class ResolutionNode:
    """A leaf of the resolution tree: the partial resolution rho: E ->
    {0, 1, *} that is 1 on the mask ones and 0 on the mask zeros, the
    mask of the unique quasi-tree completing it, and the labels it leaves
    unresolved (*)."""

    __slots__ = ("ones", "zeros", "quasi_tree", "unresolved")

    def __init__(self, ones, zeros, quasi_tree, unresolved):
        self.ones = ones
        self.zeros = zeros
        self.quasi_tree = quasi_tree
        self.unresolved = unresolved

    def __repr__(self):
        return "<leaf Q=%#x unresolved={%s}>" % (
            self.quasi_tree, ",".join(sorted(self.unresolved)))


class ResolutionTree:
    """The leaves of a resolution tree, in pre-order."""

    def __init__(self, leaves):
        self.leaves = tuple(leaves)

    @property
    def leaf_count(self):
        return len(self.leaves)

    def __repr__(self):
        return "<ResolutionTree %d leaves>" % len(self.leaves)


def resolution_tree(g, order=None):
    """The leaves of the binary resolution tree of (g, order).

    Edges are examined from the highest order downward.  When both ways
    of deciding the next edge still admit a quasi-tree completion the
    node branches (0-child first); otherwise the edge is nugatory and is
    skipped for good, staying unresolved in every leaf below.  Each leaf
    admits exactly one quasi-tree completion.  The leaves come in
    pre-order, and they fix the tree: a node's resolution is what its
    leaves share.
    """
    leaves = []
    full = g.full_mask

    def leaf(ones, zeros, q, *_):
        unresolved = frozenset(g.mask_labels(full ^ ones ^ zeros))
        leaves.append(ResolutionNode(ones, zeros, q, unresolved))

    _descent(g, _lower_masks(g, order), leaf)
    return ResolutionTree(leaves)


# ----------------------------------------------------------------------
# the expansions


def _end_pairs(parent, ends, edges):
    """The end pairs of the edges in the mask edges, each end replaced by
    its root in the union-find parent and the roots numbered by first
    appearance: the minor on the classes of parent with those edges, up to
    the classes no edge touches, which its Tutte polynomial never sees.
    Minors of different quasi-trees often coincide."""
    label = {}
    pairs = []
    while edges:
        low = edges & -edges
        a, b = ends[low.bit_length() - 1]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        la = label.get(a)
        if la is None:
            la = label[a] = len(label)
        lb = label.get(b)
        if lb is None:
            lb = label[b] = len(label)
        pairs.append((la, lb))
        edges ^= low
    return tuple(pairs)


def _split(pairs):
    """(loops, bridges, core) of the multigraph with these end pairs on the
    vertices 0..n-1: the counts of its loops and of its bridges, and the
    end pairs of its other edges, in edge order and relabelled by first
    appearance.  The core has no loop or bridge, but it may be empty or
    disconnected.

    A non-loop edge is a bridge when a union-find of the other non-loop
    edges leaves its two ends in different classes.
    """
    edges = [p for p in pairs if p[0] != p[1]]
    n = 1 + max(map(max, edges), default=-1)
    core = []
    for i, p in enumerate(edges):
        parent = list(range(n))
        for other in edges[:i] + edges[i + 1:]:
            _join(parent, other)
        if _join(parent, p) < 0:
            core.append(p)
    label = {}
    core = tuple((label.setdefault(a, len(label)),
                  label.setdefault(b, len(label))) for a, b in core)
    return len(pairs) - len(edges), len(edges) - len(core), core


def _minor_tutte(pairs, memo):
    """{(i, j): coefficient of X^i Y^j} of the Tutte polynomial of the
    minor with these end pairs.  It is multiplicative over the loops, the
    bridges and the core, so it is (1 + Y) per loop and (1 + X) per
    bridge, taken together from two binomial rows, times the subset sweep
    of tutte on the core, memoized in memo on the core's relabelled
    pairs."""
    loops, bridges, core = _split(pairs)
    row_x = [comb(bridges, i) for i in range(bridges + 1)]
    row_y = [comb(loops, j) for j in range(loops + 1)]
    poly = {(i, j): cx * cy
            for i, cx in enumerate(row_x) for j, cy in enumerate(row_y)}
    if not core:
        return poly
    factor = memo.get(core)
    if factor is None:
        minor = MultiGraph(range(1 + max(map(max, core))),
                           [(i,) + p for i, p in enumerate(core)])
        factor = memo[core] = {
            (x >> 1, y >> 1): c
            for (x, y, _, _, _), c in tutte(minor).items_doubled()}
    product = {}
    for (i, j), c in poly.items():
        for (k, l), d in factor.items():
            key = (i + k, j + l)
            product[key] = product.get(key, 0) + c * d
    return product


def expansion_krushkal(emb, order=None):
    """Quasi-tree expansion of the Krushkal polynomial.

    Sum over quasi-trees of
    T_{G_Q}(X, A) T_{G*_Q*}(Y, B) A^(s(F_VI)/2) B^(s(R_VE)/2),
    where G_Q has the components of F_VI as vertices and the I_o edges,
    and G*_Q* the components of R_VE in the dual and the E_o edges.
    Needs a connected cellular embedding.
    """
    if isinstance(emb, RibbonGraph):
        emb = EmbeddedGraph(emb)
    if not emb.is_cellular:
        raise RibbonError("the Krushkal expansion needs a cellular embedding")
    g = emb.cellulation
    d = emb.dual_cellulation
    full, g_ends, d_ends = g.full_mask, g._ends, d._ends
    n_g, n_d = g.n_vertices, d.n_vertices
    # a term depends only on the two minors and the two shifts, so count
    # the quasi-trees per distinct term
    tally = {}
    # the keys of a k-edge tree (a path: every tree on k edges has T = X^k)
    # and of a bouquet of k loops, which is what _end_pairs gives for it
    sizes = range(len(g.edges) + 1)
    paths = [tuple((i, i + 1) for i in range(k)) for k in sizes]
    bouquets = [((0, 0),) * k for k in sizes]

    def leaf(vi, ve, q, c_vi, c_ve, g_parent, d_parent):
        # at a leaf VI = ones, VE = zeros and I_o u E_o is unresolved
        unresolved = full ^ vi ^ ve
        i_o, e_o = unresolved & q, unresolved & ~q
        k_in, k_out = i_o.bit_count(), e_o.bit_count()
        # Q and E - Q are connected, so both minors are: a side with one
        # edge fewer than vertices is a tree, one with one vertex a bouquet,
        # and only the other sides are relabelled
        if k_in == c_vi - 1:
            key_in = paths[k_in]
        elif c_vi == 1:
            key_in = bouquets[k_in]
        else:
            key_in = _end_pairs(g_parent, g_ends, i_o)
        if k_out == c_ve - 1:
            key_out = paths[k_out]
        elif c_ve == 1:
            key_out = bouquets[k_out]
        else:
            key_out = _end_pairs(d_parent, d_ends, e_o)
        # A^(s/2) and B^(s/2) shift the doubled A and B exponents by s;
        # s = 2c - v + e - bc with c(F_VI) carried by the descent and
        # bc(F_VI) = |I_o| + 1, and in the dual c(R_VE) and bc(R_VE) =
        # |E_o| + 1
        term = (key_in, key_out,
                2 * c_vi - n_g + vi.bit_count() - k_in - 1,
                2 * c_ve - n_d + ve.bit_count() - k_out - 1)
        tally[term] = tally.get(term, 0) + 1

    _descent(g, _lower_masks(g, order), leaf, d=d)
    # T(X, Y) of every distinct minor, both sides sharing one core memo
    cores = {}
    minors = {key: _minor_tutte(key, cores)
              for key in {key for term in tally for key in term[:2]}}
    # sum n T_in(X, A) A^(s_vi/2) over the terms of one (outer minor, B
    # shift) group, as {(X, doubled A): coefficient}, then multiply each
    # group by its T_out(Y, B) once
    groups = {}
    for (key_in, key_out, s_vi, s_ve), n in tally.items():
        inner = groups.setdefault((key_out, s_ve), {})
        for (i, j), c in minors[key_in].items():
            key = (i, 2 * j + s_vi)
            inner[key] = inner.get(key, 0) + n * c
    acc = {}
    for (key_out, s_ve), inner in groups.items():
        for (k, l), c in minors[key_out].items():
            y, b = 2 * k, 2 * l + s_ve
            for (i, a), c_in in inner.items():
                key = (2 * i, y, a, b, 0)
                acc[key] = acc.get(key, 0) + c * c_in
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
