"""The bitset activities, the interlace descent and the resolution tree
against reference constructions: pairwise interleaving in the vertex
word for liveness, the 2^e boundary-walk scan for the quasi-trees, the
corner walk of each quasi-tree for its interlace rows, a full-width
pivot for the pivot that rewrites only the unexamined rows, a
resolution tree that re-scans the whole quasi-tree list at every node,
a breadth-first search for the classes that the descent carries to
each leaf and for the components behind each minor key, and an
explicit-stack descent with a rollback trail for the recursive fold."""

import random
from fractions import Fraction

import pytest

from qpoly.graphs import _forest, _join
from qpoly.quasitrees import (
    ActivityPartition,
    _classes,
    _descent,
    _end_pairs,
    _lower_masks,
    _pivot,
    _walk_rows,
    activities,
    expansion_krushkal,
    one_vertex_word,
    quasi_tree_masks,
    resolution_tree,
)
from qpoly.ribbon import RibbonError, RibbonGraph
from qpoly.textio import random_graph

from fixture_graphs import (
    FIXTURES,
    component_labels_by_search,
    count_by_search,
    links,
    random_twisted_graphs,
)


def reference_activities(g, order, mask):
    """Live: no lower-ordered edge links the edge in the vertex word of the
    partial dual; orientable: its loop there is untwisted."""
    word = one_vertex_word(g, mask)
    sign = {label: s for label, _end, s in word}
    rank = {label: i for i, label in enumerate(order)}
    sets = {k: [] for k in ("di", "i_o", "i_n", "de", "e_o", "e_n")}
    for label in g.edge_labels:
        live = not any(links(word, label, f) for f in g.edge_labels
                       if rank[f] < rank[label])
        internal = bool(mask & (1 << g._edge_index[label]))
        if not live:
            sets["di" if internal else "de"].append(label)
        elif sign[label] > 0:
            sets["i_o" if internal else "e_o"].append(label)
        else:
            sets["i_n" if internal else "e_n"].append(label)
    return ActivityPartition(**sets)


def reference_tree(g, order):
    """Pre-order (edge, ones, zeros, leaf Q, unresolved) of the resolution
    tree, deciding each branch by scanning every quasi-tree."""
    qts = quasi_tree_masks(g)
    desc = [g._edge_index[label] for label in reversed(order)]
    nodes = []

    def viable(ones, zeros):
        return any(q & zeros == 0 and q & ones == ones for q in qts)

    def build(ones, zeros, idx):
        for j in range(idx, len(desc)):
            bit = 1 << desc[j]
            if viable(ones, zeros | bit) and viable(ones | bit, zeros):
                nodes.append((g.edge_labels[desc[j]], ones, zeros, None, None))
                build(ones, zeros | bit, j + 1)
                build(ones | bit, zeros, j + 1)
                return
        done = [q for q in qts if q & zeros == 0 and q & ones == ones]
        assert len(done) == 1
        unresolved = frozenset(g.edge_labels[ei] for ei in range(g.n_edges)
                               if not ((ones | zeros) >> ei) & 1)
        nodes.append((None, ones, zeros, done[0], unresolved))

    build(0, 0, 0)
    return nodes


def preorder(node):
    out = [(node.edge, node.ones, node.zeros, node.quasi_tree, node.unresolved)]
    if not node.is_leaf:
        out += preorder(node.zero) + preorder(node.one)
    return out


GRAPHS = [(name, make()) for name, make in FIXTURES.items()]
GRAPHS += [("R%d" % i, g) for i, g in enumerate(random_twisted_graphs())]


def cases():
    rng = random.Random(6)
    for name, g in GRAPHS:
        for k in range(3):
            order = list(g.edge_labels)
            rng.shuffle(order)
            yield "%s/%d" % (name, k), g, order


CASES = list(cases())


@pytest.mark.parametrize("name,g,order", CASES, ids=[c[0] for c in CASES])
def test_activities_match_reference(name, g, order):
    for qmask in quasi_tree_masks(g):
        assert activities(g, order, qmask) == \
            reference_activities(g, order, qmask), (name, qmask)


@pytest.mark.parametrize("name,g,order", CASES, ids=[c[0] for c in CASES])
def test_resolution_tree_matches_reference(name, g, order):
    tree = resolution_tree(g, order)
    nodes = preorder(tree.root)
    assert nodes == reference_tree(g, order), name
    assert [leaf.quasi_tree for leaf in tree.leaves] == \
        [n[3] for n in nodes if n[0] is None]


@pytest.mark.parametrize("name,g", GRAPHS, ids=[c[0] for c in GRAPHS])
def test_activities_reject_non_quasi_trees_like_the_word(name, g):
    qts = set(quasi_tree_masks(g))
    for mask in range(g.full_mask + 1):
        if mask in qts:
            continue
        with pytest.raises(RibbonError) as ours:
            activities(g, None, mask)
        with pytest.raises(RibbonError) as ref:
            reference_activities(g, g.edge_labels, mask)
        assert str(ours.value) == str(ref.value) == \
            "subgraph is not a quasi-tree (bc != 1)"


def bits(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def exact_rows(rows, mask):
    """The rows of the edges in mask, the ones a pivot keeps exact."""
    return [rows[i] for i in bits(mask)]


@pytest.mark.parametrize("name,g,order", CASES, ids=[c[0] for c in CASES])
def test_descent_leaves_match_the_scan_and_the_walk(name, g, order):
    """At every branching node the rows of the edges not yet examined
    are those of the corner walk of the node's Q; the leaves are the
    quasi-trees, and the classes of each are read off its walk."""
    lower = _lower_masks(g, order)
    leaves, branched = [], []

    def branch(zero, one, ei, ones, zeros, q, rows, *_):
        free = lower[ei] | 1 << ei
        assert exact_rows(rows, free) == \
            exact_rows(_walk_rows(g, q), free), (name, ei, q)
        branched.append(ei)

    _descent(g, lower, lambda ones, zeros, q, *_: leaves.append(q), branch)
    assert sorted(leaves) == quasi_tree_masks(g), name
    assert len(branched) == len(leaves) - 1, name
    for q in leaves:
        classes = _classes(_walk_rows(g, q), lower, q)
        assert ActivityPartition(*map(g.mask_labels, classes)) == \
            reference_activities(g, order, q), (name, q)


def test_descent_on_edgeless_and_disconnected_graphs():
    bare = RibbonGraph([("v", ())], [])
    tree = resolution_tree(bare)
    assert tree.leaf_count == 1 and tree.root.is_leaf
    assert (tree.root.quasi_tree, tree.root.unresolved) == (0, frozenset())
    assert expansion_krushkal(bare) == 1
    disconnected = [
        RibbonGraph([("u", ()), ("w", ())], []),
        RibbonGraph([("u", ("a1", "a2")), ("w", ())],
                    [("e1", ("a1", "a2"), "-")]),
    ]
    for g in disconnected:
        for build in (resolution_tree, expansion_krushkal):
            with pytest.raises(RibbonError) as err:
                build(g)
            assert str(err.value) == \
                "quasi-trees are defined for connected graphs"
        with pytest.raises(RibbonError) as err:
            resolution_tree(g, ["nope"])
        assert str(err.value) == \
            "edge order must be a permutation of the edge labels"


def reference_minor_key(g, base, edges):
    """The minor key with the components of every edge of base, loops
    included, found by breadth-first search, and the end pairs of the
    edges in edges taken in a scan of all of g's edges, renumbered by first
    appearance as the descent's keys are."""
    comp = component_labels_by_search(g, base)
    label = {}
    return tuple((label.setdefault(comp[a], len(label)),
                  label.setdefault(comp[b], len(label)))
                 for ei, (a, b) in enumerate(g._ends) if (edges >> ei) & 1)


# one to three vertices and twelve edges: all or most edges are loops in G
# or in G*, so most unions of the descent find one class already
FEW_VERTICES = [("V%d/%d" % (v, s), random_graph(v, 12, Fraction(3, 10), seed=s))
                for v in (1, 2, 3) for s in (1, 2)]
# plane and half-twisted draws, each under two shuffled orders
DRAWS = [("P%d/%d" % (v, s), random_graph(v, 9, twist, seed=s))
         for twist in (Fraction(0), Fraction(1, 2))
         for v in (2, 4, 6) for s in (3, 4)]


def leaf_cases():
    rng = random.Random(8)
    yield from CASES
    for name, g in FEW_VERTICES:
        yield name, g, g.edge_labels
    for name, g in DRAWS:
        for k in range(2):
            order = list(g.edge_labels)
            rng.shuffle(order)
            yield "%s/%d" % (name, k), g, order


LEAF_CASES = list(leaf_cases())


@pytest.mark.parametrize("name,g,order", LEAF_CASES,
                         ids=[c[0] for c in LEAF_CASES])
def test_descent_leaves_carry_vi_ve_and_their_classes(name, g, order):
    """At a leaf the 1-edges are VI = DI u I_n, the 0-edges VE = DE u E_n,
    the unresolved ones I_o u E_o, and the carried class counts are those
    of VI in G and of VE in G*."""
    d = g.dual()
    leaves = []

    def leaf(ones, zeros, q, c_g, c_d, *_):
        leaves.append(q)
        ref = reference_activities(g, order, q)
        assert set(g.mask_labels(ones)) == ref.vi, (name, q)
        assert set(g.mask_labels(zeros)) == ref.ve, (name, q)
        assert set(g.mask_labels(g.full_mask ^ ones ^ zeros)) == \
            ref.i_o | ref.e_o, (name, q)
        assert c_g == count_by_search(g, ones), (name, q)
        assert c_d == count_by_search(d, zeros), (name, q)

    _descent(g, _lower_masks(g, order), leaf, d=d)
    assert sorted(leaves) == quasi_tree_masks(g), name


@pytest.mark.parametrize("name,g", GRAPHS + FEW_VERTICES,
                         ids=[c[0] for c in GRAPHS + FEW_VERTICES])
def test_minor_keys_match_search(name, g):
    """The end pairs read off the carried union-finds at every leaf, with
    the classes taken from the corner walk of Q rather than the leaf."""
    d = g.dual()
    lower = _lower_masks(g, None)
    leaves = []

    def leaf(ones, zeros, q, c_g, c_d, g_parent, d_parent):
        # the union-finds are only valid inside this call
        leaves.append(q)
        di, i_o, i_n, de, e_o, e_n = _classes(_walk_rows(g, q), lower, q)
        assert _end_pairs(g_parent, g._ends, i_o) == \
            reference_minor_key(g, di | i_n, i_o), (name, q)
        assert _end_pairs(d_parent, d._ends, e_o) == \
            reference_minor_key(d, de | e_n, e_o), (name, q)

    _descent(g, lower, leaf, d=d)
    assert sorted(leaves) == quasi_tree_masks(g), name


def reference_pivot(rows, e, free):
    """(X, rows of Q xor X) for the principal pivot transform of all of
    Q's rows on X = {e} if e's diagonal bit is set, else on X = {e, f}
    for the lowest f in free linking e: every row linking e or f is
    rewritten, examined or not."""
    rows = list(rows)
    be = 1 << e
    re = rows[e]
    if re & be:
        off = re ^ be
        for i in bits(off):
            rows[i] ^= off
        return be, rows
    bf = re & free & -(re & free)
    f = bf.bit_length() - 1
    x = be | bf
    rf = rows[f]
    ye, yf = re & ~x, rf & ~x
    ne = rows[e] = (yf | bf) ^ (ye | be if rf & bf else 0)
    nf = rows[f] = ye | be
    for i in bits(ye | yf):
        row = rows[i]
        new = row & ~x
        if row & be:
            new ^= ne
        if row & bf:
            new ^= nf
        rows[i] = new
    return x, rows


def pivot_frees(rows, e, n, rng):
    """Every free set containing e that e's row meets, when there are at
    most 2^8 of them; otherwise, for every f that can be the lowest free
    edge linking e, the largest such free set and two random ones."""
    be = 1 << e
    others = ((1 << n) - 1) ^ be
    if n <= 9:
        # the subsets of others, from others down to 0
        sub = others
        while True:
            if rows[e] & (be | sub):
                yield be | sub
            if not sub:
                return
            sub = (sub - 1) & others
    if rows[e] & be:
        yield be
        yield be | others
        yield be | (rng.getrandbits(n) & others)
        return
    linked = rows[e] & others
    for f in bits(linked):
        # free holds f and no edge linking e below it
        allowed = others ^ (linked & ((1 << f) - 1))
        yield be | allowed
        for _ in range(2):
            yield be | (1 << f) | (rng.getrandbits(n) & allowed)


PIVOT_GRAPHS = [(name, g) for name, g in GRAPHS + FEW_VERTICES
                if g.n_edges and g.components() == 1]


@pytest.mark.parametrize("name,g", PIVOT_GRAPHS,
                         ids=[c[0] for c in PIVOT_GRAPHS])
def test_pivot_keeps_the_free_rows_exact(name, g):
    """For every quasi-tree Q, every edge e and every free set around e
    that e's row meets (sampled past eight other edges), the pivot picks
    the reference's X and its rows of the free edges are the reference's
    and those of the corner walk of Q xor X."""
    walked = {q: _walk_rows(g, q) for q in quasi_tree_masks(g)}
    rng = random.Random(20)
    n = g.n_edges
    for q, rows in walked.items():
        for e in range(n):
            for free in pivot_frees(rows, e, n, rng):
                x, got = _pivot(rows, e, free)
                ref_x, ref = reference_pivot(rows, e, free)
                assert x == ref_x, (name, q, e, free)
                assert exact_rows(got, free) == exact_rows(ref, free) == \
                    exact_rows(walked[q ^ x], free), (name, q, e, free)


def reference_descent(g, lower, d=None):
    """The resolution tree of g under lower, in pre-order with the 0-child
    first, by an explicit stack, full-width pivots and a rollback trail:
    (edge index, ones, zeros, Q, rows, c_g, c_d, g_parent, d_parent) at a
    node branching on that edge, the same with None for the edge and the
    rows at a leaf.  With d, the unions in force are undone from the
    trail when the stack pops a node of a lower depth, so the union-finds
    are valid only at the node just yielded; without d both are None and
    c_g stays g.n_vertices."""
    if g.components() != 1:
        raise RibbonError("quasi-trees are defined for connected graphs")
    desc = sorted(range(len(lower)), key=lower.__getitem__, reverse=True)
    g_parent = d_parent = None
    if d is not None:
        g_parent, d_parent = list(range(g.n_vertices)), list(range(d.n_vertices))
    # (union-find, moved root) of every union in force
    trail = []
    q = _forest(g, range(len(g.edges)))
    stack = [(0, 0, 0, q, _walk_rows(g, q), g.n_vertices,
              0 if d is None else d.n_vertices, 0)]
    while stack:
        j, ones, zeros, q, rows, c_g, c_d, depth = stack.pop()
        while len(trail) > depth:
            parent, r = trail.pop()
            parent[r] = r
        if j and d is not None:
            # the edge this child decided: into ones joins it in g, into
            # zeros in d
            ei = desc[j - 1]
            if ones >> ei & 1:
                r = _join(g_parent, g._ends[ei])
                if r >= 0:
                    trail.append((g_parent, r))
                    c_g -= 1
            else:
                r = _join(d_parent, d._ends[ei])
                if r >= 0:
                    trail.append((d_parent, r))
                    c_d -= 1
        for j in range(j, len(desc)):
            ei = desc[j]
            free = lower[ei] | 1 << ei
            if rows[ei] & free:
                break
        else:
            yield None, ones, zeros, q, None, c_g, c_d, g_parent, d_parent
            continue
        yield ei, ones, zeros, q, rows, c_g, c_d, g_parent, d_parent
        bit = 1 << ei
        x, flipped = reference_pivot(rows, ei, free)
        one = zero = (q, rows)
        if q & bit:
            zero = (q ^ x, flipped)
        else:
            one = (q ^ x, flipped)
        depth = len(trail)
        stack.append((j + 1, ones | bit, zeros, *one, c_g, c_d, depth))
        stack.append((j + 1, ones, zeros | bit, *zero, c_g, c_d, depth))


def node_record(g, lower, d, ei, ones, zeros, q, rows, c_g, c_d,
                g_parent, d_parent):
    """What the fold and the reference must agree on at one node: at a
    branching node the rows of the edges not yet examined, which the fold
    keeps exact; at a leaf whether the union-finds ride along, and with d
    the end pairs of I_o in G and of E_o in d, read off the live ones."""
    record = (ei, ones, zeros, q, c_g, c_d)
    if ei is not None:
        return record + (tuple(exact_rows(rows, lower[ei] | 1 << ei)),)
    record += (g_parent is None, d_parent is None)
    if d is None:
        return record
    unresolved = g.full_mask ^ ones ^ zeros
    return record + (_end_pairs(g_parent, g._ends, unresolved & q),
                     _end_pairs(d_parent, d._ends, unresolved & ~q))


def fold_preorder(g, lower, d=None):
    """The fold's nodes in pre-order, built from its values, and its
    leaves in the order the leaf callback ran."""
    called = []

    def leaf(ones, zeros, q, *args):
        record = node_record(g, lower, d, None, ones, zeros, q, None, *args)
        called.append(record)
        return [record]

    def branch(zero, one, ei, *args):
        return [node_record(g, lower, d, ei, *args, None, None)] + zero + one

    return _descent(g, lower, leaf, branch, d), called


# plane, 3/10 and half twisted draws with up to six vertices and eleven
# edges; edgeless and one-vertex draws included
FOLD_DRAWS = [("F%d/%d/%d/%s" % (v, e, s, twist),
               random_graph(v, e, twist, seed=s))
              for twist in (Fraction(0), Fraction(3, 10), Fraction(1, 2))
              for s, (v, e) in enumerate([(1, 0), (1, 6), (2, 9), (3, 11),
                                          (4, 8), (5, 10), (6, 11)], 1)]


def fold_cases():
    rng = random.Random(19)
    yield from CASES
    for name, g in FOLD_DRAWS:
        for k in range(2):
            order = list(g.edge_labels)
            rng.shuffle(order)
            yield "%s/%d" % (name, k), g, order


FOLD_CASES = list(fold_cases())


@pytest.mark.parametrize("name,g,order", FOLD_CASES,
                         ids=[c[0] for c in FOLD_CASES])
def test_fold_visits_the_reference_nodes_in_preorder(name, g, order):
    """Edge, ones, zeros, Q, c_g and c_d at every node, the unexamined
    rows at every branching node, and the minor end pairs at every leaf,
    with and without the dual."""
    lower = _lower_masks(g, order)
    for d in (None, g.dual()):
        ref = [node_record(g, lower, d, *node)
               for node in reference_descent(g, lower, d)]
        nodes, called = fold_preorder(g, lower, d)
        assert nodes == ref, name
        assert called == [node for node in ref if node[0] is None], name
    assert sum(node[0] is None for node in ref) == len(quasi_tree_masks(g))
