"""Quasi-tree machinery: words, activities, resolution trees, expansions."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qpoly.quasitrees
from qpoly.checks import compute_polynomial
from qpoly.graphs import MultiGraph
from qpoly.invariants import bollobas_riordan, krushkal, las_vergnas, tutte
from qpoly.laurent import LaurentPoly, parse_poly
from qpoly.quasitrees import (
    _descent,
    _end_pairs,
    _lower_masks,
    _minor_tutte,
    _split,
    activities,
    expansion_br,
    expansion_krushkal,
    expansion_lv,
    one_vertex_word,
    quasi_tree_masks,
    resolution_tree,
)
from qpoly.ribbon import EmbeddedGraph, RibbonError, RibbonGraph
from qpoly.textio import random_graph

from fixture_graphs import (
    FIXTURES,
    b1,
    links,
    m1,
    random_twisted_graphs,
    t1,
    th,
    tv,
)

CONNECTED = {k: v for k, v in FIXTURES.items()}


def disconnected():
    return RibbonGraph(
        [("v1", ("a1", "a2")), ("v2", ("b1", "b2"))],
        [("e1", ("a1", "a2"), "-"), ("e2", ("b1", "b2"), "+")])


def word_of(labels):
    seen = {}
    tokens = []
    for lab in labels:
        end = seen.get(lab, 0) + 1
        seen[lab] = end
        tokens.append((lab, end, 1))
    return tokens


# ----------------------------------------------------------------------
# enumeration and words


def test_quasi_trees_examples():
    assert quasi_tree_masks(m1()) == [0, 1]
    assert quasi_tree_masks(b1()) == [0]
    assert quasi_tree_masks(t1()) == [0, 3]
    g = th()
    assert quasi_tree_masks(g) == [g.edge_mask([lab]) for lab in ("e1", "e2", "e3")]


def test_quasi_trees_need_connected():
    with pytest.raises(RibbonError):
        quasi_tree_masks(disconnected())


def test_one_vertex_word_m1():
    w = one_vertex_word(m1(), [ "e1" ])
    assert len(w) == 2
    assert w == (("e1", 1, -1), ("e1", 2, -1))


def test_one_vertex_word_t1_interleaves():
    w = one_vertex_word(t1(), ["ea", "eb"])
    assert [t[0] for t in w] == ["ea", "eb", "ea", "eb"]
    assert links(w, "ea", "eb")
    assert all(sign == 1 for _, _, sign in w)


def test_word_length_is_twice_edge_count():
    for name, make in CONNECTED.items():
        g = make()
        for qmask in quasi_tree_masks(g):
            assert len(one_vertex_word(g, qmask)) == 2 * g.n_edges, name


def test_one_vertex_word_is_the_partial_dual_vertex():
    # the word is read off the corner walk without building G^Q; it must
    # be the rotation and the twists of the one vertex of G^Q itself
    graphs = [make() for make in CONNECTED.values()] + random_twisted_graphs()
    for g in graphs:
        for qmask in quasi_tree_masks(g):
            gq = g.partial_dual(qmask)
            assert gq.n_vertices == 1
            token = {h: (label, end + 1, sign) for label, pair, sign in gq.edges
                     for end, h in enumerate(pair)}
            expected = [token[h] for h in gq.vertices[0][1]]
            assert list(one_vertex_word(g, qmask)) == expected, (g, qmask)


def test_one_vertex_word_rejects_non_quasi_tree():
    with pytest.raises(RibbonError):
        one_vertex_word(b1(), ["e1"])


def test_links_patterns():
    assert links(word_of(["a", "b", "a", "b"]), "a", "b") is True
    assert links(word_of(["a", "a", "b", "b"]), "a", "b") is False
    assert links(word_of(["a", "b", "b", "a"]), "a", "b") is False
    with pytest.raises(ValueError):
        links(word_of(["a", "b", "a", "b"]), "a", "a")


# ----------------------------------------------------------------------
# activities


def test_activities_t1_full():
    ap = activities(t1(), ["ea", "eb"], ["ea", "eb"])
    assert ap.di == {"eb"}
    assert ap.i_o == {"ea"}
    assert not (ap.i_n | ap.de | ap.e_o | ap.e_n)
    assert ap.vi == {"eb"}
    assert ap.ve == set()


def test_activities_t1_empty():
    ap = activities(t1(), ["ea", "eb"], 0)
    assert ap.de == {"eb"}
    assert ap.e_o == {"ea"}
    assert not (ap.di | ap.i_o | ap.i_n | ap.e_n)


def test_activities_m1():
    ap = activities(m1(), None, ["e1"])
    assert ap.i_n == {"e1"}
    assert ap.vi == {"e1"}


def test_activities_partition_edges():
    for name, make in CONNECTED.items():
        g = make()
        for order in itertools.permutations(g.edge_labels):
            for qmask in quasi_tree_masks(g):
                ap = activities(g, order, qmask)
                classes = [ap.di, ap.i_o, ap.i_n, ap.de, ap.e_o, ap.e_n]
                union = set().union(*classes)
                assert union == set(g.edge_labels), name
                assert sum(len(c) for c in classes) == g.n_edges, name
                assert ap.di | ap.i_o | ap.i_n == set(g.mask_labels(qmask))


def test_activities_rejects_bad_order():
    with pytest.raises(RibbonError):
        activities(t1(), ["ea"], 0)
    with pytest.raises(RibbonError):
        activities(t1(), ["ea", "ea"], 0)


def test_dual_activities():
    # with the same labels and order, the complement quasi-tree of the
    # dual swaps internal and external classes
    for name, make in CONNECTED.items():
        g = make()
        d = g.dual()
        for qmask in quasi_tree_masks(g):
            ap = activities(g, None, qmask)
            dq = activities(d, None, g.full_mask ^ qmask)
            assert dq.di == ap.de and dq.de == ap.di, name
            assert dq.i_o == ap.e_o and dq.e_o == ap.i_o, name
            assert dq.i_n == ap.e_n and dq.e_n == ap.i_n, name


# ----------------------------------------------------------------------
# resolution tree


def test_resolution_tree_m1():
    tree = resolution_tree(m1())
    assert tree.leaf_count == 2
    assert all(not leaf.unresolved for leaf in tree.leaves)


def test_resolution_tree_t1():
    tree = resolution_tree(t1())
    assert tree.leaf_count == 2
    for leaf in tree.leaves:
        assert leaf.unresolved == {"ea"}


def test_resolution_tree_leaves_biject_with_quasi_trees():
    for name, make in CONNECTED.items():
        g = make()
        for order in itertools.permutations(g.edge_labels):
            tree = resolution_tree(g, order)
            got = sorted(leaf.quasi_tree for leaf in tree.leaves)
            assert got == quasi_tree_masks(g), (name, order)


def test_resolution_tree_live_edges_stay_unresolved():
    for name, make in CONNECTED.items():
        g = make()
        for order in itertools.permutations(g.edge_labels):
            tree = resolution_tree(g, order)
            for leaf in tree.leaves:
                ap = activities(g, order, leaf.quasi_tree)
                assert leaf.unresolved == (ap.i_o | ap.e_o), (name, order)


def test_resolution_tree_structure():
    tree = resolution_tree(th())
    root = tree.root
    assert not root.is_leaf
    assert root.zero is not None and root.one is not None
    # leaves are reported zero-child first
    assert tree.leaves[0].quasi_tree <= tree.leaves[-1].quasi_tree


# ----------------------------------------------------------------------
# the partition of spanning subgraphs


def test_partition_counts():
    for name, make in CONNECTED.items():
        g = make()
        total = 0
        for qmask in quasi_tree_masks(g):
            ap = activities(g, None, qmask)
            total += 1 << (len(ap.i_o) + len(ap.e_o))
        assert total == 1 << g.n_edges, name


def test_lemma_conn_and_bc():
    # c(F_{VI u S}) only depends on the internal part S1, and
    # bc(F_{VI u S}) = bc(F_VI) - |S1| + |S2|, with bc(F_VI) = |I_o| + 1;
    # dually bc(R_VE) = |E_o| + 1 in G*, which expansion_krushkal uses
    for name, make in CONNECTED.items():
        g = make()
        d = g.dual()
        for qmask in quasi_tree_masks(g):
            ap = activities(g, None, qmask)
            vi = g.edge_mask(ap.vi)
            io = sorted(g._edge_index[x] for x in ap.i_o)
            eo = sorted(g._edge_index[x] for x in ap.e_o)
            assert g.boundary_components(vi) == len(io) + 1, name
            assert d.boundary_components(d.edge_mask(ap.ve)) == len(eo) + 1, name
            for p1 in range(1 << len(io)):
                s1 = sum(1 << io[i] for i in range(len(io)) if (p1 >> i) & 1)
                c_ref = g.components(vi | s1)
                for p2 in range(1 << len(eo)):
                    s2 = sum(1 << eo[i] for i in range(len(eo)) if (p2 >> i) & 1)
                    f = vi | s1 | s2
                    assert g.components(f) == c_ref, name
                    assert g.boundary_components(f) == (
                        g.boundary_components(vi)
                        - bin(s1).count("1") + bin(s2).count("1")), name


def test_genus_shift_along_internal_edges():
    # s(F_{VI u S1 u S2}) = s(F_VI) + 2 n_{G_Q}(S1), where G_Q has the
    # components of F_VI as vertices, so
    # n_{G_Q}(S1) = |S1| - c_G(F_VI) + c_G(F_VI u S1)
    for name, make in CONNECTED.items():
        g = make()
        for qmask in quasi_tree_masks(g):
            ap = activities(g, None, qmask)
            vi = g.edge_mask(ap.vi)
            io = sorted(ap.i_o, key=g._edge_index.get)
            eo = sorted(ap.e_o, key=g._edge_index.get)
            base = g.genus_s(vi)
            for p1 in range(1 << len(io)):
                picked = [io[i] for i in range(len(io)) if (p1 >> i) & 1]
                s1 = g.edge_mask(picked)
                bump = 2 * (len(picked) - g.components(vi)
                            + g.components(vi | s1))
                for p2 in range(1 << len(eo)):
                    s2 = g.edge_mask([eo[i] for i in range(len(eo))
                                      if (p2 >> i) & 1])
                    assert g.genus_s(vi | s1 | s2) == base + bump, name


# ----------------------------------------------------------------------
# minor graphs


def minor_counts(g, order, q):
    """(vertices, edges) of G_Q and of G*_Q*: the class counts that the
    descent carries to Q's leaf, and the end pairs of the key under which
    expansion_krushkal tallies each minor."""
    d = g.dual()
    found = []

    def leaf(ones, zeros, leaf_q, c_g, c_d, g_parent, d_parent):
        if leaf_q == q:
            unresolved = g.full_mask ^ ones ^ zeros
            found.append([
                (c_g, len(_end_pairs(g_parent, g._ends, unresolved & q))),
                (c_d, len(_end_pairs(d_parent, d._ends, unresolved & ~q)))])

    _descent(g, _lower_masks(g, order), leaf, d=d)
    if len(found) != 1:
        raise AssertionError("%#x is no leaf of the descent" % q)
    return found[0]


def test_minor_graphs_t1():
    g = t1()
    assert minor_counts(g, ["ea", "eb"], g.full_mask) == [(1, 1), (1, 0)]
    assert minor_counts(g, ["ea", "eb"], 0) == [(1, 0), (1, 1)]


def test_minor_graphs_m1():
    assert minor_counts(m1(), None, 1) == [(1, 0), (1, 0)]


def test_expansion_labels_no_classes_once_the_descent_runs(monkeypatch):
    """The union-finds that the descent carries replace every per-quasi-tree
    labelling: once the descent has read the rows of its root, and so at
    every leaf, the expansion makes no components call on G or G* and no
    _classes call."""
    walk_rows, classes = qpoly.quasitrees._walk_rows, qpoly.quasitrees._classes
    components = RibbonGraph.components
    started, labelled, classified, leaves = [False], [], [], []

    def watched_walk_rows(*args):
        rows = walk_rows(*args)
        started[0] = True
        return rows

    descent = qpoly.quasitrees._descent

    def watched_descent(g, lower, leaf, branch=None, d=None):
        def watched_leaf(*args):
            leaves.append(started[0])
            return leaf(*args)
        return descent(g, lower, watched_leaf, branch, d)

    def counted_components(self, mask=None):
        labelled.append((started[0], self))
        return components(self, mask)

    def counted_classes(*args):
        classified.append(started[0])
        return classes(*args)

    monkeypatch.setattr(qpoly.quasitrees, "_walk_rows", watched_walk_rows)
    monkeypatch.setattr(qpoly.quasitrees, "_descent", watched_descent)
    monkeypatch.setattr(qpoly.quasitrees, "_classes", counted_classes)
    monkeypatch.setattr(RibbonGraph, "components", counted_components)
    graphs = ([t1()] + random_twisted_graphs()
              + [random_graph(v, 10, Fraction(3, 10), seed=v) for v in (1, 3)])
    for g in graphs:
        emb = EmbeddedGraph(g)
        d = emb.dual_cellulation
        started[0] = False
        labelled.clear()
        classified.clear()
        leaves.clear()
        expansion_krushkal(emb)
        assert started[0], g
        # every leaf comes after the start of the watch
        assert leaves and all(leaves), g
        assert not [graph for late, graph in labelled
                    if late and (graph is g or graph is d)], g
        assert not any(classified), g
        # the spies are live: the descent checks that G is connected before
        # it reads the root's rows, and activities classifies the rows
        assert any(not late and graph is g for late, graph in labelled)
        activities(g, None, quasi_tree_masks(g)[0])
        assert classified


# ----------------------------------------------------------------------
# minor Tutte polynomials by loops, bridges and one core


def tutte_of_pairs(pairs):
    n = 1 + max(map(max, pairs), default=-1)
    return tutte(MultiGraph(range(n), [(i, a, b) for i, (a, b) in enumerate(pairs)]))


def as_poly(poly):
    """A {(i, j): c} minor polynomial as the LaurentPoly sum of c X^i Y^j."""
    return LaurentPoly({(2 * i, 2 * j, 0, 0, 0): c for (i, j), c in poly.items()})


TRIANGLE = ((0, 1), (1, 2), (2, 0))
X, Y = LaurentPoly.variable("X"), LaurentPoly.variable("Y")


@pytest.mark.parametrize("pairs, loops, bridges, core", [
    # a bowtie: two triangles sharing the cut vertex 0 are one core
    (((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)), 0, 0,
     ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0))),
    # two triangles joined by a bridge: one core in two pieces
    (((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)), 0, 1,
     ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))),
    # a theta graph has no loop or bridge
    (((0, 1), (0, 1), (0, 1)), 0, 0, ((0, 1), (0, 1), (0, 1))),
    # a path with five edges is five bridges
    (tuple((i, i + 1) for i in range(5)), 0, 5, ()),
    # a loop at the cut vertex of a path, and one at an end
    (((0, 1), (1, 1), (1, 2), (2, 2)), 2, 2, ()),
    # parallel edges, then a bridge hanging off them
    (((0, 1), (1, 0), (1, 2)), 0, 1, ((0, 1), (1, 0))),
    # disconnected pieces and an isolated vertex 2: a bridge, a digon, a
    # loop and a triangle with a pendant bridge
    (((0, 1), (3, 4), (4, 3), (5, 5), (6, 7), (7, 8), (8, 6), (8, 9)), 1, 2,
     ((0, 1), (1, 0), (2, 3), (3, 4), (4, 2))),
    ((), 0, 0, ()),
])
def test_split_of_known_graphs(pairs, loops, bridges, core):
    assert _split(pairs) == (loops, bridges, core)
    assert as_poly(_minor_tutte(pairs, {})) == tutte_of_pairs(pairs)


def test_a_triangle_with_and_without_a_bridge_share_one_memo_entry(monkeypatch):
    calls = count_tutte_calls(monkeypatch)
    memo = {}
    triangle = X ** 2 + 3 * X + 3 + Y
    assert as_poly(_minor_tutte(TRIANGLE, memo)) == triangle
    pendant = ((3, 0), (0, 1), (1, 2), (2, 0))
    assert as_poly(_minor_tutte(pendant, memo)) == (1 + X) * triangle
    assert list(memo) == [TRIANGLE]
    assert len(calls) == 1


def random_pairs(rng, n, e):
    """e end pairs on the vertices 0..n-1; loops and parallel edges come
    often when n is small."""
    return tuple((rng.randrange(n), rng.randrange(n)) for _ in range(e))


def test_block_product_is_tutte_on_random_multigraphs():
    rng = random.Random(1954)
    memo = {}
    for _ in range(300):
        pairs = random_pairs(rng, rng.randint(1, 7), rng.randint(0, 10))
        assert as_poly(_minor_tutte(pairs, memo)) == tutte_of_pairs(pairs), pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)))
def test_block_product_is_tutte_property(pairs):
    pairs = tuple(pairs)
    assert as_poly(_minor_tutte(pairs, {})) == tutte_of_pairs(pairs)


def test_block_product_is_tutte_on_every_minor_key():
    """Every key the expansion tallies on the fixtures and the pinned
    random graphs, on both sides, with one memo across them all.  Where a
    side is a tree (one edge fewer than vertices) or a bouquet (one
    vertex), the count key the expansion uses instead has the same Tutte
    polynomial as the relabelled end pairs."""
    memo, seen = {}, set()
    shapes = {"tree": 0, "bouquet": 0, "other": 0}

    def side(parent, ends, edges, c):
        key = _end_pairs(parent, ends, edges)
        seen.add(key)
        k = edges.bit_count()
        if k == c - 1:
            shapes["tree"] += 1
            path = tuple((i, i + 1) for i in range(k))
            assert _minor_tutte(path, memo) == _minor_tutte(key, memo), key
        elif c == 1:
            shapes["bouquet"] += 1
            assert ((0, 0),) * k == key
        else:
            shapes["other"] += 1

    for g in [make() for make in CONNECTED.values()] + random_twisted_graphs():
        d = EmbeddedGraph(g).dual_cellulation

        def leaf(ones, zeros, q, c_g, c_d, g_parent, d_parent):
            unresolved = g.full_mask ^ ones ^ zeros
            side(g_parent, g._ends, unresolved & q, c_g)
            side(d_parent, d._ends, unresolved & ~q, c_d)

        _descent(g, _lower_masks(g, None), leaf, d=d)
    assert all(shapes.values()), shapes
    assert any(_split(key)[2] for key in seen)
    for key in seen:
        assert as_poly(_minor_tutte(key, memo)) == tutte_of_pairs(key), key


def count_end_pairs_calls(monkeypatch):
    calls = []

    def counted(parent, ends, edges):
        calls.append(edges)
        return _end_pairs(parent, ends, edges)

    monkeypatch.setattr(qpoly.quasitrees, "_end_pairs", counted)
    return calls


def plane_cycle(n):
    """A plane cycle with n edges e0..e(n-1)."""
    return RibbonGraph(
        [("v%d" % i, ("h%db" % ((i - 1) % n), "h%da" % i)) for i in range(n)],
        [("e%d" % i, ("h%da" % i, "h%db" % i), "+") for i in range(n)])


def plane_bouquet(n):
    """One vertex with n untwisted loops, no two interlaced: a plane
    bouquet, whose dual is a star."""
    halves = [h for i in range(n) for h in ("h%da" % i, "h%db" % i)]
    return RibbonGraph([("v", tuple(halves))],
                       [("e%d" % i, ("h%da" % i, "h%db" % i), "+")
                        for i in range(n)])


@pytest.mark.parametrize("make, want", [
    (lambda: path(60), lambda g: (1 + X) ** 60),
    (lambda: plane_cycle(9), lambda g: krushkal(EmbeddedGraph(g))),
    (lambda: plane_bouquet(9), lambda g: krushkal(EmbeddedGraph(g))),
], ids=["path", "cycle", "bouquet"])
def test_plane_expansion_never_relabels(make, want, monkeypatch):
    """On a plane graph every quasi-tree is a spanning tree, so both minors
    of every leaf are trees and are keyed by their edge count alone."""
    g = make()
    assert g.genus_s() == 0
    calls = count_end_pairs_calls(monkeypatch)
    assert expansion_krushkal(g) == want(g)
    assert calls == []


def test_twisted_expansion_still_relabels(monkeypatch):
    """A twisted draw has leaves whose minor is neither a tree nor a
    bouquet, and those sides still go through _end_pairs."""
    g = random_graph(3, 8, "3/10", seed=1)
    calls = count_end_pairs_calls(monkeypatch)
    assert expansion_krushkal(g) == krushkal(EmbeddedGraph(g))
    assert calls


def count_tutte_calls(monkeypatch):
    calls = []

    def counted(graph):
        calls.append(graph)
        return tutte(graph)

    monkeypatch.setattr(qpoly.quasitrees, "tutte", counted)
    return calls


def test_expansion_keeps_a_tutte_call_on_blocks(monkeypatch):
    """Some minors of this graph have an edge that is neither a loop nor
    a bridge, so their core is not empty and the expansion reaches
    qpoly.quasitrees.tutte (the call that the tracer counts as a minor
    Tutte polynomial); loops and bridges alone never do."""
    calls = count_tutte_calls(monkeypatch)
    expansion_krushkal(random_graph(2, 7, "3/10", seed=3))
    assert len(calls) >= 1
    calls.clear()
    poly = _minor_tutte(((0, 0), (0, 1), (1, 2), (2, 2), (2, 2), (3, 1)), {})
    assert as_poly(poly) == (1 + X) ** 3 * (1 + Y) ** 3
    assert calls == []


def path(n):
    """A plane path with n edges e0..e(n-1)."""
    vertices = [("v0", ("h0a",))]
    vertices += [("v%d" % i, ("h%db" % (i - 1), "h%da" % i)) for i in range(1, n)]
    vertices.append(("v%d" % n, ("h%db" % (n - 1),)))
    return RibbonGraph(vertices, [("e%d" % i, ("h%da" % i, "h%db" % i), "+")
                                  for i in range(n)])


@pytest.mark.parametrize("make", [lambda: path(60),
                                  lambda: random_graph(61, 60, 0, seed=7)])
def test_sixty_edge_trees_by_the_quasitree_route(make, monkeypatch):
    """A tree is its own only quasi-tree and its minor is the tree itself:
    sixty bridges, so (1 + X)^60 in closed form with no subset sweep."""
    g = make()
    calls = count_tutte_calls(monkeypatch)
    start = time.perf_counter()
    got = compute_polynomial(EmbeddedGraph(g), g.edge_labels, "krushkal",
                             "quasitree")
    assert time.perf_counter() - start < 1.0
    assert got == (1 + X) ** 60
    assert calls == []


# ----------------------------------------------------------------------
# expansions


def test_expansion_krushkal_examples():
    assert expansion_krushkal(m1()) == parse_poly("A^(1/2) + B^(1/2)")
    assert expansion_krushkal(t1()) == parse_poly("A + B + 2")
    assert expansion_krushkal(tv()) == parse_poly("1")


def test_expansion_br_examples():
    assert expansion_br(m1()) == parse_poly("1 + Y*Z")
    assert expansion_br(b1()) == parse_poly("1 + Y")
    assert expansion_br(t1()) == parse_poly("1 + 2*Y + Y^2*Z^2")


def test_expansion_lv_examples():
    assert expansion_lv(m1()) == parse_poly("1 + Z")
    assert expansion_lv(th()) == parse_poly("X + Y^2 + Y")
    assert expansion_lv(tv()) == parse_poly("1")


def test_expansions_match_oracles_under_all_orders():
    for name, make in CONNECTED.items():
        g = make()
        emb = EmbeddedGraph(g)
        kr = krushkal(emb)
        br = bollobas_riordan(g)
        lv = las_vergnas(emb)
        for order in itertools.permutations(g.edge_labels):
            assert expansion_krushkal(emb, order) == kr, (name, order)
            assert expansion_br(g, order) == br, (name, order)
            assert expansion_lv(emb, order) == lv, (name, order)


@pytest.mark.parametrize("twist", [Fraction(0), Fraction(1, 10)])
def test_expansion_is_order_independent_above_brute_reach(twist):
    """Twenty edges, past what the brute sums reach in a test: the terms of
    the expansion depend on the edge order and their sum must not, and
    every spanning subgraph counts once, so the doubled coefficients sum
    to 2^e."""
    g = random_graph(12, 20, twist, seed=7)
    first = expansion_krushkal(g)
    assert sum(c for _, c in first.items_doubled()) == 1 << g.n_edges
    rng = random.Random(20)
    for _ in range(2):
        order = list(g.edge_labels)
        rng.shuffle(order)
        assert expansion_krushkal(g, order) == first, order


def test_expansions_reject_disconnected():
    g = disconnected()
    with pytest.raises(RibbonError):
        expansion_krushkal(g)
    with pytest.raises(RibbonError):
        expansion_br(g)
    with pytest.raises(RibbonError):
        expansion_lv(g)


def test_expansions_reject_non_cellular():
    emb = EmbeddedGraph(th(), ["e1"])
    with pytest.raises(RibbonError):
        expansion_krushkal(emb)
    with pytest.raises(RibbonError):
        expansion_lv(emb)
    with pytest.raises(RibbonError):
        expansion_br(emb)
