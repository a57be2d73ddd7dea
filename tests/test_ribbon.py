"""Topology of signed rotation systems: bc, duals, partial duals, minors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpoly import ribbon
from qpoly.graphs import MultiGraph, _forest
from qpoly.ribbon import EmbeddedGraph, RibbonError, RibbonGraph
from qpoly.textio import random_graph

from fixture_graphs import (
    FIXTURES,
    b1,
    component_labels_by_search,
    count_by_search,
    disconnected_with_bare_vertex,
    m1,
    p2,
    random_twisted_graphs,
    t1,
    th,
    tv,
)


def all_masks(g):
    return range(1 << g.n_edges)


# ----------------------------------------------------------------------
# construction and validation


def test_construct_rejects_duplicate_half_edge():
    with pytest.raises(RibbonError):
        RibbonGraph([("v", ("a1", "a2"))],
                    [("e1", ("a1", "a2"), "+"), ("e2", ("a1", "a1"), "+")])


def test_construct_rejects_half_edge_missing_from_rotations():
    with pytest.raises(RibbonError):
        RibbonGraph([("v", ("a1",))], [("e1", ("a1", "a2"), "+")])


def test_construct_rejects_rotation_label_not_on_any_edge():
    with pytest.raises(RibbonError):
        RibbonGraph([("v", ("a1", "a2", "x"))], [("e1", ("a1", "a2"), "+")])


def test_construct_rejects_bad_sign():
    with pytest.raises(RibbonError):
        RibbonGraph([("v", ("a1", "a2"))], [("e1", ("a1", "a2"), "?")])


def test_construct_rejects_duplicate_labels():
    with pytest.raises(RibbonError):
        RibbonGraph([("v", ("a1", "a2")), ("v", ())],
                    [("e1", ("a1", "a2"), "+")])
    with pytest.raises(RibbonError):
        RibbonGraph([("v", ("a1", "a2", "b1", "b2"))],
                    [("e1", ("a1", "a2"), "+"), ("e1", ("b1", "b2"), "+")])


def test_edge_cap():
    n = 65
    rot = []
    edges = []
    for i in range(n):
        rot += ["h%da" % i, "h%db" % i]
        edges.append(("e%d" % i, ("h%da" % i, "h%db" % i), "+"))
    with pytest.raises(RibbonError):
        RibbonGraph([("v", rot)], edges)


def test_equality_ignores_vertex_names_and_rotation_phase():
    g = t1()
    h = RibbonGraph(
        [("other", ("a2", "b2", "a1", "b1"))],
        [("ea", ("a1", "a2"), "+"), ("eb", ("b1", "b2"), "+")])
    assert g == h


def test_equality_does_not_ignore_reversal():
    g = t1()
    h = RibbonGraph(
        [("v", ("b2", "a2", "b1", "a1"))],
        [("ea", ("a1", "a2"), "+"), ("eb", ("b1", "b2"), "+")])
    assert g != h


def test_equality_sees_twists():
    assert b1() != m1()
    assert t1() != p2()


# ----------------------------------------------------------------------
# subgraph invariants


def test_components_examples():
    assert m1().components(m1().edge_mask(["e1"])) == 1
    assert th().components(0) == 2
    assert th().components(th().edge_mask(["e1"])) == 1


def test_boundary_components_examples():
    assert b1().boundary_components() == 2
    assert m1().boundary_components() == 1
    assert p2().boundary_components() == 3
    assert t1().boundary_components() == 1
    assert th().boundary_components() == 3
    assert tv().boundary_components() == 1


def reference_boundary_components(g, mask):
    """The boundary walk over the present edges only, kept as an
    independent reference for the shared corner walk."""
    count = 0
    nh = 2 * g.n_edges
    arc = [0] * (2 * nh)
    for rot in g._rot_idx:
        present = [h for h in rot if (mask >> (h >> 1)) & 1]
        if not present:
            count += 1
            continue
        for a, b in zip(present, present[1:] + present[:1]):
            arc[2 * a + 1] = 2 * b
            arc[2 * b] = 2 * a + 1
    band = [0] * (2 * nh)
    for ei in range(g.n_edges):
        if not (mask >> ei) & 1:
            continue
        c00 = 4 * ei
        if g._sign[ei] > 0:
            sides = ((c00, c00 + 3), (c00 + 1, c00 + 2))
        else:
            sides = ((c00, c00 + 2), (c00 + 1, c00 + 3))
        for p, q in sides:
            band[p] = q
            band[q] = p
    seen = bytearray(2 * nh)
    for ei in range(g.n_edges):
        if not (mask >> ei) & 1:
            continue
        for c0 in range(4 * ei, 4 * ei + 4):
            if seen[c0]:
                continue
            count += 1
            c = c0
            while not seen[c]:
                seen[c] = 1
                t = band[c]
                seen[t] = 1
                c = arc[t]
    return count


def test_boundary_components_match_present_edge_walk():
    graphs = [make() for make in FIXTURES.values()] + random_twisted_graphs()
    graphs.append(RibbonGraph(
        [("x", ()), ("v1", ("a1", "a2")), ("v2", ("b1", "c1", "b2", "c2"))],
        [("e1", ("a1", "a2"), "-"), ("e2", ("b1", "b2"), "+"),
         ("e3", ("c1", "c2"), "-")]))
    for g in graphs:
        for mask in all_masks(g):
            assert g.boundary_components(mask) == \
                reference_boundary_components(g, mask), (g, mask)


def test_genus_s_examples():
    assert b1().genus_s() == 0
    assert m1().genus_s() == 1
    assert t1().genus_s() == 2


def test_is_orientable_examples():
    assert m1().is_orientable() is False
    assert t1().is_orientable() is True
    for make in FIXTURES.values():
        assert make().is_orientable(0) is True


def test_euler_consistency_and_parity_everywhere():
    for name, make in FIXTURES.items():
        g = make()
        v = g.n_vertices
        for mask in all_masks(g):
            c = g.components(mask)
            bc = g.boundary_components(mask)
            s = g.genus_s(mask)
            e = bin(mask).count("1")
            assert v - e + bc == 2 * c - s, (name, mask)
            assert s >= 0, (name, mask)
            if g.is_orientable(mask):
                assert s % 2 == 0, (name, mask)
            assert g.nullity(mask) == e - v + c


def test_subgraph_profile_shape():
    g = t1()
    prof = g.subgraph_profile()
    assert len(prof) == 4
    assert prof[0] == (1, 1, 0, 0)
    assert prof[3] == (1, 1, 2, 2)


# ----------------------------------------------------------------------
# dual and partial dual


def test_dual_theta():
    d = th().dual()
    assert d.n_vertices == 3
    assert d.n_edges == 3
    assert d.boundary_components() == 2


def test_dual_m1_self_dual():
    d = m1().dual()
    assert d.n_vertices == 1
    assert d.n_edges == 1
    assert d.boundary_components() == 1
    assert d.genus_s() == 1


def test_dual_is_involution_on_profiles():
    for name, make in FIXTURES.items():
        g = make()
        assert g.dual().dual().subgraph_profile() == g.subgraph_profile(), name


def test_partial_dual_of_nothing_is_identity():
    graphs = [make() for make in FIXTURES.values()]
    for g in graphs + random_twisted_graphs() + [disconnected_with_bare_vertex()]:
        assert g.partial_dual(0) == g, g
        assert hash(g.partial_dual(0)) == hash(g), g


def test_equality_tables_are_built_on_first_comparison():
    tables = {"_edge_map", "_rot_forms"}
    g = random_graph(3, 8, Fraction(3, 10), seed=7)
    for compare in (lambda h: h == g, hash):
        h = g.partial_dual(5)
        assert not tables & set(vars(h))
        compare(h)
        assert tables <= set(vars(h))
    # cached or fresh, the tables give the same verdicts
    assert h == g.partial_dual(5) and hash(h) == hash(g.partial_dual(5))
    assert h != g


PARTIAL_DUAL_GRAPHS = (
    [make() for make in FIXTURES.values()] + random_twisted_graphs()
    + [disconnected_with_bare_vertex()]
    + [random_graph(v, e, twist, seed=s)
       for s, (v, e, twist) in enumerate([(1, 7, Fraction(3, 10)),
                                          (2, 8, Fraction(0)),
                                          (3, 8, Fraction(1, 2)),
                                          (5, 8, Fraction(3, 10))], 1)])
TABLES = ("vertices", "edges", "edge_labels", "half_labels", "_edge_index",
          "_half_index", "_sign", "_rot_idx", "_vertex_of", "_ends", "_bare",
          "_arc", "_intervals", "_sides")


def test_partial_dual_tables_match_a_validated_rebuild():
    """partial_dual shares the labels and indexes only the walks; every
    table equals that of the same graph built and validated afresh."""
    for g in PARTIAL_DUAL_GRAPHS:
        for mask in all_masks(g):
            pd = g.partial_dual(mask)
            ref = RibbonGraph(pd.vertices, pd.edges)
            assert pd == ref and hash(pd) == hash(ref), (g, mask)
            assert pd.switching_form() == ref.switching_form(), (g, mask)
            for name in TABLES:
                assert getattr(pd, name) == getattr(ref, name), (g, mask, name)


def test_partial_dual_counts_do_not_build_the_vertex_labels():
    """Every count of a partial dual reads the index tables: the labelled
    vertices are still unbuilt after them, and the counts equal those of
    the same graph built and validated afresh from the labels.  (A graph
    without edges is its own partial dual, labels and all.)"""
    def counts(h):
        return (h.n_vertices, h.components(), h.is_orientable(),
                h.boundary_components(), h.genus_s())

    for g in PARTIAL_DUAL_GRAPHS:
        for mask in all_masks(g):
            pd = g.partial_dual(mask)
            got = counts(pd)
            assert pd._vertices is None or not g.n_edges, (g, mask)
            assert got == counts(RibbonGraph(pd.vertices, pd.edges)), (g, mask)
            assert len(pd.vertices) == got[0], (g, mask)


@pytest.mark.parametrize("bad", [
    lambda walks: [walks[0] + walks[0][:1]] + walks[1:],
    lambda walks: [walks[0][1:]] + walks[1:],
    lambda walks: [walks[0][:1] + walks[0][:-1]] + walks[1:],
    # th() has six half-edges, indexed 0..5
    lambda walks: [tuple(walks[0][:-1]) + (6,)] + walks[1:],
], ids=["repeated", "missing", "repeated-in-place-of-one", "out-of-range"])
def test_partial_dual_rejects_walks_that_miss_a_half_edge(monkeypatch, bad):
    dual_walks = RibbonGraph._dual_walks

    def broken(self, mask):
        walks, signs = dual_walks(self, mask)
        return bad(walks), signs

    monkeypatch.setattr(RibbonGraph, "_dual_walks", broken)
    with pytest.raises(RibbonError, match="every half-edge once"):
        th().partial_dual(1)


def test_partial_dual_of_everything_is_dual():
    g = m1()
    pd = g.partial_dual(g.edge_mask(["e1"]))
    assert pd.subgraph_profile() == g.dual().subgraph_profile()


def test_partial_dual_t1_single_edge():
    g = t1()
    assert g.partial_dual(g.edge_mask(["ea"])).n_vertices == 2


def test_partial_dual_vertex_and_boundary_counts():
    for name, make in FIXTURES.items():
        g = make()
        full = g.full_mask
        for mask in all_masks(g):
            pd = g.partial_dual(mask)
            assert pd.n_vertices == g.boundary_components(mask), (name, mask)
            assert pd.boundary_components() == g.boundary_components(full ^ mask), (name, mask)
            assert pd.components() == g.components(), (name, mask)
            assert pd.is_orientable() == g.is_orientable(), (name, mask)


def test_partial_dual_composes_mod_symmetric_difference():
    for name, make in FIXTURES.items():
        g = make()
        for h in all_masks(g):
            gh = g.partial_dual(h)
            for h2 in all_masks(g):
                lhs = gh.partial_dual(h2)
                rhs = g.partial_dual(h ^ h2)
                assert lhs.subgraph_profile() == rhs.subgraph_profile(), (name, h, h2)
                assert lhs.switching_form() == rhs.switching_form(), (name, h, h2)


def test_partial_dual_preserves_component_counts_after_deletion():
    # c(G \ B) = c(G^A \ B) for disjoint A, B
    for name, make in FIXTURES.items():
        g = make()
        for a in all_masks(g):
            ga = g.partial_dual(a)
            rest = g.full_mask ^ a
            b = rest
            while True:
                assert g.components(g.full_mask ^ b) == ga.components(ga.full_mask ^ b), (name, a, b)
                if b == 0:
                    break
                b = (b - 1) & rest


def test_boundary_count_duality():
    for name, make in FIXTURES.items():
        g = make()
        d = g.dual()
        for mask in all_masks(g):
            assert g.boundary_components(mask) == d.boundary_components(g.full_mask ^ mask), (name, mask)


# ----------------------------------------------------------------------
# minors


def test_minor_delete_theta():
    g = th().delete("e1")
    assert g.n_vertices == 2
    assert g.n_edges == 2
    assert g.components() == 1


def test_minor_contract_theta():
    g = th().contract("e1")
    assert g.n_vertices == 1
    assert g.n_edges == 2
    assert g.boundary_components() == 3


def test_minor_contract_loop_is_error():
    with pytest.raises(RibbonError, match="^cannot contract the loop 'e1'$"):
        m1().contract("e1")
    with pytest.raises(RibbonError, match="^cannot contract the loop 'e1'$"):
        b1().contract("e1")


def contract_by_splice(g, label):
    """G/e for a non-loop edge e by splicing the endpoint rotations: a
    twisted e first flips one endpoint (reversing its rotation and
    toggling the twists of the other edges with exactly one end there),
    after which the splice is the untwisted one."""
    ei = g.edge_labels.index(label)
    h1, h2 = g.edges[ei][1]
    u, w = g._ends[ei]
    assert u != w
    flip = g.edges[ei][2] < 0
    rotu = list(g.vertices[u][1])
    rotw = list(g.vertices[w][1])
    if flip:
        rotw.reverse()
    iu = rotu.index(h1)
    iw = rotw.index(h2)
    merged = tuple(rotu[iu + 1:] + rotu[:iu] + rotw[iw + 1:] + rotw[:iw])
    vertices = [(name, merged if vi == u else rot)
                for vi, (name, rot) in enumerate(g.vertices) if vi != w]
    edges = []
    for ej, (lab, pair, sign) in enumerate(g.edges):
        a, b = g._ends[ej]
        if ej != ei:
            edges.append((lab, pair, -sign if flip and (a == w) != (b == w) else sign))
    return RibbonGraph(vertices, edges)


def contraction_graphs():
    graphs = [make() for make in FIXTURES.values()] + random_twisted_graphs()
    rng = random.Random(41)
    for twist in (0, Fraction(3, 10), Fraction(1, 2)):
        for seed in range(8):
            graphs.append(random_graph(rng.randint(2, 6), rng.randint(5, 10),
                                       twist, seed=seed))
    return graphs


def test_contract_matches_rotation_splice():
    # G/e = G^{e} - e agrees with the splice up to vertex flips, names and
    # order
    contracted = 0
    for g in contraction_graphs():
        for label, (a, b) in zip(g.edge_labels, g._ends):
            if a == b:
                continue
            got, want = g.contract(label), contract_by_splice(g, label)
            assert got.switching_form() == want.switching_form(), (g, label)
            assert got.subgraph_profile() == want.subgraph_profile(), (g, label)
            contracted += 1
    assert contracted > 100


def test_contract_preserves_boundary_count():
    g = th()
    for label in g.edge_labels:
        h = g.contract(label)
        assert h.n_vertices == g.n_vertices - 1
        assert h.n_edges == g.n_edges - 1
        assert h.boundary_components() == g.boundary_components(), label


def test_contract_twisted_edge():
    # twisted bridge plus a parallel untwisted edge: contracting the
    # bridge flips one endpoint, so the survivor picks up a twist and the
    # result is the Moebius loop; the closed surface is RP^2 either way
    g = RibbonGraph(
        [("u", ("a1", "x1")), ("w", ("a2", "x2"))],
        [("e", ("a1", "a2"), "-"), ("f", ("x1", "x2"), "+")])
    assert g.boundary_components() == 1
    assert g.is_orientable() is False
    h = g.contract("e")
    assert h.n_vertices == 1
    assert h.boundary_components() == 1
    assert h.twist("f") == -1
    assert h.genus_s() == 1


@pytest.mark.parametrize("method", ["twist", "delete", "contract"])
def test_unknown_edge_label_is_a_ribbon_error(method):
    with pytest.raises(RibbonError, match="^unknown edge 'zz'$"):
        getattr(th(), method)("zz")


def test_delete_all_leaves_isolated_vertices():
    g = th().delete("e1").delete("e2").delete("e3")
    assert g.n_vertices == 2
    assert g.n_edges == 0
    assert g.boundary_components() == 2


# ----------------------------------------------------------------------
# embedded graphs


def test_surface_invariants():
    assert EmbeddedGraph(m1()).surface_invariants() == (1, 1, 1)
    assert EmbeddedGraph(t1()).surface_invariants() == (1, 0, 2)
    assert EmbeddedGraph(th()).surface_invariants() == (1, 2, 0)


def test_complement_invariants_m1():
    e = EmbeddedGraph(m1())
    assert e.complement_invariants(0) == (1, 1, 0)
    assert e.complement_invariants(["e1"]) == (1, 0, 0)


def test_complement_invariants_theta():
    e = EmbeddedGraph(th())
    assert e.complement_invariants(["e1", "e2"]) == (2, 0, 1)


def test_complement_invariants_requires_marked_subset():
    g = th()
    e = EmbeddedGraph(g, ["e1", "e2"])
    assert not e.is_cellular
    with pytest.raises(RibbonError):
        e.complement_invariants(["e3"])


def test_embedded_combinatorial_identity():
    # n(F) = k(F) + delta/2 + s(F)/2 - s_perp(F)/2, cleared of halves
    for name, make in FIXTURES.items():
        g = make()
        emb = EmbeddedGraph(g)
        _, _, delta = emb.surface_invariants()
        for mask in all_masks(g):
            n = g.nullity(mask)
            s = g.genus_s(mask)
            _, s_perp, k = emb.complement_invariants(mask)
            assert 2 * n == 2 * k + delta + s - s_perp, (name, mask)


def test_embedded_marked_subset():
    e = EmbeddedGraph(th(), ["e1"])
    assert e.marked == {"e1"}
    sub = e.ribbon_subgraph()
    assert sub.n_edges == 1
    assert sub.n_vertices == 2
    mg = e.underlying_marked_graph()
    assert mg.n_edges == 1
    assert mg.n_vertices == 2


# ----------------------------------------------------------------------
# helpers: restrict, split, flips, multigraph


def test_restrict_drops_other_halves():
    g = th().restrict(["e2"])
    assert g.n_edges == 1
    assert g.vertices[0][1] == ("b1",)
    assert g.vertices[1][1] == ("b2",)


def test_split_components():
    g = RibbonGraph(
        [("u", ("a1", "a2")), ("w", ("b1", "b2")), ("z", ())],
        [("e1", ("a1", "a2"), "+"), ("e2", ("b1", "b2"), "-")])
    parts = g.split_components()
    assert [p.n_vertices for p in parts] == [1, 1, 1]
    assert parts[0] == b1() or parts[0].n_edges == 1
    assert parts[1].twist("e2") == -1
    assert parts[2].n_edges == 0


def union_find_graphs():
    rng = random.Random(5)
    graphs = [random_graph(rng.randint(1, 7), rng.randint(6, 12),
                           Fraction(3, 10), seed=seed) for seed in range(1, 13)]
    return graphs + random_twisted_graphs() + bare_vertex_graphs()


def bare_vertex_graphs():
    return [disconnected_with_bare_vertex(),
            RibbonGraph([("v", ())], []),
            RibbonGraph([("v", ()), ("w", ())], [])]


def test_component_counts_agree_on_random_masks():
    rng = random.Random(5)
    for g in union_find_graphs():
        mg = g.underlying_graph()
        masks = [0, g.full_mask] + [rng.randrange(g.full_mask + 1) for _ in range(20)]
        for mask in masks:
            labels = component_labels_by_search(g, mask)
            c = count_by_search(g, mask)
            assert g._flips(mask)[1] == labels, (g, mask)
            assert g.components(mask) == c
            assert mg.components(mask) == c
            assert len(g.restrict(mask).split_components()) == c


def flips_by_search(g, mask):
    """_flips by depth-first search over adjacency lists: each vertex
    takes its flip across the edge that first reaches it, and the first
    vertex of each component keeps +1 and numbers it."""
    adj = [[] for _ in range(g.n_vertices)]
    for ei, (a, b) in enumerate(g._ends):
        if (mask >> ei) & 1:
            adj[a].append((b, g._sign[ei]))
            adj[b].append((a, g._sign[ei]))
    flip = [0] * len(adj)
    comp = [0] * len(adj)
    n = 0
    for start in range(len(adj)):
        if flip[start]:
            continue
        flip[start], comp[start] = 1, n
        stack = [start]
        while stack:
            x = stack.pop()
            for y, s in adj[x]:
                if not flip[y]:
                    flip[y], comp[y] = flip[x] * s, n
                    stack.append(y)
        n += 1
    return flip, comp


def orientable_by_search(g, mask):
    flip, _ = flips_by_search(g, mask)
    return all(g._sign[ei] * flip[a] * flip[b] > 0
               for ei, (a, b) in enumerate(g._ends) if (mask >> ei) & 1)


def test_parity_union_find_matches_the_search():
    """_flips and is_orientable run one parity union-find: on a spanning
    forest the flips are the search's, since the forest fixes them, and
    on every subgraph the components and the verdict are."""
    rng = random.Random(31)
    graphs = ([make() for make in FIXTURES.values()] + random_twisted_graphs()
              + bare_vertex_graphs())
    draws = []
    for seed in range(1, 25):
        v = rng.randint(1, 6)
        draws.append(random_graph(v, rng.randint(max(v - 1, 1), 12),
                                  Fraction(3, 10), seed=seed))
    twisted = 0
    for g, every in [(g, True) for g in graphs] + [(g, False) for g in draws]:
        labels = g.edge_labels
        forest = _forest(g, sorted(range(g.n_edges), key=labels.__getitem__))
        assert g._flips(forest) == flips_by_search(g, forest), g
        masks = (all_masks(g) if every else
                 [rng.randrange(g.full_mask + 1) for _ in range(20)])
        for mask in masks:
            assert g._flips(mask)[1] == flips_by_search(g, mask)[1], (g, mask)
            orientable = orientable_by_search(g, mask)
            assert g.is_orientable(mask) is orientable, (g, mask)
            twisted += not orientable
    assert twisted > 100


def kruskal_by_search(g, order):
    """Kruskal's spanning forest: each edge of order whose ends lie in two
    components of the forest so far, by breadth-first search."""
    forest = 0
    for ei in order:
        a, b = g._ends[ei]
        comp = component_labels_by_search(g, forest)
        if comp[a] != comp[b]:
            forest |= 1 << ei
    return forest


def test_forest_is_kruskal_under_random_orders():
    rng = random.Random(23)
    for g in union_find_graphs():
        c = count_by_search(g, g.full_mask)
        for _ in range(5):
            order = list(range(g.n_edges))
            rng.shuffle(order)
            forest = _forest(g, order)
            assert forest == kruskal_by_search(g, order), (g, order)
            assert count_by_search(g, forest) == c
            assert forest.bit_count() == g.n_vertices - c


def th_flipped_at_w():
    # th() with vertex w flipped: its rotation reversed, every edge with
    # one end there toggled
    return RibbonGraph(
        [("u", ("a1", "b1", "c1")), ("w", ("b2", "c2", "a2"))],
        [("e1", ("a1", "a2"), "-"),
         ("e2", ("b1", "b2"), "-"),
         ("e3", ("c1", "c2"), "-")])


def test_vertex_flip_preserves_subgraph_profile():
    g, f = th(), th_flipped_at_w()
    assert g != f
    assert g.subgraph_profile() == f.subgraph_profile()


# ----------------------------------------------------------------------
# switching form: ribbon graphs up to vertex flips

def flipped(g, vi):
    """g with vertex vi flipped: its rotation reversed and the twist of
    every non-loop edge with one end there toggled."""
    vertices = [(name, rot[::-1] if i == vi else rot)
                for i, (name, rot) in enumerate(g.vertices)]
    edges = [(label, pair, -sign if (a == vi) != (b == vi) else sign)
             for (label, pair, sign), (a, b) in zip(g.edges, g._ends)]
    return RibbonGraph(vertices, edges)


def form_graphs():
    return [make() for make in FIXTURES.values()] + random_twisted_graphs()


def test_switching_form_ignores_vertex_flips():
    assert th().switching_form() == th_flipped_at_w().switching_form()
    for g in form_graphs():
        form = g.switching_form()
        for vi in range(g.n_vertices):
            assert flipped(g, vi).switching_form() == form


def test_switching_form_ignores_rotation_phase_and_vertex_names():
    for g in form_graphs():
        vertices = [("x%d" % i, rot[i % len(rot):] + rot[:i % len(rot)] if rot else rot)
                    for i, (_, rot) in reversed(list(enumerate(g.vertices)))]
        assert RibbonGraph(vertices, g.edges).switching_form() == g.switching_form()


def test_switching_form_ignores_half_edge_swaps():
    for g in form_graphs():
        for (label, (h1, h2), _), (a, b) in zip(g.edges, g._ends):
            swap = {h1: h2, h2: h1}
            vertices = [(name, tuple(swap.get(h, h) for h in rot))
                        for name, rot in g.vertices]
            other = RibbonGraph(vertices, g.edges)
            if a != b:
                assert other != g, label
            assert other.switching_form() == g.switching_form(), label


def test_switching_form_sees_a_toggled_twist_off_the_bridges():
    toggled = 0
    for g in form_graphs():
        full = g.full_mask
        for ei, (label, pair, sign) in enumerate(g.edges):
            if g.components(full ^ (1 << ei)) != g.components():
                continue  # a bridge: flipping one side toggles it alone
            edges = list(g.edges)
            edges[ei] = (label, pair, -sign)
            other = RibbonGraph(g.vertices, edges)
            assert other.switching_form() != g.switching_form(), label
            toggled += 1
    assert toggled > 50


def test_switching_form_sees_a_moved_half_edge():
    # t1 and p2 differ by moving b1 one place along the rotation
    assert t1().switching_form() != p2().switching_form()
    changed = 0
    for g in random_twisted_graphs():
        profile = g.subgraph_profile()
        for vi, (name, rot) in enumerate(g.vertices):
            if len(rot) < 3:
                continue
            moved = rot[1:2] + rot[:1] + rot[2:]
            vertices = list(g.vertices)
            vertices[vi] = (name, moved)
            other = RibbonGraph(vertices, g.edges)
            # a flip invariant that moves shows the graphs inequivalent
            if other.subgraph_profile() != profile:
                assert other.switching_form() != g.switching_form(), (g, vi)
                changed += 1
    assert changed > 10


def test_equal_switching_forms_have_equal_profiles():
    rng = random.Random(9)
    equal = 0
    for g in form_graphs():
        hs = all_masks(g) if g.n_edges <= 2 else [rng.getrandbits(g.n_edges)
                                                  for _ in range(8)]
        for h in hs:
            gh = g.partial_dual(h)
            for ei in range(g.n_edges):
                other = g.partial_dual(h ^ (1 << ei))
                if gh.switching_form() == other.switching_form():
                    assert gh.subgraph_profile() == other.subgraph_profile(), (g, h, ei)
                    equal += 1
    assert equal > 0


def cyclic_min_of_all_rotations(seq):
    seq = tuple(seq)
    return min((seq[i:] + seq[:i] for i in range(len(seq))), default=seq)


def test_cyclic_min_matches_every_rotation(monkeypatch):
    """_cyclic_min tries only the rotations that start at the least
    element; a one-vertex word holds every label twice, so the least one
    starts two candidates."""
    rng = random.Random(41)
    words = [(), ("a",), ("b", "a"), ("a", "b", "a", "b"), (1, 1, 1)]
    for _ in range(500):
        labels = ["e%d" % i for i in range(1, rng.randint(1, 9))]
        word = labels + labels if rng.random() < 0.7 else labels + labels[:1]
        rng.shuffle(word)
        words.append(tuple(word))
    for word in words:
        assert ribbon._cyclic_min(word) == cyclic_min_of_all_rotations(word), word

    def forms(g):
        return [(h.switching_form(), hash(h)) for h in map(g.partial_dual, all_masks(g))]

    got = [forms(g) for g in PARTIAL_DUAL_GRAPHS]
    monkeypatch.setattr(ribbon, "_cyclic_min", cyclic_min_of_all_rotations)
    assert got == [forms(g) for g in PARTIAL_DUAL_GRAPHS]


@st.composite
def twisted_graphs_with_duals(draw):
    v = draw(st.integers(min_value=1, max_value=5))
    e = draw(st.integers(min_value=v - 1, max_value=12))
    g = random_graph(v, e, Fraction(3, 10), seed=draw(st.integers(1, 2 ** 32)))
    masks = st.integers(min_value=0, max_value=g.full_mask)
    return g, draw(masks), draw(masks), draw(st.integers(0, v - 1))


@settings(max_examples=60, deadline=None)
@given(twisted_graphs_with_duals())
def test_switching_form_composes_partial_duals(case):
    g, a, b, vi = case
    f = flipped(g, vi)
    assert f.switching_form() == g.switching_form()
    lhs = g.partial_dual(a).partial_dual(b)
    assert lhs.switching_form() == f.partial_dual(a ^ b).switching_form()


def test_underlying_graph_and_multigraph():
    g = th()
    mg = g.underlying_graph()
    assert mg.n_vertices == 2
    assert mg.n_edges == 3
    assert mg.components() == 1
    assert mg.nullity() == 2
    assert mg.components(0) == 2
    sub = g.underlying_graph(["e1"])
    assert sub.n_edges == 1
    assert sub.nullity() == 0


def test_multigraph_validation():
    with pytest.raises(ValueError):
        MultiGraph(["v", "v"], [])
    with pytest.raises(ValueError):
        MultiGraph(["v"], [("e", "v", "nope")])
    with pytest.raises(ValueError):
        MultiGraph(["v"], [("e", "v", "v"), ("e", "v", "v")])


def test_shared_mask_helpers_raise_each_class_error():
    # RibbonGraph borrows MultiGraph's mask helpers but keeps its own
    # exception; RibbonError is no ValueError, so the types are exact
    g = th()
    for graph, error in ((g, RibbonError), (g.underlying_graph(), ValueError)):
        with pytest.raises(error, match="^unknown edge 'zz'$") as err:
            graph.edge_mask(["e1", "zz"])
        assert type(err.value) is error
        for mask in (-1, 8):
            with pytest.raises(error, match="^edge mask .* out of range$") as err:
                graph.components(mask)
            assert type(err.value) is error
        assert graph.nullity(["e1", "e2"]) == 1
