"""Polynomial oracles: Krushkal, Tutte, Bollobas-Riordan, Las Vergnas."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpoly.graphs import MultiGraph
from qpoly.invariants import (
    PolyKind,
    bollobas_riordan,
    krushkal,
    las_vergnas,
    specialize,
    tutte,
)
from qpoly import invariants as invariants_mod
from qpoly.invariants import _FRONTIER_ABOVE, _narrowest_first, _submasks, _tally
from qpoly.laurent import LaurentPoly, parse_poly
from qpoly.matroid import bond_matroid, cycle_matroid
from qpoly.quasitrees import quasi_tree_masks
from qpoly.ribbon import (EmbeddedGraph, RibbonError, RibbonGraph, _frontier,
                          _partners, _sweep)
from qpoly.textio import random_graph

from fixture_graphs import (
    FIXTURES,
    b1,
    count_by_search,
    disconnected_with_bare_vertex,
    m1,
    p2,
    random_twisted_graphs,
    t1,
    th,
    tv,
)


def cellular(make):
    return EmbeddedGraph(make())


def proper_submasks(g):
    return range(g.full_mask)


# ----------------------------------------------------------------------
# oracle values


def test_krushkal_examples():
    assert krushkal(cellular(m1)) == parse_poly("A^(1/2) + B^(1/2)")
    assert krushkal(cellular(t1)) == parse_poly("A + B + 2")
    assert krushkal(cellular(tv)) == parse_poly("1")


def test_krushkal_p2_planar_bouquet():
    assert krushkal(cellular(p2)) == parse_poly("Y^2 + 2*Y + 1")


def test_krushkal_canonical_text():
    assert krushkal(cellular(m1)).canonical_text() == "A^(1/2) + B^(1/2)"


def test_tutte_examples():
    loop = MultiGraph(["v"], [("e", "v", "v")])
    assert tutte(loop) == parse_poly("1 + Y")
    k2 = MultiGraph(["u", "w"], [("e", "u", "w")])
    assert tutte(k2) == parse_poly("X + 1")
    assert tutte(MultiGraph(["v"], [])) == parse_poly("1")


def test_tutte_theta():
    assert tutte(th().underlying_graph()) == parse_poly("X + 3 + 3*Y + Y^2")


def test_bollobas_riordan_examples():
    assert bollobas_riordan(m1()) == parse_poly("1 + Y*Z")
    assert bollobas_riordan(b1()) == parse_poly("1 + Y")
    assert bollobas_riordan(t1()) == parse_poly("1 + 2*Y + Y^2*Z^2")


def test_las_vergnas_examples():
    assert las_vergnas(cellular(m1)) == parse_poly("Z + 1")
    assert las_vergnas(cellular(b1)) == parse_poly("Y")
    xm1 = LaurentPoly.variable("X") - 1
    ym1 = LaurentPoly.variable("Y") - 1
    expected = xm1 + 3 + 3 * ym1 + ym1 ** 2
    assert las_vergnas(cellular(th)) == expected
    assert expected == parse_poly("X + Y^2 + Y")


def test_las_vergnas_needs_cellular():
    with pytest.raises(RibbonError):
        las_vergnas(EmbeddedGraph(th(), ["e1"]))


# ----------------------------------------------------------------------
# specializations


def test_specialize_examples():
    p = parse_poly("A^(1/2) + B^(1/2)")
    assert specialize(p, "tutte", delta=1) == parse_poly("1 + Y")
    assert specialize(p, "br", s=1) == parse_poly("1 + Y*Z")
    assert specialize(p, "lv", delta=1) == parse_poly("1 + Z")
    assert specialize(p, PolyKind.KRUSHKAL) == p


def test_specialize_needs_context():
    p = parse_poly("A + B")
    with pytest.raises(ValueError):
        specialize(p, "tutte")
    with pytest.raises(ValueError):
        specialize(p, "br")
    with pytest.raises(ValueError):
        specialize(p, "lv")
    with pytest.raises(ValueError):
        specialize(p, "chromatic")


def test_polykind_round_trip():
    assert PolyKind("tutte") is PolyKind.TUTTE
    assert PolyKind("krushkal") is PolyKind.KRUSHKAL
    assert {k.value for k in PolyKind} == {"krushkal", "tutte", "br", "lv"}


# ----------------------------------------------------------------------
# theorems relating the polynomials (cellular fixtures)


def test_duality_swaps_variables():
    swap = {
        "X": LaurentPoly.variable("Y"),
        "Y": LaurentPoly.variable("X"),
        "A": LaurentPoly.variable("B"),
        "B": LaurentPoly.variable("A"),
    }
    for name, make in FIXTURES.items():
        g = make()
        lhs = krushkal(EmbeddedGraph(g))
        rhs = krushkal(EmbeddedGraph(g.dual())).substitute(swap)
        assert lhs == rhs, name


def test_tutte_specialization_cellular():
    for name, make in FIXTURES.items():
        emb = cellular(make)
        _, _, delta = emb.surface_invariants()
        got = specialize(krushkal(emb), "tutte", delta=delta)
        assert got == tutte(emb.underlying_marked_graph()), name


def test_tutte_specialization_non_cellular():
    for name, make in FIXTURES.items():
        g = make()
        for mask in proper_submasks(g):
            emb = EmbeddedGraph(g, mask)
            _, _, delta = emb.surface_invariants()
            got = specialize(krushkal(emb), "tutte", delta=delta)
            assert got == tutte(emb.underlying_marked_graph()), (name, mask)


def test_br_specialization():
    for name, make in FIXTURES.items():
        g = make()
        emb = EmbeddedGraph(g)
        got = specialize(krushkal(emb), "br", s=g.genus_s())
        assert got == bollobas_riordan(g), name


def test_lv_specialization():
    for name, make in FIXTURES.items():
        emb = cellular(make)
        _, _, delta = emb.surface_invariants()
        got = specialize(krushkal(emb), "lv", delta=delta)
        assert got == las_vergnas(emb), name


# ----------------------------------------------------------------------
# deletion/contraction and multiplicativity


def test_deletion_contraction_theta():
    g = th()
    whole = krushkal(EmbeddedGraph(g))
    for label in g.edge_labels:
        unmarked = EmbeddedGraph(g, g.full_mask ^ g.edge_mask([label]))
        contracted = EmbeddedGraph(g.contract(label))
        assert whole == krushkal(unmarked) + krushkal(contracted), label


def test_bridge_factor():
    k2 = RibbonGraph([("u", ("a1",)), ("w", ("a2",))],
                     [("e", ("a1", "a2"), "+")])
    point = EmbeddedGraph(k2.contract("e"))
    lhs = krushkal(EmbeddedGraph(k2))
    assert lhs == (1 + LaurentPoly.variable("X")) * krushkal(point)
    assert lhs == parse_poly("X + 1")


def test_separating_loop_factor():
    g = b1()
    emb = EmbeddedGraph(g)
    assert emb.complement_invariants(["e1"])[2] == 1
    rest = krushkal(EmbeddedGraph(g, 0))
    assert krushkal(emb) == (1 + LaurentPoly.variable("Y")) * rest


def test_nonseparating_loop_has_no_such_factor():
    emb = EmbeddedGraph(m1())
    assert emb.complement_invariants(["e1"])[2] == 0
    rest = krushkal(EmbeddedGraph(m1(), 0))
    assert krushkal(emb) != (1 + LaurentPoly.variable("Y")) * rest


def test_disjoint_union_multiplies():
    union = RibbonGraph(
        [("v1", ("a1", "a2")), ("v2", ("b1", "b2"))],
        [("e1", ("a1", "a2"), "-"), ("e2", ("b1", "b2"), "+")])
    assert krushkal(EmbeddedGraph(union)) == (
        krushkal(cellular(m1)) * krushkal(cellular(b1)))
    assert bollobas_riordan(union) == bollobas_riordan(m1()) * bollobas_riordan(b1())
    assert las_vergnas(EmbeddedGraph(union)) == (
        las_vergnas(cellular(m1)) * las_vergnas(cellular(b1)))
    assert tutte(union.underlying_graph()) == (
        tutte(m1().underlying_graph()) * tutte(b1().underlying_graph()))


# ----------------------------------------------------------------------
# the tallies against per-subset sums built from the definitions


def krushkal_by_definition(emb):
    """Both sides walked: components and genus_s of F in G and of E-F in
    the dual cellulation, for every marked subset."""
    g, d = emb.cellulation, emb.dual_cellulation
    full = g.full_mask
    c_g, c_sigma = g.components(emb.marked_mask), g.components(full)
    acc = {}
    for f in _submasks(emb.marked_mask):
        co = full ^ f
        key = (2 * (g.components(f) - c_g), 2 * (d.components(co) - c_sigma),
               g.genus_s(f), d.genus_s(co), 0)
        acc[key] = acc.get(key, 0) + 1
    return LaurentPoly(acc)


def tutte_by_definition(mg):
    c_g = mg.components()
    total = LaurentPoly.zero()
    for f in range(mg.full_mask + 1):
        total = total + LaurentPoly.term(X=mg.components(f) - c_g, Y=mg.nullity(f))
    return total


def bollobas_riordan_by_definition(g):
    c_g = g.components()
    total = LaurentPoly.zero()
    for f in range(g.full_mask + 1):
        total = total + LaurentPoly.term(
            X=g.components(f) - c_g, Y=g.nullity(f), Z=g.genus_s(f))
    return total


def las_vergnas_by_definition(emb):
    """Laurent arithmetic for every subset, as the sum is written."""
    g = emb.cellulation
    r = cycle_matroid(g.underlying_graph())
    rb = bond_matroid(emb.dual_cellulation.underlying_graph())
    full = g.full_mask
    xm1 = LaurentPoly.variable("X") - 1
    ym1 = LaurentPoly.variable("Y") - 1
    total = LaurentPoly.zero()
    for f in range(full + 1):
        dr = r.rank(full) - r.rank(f)
        nb = f.bit_count() - rb.rank(f)
        dz = (rb.rank(full) - rb.rank(f)) - dr
        total = total + xm1 ** dr * ym1 ** nb * LaurentPoly.term(Z=dz)
    return total


def test_tallies_match_per_subset_sums():
    rng = random.Random(29)
    graphs = [make() for make in FIXTURES.values()]
    graphs += [g for g in random_twisted_graphs() if g.n_edges <= 9]
    graphs.append(disconnected_with_bare_vertex())
    for g in graphs:
        emb = EmbeddedGraph(g)
        assert krushkal(emb) == krushkal_by_definition(emb), g
        assert bollobas_riordan(g) == bollobas_riordan_by_definition(g), g
        assert las_vergnas(emb) == las_vergnas_by_definition(emb), g
        mg = g.underlying_graph()
        assert tutte(mg) == tutte_by_definition(mg), g
        marked = EmbeddedGraph(g, rng.randrange(g.full_mask + 1))
        assert krushkal(marked) == krushkal_by_definition(marked), g
        sub = marked.ribbon_subgraph()
        assert bollobas_riordan(sub) == bollobas_riordan_by_definition(sub), g
        mg = marked.underlying_marked_graph()
        assert tutte(mg) == tutte_by_definition(mg), g


# ----------------------------------------------------------------------
# the subset sweep against breadth-first searches and full corner walks


def tally_by_definition(g, marked, d):
    """(|F|, c_G(F), c_d(E-F), bc_G(F)) counted per mask, the components
    by breadth-first search and bc by a fresh corner walk."""
    acc = {}
    for f in _submasks(marked):
        key = (f.bit_count(), count_by_search(g, f),
               count_by_search(d, g.full_mask ^ f), g.boundary_components(f))
        acc[key] = acc.get(key, 0) + 1
    return acc


def collapse(tally, keep):
    """The tally with the key entries outside keep set to 0."""
    acc = {}
    for key, n in tally.items():
        key = tuple(x if i in keep else 0 for i, x in enumerate(key))
        acc[key] = acc.get(key, 0) + n
    return acc


def markings(g, rng):
    """The empty, full and a random marking, and one whose spanning
    subgraph has more components than g where there is one."""
    out = [0, g.full_mask, rng.randrange(g.full_mask + 1)]
    for _ in range(200):
        mask = rng.randrange(g.full_mask + 1)
        if g.components(mask) > g.components():
            out.append(mask)
            break
    return out


def profile_by_definition(g):
    """The (c, bc, s, n) row of every mask, c by breadth-first search and
    bc by a fresh corner walk."""
    nv = g.n_vertices
    rows = []
    for f in range(g.full_mask + 1):
        c, bc, k = count_by_search(g, f), g.boundary_components(f), f.bit_count()
        rows.append((c, bc, 2 * c - nv + k - bc, k - nv + c))
    return tuple(rows)


def test_sweep_matches_per_mask_counts():
    rng = random.Random(31)
    graphs = [make() for make in FIXTURES.values()]
    graphs += random_twisted_graphs()
    graphs.append(disconnected_with_bare_vertex())
    graphs.append(RibbonGraph([("v", ()), ("w", ())], []))
    split = connected = 0
    for g in graphs:
        rows = profile_by_definition(g)
        assert g.subgraph_profile() == rows, g
        if count_by_search(g, g.full_mask) == 1:
            connected += 1
            assert quasi_tree_masks(g) == [f for f, row in enumerate(rows)
                                           if row[1] == 1], g
        d = EmbeddedGraph(g).dual_cellulation
        for mask in markings(g, rng):
            split += mask != 0 and g.components(mask) > g.components()
            want = tally_by_definition(g, mask, d)
            assert _tally(g, mask, d) == want, (g, mask)
            assert _tally(g, mask) == collapse(want, {0, 1, 3}), (g, mask)
            assert _tally(g.underlying_graph(), mask, d) == collapse(want, {0, 1, 2}), (g, mask)
    assert split > 0 and connected >= 10


def test_sweep_leaves_in_call_order_match_per_mask_counts():
    # each leaf (f, |F|, c_g(F), c_d(E-F), bc_g(F)) in call order, against
    # the ascending submasks F of the marking with c by search, bc by a
    # fresh corner walk and c_d on (E - marked) | (marked - F); g is a
    # RibbonGraph or its underlying MultiGraph, each with and without d
    rng = random.Random(37)
    graphs = [make() for make in FIXTURES.values()]
    graphs += random_twisted_graphs()
    graphs.append(disconnected_with_bare_vertex())
    proper = 0
    for g in graphs:
        d, full = g.dual(), g.full_mask
        bc = [g.boundary_components(f) for f in range(full + 1)]
        c_d = [count_by_search(d, f) for f in range(full + 1)]
        for marked in markings(g, rng):
            proper += 0 < marked < full
            for h in (g, g.underlying_graph()):
                c = {f: count_by_search(h, f) for f in _submasks(marked)}
                ribbon = isinstance(h, RibbonGraph)
                for dual in (None, d):
                    leaves = []
                    _sweep(h, marked, dual, lambda *leaf: leaves.append(leaf))
                    want = [(f, f.bit_count(), c[f],
                             0 if dual is None else c_d[full ^ f],
                             bc[f] if ribbon else 0) for f in sorted(c)]
                    assert leaves == want, (g, h, marked, dual)
    assert proper >= len(graphs)


# ----------------------------------------------------------------------
# the frontier program against the subset sweep


def sweep_tally(g, marked, d=None):
    """The tally of _sweep's leaves: the reference for ribbon._frontier."""
    acc = {}

    def leaf(f, *key):
        acc[key] = acc.get(key, 0) + 1

    _sweep(g, marked, d, leaf)
    return acc


def marked_edges(marked, rng=None):
    """The edges of a marking, ascending or shuffled by rng."""
    order = [ei for ei in range(marked.bit_length()) if marked >> ei & 1]
    if rng is not None:
        rng.shuffle(order)
    return order


def test_frontier_matches_the_sweep():
    # each marking under the narrowest-first order and a shuffled one, g a
    # RibbonGraph or its underlying MultiGraph, each with and without d
    rng = random.Random(41)
    graphs = [make() for make in FIXTURES.values()]
    graphs += random_twisted_graphs()
    graphs.append(disconnected_with_bare_vertex())
    graphs.append(RibbonGraph([("v", ()), ("w", ())], []))
    graphs.append(RibbonGraph(list(th().vertices) + [("x", ())], th().edges))
    for g in graphs:
        d = g.dual()
        for marked in markings(g, rng):
            for h in (g, g.underlying_graph()):
                for dual in (None, d):
                    want = sweep_tally(h, marked, dual)
                    for order in (_narrowest_first(h, marked),
                                  marked_edges(marked, rng)):
                        assert _frontier(h, marked, dual, order) == want, \
                            (g, h, marked, dual, order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 7), st.sampled_from([0, 3, 10]),
       st.integers(1, 2 ** 32), st.randoms(use_true_random=False))
def test_frontier_does_not_depend_on_the_order(v, extra, twist, seed, rng):
    g = random_graph(v, v - 1 + extra, Fraction(twist, 10), seed=seed)
    marked = rng.randrange(g.full_mask + 1)
    d = g.dual()
    for h in (g, g.underlying_graph()):
        assert _frontier(h, marked, d, marked_edges(marked, rng)) \
            == sweep_tally(h, marked, d), (g, h, marked)


@pytest.mark.parametrize("n_marked", [8, 9, 10, 11])
def test_tally_takes_the_frontier_above_the_cutoff(monkeypatch, n_marked):
    calls = []

    def counted(*args):
        calls.append(args)
        return _frontier(*args)

    monkeypatch.setattr(invariants_mod, "_frontier", counted)
    g = random_graph(4, 12, Fraction(3, 10), seed=n_marked)
    d = g.dual()
    marked = sum(1 << ei for ei in random.Random(n_marked).sample(range(12), n_marked))
    for h in (g, g.underlying_graph()):
        for dual in (None, d):
            assert _tally(h, marked, dual) == sweep_tally(h, marked, dual)
    assert len(calls) == (4 if n_marked > _FRONTIER_ABOVE else 0)
    assert all(order == _narrowest_first(h, marked)
               for h, _, _, order in calls)


# ----------------------------------------------------------------------
# the frontier program's edge order


def frontier_width(g, marked, decided):
    """The frontier items once the edges in decided are: the vertices with
    decided and undecided marked edges, and for a RibbonGraph the corners
    of the undecided edges partnered on decided ones, counted from scratch."""
    undecided = [ei for ei in marked_edges(marked) if ei not in decided]
    touched = [{v for ei in edges for v in g._ends[ei]}
               for edges in (decided, undecided)]
    width = len(touched[0] & touched[1])
    if isinstance(g, RibbonGraph):
        partner = _partners(g, marked)
        width += sum(partner[c] >> 2 in decided
                     for ei in undecided for c in range(4 * ei, 4 * ei + 4))
    return width


def narrowest_by_definition(g, marked):
    """Each step takes the undecided edge whose decision leaves the
    narrowest frontier, the lowest index among equals."""
    order, rest = [], marked_edges(marked)
    while rest:
        best = min(rest, key=lambda ei: frontier_width(g, marked, {*order, ei}))
        rest.remove(best)
        order.append(best)
    return order


def test_narrowest_first_is_a_permutation_of_the_marked_edges():
    g = disconnected_with_bare_vertex()
    split = g.edge_mask(["e1", "e3"])
    assert g.components(split) > g.components()
    cases = [(th(), 0), (b1(), 1), (g, split), (g, g.full_mask),
             (g.underlying_graph(), g.full_mask),
             (th().underlying_graph(), th().full_mask)]
    for h, marked in cases:
        assert sorted(_narrowest_first(h, marked)) == marked_edges(marked), (h, marked)


def test_narrowest_first_matches_its_definition():
    rng = random.Random(43)
    graphs = [make() for make in FIXTURES.values()]
    graphs += random_twisted_graphs()
    graphs.append(disconnected_with_bare_vertex())
    for g in graphs:
        for marked in markings(g, rng):
            for h in (g, g.underlying_graph()):
                assert _narrowest_first(h, marked) \
                    == narrowest_by_definition(h, marked), (h, marked)


def test_narrowest_first_on_one_vertex():
    # one vertex, rotation a1 b1 a2 c1 c2 b2.  Breadth-first lists e1 e2
    # e3 by index.  Each disc arc partners two corners; e3's halves sit
    # side by side, so deciding e3 first opens only the corners of a2 and
    # b2 beside them: 2 corners + the vertex = 3, where e1 or e2 first
    # opens 4 + 1.  Next e1 and e2 each leave the other's 4 corners and
    # the vertex open, and the tie goes to e1.
    g = RibbonGraph([("v", ("a1", "b1", "a2", "c1", "c2", "b2"))],
                    [("e1", ("a1", "a2"), "+"), ("e2", ("b1", "b2"), "+"),
                     ("e3", ("c1", "c2"), "+")])
    assert _narrowest_first(g, g.full_mask) == [2, 0, 1]
    assert [frontier_width(g, g.full_mask, decided)
            for decided in ({2}, {0}, {1}, {2, 0}, {2, 1})] == [3, 5, 5, 5, 5]


@pytest.mark.parametrize("v, e, seed", [(6, 10, 1005), (2, 10, 1018), (1, 11, 1106)])
def test_tally_matches_the_sweep_where_breadth_first_lost(v, e, seed):
    # the draws on which the frontier program under breadth-first order
    # was slower than the sweep; the Krushkal, Bollobas-Riordan and Tutte
    # tallies of each
    g = random_graph(v, e, Fraction(3, 10), seed=seed)
    for h, d in ((g, g.dual()), (g, None), (g.underlying_graph(), None)):
        assert _tally(h, g.full_mask, d) == sweep_tally(h, g.full_mask, d)
