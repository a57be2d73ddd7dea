import pytest
from fractions import Fraction

from qpoly.ribbon import EmbeddedGraph, RibbonGraph
from qpoly.textio import ParseError, XorShift64Star, parse, random_graph, serialize

from fixture_graphs import FIXTURES, m1, t1

T1_DOC = """\
# torus cellulation
vertex v: a1 b1 a2 b2
edge ea: a1 a2 +
edge eb: b1 b2 +
"""


def test_parse_t1():
    emb, order = parse(T1_DOC)
    assert emb.cellulation == t1()
    assert emb.is_cellular
    assert order == ("ea", "eb")


def test_parse_marked_and_order():
    doc = T1_DOC + "marked: eb\norder: eb ea\n"
    emb, order = parse(doc)
    assert emb.marked == frozenset({"eb"})
    assert order == ("eb", "ea")


def test_parse_comments_and_blank_lines():
    doc = "\n# hi\nvertex v: a1 a2   # rotation\n\nedge e1: a1 a2 -\n"
    emb, _ = parse(doc)
    assert emb.cellulation == m1()


def test_parse_duplicate_half_edge_names_culprit():
    doc = """\
vertex v: a1 a2 b2
edge e1: a1 a2 +
edge e2: a1 b2 +
"""
    with pytest.raises(ParseError, match=r"line 3.*a1"):
        parse(doc)


def test_parse_half_edge_in_two_rotations():
    doc = "vertex u: a1\nvertex w: a1 a2\nedge e1: a1 a2 +\n"
    with pytest.raises(ParseError, match=r"line 2.*a1.*line 1"):
        parse(doc)


def test_parse_bad_sign():
    with pytest.raises(ParseError, match=r"line 2.*sign"):
        parse("vertex v: a1 a2\nedge e1: a1 a2 *\n")


def test_parse_unplaced_half_edge():
    with pytest.raises(ParseError, match=r"a2.*rotation"):
        parse("vertex v: a1\nedge e1: a1 a2 +\n")


def test_parse_incomplete_order():
    doc = T1_DOC + "order: ea\n"
    with pytest.raises(ParseError, match=r"order must list every edge"):
        parse(doc)


def test_parse_order_unknown_edge():
    doc = T1_DOC + "order: ea zz\n"
    with pytest.raises(ParseError, match=r"unknown edge 'zz'"):
        parse(doc)


def test_parse_marked_unknown_edge():
    doc = T1_DOC + "marked: zz\n"
    with pytest.raises(ParseError, match=r"line 5.*zz"):
        parse(doc)


def test_parse_duplicate_vertex():
    with pytest.raises(ParseError, match=r"line 2.*duplicate vertex"):
        parse("vertex v: a1\nvertex v: a2\nedge e1: a1 a2 +\n")


def test_parse_unknown_record():
    with pytest.raises(ParseError, match=r"line 1.*unknown record"):
        parse("face f: a1\n")


def test_parse_missing_colon():
    with pytest.raises(ParseError, match=r"line 1.*':'"):
        parse("vertex v a1 a2\n")


def test_parse_empty_document():
    with pytest.raises(ParseError, match=r"no vertex records"):
        parse("# nothing here\n")


def test_serialize_canonical_omissions():
    emb, order = parse(T1_DOC)
    text = serialize(emb, order)
    assert "marked" not in text
    assert "order" not in text
    assert text.endswith("+\n")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_round_trip_fixtures(name):
    g = FIXTURES[name]()
    text = serialize(g)
    emb, order = parse(text)
    assert emb.cellulation == g
    assert emb.is_cellular
    assert order == tuple(g.edge_labels)
    assert serialize(emb, order) == text


def test_round_trip_marked_and_order():
    g = t1()
    emb = EmbeddedGraph(g, ["eb"])
    text = serialize(emb, ("eb", "ea"))
    emb2, order2 = parse(text)
    assert emb2.cellulation == g
    assert emb2.marked == frozenset({"eb"})
    assert order2 == ("eb", "ea")
    assert serialize(emb2, order2) == text


def test_round_trip_preserves_rotation_phase():
    # same cyclic word, different starting point: the document must keep it
    g = RibbonGraph(
        [("v", ("a2", "b1", "a1", "b2"))],
        [("ea", ("a1", "a2"), "+"), ("eb", ("b1", "b2"), "+")],
    )
    text = serialize(g)
    assert "vertex v: a2 b1 a1 b2" in text
    emb, _ = parse(text)
    assert emb.cellulation.vertices == g.vertices


def test_round_trip_isolated_vertex():
    g = RibbonGraph([("v", ())], [])
    text = serialize(g)
    assert text == "vertex v:\n"
    emb, order = parse(text)
    assert emb.cellulation == g
    assert order == ()


def test_xorshift_known_stream_is_stable():
    rng = XorShift64Star(42)
    first = [rng.next64() for _ in range(4)]
    again = XorShift64Star(42)
    assert [again.next64() for _ in range(4)] == first
    assert XorShift64Star(43).next64() != first[0]
    # zero seed must not get stuck at zero state
    assert XorShift64Star(-0x9E3779B97F4A7C15).next64() != 0


def test_xorshift_below_and_chance():
    rng = XorShift64Star(7)
    draws = [rng.below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) == 10
    rng2 = XorShift64Star(7)
    assert not any(rng2.chance(0) for _ in range(50))
    assert all(rng2.chance(1) for _ in range(50))
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.chance(Fraction(3, 2))


def test_random_graph_deterministic():
    a = random_graph(4, 6, Fraction(3, 10), seed=99)
    b = random_graph(4, 6, Fraction(3, 10), seed=99)
    assert a == b
    assert serialize(a) == serialize(b)
    c = random_graph(4, 6, Fraction(3, 10), seed=100)
    assert serialize(a) != serialize(c)


def test_random_graph_shape_and_connectivity():
    for seed in range(1, 30):
        v = 1 + seed % 5
        e = (v - 1) + seed % 4
        g = random_graph(v, e, Fraction(1, 3), seed=seed)
        assert g.n_vertices == v
        assert g.n_edges == e
        assert g.components() == 1
        assert g.edge_labels == tuple("e%d" % (i + 1) for i in range(e))


def test_random_graph_untwisted_when_prob_zero():
    for seed in range(1, 12):
        g = random_graph(3, 5, 0, seed=seed)
        assert all(g.twist(lbl) == 1 for lbl in g.edge_labels)
        assert g.is_orientable()


def test_random_graph_twists_when_prob_one():
    g = random_graph(3, 5, 1, seed=5)
    assert all(g.twist(lbl) == -1 for lbl in g.edge_labels)


def test_random_graph_single_vertex():
    g = random_graph(1, 0, 0, seed=3)
    assert g.n_vertices == 1 and g.n_edges == 0
    g2 = random_graph(1, 3, Fraction(1, 2), seed=3)
    assert g2.components() == 1 and g2.n_edges == 3


def test_random_graph_infeasible():
    with pytest.raises(ValueError):
        random_graph(3, 1, 0, seed=1)
    with pytest.raises(ValueError):
        random_graph(0, 0, 0, seed=1)
    with pytest.raises(ValueError):
        random_graph(2, 65, 0, seed=1)
    # the twist probability is checked before the first draw, so also
    # when there is no edge to twist
    for v, e in ((1, 0), (2, 1)):
        for p in (2, -1, Fraction(3, 2)):
            with pytest.raises(ValueError) as err:
                random_graph(v, e, p, seed=1)
            assert str(err.value) == "probability must lie in [0, 1]"


def test_random_graph_round_trip():
    g = random_graph(5, 8, Fraction(3, 10), seed=2026)
    emb, order = parse(serialize(g))
    assert emb.cellulation == g
    assert order == g.edge_labels
