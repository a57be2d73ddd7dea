"""Differential fuzzing: the brute sums against the quasi-tree expansions.

Hypothesis draws random twisted graphs with at most ten edges, sometimes
disconnected, sometimes with a bare vertex, under a random edge order and
an optional marking.  Both routes must give the same polynomial wherever
both are defined, every document must survive serialize -> parse, and
the identity battery must report no FAIL on it.  Pinned graphs with 12,
13 and 14 edges on one to three vertices, under shuffled orders, take
the comparison past that cap; 14 edges is the shape of the benchmark's
dense workload.  Pinned sparse graphs with six to eight vertices do the
same where many minors of the expansion have both bridges and a core,
and one graph with 93,560 quasi-trees checks the Krushkal expansion
alone.  Two graphs with 20 and 22 edges, which the brute sums reach only
by the frontier program, check all four kinds.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpoly.checks import compute_polynomial, run_checks
from qpoly.invariants import krushkal
from qpoly.quasitrees import expansion_krushkal
from qpoly.ribbon import EmbeddedGraph, RibbonGraph
from qpoly.textio import parse, random_graph, serialize

MAX_EDGES = 10


@st.composite
def connected_graphs(draw, max_edges):
    e = draw(st.integers(min_value=0, max_value=max_edges))
    v = draw(st.integers(min_value=1, max_value=min(4, e + 1)))
    twist = draw(st.sampled_from([Fraction(0), Fraction(3, 10), Fraction(1)]))
    return random_graph(v, e, twist, seed=draw(st.integers(1, 2 ** 32)))


def disjoint_union(parts, bare):
    """The parts side by side, labels prefixed by part, plus bare vertices."""
    vertices, edges = [], []
    for i, g in enumerate(parts):
        p = "p%d" % i
        vertices += [(p + name, tuple(p + h for h in rot)) for name, rot in g.vertices]
        edges += [(p + label, (p + h1, p + h2), sign)
                  for label, (h1, h2), sign in g.edges]
    vertices += [("bare%d" % i, ()) for i in range(bare)]
    return RibbonGraph(vertices, edges)


@st.composite
def documents(draw):
    first = draw(connected_graphs(MAX_EDGES))
    parts = [first]
    if draw(st.booleans()):
        parts.append(draw(connected_graphs(MAX_EDGES - first.n_edges)))
    g = disjoint_union(parts, draw(st.integers(min_value=0, max_value=1)))
    order = tuple(draw(st.permutations(g.edge_labels)))
    marked = draw(st.none() | st.integers(min_value=0, max_value=g.full_mask))
    return EmbeddedGraph(g, marked), order


@settings(max_examples=100, deadline=None)
@given(documents())
def test_brute_equals_quasitree(doc):
    emb, order = doc
    assert parse(serialize(emb, order)) == (emb, order)
    # the quasi-tree route reads the marked subgraph as a cellulation of
    # its own; of the four polynomials, Tutte and Bollobas-Riordan depend
    # on the marked subgraph alone
    kinds = (["krushkal", "tutte", "br", "lv"] if emb.is_cellular
             else ["tutte", "br"])
    for kind in kinds:
        assert (compute_polynomial(emb, order, kind, "brute")
                == compute_polynomial(emb, order, kind, "quasitree")), kind


@settings(max_examples=50, deadline=None)
@given(documents())
def test_battery_reports_no_fail(doc):
    emb, order = doc
    fails = [line for line in run_checks(emb, order) if line[1] == "FAIL"]
    assert not fails, fails


def test_brute_equals_quasitree_past_the_cap():
    """One to three vertices, so most edges are loops in G or in G*."""
    kinds = ["krushkal", "tutte", "br", "lv"]
    rng = random.Random(13)
    for v in (1, 2, 3):
        for e in (12, 13, 14):
            emb = EmbeddedGraph(random_graph(v, e, Fraction(3, 10), seed=v * e))
            brute = {kind: compute_polynomial(emb, None, kind, "brute")
                     for kind in kinds}
            for _ in range(2):
                order = list(emb.cellulation.edge_labels)
                rng.shuffle(order)
                for kind in kinds:
                    assert compute_polynomial(emb, order, kind, "quasitree") \
                        == brute[kind], (v, e, order, kind)


@pytest.mark.parametrize("v, e, twist, seed", [
    (7, 15, 0, 2), (6, 16, 0, 1), (8, 14, Fraction(3, 10), 2)])
def test_brute_equals_quasitree_on_sparse_draws(v, e, twist, seed):
    """Six to eight vertices, so about half of the distinct minors of the
    expansion have both bridges and a core, and some cores have edges of
    two or more blocks."""
    kinds = ["krushkal", "tutte", "br", "lv"]
    rng = random.Random(seed)
    emb = EmbeddedGraph(random_graph(v, e, twist, seed=seed))
    brute = {kind: compute_polynomial(emb, None, kind, "brute")
             for kind in kinds}
    for _ in range(2):
        order = list(emb.cellulation.edge_labels)
        rng.shuffle(order)
        for kind in kinds:
            assert compute_polynomial(emb, order, kind, "quasitree") \
                == brute[kind], (order, kind)


@pytest.mark.parametrize("v, e, twist", [(14, 22, 0), (8, 20, Fraction(3, 10))])
def test_brute_equals_quasitree_past_the_sweep(v, e, twist):
    """2^20 and more subsets: the brute sums run the frontier program."""
    emb = EmbeddedGraph(random_graph(v, e, twist, seed=7))
    order = list(emb.cellulation.edge_labels)
    random.Random(e).shuffle(order)
    for kind in ["krushkal", "tutte", "br", "lv"]:
        assert compute_polynomial(emb, order, kind, "brute") \
            == compute_polynomial(emb, order, kind, "quasitree"), kind


def test_krushkal_expansion_on_many_quasi_trees():
    """93,560 quasi-trees on 18 edges."""
    g = random_graph(5, 18, Fraction(3, 10), seed=7)
    assert expansion_krushkal(g) == krushkal(EmbeddedGraph(g))
