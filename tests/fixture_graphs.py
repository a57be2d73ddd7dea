"""The small ribbon graphs used across the test suite.

B1  one vertex, one untwisted loop            (annulus)
M1  one vertex, one twisted loop              (Moebius band)
T1  one vertex, two interleaved loops         (torus)
P2  one vertex, two nested loops              (sphere, three faces)
TH  two vertices, three parallel edges        (theta graph on the sphere)
TV  one vertex, no edges                      (disc)

random_twisted_graphs() adds twelve pinned connected random graphs with
5 to 10 edges, each edge twisted with probability 3/10, and
disconnected_with_bare_vertex() a graph with three components, one of
them a vertex without edges.  component_labels_by_search() and
count_by_search() are the suite's own component labelling and count, a
breadth-first search independent of the package's union-find, and
links() reads interleaving off a one-vertex word token by token.
"""

import random
from fractions import Fraction

from qpoly.ribbon import RibbonGraph
from qpoly.textio import random_graph


def b1():
    return RibbonGraph([("v", ("a1", "a2"))], [("e1", ("a1", "a2"), "+")])


def m1():
    return RibbonGraph([("v", ("a1", "a2"))], [("e1", ("a1", "a2"), "-")])


def t1():
    return RibbonGraph(
        [("v", ("a1", "b1", "a2", "b2"))],
        [("ea", ("a1", "a2"), "+"), ("eb", ("b1", "b2"), "+")])


def p2():
    return RibbonGraph(
        [("v", ("a1", "a2", "b1", "b2"))],
        [("ea", ("a1", "a2"), "+"), ("eb", ("b1", "b2"), "+")])


def th():
    return RibbonGraph(
        [("u", ("a1", "b1", "c1")), ("w", ("a2", "c2", "b2"))],
        [("e1", ("a1", "a2"), "+"),
         ("e2", ("b1", "b2"), "+"),
         ("e3", ("c1", "c2"), "+")])


def tv():
    return RibbonGraph([("v", ())], [])


FIXTURES = {"B1": b1, "M1": m1, "T1": t1, "P2": p2, "TH": th, "TV": tv}


def disconnected_with_bare_vertex():
    return RibbonGraph(
        [("u", ("a1", "b1", "a2")), ("w", ("b2", "c1", "c2")),
         ("y", ("d1", "d2")), ("x", ())],
        [("e1", ("a1", "a2"), "-"), ("e2", ("b1", "b2"), "+"),
         ("e3", ("c1", "c2"), "+"), ("e4", ("d1", "d2"), "-")])


def component_labels_by_search(g, mask):
    """The component index of every vertex of the spanning subgraph on the
    edge mask, numbered by first vertex, by breadth-first search over the
    vertex pairs g._ends."""
    adj = [[] for _ in g.vertices]
    for ei, (a, b) in enumerate(g._ends):
        if (mask >> ei) & 1:
            adj[a].append(b)
            adj[b].append(a)
    comp = [-1] * len(adj)
    n = 0
    for start in range(len(adj)):
        if comp[start] >= 0:
            continue
        comp[start] = n
        queue = [start]
        for x in queue:
            for y in adj[x]:
                if comp[y] < 0:
                    comp[y] = n
                    queue.append(y)
        n += 1
    return comp


def count_by_search(g, mask):
    return max(component_labels_by_search(g, mask), default=-1) + 1


def links(word, e, f):
    """Whether the two occurrences of the edge labels e and f interleave
    in word, a cyclic sequence of (label, end, sign) tokens."""
    if e == f:
        raise ValueError("links needs two distinct edges")
    p1, p2 = (i for i, token in enumerate(word) if token[0] == e)
    q1, q2 = (i for i, token in enumerate(word) if token[0] == f)
    return (p1 < q1 < p2) != (p1 < q2 < p2)


def random_twisted_graphs():
    rng = random.Random(17)
    return [random_graph(rng.randint(1, 6), rng.randint(5, 10),
                         Fraction(3, 10), seed=seed) for seed in range(1, 13)]
