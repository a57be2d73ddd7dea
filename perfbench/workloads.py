"""Workload definitions: document families and op schedules.

Every document is a pinned ``random_graph(v, e, twist, graph_seed)`` draw,
with a pinned marking where it has one.  The workload seed shuffles the
edge order, which the quasi-tree route depends on (activities, minor
graphs, the resolution tree) and the polynomials do not.  Graph and
marking are pinned so that a pass does nearly the same work for every
seed: quasi-tree counts of ``random_graph`` draws at e = 14 differ
eightfold between graph seeds, and the quasi-tree route's time with them,
which would swamp any change the benchmark is meant to show; the edge
order moves it by a few per cent.  The documents reach the program
through the ``serialize`` -> ``parse`` round trip, as they would through
``qp``.

An op is one call of ``compute_polynomial`` or ``run_checks``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

POLYS = ("krushkal", "tutte", "br", "lv")


@dataclass(frozen=True)
class DocSpec:
    name: str
    v: int
    e: int
    twist: str
    graph_seed: int
    marked: int | None = None   # number of marked edges; None = cellular
    split: bool = False         # marked subgraph must be disconnected


@dataclass(frozen=True)
class Op:
    kind: str    # "quasitree", "brute" or "check"
    doc: str
    poly: str | None = None

    @property
    def id(self):
        return "%s:%s:%s" % (self.kind, self.doc, self.poly or "battery")


def _compute(doc, polys, methods):
    return [Op(m, doc, p) for p in polys for m in methods]


# Each workload: (documents, ops, the document of the qp CLI check).  Why
# each workload exists is recorded in BENCHMARK.json.  Every workload runs
# each op kind, so every end-to-end metric is measured on each; the ops
# that give a workload its character dominate its time.
WORKLOADS = {
    "qt-dense": (
        [DocSpec("d1v14", 1, 14, "3/10", 6),
         DocSpec("d3v14", 3, 14, "3/10", 6),
         DocSpec("d1v8", 1, 8, "3/10", 3),
         DocSpec("d2v8", 2, 8, "3/10", 2),
         DocSpec("d3v8", 3, 8, "3/10", 4)],
        (_compute("d1v14", POLYS, ["quasitree"])
         + _compute("d3v14", POLYS, ["quasitree"])
         + _compute("d1v14", ["krushkal"], ["brute"])
         + _compute("d3v14", ["krushkal"], ["brute"])
         # three small batteries, so that check_s is not one op's time
         + [Op("check", d) for d in ("d1v8", "d2v8", "d3v8")]),
        "d2v8",
    ),
    "sparse": (
        [DocSpec("s10v14", 10, 14, "3/10", 5),
         DocSpec("s12v14", 12, 14, "0", 2),
         DocSpec("s6v8", 6, 8, "3/10", 3),
         DocSpec("s7v8", 7, 8, "0", 1),
         DocSpec("s8v8", 8, 8, "0", 4)],
        (_compute("s10v14", ["krushkal", "tutte"], ["brute", "quasitree"])
         + _compute("s12v14", ["br", "lv"], ["brute", "quasitree"])
         + [Op("check", d) for d in ("s6v8", "s7v8", "s8v8")]),
        "s7v8",
    ),
    "check": (
        [DocSpec("c3v8t", 3, 8, "3/10", 1),
         DocSpec("c3v8p", 3, 8, "0", 2),
         DocSpec("c1v8", 1, 8, "3/10", 3),
         DocSpec("c4v8m", 4, 8, "3/10", 4, marked=6),
         DocSpec("c5v8s", 5, 8, "3/10", 5, marked=6, split=True),
         DocSpec("c5v13", 5, 13, "3/10", 6),
         DocSpec("c5v17", 5, 17, "3/10", 8),
         DocSpec("c6v13m", 6, 13, "3/10", 9, marked=12),
         DocSpec("c8v13s", 8, 13, "3/10", 10, marked=11, split=True)],
        ([Op("check", d) for d in ("c3v8t", "c3v8p", "c1v8", "c4v8m",
                                   "c5v8s", "c5v13", "c5v17")]
         + [op for d in ("c4v8m", "c5v8s", "c6v13m", "c8v13s")
            for op in (_compute(d, ["krushkal", "br"], ["brute"])
                       + _compute(d, ["br"], ["quasitree"]))]),
        "c3v8t",
    ),
}


def _rng(seed, spec, what):
    return random.Random("%d:%s:%s" % (seed, spec.name, what))


def _is_split(graph, picked):
    """Whether the spanning subgraph on the picked edges (all vertices
    kept) is disconnected.  Computed here rather than by the program, so
    that drawing a workload adds no calls to the layers being traced."""
    vertex_of = {h: name for name, rot in graph.vertices for h in rot}
    parent = {name: name for name, _ in graph.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for label, (h1, h2), _ in graph.edges:
        if label in picked:
            parent[find(vertex_of[h1])] = find(vertex_of[h2])
    return len({find(x) for x in parent}) > 1


def _marking(graph, spec):
    """A pinned set of spec.marked edge labels; its subgraph is connected
    unless spec.split asks for a disconnected one."""
    rng = _rng(spec.graph_seed, spec, "marking")
    labels = list(graph.edge_labels)
    for _ in range(10000):
        picked = set(rng.sample(labels, spec.marked))
        if _is_split(graph, picked) == spec.split:
            return [lbl for lbl in labels if lbl in picked]
    raise ValueError("no marking of %s fits its spec" % spec.name)


def document_text(qpoly, spec, seed):
    """The serialized document of one spec under one workload seed."""
    graph = qpoly.random_graph(spec.v, spec.e, Fraction(spec.twist),
                               seed=spec.graph_seed)
    order = list(graph.edge_labels)
    _rng(seed, spec, "order").shuffle(order)
    marked = _marking(graph, spec) if spec.marked is not None else None
    return qpoly.serialize(qpoly.EmbeddedGraph(graph, marked), order)


def build(qpoly, workload, seed):
    """{doc name: (text, emb, order)} and the op list of a workload."""
    specs, ops, _ = WORKLOADS[workload]
    docs = {}
    for spec in specs:
        text = document_text(qpoly, spec, seed)
        emb, order = qpoly.parse(text)
        docs[spec.name] = (text, emb, order)
    return docs, list(ops)
