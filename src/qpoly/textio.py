"""The graph document format, plus a deterministic random generator.

Document grammar, one record per line, '#' starting a comment:

    vertex <vid>: <hid> <hid> ...       cyclic rotation, as written
    edge <eid>: <hid> <hid> <+|->
    marked: <eid> ...                   optional; default: all edges
    order: <eid> ...                    optional, lowest first; default:
                                        declaration order

Serialization is canonical: vertices and edges in declaration order, the
marked line omitted when everything is marked, the order line omitted
when it matches declaration order.  parse(serialize(x)) == x.

The random generator is pinned down to the bit so corpora regenerate
identically anywhere: xorshift64* (shifts 12/25/27, multiplier
0x2545F4914F6CDD1D), seeded through one splitmix64 step (increment
0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB),
with a fixed fallback for the zero state.  Uniform integers come from
next64() % n; twist decisions compare below(denominator) < numerator of
the exact Fraction probability.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .ribbon import EmbeddedGraph, RibbonGraph

__all__ = [
    "ParseError",
    "parse",
    "serialize",
    "XorShift64Star",
    "random_graph",
]

_M64 = (1 << 64) - 1


class ParseError(Exception):
    """A malformed graph document; the message carries the line number."""


def _err(lineno, msg):
    raise ParseError("line %d: %s" % (lineno, msg))


def parse(text):
    """Parse a graph document into (EmbeddedGraph, edge order tuple)."""
    vertices = []
    vertex_lines = {}
    edges = []
    edge_lines = {}
    half_in_rotation = {}
    half_in_edge = {}
    marked_tokens = None
    marked_line = None
    order_tokens = None
    order_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            _err(lineno, "missing ':' in record")
        fields = head.split()
        body = rest.split()
        if fields[:1] == ["vertex"]:
            if len(fields) != 2:
                _err(lineno, "vertex record needs exactly one name")
            name = fields[1]
            if name in vertex_lines:
                _err(lineno, "duplicate vertex %r (first on line %d)"
                     % (name, vertex_lines[name]))
            vertex_lines[name] = lineno
            for h in body:
                if h in half_in_rotation:
                    _err(lineno, "half-edge %r already placed on line %d"
                         % (h, half_in_rotation[h]))
                half_in_rotation[h] = lineno
            vertices.append((name, tuple(body)))
        elif fields[:1] == ["edge"]:
            if len(fields) != 2:
                _err(lineno, "edge record needs exactly one label")
            label = fields[1]
            if label in edge_lines:
                _err(lineno, "duplicate edge %r (first on line %d)"
                     % (label, edge_lines[label]))
            if len(body) != 3:
                _err(lineno, "edge record needs two half-edges and a sign")
            h1, h2, sign = body
            if sign not in ("+", "-"):
                _err(lineno, "edge sign must be + or -, got %r" % sign)
            if h1 == h2:
                _err(lineno, "edge %r repeats half-edge %r" % (label, h1))
            for h in (h1, h2):
                if h in half_in_edge:
                    _err(lineno, "half-edge %r already used by an edge on line %d"
                         % (h, half_in_edge[h]))
                half_in_edge[h] = lineno
            edge_lines[label] = lineno
            edges.append((label, (h1, h2), sign))
        elif fields == ["marked"]:
            if marked_tokens is not None:
                _err(lineno, "duplicate marked line (first on line %d)" % marked_line)
            marked_tokens = body
            marked_line = lineno
        elif fields == ["order"]:
            if order_tokens is not None:
                _err(lineno, "duplicate order line (first on line %d)" % order_line)
            order_tokens = body
            order_line = lineno
        else:
            _err(lineno, "unknown record %r" % (fields[0] if fields else ""))

    if not vertices:
        raise ParseError("document has no vertex records")
    for h, lineno in half_in_rotation.items():
        if h not in half_in_edge:
            _err(lineno, "half-edge %r is not on any edge" % h)
    for h, lineno in half_in_edge.items():
        if h not in half_in_rotation:
            _err(lineno, "half-edge %r is not in any vertex rotation" % h)
    if len(edges) > 64:
        _err(edge_lines[edges[64][0]], "more than 64 edges")

    graph = RibbonGraph(vertices, edges)

    if marked_tokens is None:
        marked = None
    else:
        seen = set()
        for label in marked_tokens:
            if label not in edge_lines:
                _err(marked_line, "marked references unknown edge %r" % label)
            if label in seen:
                _err(marked_line, "edge %r listed twice in marked" % label)
            seen.add(label)
        marked = marked_tokens

    if order_tokens is None:
        order = tuple(graph.edge_labels)
    else:
        for label in order_tokens:
            if label not in edge_lines:
                _err(order_line, "order references unknown edge %r" % label)
        if sorted(order_tokens) != sorted(graph.edge_labels):
            _err(order_line, "order must list every edge exactly once")
        order = tuple(order_tokens)

    return EmbeddedGraph(graph, marked), order


def serialize(emb, order=None):
    """Render an embedded graph (or bare RibbonGraph) as a document."""
    if isinstance(emb, RibbonGraph):
        emb = EmbeddedGraph(emb)
    g = emb.cellulation
    out = []
    for name, rot in g.vertices:
        out.append(("vertex %s: %s" % (name, " ".join(rot))).rstrip())
    for label, (h1, h2), sign in g.edges:
        out.append("edge %s: %s %s %s" % (label, h1, h2, "+" if sign > 0 else "-"))
    if not emb.is_cellular:
        out.append("marked: %s" % " ".join(g.mask_labels(emb.marked_mask)))
    if order is not None:
        order = tuple(order)
        if order != tuple(g.edge_labels):
            out.append("order: %s" % " ".join(order))
    return "\n".join(out) + "\n"


class XorShift64Star:
    """The pinned 64-bit generator described in the module docstring."""

    def __init__(self, seed):
        z = (int(seed) + 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
        if z == 0:
            z = 0x9E3779B97F4A7C15
        self._state = z

    def next64(self):
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _M64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _M64

    def below(self, n):
        """Uniform-ish integer in [0, n); n must be positive."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next64() % n

    def chance(self, p):
        """One biased coin flip with exact Fraction probability p."""
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise ValueError("probability must lie in [0, 1]")
        if p == 0:
            return False
        if p == 1:
            return True
        return self.below(p.denominator) < p.numerator


def _prufer_tree(rng, nv):
    """Uniform random labelled tree on nv vertices, as index pairs."""
    if nv <= 1:
        return []
    if nv == 2:
        return [(0, 1)]
    seq = [rng.below(nv) for _ in range(nv - 2)]
    degree = [1] * nv
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(nv) if degree[i] == 1]
    heapq.heapify(leaves)
    out = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        out.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    out.append((a, b))
    return out


def random_graph(v, e, twist_prob=0, seed=1):
    """A connected random ribbon graph with v vertices and e edges.

    The skeleton is a uniform spanning tree (Prufer decode, smallest
    leaf first); the remaining edges get independent uniform endpoints.
    Half-edges h1, h2, ... are inserted one at a time at a uniform
    position of their endpoint's current rotation, first half then
    second, in edge order; every edge is twisted with probability
    twist_prob.  Fully deterministic in the seed.
    """
    v = int(v)
    e = int(e)
    if v < 1:
        raise ValueError("need at least one vertex")
    if e < v - 1:
        raise ValueError("%d edges cannot connect %d vertices" % (e, v))
    if e > 64:
        raise ValueError("at most 64 edges")
    p = Fraction(twist_prob)
    # chance checks p at each edge; with no edge it would never run
    if not 0 <= p <= 1:
        raise ValueError("probability must lie in [0, 1]")
    rng = XorShift64Star(seed)
    ends = list(_prufer_tree(rng, v))
    for _ in range(e - len(ends)):
        ends.append((rng.below(v), rng.below(v)))
    rotations = [[] for _ in range(v)]
    edges = []
    for j, (u, w) in enumerate(ends):
        h1 = "h%d" % (2 * j + 1)
        h2 = "h%d" % (2 * j + 2)
        rotations[u].insert(rng.below(len(rotations[u]) + 1), h1)
        rotations[w].insert(rng.below(len(rotations[w]) + 1), h2)
        sign = "-" if rng.chance(p) else "+"
        edges.append(("e%d" % (j + 1), (h1, h2), sign))
    vertices = [("v%d" % (i + 1), tuple(rotations[i])) for i in range(v)]
    return RibbonGraph(vertices, edges)
