"""Brute-force polynomial invariants and the maps between them.

Everything here is definitional: each polynomial is an exact sum over all
spanning subgraphs (2^e terms), with exponents taken from the topology
modules.  The quasi-tree module reproduces these values by structurally
different sums, which is the point of the whole exercise; these are the
oracles.

Each oracle is one tally of (|F|, c_G(F), c_G*(E-F), bc_G(F)) over the
submasks F of the marked edges, mapped to doubled exponent vectors, and
builds its polynomial once.  Two engines count the tally: the subset
sweep ribbon._sweep up to _FRONTIER_ABOVE = 9 marked edges, and above
that the frontier program ribbon._frontier, which merges the subsets of
equal frontier state and so reaches past e = 30.  The
Krushkal sum reads all four counts: the regular neighbourhoods of F in G
and of E-F in G* share one boundary, so bc_G*(E-F) = bc_G(F), and s(F)
and s_perp(F) both follow.  The Las Vergnas sum takes r(F) = v - c_G(F) and
rb(F) = |F| - c_G*(E-F) + c_G*(E), tallies X^(r(E)-r(F)) Y^(|F|-rb(F))
Z^(...) and substitutes X-1 and Y-1 once at the end.  The
surface-complement check reads s_perp from G*'s own sweep, the subgraph
profile of the dual, not from bc_G: it tests 2n(F) = 2k + delta + s(F) -
s_perp(F), which would hold by algebra alone if s_perp took bc from G.

Conventions.  The Tutte polynomial uses the Whitney-rank normalization
T(X, Y) = sum over F of X^(c(F)-c(G)) Y^(n(F)), a translate of the
classical one.  The Bollobas-Riordan polynomial carries Z^(s(F)) where
s is the doubled genus of the subgraph neighbourhood.  The Las Vergnas
polynomial is taken over a cellular embedding with ranks from the cycle
matroid of G and the bond matroid of the dual cellulation.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .graphs import MultiGraph
from .laurent import LaurentPoly
from .ribbon import (EmbeddedGraph, RibbonError, RibbonGraph, _frontier,
                     _iter_bits, _sweep)

__all__ = [
    "PolyKind",
    "krushkal",
    "tutte",
    "bollobas_riordan",
    "las_vergnas",
    "specialize",
]


class PolyKind(enum.Enum):
    KRUSHKAL = "krushkal"
    TUTTE = "tutte"
    BR = "br"
    LV = "lv"


def _submasks(mask):
    """All submasks of mask, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# _tally counts by ribbon._frontier above this many marked edges and by
# ribbon._sweep up to it.  The crossover: on 21 random_graph draws per
# edge count (twist 3/10; the Krushkal, Bollobas-Riordan and Tutte
# tallies of each), the sweep took 0.50 times the frontier's time in the
# median at 7 edges, 0.76 at 8, 1.12 at 9, 2.09 at 10 and 4.19 at 12
# (Python 3.11, best of three)
_FRONTIER_ABOVE = 9


def _breadth_first(g, marked):
    """The marked edges in breadth-first order over the marked subgraph:
    from each vertex in turn that no search has reached yet, each reached
    vertex lists its marked edges not listed yet, by edge index."""
    incident = [[] for _ in range(g.n_vertices)]
    for ei in _iter_bits(marked):
        for v in set(g._ends[ei]):
            incident[v].append(ei)
    order, seen = {}, set()
    for start in range(g.n_vertices):
        queue = [] if start in seen else [start]
        seen.update(queue)
        for v in queue:
            for ei in incident[v]:
                order[ei] = None
                for w in g._ends[ei]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
    return list(order)


def _tally(g, marked, d=None):
    """{(|F|, c_g(F), c_d(E-F), bc_g(F)): count} over the submasks F of
    marked, with the same g and d: from ribbon._frontier, in breadth-first
    order, above _FRONTIER_ABOVE marked edges, else from the leaves of
    ribbon._sweep."""
    if marked.bit_count() > _FRONTIER_ABOVE:
        return _frontier(g, marked, d, _breadth_first(g, marked))
    acc = {}

    def leaf(f, *key):
        acc[key] = acc.get(key, 0) + 1

    _sweep(g, marked, d, leaf)
    return acc


def _poly(tally, exponents):
    """The LaurentPoly summing count * monomial over a _tally, with the
    doubled exponent vector of each key given by exponents(*key)."""
    acc = {}
    for key, n in tally.items():
        vec = exponents(*key)
        acc[vec] = acc.get(vec, 0) + n
    return LaurentPoly(acc)


def krushkal(emb):
    """The Krushkal polynomial of an embedded graph, by direct summation.

    Sum over subsets F of the marked edges of
    X^(c(F)-c(G)) Y^(c(Sigma-F)-c(Sigma)) A^(s(F)/2) B^(s_perp(F)/2),
    with complement data read off the dual cellulation G*: c(Sigma-F) is
    c_G*(E-F), and s_perp(F) uses bc_G*(E-F) = bc_G(F).  Works for
    cellular and non-cellular markings alike.
    """
    if not isinstance(emb, EmbeddedGraph):
        emb = EmbeddedGraph(emb)
    g = emb.cellulation
    d = emb.dual_cellulation
    marked = emb.marked_mask
    nv, nv_d, ne = g.n_vertices, d.n_vertices, g.n_edges
    c_g = g.components(marked)
    c_sigma = g.components()
    return _poly(_tally(g, marked, d), lambda k, c, c_perp, bc: (
        2 * (c - c_g), 2 * (c_perp - c_sigma),
        2 * c - nv + k - bc, 2 * c_perp - nv_d + ne - k - bc, 0))


def tutte(g):
    """Whitney-rank Tutte polynomial of an ordinary multigraph."""
    if not isinstance(g, MultiGraph):
        raise TypeError("tutte expects a MultiGraph")
    c_g = g.components()
    nv = g.n_vertices
    return _poly(_tally(g, g.full_mask), lambda k, c, c_d, bc: (
        2 * (c - c_g), 2 * (k - nv + c), 0, 0, 0))


def bollobas_riordan(g):
    """Bollobas-Riordan polynomial of a ribbon graph.

    Sum over spanning subgraphs of X^(c(F)-c(G)) Y^(n(F)) Z^(s(F)).
    """
    if not isinstance(g, RibbonGraph):
        raise TypeError("bollobas_riordan expects a RibbonGraph")
    c_g = g.components()
    nv = g.n_vertices
    return _poly(_tally(g, g.full_mask), lambda k, c, c_d, bc: (
        2 * (c - c_g), 2 * (k - nv + c), 0, 0, 2 * (2 * c - nv + k - bc)))


def las_vergnas(emb):
    """Las Vergnas polynomial of a cellularly embedded graph.

    Sum over F of (X-1)^(r(E)-r(F)) (Y-1)^(|F|-rb(F)) Z^((rb(E)-rb(F))-(r(E)-r(F)))
    where r is the cycle rank of G and rb the rank of the bond matroid of
    the dual graph G*: r(F) = v - c_G(F) and
    rb(F) = |F| - c_G*(E-F) + c_G*(E).
    """
    if not isinstance(emb, EmbeddedGraph):
        emb = EmbeddedGraph(emb)
    if not emb.is_cellular:
        raise RibbonError("the Las Vergnas polynomial needs a cellular embedding")
    g = emb.cellulation
    d = emb.dual_cellulation
    c_full, c_d_full = g.components(), d.components()
    ne, nv_d = g.n_edges, d.n_vertices
    # the underlying graph: r and rb need no boundary count
    tally = _tally(g.underlying_graph(), g.full_mask, d)
    shifted = _poly(tally, lambda k, c, c_d, bc: (
        2 * (c - c_full), 2 * (c_d - c_d_full), 0, 0,
        2 * (ne - nv_d - k + c_d - (c - c_full))))
    return shifted.substitute({
        "X": LaurentPoly.variable("X") - 1,
        "Y": LaurentPoly.variable("Y") - 1,
    })


# kind: (the bindings of the Krushkal variables, the variable that the
# surface parameter shifts by half its value)
_SPECIALIZATIONS = {
    PolyKind.TUTTE: ({"A": LaurentPoly.variable("Y"),
                      "B": LaurentPoly.term(Y=-1)}, "Y"),
    PolyKind.BR: ({"A": LaurentPoly.term(Y=1, Z=2),
                   "B": LaurentPoly.term(Y=-1)}, "Y"),
    PolyKind.LV: ({"X": LaurentPoly.variable("X") - 1,
                   "Y": LaurentPoly.variable("Y") - 1,
                   "A": LaurentPoly.term(Z=-1),
                   "B": LaurentPoly.variable("Z")}, "Z"),
}


def specialize(p, target, *, delta=None, s=None):
    """Push a Krushkal polynomial down to one of its specializations.

    target 'tutte' needs delta (= 2c - chi of the ambient surface) and
    gives Y^(delta/2) p(X, Y, Y, Y^-1); 'br' needs s (= s of the full
    ribbon graph) and gives Y^(s/2) p(X, Y, Y Z^2, Y^-1); 'lv' needs
    delta and gives Z^(delta/2) p(X-1, Y-1, Z^-1, Z).
    """
    kind = PolyKind(target)
    if kind is PolyKind.KRUSHKAL:
        return p
    bindings, var = _SPECIALIZATIONS[kind]
    shift, needs = (s, "s of the source graph") if kind is PolyKind.BR else (delta, "delta")
    if shift is None:
        raise ValueError("%s specialization needs %s" % (kind.value, needs))
    return LaurentPoly.term(**{var: Fraction(shift, 2)}) * p.substitute(bindings)
