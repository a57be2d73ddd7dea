"""Brute-force polynomial invariants and the maps between them.

Everything here is definitional: each polynomial is an exact sum over all
spanning subgraphs (2^e terms), with exponents taken from the topology
modules.  The quasi-tree module reproduces these values by structurally
different sums, which is the point of the whole exercise; these are the
oracles.

Each oracle is one tally.  For every subset it reads the fewest counts it
needs, forms one doubled exponent vector and counts it; the polynomial is
built once, from the tally.  The Krushkal sum reads three counts per
subset, c_G(F), c_G*(E-F) and bc_G(F): the regular neighbourhoods of F in
G and of E-F in the dual cellulation G* share one boundary, so
bc_G*(E-F) = bc_G(F), and s(F) and s_perp(F) both follow.  The Las Vergnas
sum tallies X^(r(E)-r(F)) Y^(|F|-rb(F)) Z^(...) and substitutes X-1 and
Y-1 once at the end.  EmbeddedGraph.complement_invariants still walks the
dual for s_perp: the surface-complement check tests
2n(F) = 2k + delta + s(F) - s_perp(F) with it, an identity that would hold
by algebra alone if s_perp took bc from G.

Conventions.  The Tutte polynomial uses the Whitney-rank normalization
T(X, Y) = sum over F of X^(c(F)-c(G)) Y^(n(F)), a translate of the
classical one.  The Bollobas-Riordan polynomial carries Z^(s(F)) where
s is the doubled genus of the subgraph neighbourhood.  The Las Vergnas
polynomial is taken over a cellular embedding with ranks from the cycle
matroid of G and the bond matroid of the dual cellulation.
"""

from __future__ import annotations

import enum

from .graphs import MultiGraph
from .laurent import HalfExp, LaurentPoly
from .matroid import bond_matroid, cycle_matroid
from .ribbon import EmbeddedGraph, RibbonError, RibbonGraph

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
    full = g.full_mask
    marked = emb.marked_mask
    nv, nv_d, ne = g.n_vertices, d.n_vertices, g.n_edges
    c_g = g.components(marked)
    c_sigma = g.components(full)
    acc = {}
    for f in _submasks(marked):
        c = g.components(f)
        c_perp = d.components(full ^ f)
        bc = g.boundary_components(f)
        k = f.bit_count()
        key = (2 * (c - c_g), 2 * (c_perp - c_sigma),
               2 * c - nv + k - bc, 2 * c_perp - nv_d + ne - k - bc, 0)
        acc[key] = acc.get(key, 0) + 1
    return LaurentPoly(acc)


def tutte(g):
    """Whitney-rank Tutte polynomial of an ordinary multigraph."""
    if not isinstance(g, MultiGraph):
        raise TypeError("tutte expects a MultiGraph")
    full = g.full_mask
    c_g = g.components(full)
    nv = g.n_vertices
    acc = {}
    for f in range(full + 1):
        c = g.components(f)
        n = f.bit_count() - nv + c
        key = (2 * (c - c_g), 2 * n, 0, 0, 0)
        acc[key] = acc.get(key, 0) + 1
    return LaurentPoly(acc)


def bollobas_riordan(g):
    """Bollobas-Riordan polynomial of a ribbon graph.

    Sum over spanning subgraphs of X^(c(F)-c(G)) Y^(n(F)) Z^(s(F)).
    """
    if not isinstance(g, RibbonGraph):
        raise TypeError("bollobas_riordan expects a RibbonGraph")
    full = g.full_mask
    c_g = g.components(full)
    nv = g.n_vertices
    acc = {}
    for f in range(full + 1):
        c = g.components(f)
        k = f.bit_count()
        s = 2 * c - nv + k - g.boundary_components(f)
        key = (2 * (c - c_g), 2 * (k - nv + c), 0, 0, 2 * s)
        acc[key] = acc.get(key, 0) + 1
    return LaurentPoly(acc)


def las_vergnas(emb):
    """Las Vergnas polynomial of a cellularly embedded graph.

    Sum over F of (X-1)^(r(E)-r(F)) (Y-1)^(|F|-rb(F)) Z^((rb(E)-rb(F))-(r(E)-r(F)))
    where r is the cycle rank of G and rb the rank of the bond matroid of
    the dual graph G*.
    """
    if not isinstance(emb, EmbeddedGraph):
        emb = EmbeddedGraph(emb)
    if not emb.is_cellular:
        raise RibbonError("the Las Vergnas polynomial needs a cellular embedding")
    g = emb.cellulation
    r = cycle_matroid(g.underlying_graph())
    rb = bond_matroid(emb.dual_cellulation.underlying_graph())
    full = g.full_mask
    r_full = r.rank(full)
    rb_full = rb.rank(full)
    acc = {}
    for f in range(full + 1):
        rb_f = rb.rank(f)
        dr = r_full - r.rank(f)
        key = (2 * dr, 2 * (f.bit_count() - rb_f), 0, 0, 2 * (rb_full - rb_f - dr))
        acc[key] = acc.get(key, 0) + 1
    return LaurentPoly(acc).substitute({
        "X": LaurentPoly.variable("X") - 1,
        "Y": LaurentPoly.variable("Y") - 1,
    })


def specialize(p, target, *, delta=None, s=None):
    """Push a Krushkal polynomial down to one of its specializations.

    target 'tutte' needs delta (= 2c - chi of the ambient surface) and
    gives Y^(delta/2) p(X, Y, Y, Y^-1); 'br' needs s (= s of the full
    ribbon graph) and gives Y^(s/2) p(X, Y, Y Z^2, Y^-1); 'lv' needs
    delta and gives Z^(delta/2) p(X-1, Y-1, Z^-1, Z).
    """
    kind = PolyKind(target) if not isinstance(target, PolyKind) else target
    if kind is PolyKind.KRUSHKAL:
        return p
    if kind is PolyKind.TUTTE:
        if delta is None:
            raise ValueError("tutte specialization needs delta")
        sub = p.substitute({
            "A": LaurentPoly.variable("Y"),
            "B": LaurentPoly.term(Y=-1),
        })
        return LaurentPoly.term(Y=HalfExp(delta)) * sub
    if kind is PolyKind.BR:
        if s is None:
            raise ValueError("br specialization needs s of the source graph")
        sub = p.substitute({
            "A": LaurentPoly.term(Y=1, Z=2),
            "B": LaurentPoly.term(Y=-1),
        })
        return LaurentPoly.term(Y=HalfExp(s)) * sub
    if kind is PolyKind.LV:
        if delta is None:
            raise ValueError("lv specialization needs delta")
        sub = p.substitute({
            "X": LaurentPoly.variable("X") - 1,
            "Y": LaurentPoly.variable("Y") - 1,
            "A": LaurentPoly.term(Z=-1),
            "B": LaurentPoly.variable("Z"),
        })
        return LaurentPoly.term(Z=HalfExp(delta)) * sub
    raise ValueError("unknown polynomial kind %r" % (target,))
