"""Self-checks over one graph document, and the CLI compute dispatch.

run_checks() evaluates a battery of named identities on an embedded
graph: Euler counts, duality, partial duality, the quasi-tree partition,
and cross-checks of every polynomial against its expansions and
specializations.  Each identity reports PASS, FAIL, or SKIP; checks
whose cost blows up with the edge count skip or sample beyond a fixed
size, always deterministically.
"""

from __future__ import annotations

from .invariants import (
    PolyKind,
    _submasks,
    bollobas_riordan,
    krushkal,
    las_vergnas,
    specialize,
    tutte,
)
from .laurent import LaurentPoly
from .matroid import bond_matroid, cycle_matroid, satisfies_rank_axioms
from .quasitrees import (
    activities,
    expansion_krushkal,
    quasi_tree_masks,
    resolution_tree,
)
from .ribbon import EmbeddedGraph, RibbonError
from .textio import XorShift64Star

__all__ = ["run_checks", "CHECKS", "compute_polynomial"]


# ----------------------------------------------------------------------
# polynomial dispatch (also used by qp compute)

def _component_order(order, comp):
    labels = set(comp.edge_labels)
    return tuple(lbl for lbl in order if lbl in labels)


def _quasitree_polynomial(emb, order, kind):
    """Per-component product of the Krushkal expansion, specialized to
    one polynomial kind.  BR expands the marked subgraph as a cellulation
    of its own; the other kinds need a cellular embedding."""
    if kind is not PolyKind.BR and not emb.is_cellular:
        raise RibbonError(
            "the quasi-tree route to %s needs a cellular embedding; for the "
            "marked subgraph, feed it as a document of its own" % kind.value)
    total = LaurentPoly.one()
    for comp in emb.ribbon_subgraph().split_components():
        # s(E) = 2c - v + e - bc(E) = 2c - chi, the delta of the surface
        s = comp.genus_s()
        part = expansion_krushkal(comp, _component_order(order, comp))
        total = total * specialize(part, kind, delta=s, s=s)
    return total


def compute_polynomial(emb, order, kind, method):
    """Evaluate one of the four polynomials by the requested route.

    method 'brute' sums over edge subsets; 'quasitree' multiplies the
    per-component quasi-tree expansions under the document edge order.
    Both return identical polynomials whenever both are defined.
    """
    if not isinstance(kind, PolyKind):
        kind = PolyKind(kind)
    if method == "brute":
        if kind is PolyKind.KRUSHKAL:
            return krushkal(emb)
        if kind is PolyKind.TUTTE:
            return tutte(emb.underlying_marked_graph())
        if kind is PolyKind.BR:
            return bollobas_riordan(emb.ribbon_subgraph())
        if kind is PolyKind.LV:
            return las_vergnas(emb)
        raise ValueError("unknown polynomial kind %r" % kind)
    if method == "quasitree":
        return _quasitree_polynomial(emb, order, kind)
    raise ValueError("unknown method %r" % method)


# ----------------------------------------------------------------------
# individual identities

def _all_masks(g):
    return range(g.full_mask + 1)


def _check_euler_genus(emb, order):
    g = emb.cellulation
    if g.n_edges > 12:
        return ("SKIP", "more than 12 edges")
    nv = g.n_vertices
    for f in _all_masks(g):
        chi = nv - bin(f).count("1") + g.boundary_components(f)
        s = g.genus_s(f)
        if s < 0 or chi != 2 * g.components(f) - s:
            return ("FAIL", "Euler count broken at F=%s" % sorted(g.mask_labels(f)))
    return ("PASS", "")


def _check_orientable_parity(emb, order):
    g = emb.cellulation
    if g.n_edges > 12:
        return ("SKIP", "more than 12 edges")
    for f in _all_masks(g):
        if g.is_orientable(f) and g.genus_s(f) % 2 != 0:
            return ("FAIL", "odd s on orientable F=%s" % sorted(g.mask_labels(f)))
    return ("PASS", "")


def _check_dual_involution(emb, order):
    g = emb.cellulation
    if g.n_edges > 12:
        return ("SKIP", "more than 12 edges")
    d = emb.dual_cellulation
    dd = d.dual()
    if g.subgraph_profile() != dd.subgraph_profile():
        return ("FAIL", "dual(dual(G)) has a different subgraph profile")
    if d.n_vertices != g.boundary_components() or d.boundary_components() != g.n_vertices:
        return ("FAIL", "dual does not swap vertices with boundary components")
    return ("PASS", "")


def _check_partial_dual_identity(emb, order):
    g = emb.cellulation
    if g.partial_dual(0) != g:
        return ("FAIL", "G^{} differs from G")
    return ("PASS", "")


def _check_partial_dual_counts(emb, order):
    g = emb.cellulation
    if g.n_edges > 10:
        return ("SKIP", "more than 10 edges")
    full = g.full_mask
    orient = g.is_orientable()
    for h in _all_masks(g):
        gh = g.partial_dual(h)
        if gh.n_vertices != g.restrict(h).boundary_components():
            return ("FAIL", "v(G^H) != bc(F_H) at H=%s" % sorted(g.mask_labels(h)))
        if gh.boundary_components() != g.boundary_components(full ^ h):
            return ("FAIL", "bc(G^H) != bc of complement at H=%s"
                    % sorted(g.mask_labels(h)))
        if gh.components() != g.components():
            return ("FAIL", "partial dual changed component count")
        if gh.is_orientable() != orient:
            return ("FAIL", "partial dual changed orientability")
    return ("PASS", "")


def _check_partial_dual_composition(emb, order):
    g = emb.cellulation
    e = g.n_edges
    if e > 16:
        return ("SKIP", "more than 16 edges")
    full = g.full_mask
    if e <= 5:
        pairs = [(a, b) for a in _all_masks(g) for b in _all_masks(g)]
    else:
        rng = XorShift64Star(e * 2654435761 + 17)
        pairs = [(rng.below(full + 1), rng.below(full + 1)) for _ in range(25)]
    for a, b in pairs:
        lhs = g.partial_dual(a).partial_dual(b)
        rhs = g.partial_dual(a ^ b)
        if lhs.subgraph_profile() != rhs.subgraph_profile():
            return ("FAIL", "(G^A)^B and G^(A xor B) differ at A=%s B=%s"
                    % (sorted(g.mask_labels(a)), sorted(g.mask_labels(b))))
    return ("PASS", "")


def _check_boundary_duality(emb, order):
    g = emb.cellulation
    if g.n_edges > 12:
        return ("SKIP", "more than 12 edges")
    d = emb.dual_cellulation
    full = g.full_mask
    for f in _all_masks(g):
        if g.boundary_components(f) != d.boundary_components(full ^ f):
            return ("FAIL", "bc duality broken at F=%s" % sorted(g.mask_labels(f)))
    return ("PASS", "")


def _check_surface_complement(emb, order):
    g = emb.cellulation
    if g.n_edges > 12:
        return ("SKIP", "more than 12 edges")
    _, _, delta = emb.surface_invariants()
    for f in _submasks(emb.marked_mask):
        c_minus, s_perp, k = emb.complement_invariants(f)
        if 2 * g.nullity(f) != 2 * k + delta + g.genus_s(f) - s_perp:
            return ("FAIL", "nullity relation broken at F=%s"
                    % sorted(g.mask_labels(f)))
    return ("PASS", "")


def _check_duality_swap(emb, order):
    if not emb.is_cellular:
        return ("SKIP", "the document marks a proper edge subset")
    g = emb.cellulation
    if g.n_edges > 10:
        return ("SKIP", "more than 10 edges")
    var = LaurentPoly.variable
    swapped = krushkal(g).substitute({
        "X": var("Y"), "Y": var("X"), "A": var("B"), "B": var("A")})
    if swapped != krushkal(emb.dual_cellulation):
        return ("FAIL", "krushkal(G*) is not the XY/AB swap of krushkal(G)")
    return ("PASS", "")


def _check_tutte_specialization(emb, order):
    g = emb.cellulation
    if g.n_edges > 10:
        return ("SKIP", "more than 10 edges")
    _, _, delta = emb.surface_invariants()
    lhs = specialize(krushkal(emb), PolyKind.TUTTE, delta=delta)
    rhs = tutte(emb.underlying_marked_graph())
    if lhs != rhs:
        return ("FAIL", "krushkal does not specialize to the Tutte polynomial")
    return ("PASS", "")


def _check_br_chain(emb, order):
    g = emb.cellulation
    if g.n_edges > 10:
        return ("SKIP", "more than 10 edges")
    brute = bollobas_riordan(emb.ribbon_subgraph())
    if brute != _quasitree_polynomial(emb, order, PolyKind.BR):
        return ("FAIL", "quasi-tree expansion disagrees with Bollobas-Riordan")
    if emb.is_cellular:
        spec = specialize(krushkal(emb), PolyKind.BR, s=g.genus_s())
        if brute != spec:
            return ("FAIL", "krushkal does not specialize to Bollobas-Riordan")
    return ("PASS", "")


def _check_lv_chain(emb, order):
    if not emb.is_cellular:
        return ("SKIP", "the document marks a proper edge subset")
    g = emb.cellulation
    if g.n_edges > 10:
        return ("SKIP", "more than 10 edges")
    _, _, delta = emb.surface_invariants()
    brute = las_vergnas(emb)
    if brute != specialize(krushkal(emb), PolyKind.LV, delta=delta):
        return ("FAIL", "krushkal does not specialize to Las Vergnas")
    if brute != _quasitree_polynomial(emb, order, PolyKind.LV):
        return ("FAIL", "quasi-tree expansion disagrees with Las Vergnas")
    return ("PASS", "")


def _check_krushkal_expansion(emb, order):
    if not emb.is_cellular:
        return ("SKIP", "the document marks a proper edge subset")
    g = emb.cellulation
    if g.n_edges > 10:
        return ("SKIP", "more than 10 edges")
    if krushkal(emb) != _quasitree_polynomial(emb, order, PolyKind.KRUSHKAL):
        return ("FAIL", "quasi-tree expansion disagrees with krushkal")
    return ("PASS", "")


def _check_quasitree_partition(emb, order):
    if emb.cellulation.n_edges > 12:
        return ("SKIP", "more than 12 edges")
    for comp in emb.ribbon_subgraph().split_components():
        sub_order = _component_order(order, comp)
        tree = resolution_tree(comp, sub_order)
        if tree.leaf_count != len(quasi_tree_masks(comp)):
            return ("FAIL", "leaf count differs from the quasi-tree count")
        covered = 0
        for leaf in tree.leaves:
            ap = activities(comp, sub_order, leaf.quasi_tree)
            if leaf.unresolved != ap.i_o | ap.e_o:
                return ("FAIL", "unresolved edges are not I_o union E_o")
            covered += 1 << len(leaf.unresolved)
        if covered != 1 << comp.n_edges:
            return ("FAIL", "leaf cubes do not partition the subset lattice")
    return ("PASS", "")


def _check_partial_duality_connectivity(emb, order):
    g = emb.cellulation
    e = g.n_edges
    full = g.full_mask
    if e <= 8:
        amasks = list(_all_masks(g))
    else:
        rng = XorShift64Star(e * 11400714819323198485 + 3)
        amasks = [rng.below(full + 1) for _ in range(16)]
    for a in amasks:
        ga = g.partial_dual(a)
        rest = full ^ a
        b = rest
        while True:
            if g.components(full ^ b) != ga.components(full ^ b):
                return ("FAIL", "c(G-B) != c(G^A-B) at A=%s B=%s"
                        % (sorted(g.mask_labels(a)), sorted(g.mask_labels(b))))
            if b == 0:
                break
            b = (b - 1) & rest
    return ("PASS", "")


def _check_matroid_axioms(emb, order):
    mg = emb.underlying_marked_graph()
    if mg.n_edges > 8:
        return ("SKIP", "more than 8 edges")
    for r in (cycle_matroid(mg), bond_matroid(mg), cycle_matroid(mg).dual()):
        if not satisfies_rank_axioms(r):
            return ("FAIL", "%s violates the rank axioms" % r.name)
    return ("PASS", "")


def _check_deletion_contraction(emb, order):
    g = emb.cellulation
    if g.n_edges > 10:
        return ("SKIP", "more than 10 edges")
    base = krushkal(emb)
    one_x = 1 + LaurentPoly.variable("X")
    one_y = 1 + LaurentPoly.variable("Y")
    mg = emb.underlying_marked_graph()
    marked_labels = [lbl for lbl in g.edge_labels if lbl in emb.marked]
    for lbl in marked_labels:
        a, b = g._ends[g.edge_labels.index(lbl)]
        is_loop = a == b
        rest = [l for l in marked_labels if l != lbl]
        deleted = EmbeddedGraph(g, rest)
        if is_loop:
            _, _, k = emb.complement_invariants([lbl])
            if k == 1 and base != one_y * krushkal(deleted):
                return ("FAIL", "separating loop %s fails the (1+Y) factor" % lbl)
            continue
        contracted = EmbeddedGraph(g.contract(lbl), rest)
        bridge = mg.components(mg.edge_mask(rest)) > mg.components(mg.edge_mask(marked_labels))
        if bridge:
            if base != one_x * krushkal(contracted):
                return ("FAIL", "bridge %s fails the (1+X) factor" % lbl)
        else:
            if base != krushkal(deleted) + krushkal(contracted):
                return ("FAIL", "deletion-contraction fails at %s" % lbl)
    return ("PASS", "")


CHECKS = (
    ("euler-genus", _check_euler_genus),
    ("orientable-parity", _check_orientable_parity),
    ("dual-involution", _check_dual_involution),
    ("partial-dual-identity", _check_partial_dual_identity),
    ("partial-dual-counts", _check_partial_dual_counts),
    ("partial-dual-composition", _check_partial_dual_composition),
    ("partial-duality-connectivity", _check_partial_duality_connectivity),
    ("boundary-duality", _check_boundary_duality),
    ("surface-complement", _check_surface_complement),
    ("matroid-axioms", _check_matroid_axioms),
    ("duality-swap", _check_duality_swap),
    ("tutte-specialization", _check_tutte_specialization),
    ("br-chain", _check_br_chain),
    ("lv-chain", _check_lv_chain),
    ("krushkal-expansion", _check_krushkal_expansion),
    ("quasitree-partition", _check_quasitree_partition),
    ("deletion-contraction", _check_deletion_contraction),
)


def run_checks(emb, order):
    """Run every identity; returns [(name, status, detail), ...].

    An identity that raises reports FAIL with "<ExceptionType>: <message>"
    as its detail, and the battery goes on with the next one.
    """
    out = []
    for name, fn in CHECKS:
        try:
            status, detail = fn(emb, order)
        except Exception as exc:
            status, detail = "FAIL", "%s: %s" % (type(exc).__name__, exc)
        out.append((name, status, detail))
    return out
