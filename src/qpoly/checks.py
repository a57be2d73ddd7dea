"""Self-checks over one graph document, and the CLI compute dispatch.

run_checks() evaluates a battery of named identities on an embedded
graph: Euler counts, duality, partial duality, the quasi-tree partition,
and cross-checks of every polynomial against its expansions and
specializations.  Each identity reports PASS, FAIL, or SKIP.  One table,
_TABLE, holds every edge limit, on the cellulation, and says whether an
identity needs a cellular document; each CHECKS entry, also when called
directly, skips by its row before the identity runs.  The two sampled
identities, partial-dual-composition and partial-duality-connectivity,
keep their sample sizes in their bodies, and sample deterministically.
The per-subset identities read c, bc, s and n off
RibbonGraph.subgraph_profile() of G and of G*, each computed once per
battery by ribbon._sweep, the engine of the brute-force sums up to eight
marked edges.
partial-duality-connectivity reads c(G - B) and c(G^A - B) for every
subset B of E - A off one such sweep per A, of the graph G/A on the
classes of A against G^A.  The sweep reads both sides from their vertex
counts and edge end pairs alone, so neither is built as a graph, and
no G^A that it or partial-dual-counts reads builds its labelled
vertices.

dual-involution and partial-dual-composition compare ribbon graphs
exactly, by RibbonGraph.switching_form(): a canonical form up to vertex
flips that reads edge labels only, since partial duals rename half-edges
and vertices.  Per component it untwists the spanning forest least by
sorted edge label, writes each vertex as the cyclic minimum of its
edge-label word and keeps the smaller of the two global flips.  It costs
two union-finds per graph, so both identities run at every size.
dual-involution also compares the vertex count of G* with bc(E) as the
sweep counts it, by one splice per edge, since G*'s vertices are the
circles of G's full walk and boundary_components() counts that walk.
"""

from __future__ import annotations

from contextvars import ContextVar
from types import SimpleNamespace

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
from .quasitrees import (
    activities,
    expansion_krushkal,
    quasi_tree_masks,
    resolution_tree,
)
from .ribbon import EmbeddedGraph, RibbonError, _iter_bits, _sweep
from .textio import XorShift64Star

__all__ = ["run_checks", "CHECKS", "compute_polynomial"]


# ----------------------------------------------------------------------
# polynomial dispatch (also used by qp compute)

def _component_order(order, comp):
    labels = set(comp.edge_labels)
    return tuple(lbl for lbl in order if lbl in labels)


def _quasitree_polynomial(emb, order, kind):
    """Per-component product of the Krushkal expansion, specialized to
    one polynomial kind.  Tutte and BR depend only on the marked
    subgraph, which is expanded as a cellulation of its own; Krushkal and
    LV need a cellular embedding."""
    if kind in (PolyKind.KRUSHKAL, PolyKind.LV) and not emb.is_cellular:
        raise RibbonError(
            "the quasi-tree route to %s needs a cellular embedding; for the "
            "marked subgraph, feed it as a document of its own" % kind.value)
    total = LaurentPoly.one()
    for s, part in _expansions(emb, order):
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
    if method == "quasitree":
        return _quasitree_polynomial(emb, order, kind)
    raise ValueError("unknown method %r" % method)


# ----------------------------------------------------------------------
# individual identities

# the memo of the battery that run_checks is running: its document and,
# once an identity has asked, the brute Krushkal sum, the per-component
# expansions, the subgraph profiles of G and G* and the facts of each
# partial dual G^A, or their exceptions
_battery = ContextVar("battery", default=None)


def _once(emb, key, compute):
    """compute(), evaluated at most once per key in the run_checks call
    on emb.  When it raises, every caller gets the same exception."""
    memo = _battery.get()
    if memo is None or memo["emb"] is not emb:
        return compute()
    if key not in memo:
        try:
            memo[key] = (compute(), None)
        except Exception as exc:
            memo[key] = (None, exc)
    value, exc = memo[key]
    if exc is not None:
        raise exc
    return value


def _brute_krushkal(emb):
    """krushkal(emb), summed at most once per run_checks call."""
    return _once(emb, "krushkal", lambda: krushkal(emb))


def _expansions(emb, order):
    """(s, expansion_krushkal) for each component of the marked subgraph,
    expanded at most once per run_checks call; s = 2c - v + e - bc(E) is
    the delta of the component's surface."""
    return _once(emb, ("expansions", tuple(order)), lambda: [
        (comp.genus_s(), expansion_krushkal(comp, _component_order(order, comp)))
        for comp in emb.ribbon_subgraph().split_components()])


def _every_subset(emb, holds, fail, masks=None):
    """Test holds(f, row, co) at each subset F of masks, every subset
    ascending by default, where row is the (c, bc, s, n) profile row of F
    in G and co that of E - F in G*.  FAIL with fail % F's labels at the
    first F where it is false."""
    g = emb.cellulation
    full = g.full_mask
    rows = _once(emb, "profile", g.subgraph_profile)
    co = _once(emb, "dual profile", emb.dual_cellulation.subgraph_profile)
    for f in range(full + 1) if masks is None else masks:
        if not holds(f, rows[f], co[full ^ f]):
            return ("FAIL", fail % sorted(g.mask_labels(f)))
    return ("PASS", "")


def _check_euler_genus(emb, order):
    # c(F) <= bc(F) <= c(F) + n(F), that is 0 <= s(F) <= n(F): every
    # component has a boundary circle, and the Euler genus of the
    # filled-in surface is at most the cycle rank
    return _every_subset(emb, lambda f, row, co: 0 <= row[2] <= row[3],
                         "Euler count broken at F=%s")


def _check_orientable_parity(emb, order):
    g = emb.cellulation
    return _every_subset(
        emb, lambda f, row, co: row[2] % 2 == 0 or not g.is_orientable(f),
        "odd s on orientable F=%s")


def _check_dual_involution(emb, order):
    g = emb.cellulation
    d = emb.dual_cellulation
    if d.dual().switching_form() != g.switching_form():
        return ("FAIL", "dual(dual(G)) differs from G up to vertex flips")
    link = g._link(0)[0]
    bc = g.n_vertices + sum(g._splice(link, ei) for ei in range(g.n_edges))
    if d.n_vertices != bc or d.boundary_components() != g.n_vertices:
        return ("FAIL", "dual does not swap vertices with boundary components")
    return ("PASS", "")


def _check_partial_dual_identity(emb, order):
    g = emb.cellulation
    if g.partial_dual(0) != g:
        return ("FAIL", "G^{} differs from G")
    return ("PASS", "")


def _partial_dual_facts(emb, a):
    """(v, bc, c, orientable, edge end pairs) of the partial dual G^A,
    built at most once per run_checks call: all that partial-dual-counts
    and partial-duality-connectivity read of it.  The graph itself is not
    kept, since a battery at e = 8 builds 256 of them."""
    def facts():
        ga = emb.cellulation.partial_dual(a)
        return (ga.n_vertices, ga.boundary_components(), ga.components(),
                ga.is_orientable(), ga._ends)
    return _once(emb, ("partial dual", a), facts)


def _check_partial_dual_counts(emb, order):
    g = emb.cellulation
    full = g.full_mask
    rows = _once(emb, "profile", g.subgraph_profile)
    orient = g.is_orientable()
    for h in range(full + 1):
        v, bc, c, orientable, _ = _partial_dual_facts(emb, h)
        # v(G^H) comes from the full walk of H, bc(F_H) from the sweep
        if v != rows[h][1]:
            return ("FAIL", "v(G^H) != bc(F_H) at H=%s" % sorted(g.mask_labels(h)))
        if bc != rows[full ^ h][1]:
            return ("FAIL", "bc(G^H) != bc of complement at H=%s"
                    % sorted(g.mask_labels(h)))
        if c != rows[full][0]:
            return ("FAIL", "partial dual changed component count")
        if orientable != orient:
            return ("FAIL", "partial dual changed orientability")
    return ("PASS", "")


def _check_partial_dual_composition(emb, order):
    g = emb.cellulation
    e = g.n_edges
    full = g.full_mask
    if e <= 5:
        pairs = [(a, b) for a in range(full + 1) for b in range(full + 1)]
    else:
        rng = XorShift64Star(e * 2654435761 + 17)
        pairs = [(rng.below(full + 1), rng.below(full + 1)) for _ in range(25)]
    for a, b in pairs:
        lhs = g.partial_dual(a).partial_dual(b)
        if lhs.switching_form() != g.partial_dual(a ^ b).switching_form():
            return ("FAIL", "(G^A)^B and G^(A xor B) differ at A=%s B=%s"
                    % (sorted(g.mask_labels(a)), sorted(g.mask_labels(b))))
    return ("PASS", "")


def _check_boundary_duality(emb, order):
    return _every_subset(emb, lambda f, row, co: row[1] == co[1],
                         "bc duality broken at F=%s")


def _check_surface_complement(emb, order):
    # 2n(F) = 2k + delta + s(F) - s_perp(F), with c(Sigma - F) and
    # s_perp(F) read off E - F in G* and k = c(Sigma - F) - c(G)
    c, _, delta = emb.surface_invariants()
    return _every_subset(
        emb,
        lambda f, row, co: 2 * row[3] == 2 * (co[0] - c) + delta + row[2] - co[2],
        "nullity relation broken at F=%s", _submasks(emb.marked_mask))


def _check_duality_swap(emb, order):
    var = LaurentPoly.variable
    swapped = _brute_krushkal(emb).substitute({
        "X": var("Y"), "Y": var("X"), "A": var("B"), "B": var("A")})
    if swapped != krushkal(emb.dual_cellulation):
        return ("FAIL", "krushkal(G*) is not the XY/AB swap of krushkal(G)")
    return ("PASS", "")


def _check_tutte_specialization(emb, order):
    _, _, delta = emb.surface_invariants()
    brute = tutte(emb.underlying_marked_graph())
    if brute != specialize(_brute_krushkal(emb), PolyKind.TUTTE, delta=delta):
        return ("FAIL", "krushkal does not specialize to the Tutte polynomial")
    if brute != _quasitree_polynomial(emb, order, PolyKind.TUTTE):
        return ("FAIL", "quasi-tree expansion disagrees with the Tutte polynomial")
    return ("PASS", "")


def _check_br_chain(emb, order):
    g = emb.cellulation
    brute = bollobas_riordan(emb.ribbon_subgraph())
    if brute != _quasitree_polynomial(emb, order, PolyKind.BR):
        return ("FAIL", "quasi-tree expansion disagrees with Bollobas-Riordan")
    if emb.is_cellular:
        spec = specialize(_brute_krushkal(emb), PolyKind.BR, s=g.genus_s())
        if brute != spec:
            return ("FAIL", "krushkal does not specialize to Bollobas-Riordan")
    return ("PASS", "")


def _check_lv_chain(emb, order):
    _, _, delta = emb.surface_invariants()
    brute = las_vergnas(emb)
    if brute != specialize(_brute_krushkal(emb), PolyKind.LV, delta=delta):
        return ("FAIL", "krushkal does not specialize to Las Vergnas")
    if brute != _quasitree_polynomial(emb, order, PolyKind.LV):
        return ("FAIL", "quasi-tree expansion disagrees with Las Vergnas")
    return ("PASS", "")


def _check_krushkal_expansion(emb, order):
    brute = _brute_krushkal(emb)
    if brute != _quasitree_polynomial(emb, order, PolyKind.KRUSHKAL):
        return ("FAIL", "quasi-tree expansion disagrees with krushkal")
    return ("PASS", "")


def _check_quasitree_partition(emb, order):
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
            covered += 1 << leaf.unresolved_mask.bit_count()
        if covered != 1 << comp.n_edges:
            return ("FAIL", "leaf cubes do not partition the subset lattice")
    return ("PASS", "")


def _check_partial_duality_connectivity(emb, order):
    # (G - B)^A = G^A - B, so c(G - B) = c(G^A - B) for every B in E - A.
    # One sweep per A over the subsets F of E - A reads both sides: G/A
    # has the classes of A in G as vertices and every edge of G, so its c
    # on F is c(G - B) for B = (E - A) - F, and the c_d of G^A is
    # c(G^A - F).  The map F -> (E - A) - F reverses the ascending order
    # of the sweep, so the i-th c_d pairs with the (N-1-i)-th c.
    g = emb.cellulation
    e = g.n_edges
    full = g.full_mask
    if e <= 8:
        amasks = list(range(full + 1))
    else:
        rng = XorShift64Star(e * 11400714819323198485 + 3)
        # a sweep costs 2^|E - A|: drop the A's past the subgraph_profile cap
        amasks = [a for a in (rng.below(full + 1) for _ in range(16))
                  if (full ^ a).bit_count() <= 16]
        if not amasks:
            return ("SKIP", "every sampled A leaves more than 16 edges outside it")
    for a in amasks:
        v, _, _, _, ends = _partial_dual_facts(emb, a)
        rest = full ^ a
        _, comp = g._flips(a)
        # _sweep reads only these fields of the two sides
        g_a = SimpleNamespace(n_vertices=max(comp, default=-1) + 1,
                              _ends=[(comp[u], comp[w]) for u, w in g._ends],
                              full_mask=full)
        ga = SimpleNamespace(n_vertices=v, _ends=ends)
        cs, ds = [], []

        def leaf(f, k, c, c_d, bc):
            cs.append(c)
            ds.append(c_d)

        _sweep(g_a, rest, ga, leaf)
        ds.reverse()
        if cs != ds:
            # cs runs over B descending from E - A, as the witness does
            b = rest
            for c, c_d in zip(cs, ds):
                if c != c_d:
                    return ("FAIL", "c(G-B) != c(G^A-B) at A=%s B=%s"
                            % (sorted(g.mask_labels(a)), sorted(g.mask_labels(b))))
                b = (b - 1) & rest
    return ("PASS", "")


def _check_deletion_contraction(emb, order):
    g = emb.cellulation
    base = _brute_krushkal(emb)
    one_x = 1 + LaurentPoly.variable("X")
    one_y = 1 + LaurentPoly.variable("Y")
    marked = emb.marked_mask
    for ei in _iter_bits(marked):
        lbl = g.edge_labels[ei]
        a, b = g._ends[ei]
        rest = marked ^ (1 << ei)
        deleted = EmbeddedGraph(g, rest)
        if a == b:
            _, _, k = emb.complement_invariants(1 << ei)
            if k == 1 and base != one_y * krushkal(deleted):
                return ("FAIL", "separating loop %s fails the (1+Y) factor" % lbl)
            continue
        contracted = EmbeddedGraph(g.contract(lbl), g.mask_labels(rest))
        if g.components(rest) > g.components(marked):
            if base != one_x * krushkal(contracted):
                return ("FAIL", "bridge %s fails the (1+X) factor" % lbl)
        else:
            if base != krushkal(deleted) + krushkal(contracted):
                return ("FAIL", "deletion-contraction fails at %s" % lbl)
    return ("PASS", "")


def _limited(identity, limit, cellular):
    """identity, skipped before it runs on a document that marks a proper
    edge subset when cellular is set, then on a cellulation of more than
    limit edges when limit is not None."""
    def check(emb, order):
        if cellular and not emb.is_cellular:
            return ("SKIP", "the document marks a proper edge subset")
        if limit is not None and emb.cellulation.n_edges > limit:
            return ("SKIP", "more than %d edges" % limit)
        return identity(emb, order)
    return check


# (name, identity, edge limit, needs a cellular document): which identity
# runs at which size, in one place
_TABLE = (
    ("euler-genus", _check_euler_genus, 12, False),
    ("orientable-parity", _check_orientable_parity, 12, False),
    ("dual-involution", _check_dual_involution, None, False),
    ("partial-dual-identity", _check_partial_dual_identity, None, False),
    ("partial-dual-counts", _check_partial_dual_counts, 10, False),
    ("partial-dual-composition", _check_partial_dual_composition, None, False),
    ("partial-duality-connectivity", _check_partial_duality_connectivity,
     None, False),
    ("boundary-duality", _check_boundary_duality, 12, False),
    ("surface-complement", _check_surface_complement, 12, False),
    ("duality-swap", _check_duality_swap, 10, True),
    ("tutte-specialization", _check_tutte_specialization, 10, False),
    ("br-chain", _check_br_chain, 10, False),
    ("lv-chain", _check_lv_chain, 10, True),
    ("krushkal-expansion", _check_krushkal_expansion, 10, True),
    ("quasitree-partition", _check_quasitree_partition, 12, False),
    ("deletion-contraction", _check_deletion_contraction, 10, False),
)

CHECKS = tuple((name, _limited(identity, limit, cellular))
               for name, identity, limit, cellular in _TABLE)


def run_checks(emb, order):
    """Run every identity; returns [(name, status, detail), ...].

    An identity that raises reports FAIL with "<ExceptionType>: <message>"
    as its detail, and the battery goes on with the next one.
    """
    out = []
    token = _battery.set({"emb": emb})
    try:
        for name, fn in CHECKS:
            try:
                status, detail = fn(emb, order)
            except Exception as exc:
                status, detail = "FAIL", "%s: %s" % (type(exc).__name__, exc)
            out.append((name, status, detail))
    finally:
        _battery.reset(token)
    return out
