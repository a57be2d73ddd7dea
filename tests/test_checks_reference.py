"""Six identities of the battery against reference loops that recount
every subset on its own.  For the five per-subset identities that is a
union-find and a corner walk of G per subset, and of G* where the
identity reads the dual, instead of the two subgraph profiles, filled by
the subset sweep, that run_checks shares; for partial-duality-
connectivity, two union-finds per pair (A, B) instead of one subset
sweep per A.  Verdicts and FAIL details must agree, also when a count is
rigged to be wrong."""

import itertools
import random
from fractions import Fraction

import pytest

from qpoly import checks as checks_mod
from qpoly.graphs import MultiGraph
from qpoly.invariants import _submasks
from qpoly.ribbon import EmbeddedGraph, RibbonGraph
from qpoly.textio import XorShift64Star, random_graph

from fixture_graphs import (
    FIXTURES,
    disconnected_with_bare_vertex,
    random_twisted_graphs,
)


def reference_euler_genus(emb, order):
    g = emb.cellulation
    if g.n_edges > 12:
        return ("SKIP", "more than 12 edges")
    nv = g.n_vertices
    for f in range(g.full_mask + 1):
        c = g.components(f)
        if not c <= g.boundary_components(f) <= f.bit_count() - nv + 2 * c:
            return ("FAIL", "Euler count broken at F=%s" % sorted(g.mask_labels(f)))
    return ("PASS", "")


def reference_orientable_parity(emb, order):
    g = emb.cellulation
    if g.n_edges > 12:
        return ("SKIP", "more than 12 edges")
    for f in range(g.full_mask + 1):
        if g.is_orientable(f) and g.genus_s(f) % 2 != 0:
            return ("FAIL", "odd s on orientable F=%s" % sorted(g.mask_labels(f)))
    return ("PASS", "")


def reference_partial_dual_counts(emb, order):
    g = emb.cellulation
    if g.n_edges > 10:
        return ("SKIP", "more than 10 edges")
    full = g.full_mask
    orient = g.is_orientable()
    for h in range(full + 1):
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


def reference_boundary_duality(emb, order):
    g = emb.cellulation
    if g.n_edges > 12:
        return ("SKIP", "more than 12 edges")
    d = emb.dual_cellulation
    full = g.full_mask
    for f in range(full + 1):
        if g.boundary_components(f) != d.boundary_components(full ^ f):
            return ("FAIL", "bc duality broken at F=%s" % sorted(g.mask_labels(f)))
    return ("PASS", "")


def reference_surface_complement(emb, order):
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


def reference_partial_duality_connectivity(emb, order):
    g = emb.cellulation
    e = g.n_edges
    full = g.full_mask
    if e <= 8:
        amasks = list(range(full + 1))
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


REFERENCES = {
    "euler-genus": reference_euler_genus,
    "orientable-parity": reference_orientable_parity,
    "partial-dual-counts": reference_partial_dual_counts,
    "partial-duality-connectivity": reference_partial_duality_connectivity,
    "boundary-duality": reference_boundary_duality,
    "surface-complement": reference_surface_complement,
}


def marked_pieces(g, mask):
    """The number of components of the marked subgraph that hold edges."""
    return sum(1 for comp in g.restrict(mask).split_components() if comp.n_edges)


def documents():
    """The fixtures, the pinned random graphs, and random documents with
    5 to 8, 11 and 12 edges: cellular, marked at random, and marked in two
    or more pieces."""
    docs = [EmbeddedGraph(make()) for make in FIXTURES.values()]
    docs += [EmbeddedGraph(g) for g in
             random_twisted_graphs() + [disconnected_with_bare_vertex()]]
    rng = random.Random(67)
    for seed in range(1, 17):
        e = 5 + seed % 4 if seed <= 14 else 11 + seed % 2
        g = random_graph(rng.randint(1, 6), e,
                         rng.choice((0, Fraction(3, 10))), seed=seed)
        docs.append(EmbeddedGraph(g))
        docs.append(EmbeddedGraph(g, rng.randrange(g.full_mask + 1)))
        for _ in range(50):
            mask = rng.randrange(g.full_mask + 1)
            if marked_pieces(g, mask) >= 2:
                docs.append(EmbeddedGraph(g, mask))
                break
    return docs


DOCUMENTS = documents()


def test_documents_cover_markings_and_sizes():
    split = [emb for emb in DOCUMENTS
             if marked_pieces(emb.cellulation, emb.marked_mask) >= 2]
    assert len(DOCUMENTS) >= 60
    assert sum(not emb.is_cellular for emb in DOCUMENTS) >= 25
    assert len(split) >= 10
    assert {11, 12} <= {emb.cellulation.n_edges for emb in DOCUMENTS}


@pytest.fixture(autouse=True)
def battery_of_six(monkeypatch):
    """run_checks with the six identities only, in battery order."""
    monkeypatch.setattr(checks_mod, "CHECKS", tuple(
        (name, fn) for name, fn in checks_mod.CHECKS if name in REFERENCES))


def compare_with_references(emb):
    order = emb.cellulation.edge_labels
    results = {name: (status, detail)
               for name, status, detail in checks_mod.run_checks(emb, order)}
    assert list(results) == [name for name, _ in checks_mod.CHECKS]
    for name, reference in REFERENCES.items():
        assert results[name] == reference(emb, order), (emb, name)
    return results


def test_identities_match_the_reference_loops():
    for emb in DOCUMENTS:
        results = compare_with_references(emb)
        assert all(results[name][0] == "PASS" for name in REFERENCES
                   if name != "partial-dual-counts" or emb.cellulation.n_edges <= 10)


def cross_dual_ribbon_sides(emb):
    """Rig the bc of G* where both the subset sweep and the full walk read
    it: every edge of G* pairs its corners along the ribbon sides of the
    opposite twist."""
    d = emb.dual_cellulation
    d._sides = tuple((s[1], s[0], s[3], s[2]) for s in d._sides)


def shifted_partial_dual(partial_dual):
    """partial_dual, but for A with |A| % 3 == 1 and A != E the partial
    dual on A and the lowest edge of E - A."""
    def rigged(self, edges):
        a = self._norm_mask(edges)
        rest = self.full_mask ^ a
        if rest and a.bit_count() % 3 == 1:
            a |= rest & -rest
        return partial_dual(self, a)
    return rigged


def swapped_partial_dual(partial_dual):
    """partial_dual, but for A with |A| % 3 == 1 the two highest edges of
    E - A trade ends and twists in the result: the first B that holds one
    of them and not the other comes late in the descending order of B,
    so the witness is seldom B = E - A."""
    def rigged(self, edges):
        a = self._norm_mask(edges)
        h = partial_dual(self, a)
        rest = self.full_mask ^ a
        if rest.bit_count() < 2 or a.bit_count() % 3 != 1:
            return h
        j = rest.bit_length() - 1
        i = (rest ^ (1 << j)).bit_length() - 1
        eds = list(h.edges)
        (li, pi, si), (lj, pj, sj) = eds[i], eds[j]
        eds[i], eds[j] = (li, pj, sj), (lj, pi, si)
        return RibbonGraph(h.vertices, eds)
    return rigged


@pytest.mark.parametrize("fault,failing", [
    ("dual-bc", {"boundary-duality", "surface-complement"}),
    ("orientable", {"orientable-parity"}),
    ("partial-dual", {"partial-duality-connectivity"}),
    ("swapped-ends", {"partial-duality-connectivity"}),
])
def test_identities_match_the_reference_loops_under_rigged_counts(
        monkeypatch, fault, failing):
    if fault == "orientable":
        monkeypatch.setattr(RibbonGraph, "is_orientable",
                            lambda self, edges=None: True)
    if fault in ("partial-dual", "swapped-ends"):
        rig = (shifted_partial_dual if fault == "partial-dual"
               else swapped_partial_dual)
        monkeypatch.setattr(RibbonGraph, "partial_dual",
                            rig(RibbonGraph.partial_dual))
    caught = {name: 0 for name in failing}
    for emb in DOCUMENTS:
        if emb.cellulation.n_edges > 8:
            continue
        if fault == "dual-bc":
            # a fresh cellulation, so that no other test sees the rigged
            # dual that it caches
            g = emb.cellulation
            emb = EmbeddedGraph(RibbonGraph(g.vertices, g.edges), emb.marked_mask)
            cross_dual_ribbon_sides(emb)
        results = compare_with_references(emb)
        for name in failing:
            caught[name] += results[name][0] == "FAIL"
    # the rigged counts are caught, not only matched: the bc of G* with
    # crossed sides, a wrong orientability where some s(F) is odd, a
    # partial dual on one edge too many or with two edges' ends traded
    assert all(n >= 20 for n in caught.values()), caught


def test_a_lost_split_in_the_subset_sweep_fails_the_battery(monkeypatch):
    # every seventh split that the splice finds is lost: the profiles of G
    # and G* come from the sweep, so the per-subset identities see it
    splits = itertools.count(1)
    splice = RibbonGraph._splice

    def lossy(self, link, ei):
        delta = splice(self, link, ei)
        return 0 if delta == 1 and next(splits) % 7 == 0 else delta

    monkeypatch.setattr(RibbonGraph, "_splice", lossy)
    emb = EmbeddedGraph(random_graph(4, 11, Fraction(3, 10), seed=5))
    results = {name: status for name, status, _ in
               checks_mod.run_checks(emb, emb.cellulation.edge_labels)}
    assert results["boundary-duality"] == "FAIL", results
    assert results["euler-genus"] == "FAIL", results


def test_partial_duality_connectivity_labels_once_per_a(monkeypatch):
    # one component labelling of A in G per A, not one per pair (A, B):
    # at most 2^8 labellings of G where the pairs number 3^8.  is_orientable
    # runs its own parity union-find and calls no _flips
    calls = []
    flips = RibbonGraph._flips

    def counted(self, mask):
        calls.append(self)
        return flips(self, mask)

    monkeypatch.setattr(RibbonGraph, "_flips", counted)
    emb = EmbeddedGraph(random_graph(3, 8, Fraction(3, 10), seed=7))
    status, _ = checks_mod._check_partial_duality_connectivity(
        emb, emb.cellulation.edge_labels)
    assert status == "PASS"
    labellings = sum(graph is emb.cellulation for graph in calls)
    assert 0 < labellings <= 2 ** 8, labellings


def test_partial_duality_connectivity_builds_no_multigraph(monkeypatch):
    # the sweep reads G/A and G^A from their vertex counts and end pairs
    def refused(self, vertices, edges):
        raise AssertionError("MultiGraph built")

    monkeypatch.setattr(MultiGraph, "__init__", refused)
    emb = EmbeddedGraph(random_graph(3, 8, Fraction(3, 10), seed=7))
    status, detail = checks_mod._check_partial_duality_connectivity(
        emb, emb.cellulation.edge_labels)
    assert (status, detail) == ("PASS", "")


def test_partial_duals_are_built_once_per_battery(monkeypatch):
    # partial-dual-counts and partial-duality-connectivity read every G^A
    # at e = 8, and share one build of each
    emb = EmbeddedGraph(random_graph(3, 8, Fraction(3, 10), seed=7))
    emb.dual_cellulation
    built = []
    partial_dual = RibbonGraph.partial_dual

    def counted(self, edges):
        built.append(self._norm_mask(edges))
        return partial_dual(self, edges)

    monkeypatch.setattr(RibbonGraph, "partial_dual", counted)
    results = checks_mod.run_checks(emb, emb.cellulation.edge_labels)
    assert {status for _, status, _ in results} == {"PASS"}
    assert sorted(built) == list(range(256))
