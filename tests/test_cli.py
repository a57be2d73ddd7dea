import contextlib
import io
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpoly import checks as checks_mod
from qpoly import quasitrees as quasitrees_mod
from qpoly.cli import main
from qpoly.ribbon import EmbeddedGraph, RibbonError, RibbonGraph
from qpoly.textio import parse, random_graph, serialize

from fixture_graphs import FIXTURES, random_twisted_graphs, t1

M1_DOC = "vertex v: a1 a2\nedge e1: a1 a2 -\n"
T1_DOC = "vertex v: a1 b1 a2 b2\nedge ea: a1 a2 +\nedge eb: b1 b2 +\n"
DISCONNECTED_DOC = (
    "vertex u: a1 a2\nvertex w: b1 b2\n"
    "edge e1: a1 a2 +\nedge e2: b1 b2 +\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_doc(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_compute_krushkal_m1(tmp_path, capsys):
    path = write_doc(tmp_path, M1_DOC)
    code, out, err = run_cli(capsys, "compute", "-i", path,
                             "-p", "krushkal", "-m", "brute")
    assert code == 0 and err == ""
    assert out == "A^(1/2) + B^(1/2)\n"


def test_compute_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(M1_DOC))
    code, out, _ = run_cli(capsys, "compute", "-i", "-",
                           "-p", "br", "-m", "brute")
    assert code == 0
    assert out == "Y*Z + 1\n"


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("poly", ["krushkal", "tutte", "br", "lv"])
def test_compute_methods_agree_bytewise(tmp_path, capsys, name, poly):
    path = write_doc(tmp_path, serialize(FIXTURES[name]()))
    code_b, out_b, _ = run_cli(capsys, "compute", "-i", path,
                               "-p", poly, "-m", "brute")
    code_q, out_q, _ = run_cli(capsys, "compute", "-i", path,
                               "-p", poly, "-m", "quasitree")
    assert code_b == code_q == 0
    assert out_b == out_q


def test_compute_lv_needs_cellulation(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC + "marked: ea\n")
    code, _, err = run_cli(capsys, "compute", "-i", path,
                           "-p", "lv", "-m", "brute")
    assert code == 2 and err != ""


def test_compute_quasitree_krushkal_needs_cellulation(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC + "marked: ea\n")
    code, _, err = run_cli(capsys, "compute", "-i", path,
                           "-p", "krushkal", "-m", "quasitree")
    assert code == 2 and "cellular" in err


def test_compute_quasitree_lv_needs_cellulation(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC + "marked: ea\n")
    assert run_cli(capsys, "compute", "-i", path, "-p", "lv",
                   "-m", "quasitree") == (
        2, "", "qp: the quasi-tree route to lv needs a cellular embedding; "
        "for the marked subgraph, feed it as a document of its own\n")


def test_compute_quasitree_br_ignores_cellularity(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC + "marked: ea\n")
    code_b, out_b, _ = run_cli(capsys, "compute", "-i", path,
                               "-p", "br", "-m", "brute")
    code_q, out_q, _ = run_cli(capsys, "compute", "-i", path,
                               "-p", "br", "-m", "quasitree")
    assert code_b == code_q == 0
    assert out_b == out_q


def test_compute_disconnected_document(tmp_path, capsys):
    path = write_doc(tmp_path, DISCONNECTED_DOC)
    code_b, out_b, _ = run_cli(capsys, "compute", "-i", path,
                               "-p", "krushkal", "-m", "brute")
    code_q, out_q, _ = run_cli(capsys, "compute", "-i", path,
                               "-p", "krushkal", "-m", "quasitree")
    assert code_b == code_q == 0
    assert out_b == out_q


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_check_fixture_all_pass(tmp_path, capsys, name):
    path = write_doc(tmp_path, serialize(FIXTURES[name]()))
    code, out, _ = run_cli(capsys, "check", "-i", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    assert len(lines) == len(checks_mod.CHECKS)


def test_check_reports_failure_with_exit_3(tmp_path, capsys, monkeypatch):
    def broken(emb, order):
        return ("FAIL", "rigged")

    monkeypatch.setattr(checks_mod, "CHECKS",
                        checks_mod.CHECKS + (("rigged-check", broken),))
    path = write_doc(tmp_path, M1_DOC)
    code, out, _ = run_cli(capsys, "check", "-i", path)
    assert code == 3
    assert "FAIL rigged-check (rigged)" in out


def test_check_reports_raising_identity_and_goes_on(tmp_path, capsys, monkeypatch):
    def raising(emb, order):
        raise RibbonError("rigged to raise")

    table = checks_mod.CHECKS
    monkeypatch.setattr(checks_mod, "CHECKS",
                        table[:1] + (("raising-check", raising),) + table[1:])
    results = checks_mod.run_checks(*parse(T1_DOC))
    assert [name for name, _, _ in results] == [name for name, _ in checks_mod.CHECKS]
    assert results[1] == ("raising-check", "FAIL", "RibbonError: rigged to raise")
    assert all(status != "FAIL" for _, status, _ in results[:1] + results[2:])
    path = write_doc(tmp_path, T1_DOC)
    code, out, err = run_cli(capsys, "check", "-i", path)
    assert code == 3 and err == ""
    assert "FAIL raising-check (RibbonError: rigged to raise)" in out
    assert len(out.splitlines()) == len(checks_mod.CHECKS)


def test_check_skips_on_marked_subset(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC + "marked: eb\n")
    code, out, _ = run_cli(capsys, "check", "-i", path)
    assert code == 0
    assert "SKIP duality-swap" in out
    assert "FAIL" not in out


def test_check_battery_completes_above_16_edges():
    emb = EmbeddedGraph(random_graph(5, 17, Fraction(3, 10), seed=8))
    results = checks_mod.run_checks(emb, emb.cellulation.edge_labels)
    assert len(results) == len(checks_mod.CHECKS)
    assert all(status != "FAIL" for _, status, _ in results)
    assert ("partial-dual-composition", "PASS", "") in results
    assert ("dual-involution", "PASS", "") in results


def test_partial_duality_connectivity_drops_the_a_past_16_free_edges(monkeypatch):
    # one sweep per A costs 2^|E - A|: at e = 64 every sampled A leaves
    # more than 16 edges outside it, at e = 24 one of the 16 does
    emb = EmbeddedGraph(random_graph(20, 64, Fraction(3, 10), seed=8))
    start = time.perf_counter()
    results = checks_mod.run_checks(emb, emb.cellulation.edge_labels)
    assert time.perf_counter() - start < 5
    assert all(status != "FAIL" for _, status, _ in results)
    assert ("partial-duality-connectivity", "SKIP",
            "every sampled A leaves more than 16 edges outside it") in results
    sweeps = []
    sweep = checks_mod._sweep
    monkeypatch.setattr(checks_mod, "_sweep",
                        lambda g, rest, *args: sweeps.append(rest) or sweep(g, rest, *args))
    emb = EmbeddedGraph(random_graph(5, 24, Fraction(3, 10), seed=8))
    connectivity = dict(checks_mod.CHECKS)["partial-duality-connectivity"]
    assert connectivity(emb, emb.cellulation.edge_labels) == ("PASS", "")
    assert len(sweeps) == 15 and max(rest.bit_count() for rest in sweeps) <= 16


def test_check_compares_partial_duals_at_16_edges(tmp_path, capsys):
    emb = EmbeddedGraph(random_graph(5, 16, Fraction(3, 10), seed=7))
    path = write_doc(tmp_path, serialize(emb.cellulation))
    code, out, err = run_cli(capsys, "check", "-i", path)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "PASS dual-involution" in lines
    assert "PASS partial-dual-composition" in lines


def test_euler_genus_catches_a_lost_boundary_circle(monkeypatch):
    emb, order = parse(T1_DOC)
    euler_genus = dict(checks_mod.CHECKS)["euler-genus"]
    assert euler_genus(emb, order) == ("PASS", "")
    # the profile counts bc by the subset sweep: make its splice lose
    # every split, so that a circle goes missing
    splice = RibbonGraph._splice
    monkeypatch.setattr(RibbonGraph, "_splice",
                        lambda self, link, ei: min(splice(self, link, ei), 0))
    status, detail = euler_genus(emb, order)
    assert status == "FAIL" and detail.startswith("Euler count broken")


def e11_with_bare_vertex():
    g = random_graph(4, 11, Fraction(3, 10), seed=6)
    return RibbonGraph(list(g.vertices) + [("x", ())], g.edges)


# qp check output pinned byte for byte on both sides of every cap: an e = 8
# document with twisted edges and one with 6 edges marked, an e = 10
# document (at the 10-edge cap of partial-dual-counts and the six
# polynomial identities, so no identity skips), an e = 11 and an e = 12
# document (above the 10-edge cap, at most the 12-edge cap of the
# per-subset identities and quasitree-partition), an e = 11 document with
# a bare vertex and an e = 13 document (above every cap).  Two marked
# documents pin the skip rules: at e = 11 with 9 edges marked, the three
# identities that need a cellular document skip for the marking before
# the edge count, and the others skip by the 11 edges of the cellulation,
# not the 9 marked ones; at e = 10 with 7 edges marked, every identity
# that takes a marked document runs
PINNED_CHECK_DOCS = {
    "e8-twisted": lambda: serialize(random_graph(3, 8, Fraction(3, 10), seed=7)),
    "e8-marked": lambda: serialize(EmbeddedGraph(
        random_graph(3, 8, Fraction(3, 10), seed=11),
        ["e1", "e2", "e4", "e5", "e7", "e8"])),
    "e10": lambda: serialize(random_graph(4, 10, Fraction(3, 10), seed=7)),
    "e11": lambda: serialize(random_graph(4, 11, Fraction(3, 10), seed=5)),
    "e12": lambda: serialize(random_graph(4, 12, Fraction(3, 10), seed=6)),
    "e13": lambda: serialize(random_graph(5, 13, Fraction(3, 10), seed=6)),
    "e11-marked": lambda: serialize(EmbeddedGraph(
        random_graph(4, 11, Fraction(3, 10), seed=5),
        ["e%d" % i for i in range(1, 10)])),
    "e10-marked": lambda: serialize(EmbeddedGraph(
        random_graph(4, 10, Fraction(3, 10), seed=7),
        ["e%d" % i for i in range(1, 8)])),
    "e11-bare": lambda: serialize(e11_with_bare_vertex()),
}

PINNED_CHECK_OUTPUT = {
    "e8-twisted": """\
PASS euler-genus
PASS orientable-parity
PASS dual-involution
PASS partial-dual-identity
PASS partial-dual-counts
PASS partial-dual-composition
PASS partial-duality-connectivity
PASS boundary-duality
PASS surface-complement
PASS duality-swap
PASS tutte-specialization
PASS br-chain
PASS lv-chain
PASS krushkal-expansion
PASS quasitree-partition
PASS deletion-contraction
""",
    "e8-marked": """\
PASS euler-genus
PASS orientable-parity
PASS dual-involution
PASS partial-dual-identity
PASS partial-dual-counts
PASS partial-dual-composition
PASS partial-duality-connectivity
PASS boundary-duality
PASS surface-complement
SKIP duality-swap (the document marks a proper edge subset)
PASS tutte-specialization
PASS br-chain
SKIP lv-chain (the document marks a proper edge subset)
SKIP krushkal-expansion (the document marks a proper edge subset)
PASS quasitree-partition
PASS deletion-contraction
""",
    "e10": """\
PASS euler-genus
PASS orientable-parity
PASS dual-involution
PASS partial-dual-identity
PASS partial-dual-counts
PASS partial-dual-composition
PASS partial-duality-connectivity
PASS boundary-duality
PASS surface-complement
PASS duality-swap
PASS tutte-specialization
PASS br-chain
PASS lv-chain
PASS krushkal-expansion
PASS quasitree-partition
PASS deletion-contraction
""",
    "e11": """\
PASS euler-genus
PASS orientable-parity
PASS dual-involution
PASS partial-dual-identity
SKIP partial-dual-counts (more than 10 edges)
PASS partial-dual-composition
PASS partial-duality-connectivity
PASS boundary-duality
PASS surface-complement
SKIP duality-swap (more than 10 edges)
SKIP tutte-specialization (more than 10 edges)
SKIP br-chain (more than 10 edges)
SKIP lv-chain (more than 10 edges)
SKIP krushkal-expansion (more than 10 edges)
PASS quasitree-partition
SKIP deletion-contraction (more than 10 edges)
""",
    "e12": """\
PASS euler-genus
PASS orientable-parity
PASS dual-involution
PASS partial-dual-identity
SKIP partial-dual-counts (more than 10 edges)
PASS partial-dual-composition
PASS partial-duality-connectivity
PASS boundary-duality
PASS surface-complement
SKIP duality-swap (more than 10 edges)
SKIP tutte-specialization (more than 10 edges)
SKIP br-chain (more than 10 edges)
SKIP lv-chain (more than 10 edges)
SKIP krushkal-expansion (more than 10 edges)
PASS quasitree-partition
SKIP deletion-contraction (more than 10 edges)
""",
    "e13": """\
SKIP euler-genus (more than 12 edges)
SKIP orientable-parity (more than 12 edges)
PASS dual-involution
PASS partial-dual-identity
SKIP partial-dual-counts (more than 10 edges)
PASS partial-dual-composition
PASS partial-duality-connectivity
SKIP boundary-duality (more than 12 edges)
SKIP surface-complement (more than 12 edges)
SKIP duality-swap (more than 10 edges)
SKIP tutte-specialization (more than 10 edges)
SKIP br-chain (more than 10 edges)
SKIP lv-chain (more than 10 edges)
SKIP krushkal-expansion (more than 10 edges)
SKIP quasitree-partition (more than 12 edges)
SKIP deletion-contraction (more than 10 edges)
""",
    "e11-marked": """\
PASS euler-genus
PASS orientable-parity
PASS dual-involution
PASS partial-dual-identity
SKIP partial-dual-counts (more than 10 edges)
PASS partial-dual-composition
PASS partial-duality-connectivity
PASS boundary-duality
PASS surface-complement
SKIP duality-swap (the document marks a proper edge subset)
SKIP tutte-specialization (more than 10 edges)
SKIP br-chain (more than 10 edges)
SKIP lv-chain (the document marks a proper edge subset)
SKIP krushkal-expansion (the document marks a proper edge subset)
PASS quasitree-partition
SKIP deletion-contraction (more than 10 edges)
""",
    "e10-marked": """\
PASS euler-genus
PASS orientable-parity
PASS dual-involution
PASS partial-dual-identity
PASS partial-dual-counts
PASS partial-dual-composition
PASS partial-duality-connectivity
PASS boundary-duality
PASS surface-complement
SKIP duality-swap (the document marks a proper edge subset)
PASS tutte-specialization
PASS br-chain
SKIP lv-chain (the document marks a proper edge subset)
SKIP krushkal-expansion (the document marks a proper edge subset)
PASS quasitree-partition
PASS deletion-contraction
""",
    "e11-bare": """\
PASS euler-genus
PASS orientable-parity
PASS dual-involution
PASS partial-dual-identity
SKIP partial-dual-counts (more than 10 edges)
PASS partial-dual-composition
PASS partial-duality-connectivity
PASS boundary-duality
PASS surface-complement
SKIP duality-swap (more than 10 edges)
SKIP tutte-specialization (more than 10 edges)
SKIP br-chain (more than 10 edges)
SKIP lv-chain (more than 10 edges)
SKIP krushkal-expansion (more than 10 edges)
PASS quasitree-partition
SKIP deletion-contraction (more than 10 edges)
""",
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECK_DOCS))
def test_check_stdout_is_pinned(tmp_path, capsys, name):
    path = write_doc(tmp_path, PINNED_CHECK_DOCS[name]())
    code, out, err = run_cli(capsys, "check", "-i", path)
    assert (code, err) == (0, "")
    assert out == PINNED_CHECK_OUTPUT[name]


def test_dual_involution_counts_the_dual_vertices_by_splices(monkeypatch):
    # G*'s vertices are the circles of G's full walk, which
    # boundary_components() counts too, so merge two of those circles: the
    # switching forms tell, and with them blinded, bc(E) by the sweep's
    # splices, which counts the bare vertex as well, still tells that G*
    # lost a vertex.  At e = 11 partial-dual-counts, which also compares
    # the walks with the sweep, skips
    g = e11_with_bare_vertex()
    walk = RibbonGraph._walk

    def merged(self, mask):
        role, walks = walk(self, mask)
        if self is g and mask == g.full_mask:
            walks = [walks[0] + walks[1]] + walks[2:]
        return role, walks

    monkeypatch.setattr(RibbonGraph, "_walk", merged)
    emb = EmbeddedGraph(g)
    results = {name: (status, detail) for name, status, detail
               in checks_mod.run_checks(emb, g.edge_labels)}
    assert results["partial-dual-counts"] == ("SKIP", "more than 10 edges")
    assert results["dual-involution"][0] == "FAIL"
    monkeypatch.setattr(RibbonGraph, "switching_form", lambda self: ())
    dual_involution = dict(checks_mod.CHECKS)["dual-involution"]
    assert dual_involution(emb, g.edge_labels) == (
        "FAIL", "dual does not swap vertices with boundary components")


def test_check_entry_skips_before_the_identity_runs(monkeypatch):
    # an entry called directly, outside run_checks, skips by its limit
    # before any brute sum or expansion starts
    def rigged(*args):
        raise AssertionError("exponential work started")

    for name in ("krushkal", "bollobas_riordan", "expansion_krushkal"):
        monkeypatch.setattr(checks_mod, name, rigged)
    emb = EmbeddedGraph(random_graph(4, 11, Fraction(3, 10), seed=5))
    br_chain = dict(checks_mod.CHECKS)["br-chain"]
    assert br_chain(emb, emb.cellulation.edge_labels) == (
        "SKIP", "more than 10 edges")


KRUSHKAL_IDENTITIES = ("duality-swap", "tutte-specialization", "br-chain",
                       "lv-chain", "krushkal-expansion",
                       "deletion-contraction")


def test_check_sums_brute_krushkal_once_per_battery(monkeypatch):
    emb = EmbeddedGraph(random_graph(3, 8, Fraction(3, 10), seed=7))
    sums = []
    krushkal = checks_mod.krushkal

    def counted(doc):
        sums.append(doc)
        return krushkal(doc)

    monkeypatch.setattr(checks_mod, "krushkal", counted)
    for _ in range(2):
        sums.clear()
        results = checks_mod.run_checks(emb, emb.cellulation.edge_labels)
        assert all(status != "FAIL" for _, status, _ in results)
        assert sum(doc is emb for doc in sums) == 1


def test_check_profiles_g_and_its_dual_once_per_battery(monkeypatch):
    emb = EmbeddedGraph(random_graph(3, 8, Fraction(3, 10), seed=7))
    graphs = []
    profile = RibbonGraph.subgraph_profile

    def counted(g):
        graphs.append(g)
        return profile(g)

    monkeypatch.setattr(RibbonGraph, "subgraph_profile", counted)
    for _ in range(2):
        graphs.clear()
        results = checks_mod.run_checks(emb, emb.cellulation.edge_labels)
        assert all(status != "FAIL" for _, status, _ in results)
        assert sum(g is emb.cellulation for g in graphs) == 1
        assert sum(g is emb.dual_cellulation for g in graphs) == 1


def test_check_reports_raising_krushkal_in_each_identity(monkeypatch):
    emb, order = parse(T1_DOC)
    sums = []
    krushkal = checks_mod.krushkal

    def rigged(doc):
        if doc is emb:
            sums.append(doc)
            raise RibbonError("rigged to raise")
        return krushkal(doc)

    monkeypatch.setattr(checks_mod, "krushkal", rigged)
    results = checks_mod.run_checks(emb, order)
    assert [name for name, _, _ in results] == \
        [name for name, _ in checks_mod.CHECKS]
    assert len(sums) == 1
    for name, status, detail in results:
        if name in KRUSHKAL_IDENTITIES:
            assert (status, detail) == ("FAIL", "RibbonError: rigged to raise")
        else:
            assert status != "FAIL", name


EXPANSION_IDENTITIES = ("tutte-specialization", "br-chain", "lv-chain",
                        "krushkal-expansion")


def test_check_expands_once_per_battery(monkeypatch):
    emb = EmbeddedGraph(random_graph(3, 8, Fraction(3, 10), seed=7))
    calls = []
    expansion = checks_mod.expansion_krushkal

    def counted(comp, order):
        calls.append(comp)
        return expansion(comp, order)

    monkeypatch.setattr(checks_mod, "expansion_krushkal", counted)
    for _ in range(2):
        calls.clear()
        results = checks_mod.run_checks(emb, emb.cellulation.edge_labels)
        assert all(status != "FAIL" for _, status, _ in results)
        assert len(calls) == 1


def test_check_reports_raising_expansion_in_each_identity(monkeypatch):
    emb, order = parse(T1_DOC)
    calls = []

    def rigged(comp, order):
        calls.append(comp)
        raise RibbonError("rigged to raise")

    monkeypatch.setattr(checks_mod, "expansion_krushkal", rigged)
    results = checks_mod.run_checks(emb, order)
    assert len(calls) == 1
    for name, status, detail in results:
        if name in EXPANSION_IDENTITIES:
            assert (status, detail) == ("FAIL", "RibbonError: rigged to raise")
        else:
            assert status != "FAIL", name


def test_quasitree_partition_catches_a_dropped_quasi_tree(monkeypatch):
    emb, order = parse(T1_DOC)
    partition = dict(checks_mod.CHECKS)["quasitree-partition"]
    assert partition(emb, order) == ("PASS", "")
    # drop one quasi-tree from the scan wherever it is bound: the
    # resolution tree must not be built from it
    scan = quasitrees_mod.quasi_tree_masks
    for module in (checks_mod, quasitrees_mod):
        monkeypatch.setattr(module, "quasi_tree_masks", lambda g: scan(g)[1:])
    assert partition(emb, order) == (
        "FAIL", "leaf count differs from the quasi-tree count")


def test_quasitrees_t1(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC)
    code, out, _ = run_cli(capsys, "quasitrees", "-i", path)
    assert code == 0
    assert out.splitlines() == [
        "Q={} DI={} I_o={} I_n={} DE={eb} E_o={ea} E_n={}",
        "Q={ea,eb} DI={eb} I_o={ea} I_n={} DE={} E_o={} E_n={}",
    ]


def test_quasitrees_respects_order_line(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC + "order: eb ea\n")
    code, out, _ = run_cli(capsys, "quasitrees", "-i", path)
    assert code == 0
    assert out.splitlines() == [
        "Q={} DI={} I_o={} I_n={} DE={ea} E_o={eb} E_n={}",
        "Q={ea,eb} DI={ea} I_o={eb} I_n={} DE={} E_o={} E_n={}",
    ]


def test_quasitrees_marked_subgraph(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC + "marked: ea\n")
    code, out, _ = run_cli(capsys, "quasitrees", "-i", path)
    assert code == 0
    # the marked subgraph is a single untwisted loop on the torus
    assert out.splitlines() == ["Q={} DI={} I_o={} I_n={} DE={} E_o={ea} E_n={}"]


TWISTED_MARKED_DOC = (
    "vertex v1: h3 h5 h12 h2\n"
    "vertex v2: h10 h9 h11 h1\n"
    "vertex v3: h7 h6 h4 h8\n"
    "edge e1: h1 h2 -\n"
    "edge e2: h3 h4 -\n"
    "edge e3: h5 h6 -\n"
    "edge e4: h7 h8 +\n"
    "edge e5: h9 h10 -\n"
    "edge e6: h11 h12 -\n"
    "marked: e1 e2 e3 e5 e6\n"
    "order: e6 e3 e1 e5 e4 e2\n"
)


def test_quasitrees_twisted_marked_ordered_bytes(tmp_path, capsys):
    path = write_doc(tmp_path, TWISTED_MARKED_DOC)
    code, out, err = run_cli(capsys, "quasitrees", "-i", path)
    assert code == 0 and err == ""
    assert out == (
        "Q={e1,e2} DI={e1,e2} I_o={} I_n={} DE={} E_o={e3,e6} E_n={e5}\n"
        "Q={e1,e3} DI={e1} I_o={e3} I_n={} DE={e2} E_o={e6} E_n={e5}\n"
        "Q={e1,e2,e5} DI={e1,e2} I_o={} I_n={e5} DE={} E_o={e3,e6} E_n={}\n"
        "Q={e1,e3,e5} DI={e1} I_o={e3} I_n={e5} DE={e2} E_o={e6} E_n={}\n"
        "Q={e2,e6} DI={e2} I_o={e6} I_n={} DE={e1} E_o={e3} E_n={e5}\n"
        "Q={e3,e6} DI={} I_o={e3,e6} I_n={} DE={e1,e2} E_o={} E_n={e5}\n"
        "Q={e2,e5,e6} DI={e2} I_o={e6} I_n={e5} DE={e1} E_o={e3} E_n={}\n"
        "Q={e3,e5,e6} DI={} I_o={e3,e6} I_n={e5} DE={e1,e2} E_o={} E_n={}\n"
    )


BARE_VERTEX_DOC = (
    "vertex u: a1 b1 a2\n"
    "vertex w: b2 c1 c2\n"
    "vertex y: d1 d2\n"
    "vertex x:\n"
    "edge e1: a1 a2 -\n"
    "edge e2: b1 b2 +\n"
    "edge e3: c1 c2 +\n"
    "edge e4: d1 d2 -\n"
)

BRUTE_BYTES = {
    (TWISTED_MARKED_DOC, "krushkal"): (0, (
        "X^2*A^(1/2) + X^2*B^(1/2) + 2*X*Y*A^(1/2) + 2*X*Y*B^(1/2)"
        " + 4*X*A^(1/2) + 4*X*B^(1/2) + Y^2*A^(1/2) + Y^2*B^(1/2)"
        " + 4*Y*A^(1/2) + 4*Y*B^(1/2) + 4*A^(1/2) + 4*B^(1/2)\n"), ""),
    (TWISTED_MARKED_DOC, "tutte"): (0, (
        "X^2*Y + X^2 + 2*X*Y^2 + 6*X*Y + 4*X + Y^3 + 5*Y^2 + 8*Y + 4\n"), ""),
    (TWISTED_MARKED_DOC, "br"): (0, (
        "X^2*Y*Z + X^2 + 2*X*Y^2*Z + 4*X*Y*Z + 2*X*Y + 4*X + Y^3*Z"
        " + 4*Y^2*Z + Y^2 + 4*Y*Z + 4*Y + 4\n"), ""),
    (TWISTED_MARKED_DOC, "lv"): (
        2, "", "qp: the Las Vergnas polynomial needs a cellular embedding\n"),
    (BARE_VERTEX_DOC, "krushkal"): (0, (
        "X*Y*A + 2*X*Y*A^(1/2)*B^(1/2) + X*Y*B + X*A + 2*X*A^(1/2)*B^(1/2)"
        " + X*B + Y*A + 2*Y*A^(1/2)*B^(1/2) + Y*B + A + 2*A^(1/2)*B^(1/2)"
        " + B\n"), ""),
    (BARE_VERTEX_DOC, "tutte"): (0, (
        "X*Y^3 + 3*X*Y^2 + 3*X*Y + X + Y^3 + 3*Y^2 + 3*Y + 1\n"), ""),
    (BARE_VERTEX_DOC, "br"): (0, (
        "X*Y^3*Z^2 + X*Y^2*Z^2 + 2*X*Y^2*Z + 2*X*Y*Z + X*Y + X + Y^3*Z^2"
        " + Y^2*Z^2 + 2*Y^2*Z + 2*Y*Z + Y + 1\n"), ""),
    (BARE_VERTEX_DOC, "lv"): (0, "X*Y*Z^2 + 2*X*Y*Z + X*Y\n", ""),
}


@pytest.mark.parametrize("doc, poly", sorted(BRUTE_BYTES))
def test_compute_brute_bytes(tmp_path, capsys, doc, poly):
    path = write_doc(tmp_path, doc)
    got = run_cli(capsys, "compute", "-i", path, "-p", poly, "-m", "brute")
    assert got == BRUTE_BYTES[doc, poly]


@pytest.mark.parametrize("doc", [TWISTED_MARKED_DOC, BARE_VERTEX_DOC])
def test_compute_quasitree_tutte_bytes(tmp_path, capsys, doc):
    # the Tutte polynomial reads the marked subgraph only, so the
    # quasi-tree route takes a marked document, and a bare vertex
    path = write_doc(tmp_path, doc)
    got = run_cli(capsys, "compute", "-i", path, "-p", "tutte",
                  "-m", "quasitree")
    assert got == BRUTE_BYTES[doc, "tutte"]


DISCONNECTED_MARKED_DOC = (
    "vertex u: a1 a2 c1\nvertex w: b1 b2 c2\n"
    "edge e1: a1 a2 +\nedge e2: b1 b2 +\nedge e3: c1 c2 +\n"
    "marked: e1 e2\n"
)


def test_quasitrees_disconnected_rejected(tmp_path, capsys):
    """A disconnected document, or a disconnected marked subgraph of a
    connected one, exits 2 with one qp: line."""
    for i, doc in enumerate([DISCONNECTED_DOC, DISCONNECTED_MARKED_DOC]):
        path = write_doc(tmp_path, doc, "g%d.txt" % i)
        assert run_cli(capsys, "quasitrees", "-i", path) == (
            2, "", "qp: quasi-trees are defined for connected graphs\n")


def scan_listing(doc):
    """The qp quasitrees listing of doc built from the 2^e subset scan:
    every quasi-tree of the marked subgraph, ascending, with activities
    under the document order restricted to it."""
    emb, order = parse(doc)
    g = emb.ribbon_subgraph()
    sub_order = [lbl for lbl in order if lbl in g.edge_labels]
    out = ""
    for q in quasitrees_mod.quasi_tree_masks(g):
        classes = quasitrees_mod.activities(g, sub_order, q).as_dict()
        out += " ".join(
            ["Q={%s}" % ",".join(g.mask_labels(q))]
            + ["%s={%s}" % (key, ",".join(
                lbl for lbl in g.edge_labels if lbl in val))
               for key, val in classes.items()]) + "\n"
    return out


def test_quasitrees_lists_the_scan(tmp_path, capsys):
    """qp quasitrees lists the leaves of the descent; the listing equals
    the one read off the subset scan, byte for byte, on a marked document
    and on the fixtures and random graphs under two shuffled orders."""
    rng = random.Random(23)
    docs = [TWISTED_MARKED_DOC]
    for g in [make() for make in FIXTURES.values()] + random_twisted_graphs():
        for _ in range(2):
            order = list(g.edge_labels)
            rng.shuffle(order)
            docs.append(serialize(EmbeddedGraph(g), order))
    for i, doc in enumerate(docs):
        path = write_doc(tmp_path, doc, "g%d.txt" % i)
        assert run_cli(capsys, "quasitrees", "-i", path) == (
            0, scan_listing(doc), ""), doc


def test_dual_m1_self_dual(tmp_path, capsys):
    path = write_doc(tmp_path, M1_DOC)
    code, out, _ = run_cli(capsys, "dual", "-i", path)
    assert code == 0
    emb, _ = parse(out)
    assert emb.cellulation == FIXTURES["M1"]()


def test_dual_swaps_vertices_and_faces(tmp_path, capsys):
    path = write_doc(tmp_path, serialize(FIXTURES["TH"]()))
    code, out, _ = run_cli(capsys, "dual", "-i", path)
    assert code == 0
    emb, _ = parse(out)
    assert emb.cellulation.n_vertices == 3
    assert emb.cellulation.boundary_components() == 2


def test_dual_partial(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC)
    code, out, _ = run_cli(capsys, "dual", "-i", path, "-H", "ea")
    assert code == 0
    emb, _ = parse(out)
    assert emb.cellulation == t1().partial_dual(["ea"])
    assert emb.cellulation.n_vertices == 2


def test_dual_keeps_marked_and_order(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC + "marked: eb\norder: eb ea\n")
    code, out, _ = run_cli(capsys, "dual", "-i", path, "-H", "ea")
    assert code == 0
    emb, order = parse(out)
    assert emb.marked == frozenset({"eb"})
    assert order == ("eb", "ea")


def test_dual_unknown_edge(tmp_path, capsys):
    path = write_doc(tmp_path, T1_DOC)
    code, _, err = run_cli(capsys, "dual", "-i", path, "-H", "zz")
    assert code == 2 and "zz" in err


def test_random_roundtrip_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "random", "-v", "4", "-e", "6",
                            "-t", "0.3", "-s", "11")
    code2, out2, _ = run_cli(capsys, "random", "-v", "4", "-e", "6",
                             "-t", "3/10", "-s", "11")
    assert code == code2 == 0
    assert out1 == out2
    emb, _ = parse(out1)
    assert emb.cellulation.n_vertices == 4
    assert emb.cellulation.n_edges == 6
    assert emb.cellulation.components() == 1


def test_random_infeasible(capsys):
    code, _, err = run_cli(capsys, "random", "-v", "5", "-e", "2")
    assert code == 2 and err != ""


def test_random_bad_probability(capsys):
    code, _, err = run_cli(capsys, "random", "-v", "2", "-e", "2", "-t", "huh")
    assert code == 2 and err != ""
    for v, e in (("1", "0"), ("2", "1")):
        for t in ("2", "-1"):
            code, out, err = run_cli(capsys, "random", "-v", v, "-e", e, "-t", t)
            assert (code, out, err) == \
                (2, "", "qp: probability must lie in [0, 1]\n"), (v, e, t)


def test_random_zero_denominator(capsys):
    code, out, err = run_cli(capsys, "random", "-v", "2", "-e", "2",
                             "-t", "1/0")
    assert code == 2 and out == ""
    assert err.startswith("qp: ") and len(err.splitlines()) == 1


def test_undecodable_input_exit_code(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_bytes(b"vertex v: a1 a2\nedge e1: a1 a2 \xff\n")
    code, _, err = run_cli(capsys, "compute", "-i", str(p),
                           "-p", "tutte", "-m", "brute")
    assert code == 1 and "cannot read" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, "vertex v: a1\nedge e1: a1 a1 +\n")
    code, _, err = run_cli(capsys, "compute", "-i", path,
                           "-p", "tutte", "-m", "brute")
    assert code == 1 and "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "check", "-i", "/no/such/file")
    assert code == 1 and "cannot read" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "-i", "x", "-p", "nope", "-m", "brute"])
    assert exc.value.code == 2


def test_console_script_installed(tmp_path):
    path = write_doc(tmp_path, M1_DOC)
    proc = subprocess.run(["qp", "compute", "-i", path,
                           "-p", "krushkal", "-m", "quasitree"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "A^(1/2) + B^(1/2)\n"


# ----------------------------------------------------------------------
# fuzzed documents


@st.composite
def ribbon_documents(draw):
    """A document of at most 6 edges: one or two random ribbon graphs side
    by side, an optional marked subset and order line, and then maybe a
    few edits (a line dropped, repeated or cut short, a token swapped for
    another) that usually leave it malformed."""
    vertices, edges = [], []
    for prefix in ("", "x")[:draw(st.integers(1, 2))]:
        room = 6 - len(edges)
        v = draw(st.integers(1, min(4, room + 1)))
        e = draw(st.integers(v - 1, room))
        twist = draw(st.sampled_from([0, Fraction(3, 10), 1]))
        part = random_graph(v, e, twist, seed=draw(st.integers(1, 10 ** 6)))
        vertices += [(prefix + name, tuple(prefix + h for h in rot))
                     for name, rot in part.vertices]
        edges += [(prefix + label, (prefix + h1, prefix + h2), sign)
                  for label, (h1, h2), sign in part.edges]
    g = RibbonGraph(vertices, edges)
    labels = list(g.edge_labels)
    marked = None
    if labels:
        marked = draw(st.none() | st.lists(st.sampled_from(labels), unique=True))
    order = draw(st.permutations(labels))
    lines = serialize(EmbeddedGraph(g, marked), order).splitlines()
    tokens = ["v1", "h1", "e1", "+", "-", ":", "#", "vertex", "edge",
              "marked:", "order:", "", "e9", "h2 h2"]
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "cut", "swap"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(tokens))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n", labels


@given(ribbon_documents(), st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_documents_exit_cleanly(document, data):
    """Valid or not, a document gives a documented exit code and at most
    one qp: line on stderr, never a traceback."""
    text, labels = document
    argv = [data.draw(st.sampled_from(["compute", "check", "quasitrees", "dual"]))]
    if argv[0] == "compute":
        argv += ["-p", data.draw(st.sampled_from(["krushkal", "tutte", "br", "lv"])),
                 "-m", data.draw(st.sampled_from(["brute", "quasitree"]))]
    elif argv[0] == "dual":
        h = data.draw(st.lists(st.sampled_from(labels + ["e9"]), max_size=3))
        argv += ["-H", ",".join(h)] if h else []
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["-i", "-"])
    finally:
        sys.stdin = stdin
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (code, argv, text)
    assert "Traceback" not in err, (argv, text)
    assert sum(line.startswith("qp:") for line in err.splitlines()) <= 1, err
