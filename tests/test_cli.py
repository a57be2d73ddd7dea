import io
import subprocess
import sys
from fractions import Fraction

import pytest

from qpoly import checks as checks_mod
from qpoly.cli import main
from qpoly.ribbon import EmbeddedGraph, RibbonError
from qpoly.textio import parse, random_graph, serialize

from fixture_graphs import FIXTURES, t1

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
    assert ("partial-dual-composition", "SKIP",
            "more than 16 edges") in results


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


def test_quasitrees_disconnected_rejected(tmp_path, capsys):
    path = write_doc(tmp_path, DISCONNECTED_DOC)
    code, _, err = run_cli(capsys, "quasitrees", "-i", path)
    assert code == 2 and err != ""


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
