"""The tracer: self-time arithmetic, patching of every binding, and
traced results equal to untraced ones."""

import pytest

import qpoly
import qpoly.checks
import qpoly.cli
import qpoly.invariants
import qpoly.laurent
import qpoly.matroid
import qpoly.quasitrees
import tracer as tracer_mod
from tracer import Tracer


@pytest.fixture
def installed():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0])
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: next(clock))
    t = Tracer()
    a = t.open("a")          # 0
    b = t.open("b")          # 1
    d = t.open("d")          # 2
    t.close(d)               # 2.5
    t.close(b)               # 3
    c = t.open("b")          # 4
    t.close(c)               # 5
    t.close(a)               # 10
    assert list(t.self_times()) == [10 - 2 - 1, 2 - 0.5, 0.5, 1]
    assert list(t.parent) == [-1, 0, 1, 0]
    assert t.summary() == {"a": [1, 7.0, 10.0], "b": [2, 2.5, 3.0],
                           "d": [1, 0.5, 0.5]}


def test_install_patches_every_binding_and_uninstall_restores():
    originals = (qpoly.quasitrees.quasi_tree_masks, qpoly.invariants.tutte,
                 qpoly.laurent.LaurentPoly.__add__, qpoly.checks.CHECKS)
    t = Tracer()
    t.install()
    try:
        wrapped = qpoly.quasitrees.quasi_tree_masks
        assert wrapped is not originals[0]
        assert qpoly.checks.quasi_tree_masks is wrapped
        assert qpoly.cli.quasi_tree_masks is wrapped
        assert qpoly.checks.tutte is qpoly.quasitrees.tutte is qpoly.tutte
        assert qpoly.tutte is not originals[1]
        lp = qpoly.laurent.LaurentPoly
        assert lp.__radd__ is lp.__add__ is not originals[2]
        assert lp.__rmul__ is lp.__mul__
        assert qpoly.matroid.RankFunction.__call__ is qpoly.matroid.RankFunction.rank
        assert all(fn.__wrapped__ is orig for (_, fn), (_, orig)
                   in zip(qpoly.checks.CHECKS, originals[3]))
    finally:
        t.uninstall()
    assert (qpoly.quasitrees.quasi_tree_masks, qpoly.invariants.tutte,
            qpoly.laurent.LaurentPoly.__add__, qpoly.checks.CHECKS) == originals
    assert qpoly.cli.quasi_tree_masks is originals[0]


def test_dunder_aliases_record_spans(installed):
    x = qpoly.LaurentPoly.variable("X")
    _ = 1 + x, 2 * x, x - 1
    names = [installed.names[i] for i in installed.name_id]
    assert names.count("laurent.add") == 2
    assert names.count("laurent.mul") == 1
    assert installed.copied_terms == 2


def _small_doc():
    g = qpoly.random_graph(2, 7, "3/10", seed=3)
    return qpoly.EmbeddedGraph(g), g.edge_labels


def test_traced_results_and_counts_repeat():
    emb, order = _small_doc()
    plain = qpoly.compute_polynomial(emb, order, "krushkal", "quasitree")
    runs = []
    for _ in range(2):
        # A fresh document each time: EmbeddedGraph caches its dual.
        emb, order = _small_doc()
        t = Tracer()
        t.install()
        try:
            t.current_op = 0
            traced = qpoly.compute_polynomial(emb, order, "krushkal", "quasitree")
            qpoly.run_checks(emb, order)
        finally:
            t.uninstall()
        assert traced == plain
        runs.append((t.op_counts(), t.minor_keys_distinct()))
    counts, distinct = runs[0]
    assert runs[0] == runs[1]
    assert counts[0]["subsets_scanned"] >= 1 << 7
    assert 0 < counts[0]["quasi_trees"] < counts[0]["subsets_scanned"]
    assert counts[0]["invariants.tutte_minor.calls"] >= distinct > 0


def test_minor_tutte_is_told_apart_from_plain_tutte(installed):
    emb, order = _small_doc()
    qpoly.tutte(emb.cellulation.underlying_graph())
    qpoly.compute_polynomial(emb, order, "br", "quasitree")
    summary = installed.summary()
    assert summary["invariants.tutte"][0] == 1
    assert summary["invariants.tutte_minor"][0] > 0
