"""Ops that raise or answer wrongly are counted as failed and the pass
goes on; aggregation of passes into metrics."""

import types

import pytest

import qpoly
import run
import worker
import workloads
from workloads import Op


def _docs():
    g = qpoly.random_graph(2, 6, "3/10", seed=4)
    text = qpoly.serialize(qpoly.EmbeddedGraph(g))
    emb, order = qpoly.parse(text)
    return {"d": (text, emb, order)}


def _digests(docs, polys):
    _, emb, order = docs["d"]
    return {("d", p): worker.digest(qpoly.compute_polynomial(
        emb, order, p, "brute").canonical_text()) for p in polys}


def test_forced_failures_are_counted_and_do_not_abort():
    docs = _docs()
    _, emb, order = docs["d"]
    true_br = qpoly.compute_polynomial(emb, order, "br", "brute")

    def compute(emb, order, poly, method):
        if poly == "tutte":
            raise RuntimeError("forced")
        if poly == "lv" and method == "brute":
            return true_br  # a wrong answer
        return qpoly.compute_polynomial(emb, order, poly, method)

    def checks(emb, order):
        return [("a", "PASS", ""), ("b", "FAIL", "forced")]

    fake = types.SimpleNamespace(compute_polynomial=compute, run_checks=checks)
    ops = [Op("quasitree", "d", "tutte"), Op("brute", "d", "lv"),
           Op("quasitree", "d", "lv"), Op("check", "d"),
           Op("brute", "d", "br"), Op("quasitree", "d", "br")]
    records = worker.run_ops(fake, docs, ops)
    assert len(records) == len(ops)
    worker.verify(records, _digests(docs, ("tutte", "lv", "br")))
    outcomes = [r.outcome for r in records]
    assert outcomes == ["raised", "wrong", "ok", "wrong", "ok", "ok"]
    assert "forced" in records[0].detail
    assert records[3].detail == "FAIL b"


def test_a_result_with_another_digest_is_wrong():
    docs = _docs()
    ops = [Op("quasitree", "d", "krushkal")]
    records = worker.run_ops(qpoly, docs, ops)
    worker.verify(records, {("d", "krushkal"): "0" * 32})
    assert records[0].outcome == "wrong"
    assert "recorded digest" in records[0].detail


def test_a_document_without_a_recorded_digest_is_refused():
    with pytest.raises(worker.MissingDigest, match="expected.py"):
        worker.recorded_digests(_docs(), [Op("brute", "d", "br")])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_has_recorded_digests(name):
    for seed in (1, 987654):
        docs, ops = workloads.build(qpoly, name, seed)
        want = worker.recorded_digests(docs, ops)
        assert len(want) == len({(op.doc, op.poly) for op in ops
                                 if op.kind != "check"})


def _pass(seconds, outcomes, rss=10.0):
    ops = [{"id": "%s:%d" % (kind, i), "kind": kind, "doc": "d",
            "seconds": s, "wall": 2 * s, "outcome": o, "detail": ""}
           for i, (kind, s, o) in enumerate(zip(
               ("quasitree", "brute", "check"), seconds, outcomes))]
    return {"ops": ops, "peak_rss_mb": rss}


def test_end_to_end_sums_per_op_medians_and_counts_failures():
    passes = [_pass((1.0, 2.0, 3.0), ("ok", "ok", "raised"), rss=10),
              _pass((3.0, 2.2, 5.0), ("ok", "ok", "raised"), rss=12),
              _pass((2.0, 9.0, 4.0), ("ok", "ok", "raised"), rss=11)]
    setups = [(0.3, 0.6), (0.1, 0.2), (0.2, 0.5)]
    values, _ = run.end_to_end(passes, setups)
    assert values == {"setup_s": 0.2, "peak_rss_mb": 11, "quasitree_s": 2.0,
                      "brute_s": 2.2, "check_s": 4.0}
    walls, _ = run.end_to_end(passes, setups, "wall")
    assert (walls["setup_s"], walls["brute_s"]) == (0.5, 4.4)
    attempted, bad, correct = run.failures(passes)
    assert (attempted, len(bad), correct) == (9, 3, True)
    passes[1]["ops"][0]["outcome"] = "wrong"
    assert run.failures(passes)[2] is False


def test_host_speed_scales_to_the_reference_and_drops_sampling_time():
    speed = worker.HostSpeed()
    ref = worker.CAL_REF
    speed.samples = [(0.0, ref), (1.0, 2 * ref), (1.5, 2 * ref), (9.0, ref)]
    wall, seconds = speed.scale(0.95, 2.0)
    assert wall == 2.0 - 0.95 - 4 * ref
    assert seconds == wall / 2   # the loop ran at half the reference speed
    records = worker.run_ops_at_reference_speed(qpoly, _docs(), [Op("brute", "d", "br")])
    assert 0 < records[0].seconds and 0 < records[0].wall <= records[0].end - records[0].start
