"""Workload generation is a function of the seed."""

import pytest

import qpoly
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_documents(name):
    specs, _, _ = workloads.WORKLOADS[name]
    for spec in specs:
        a = workloads.document_text(qpoly, spec, 11)
        assert a == workloads.document_text(qpoly, spec, 11)
        assert a != workloads.document_text(qpoly, spec, 12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ops_name_built_documents(name):
    docs, ops = workloads.build(qpoly, name, 5)
    assert {op.doc for op in ops} <= set(docs)
    assert workloads.WORKLOADS[name][2] in docs
    assert {op.kind for op in ops} == {"quasitree", "brute", "check"}
    for text, emb, order in docs.values():
        assert qpoly.parse(text) == (emb, order)


def test_markings_follow_their_spec():
    docs, _ = workloads.build(qpoly, "check", 3)
    specs, _, _ = workloads.WORKLOADS["check"]
    for spec in specs:
        _, emb, _ = docs[spec.name]
        if spec.marked is None:
            assert emb.is_cellular
            continue
        assert len(emb.marked) == spec.marked
        split = emb.ribbon_subgraph().components() > 1
        assert split == spec.split
