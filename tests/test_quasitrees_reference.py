"""The bitset activities and resolution tree against reference copies of
the direct constructions: pairwise VertexWord.links for liveness, and a
resolution tree that re-scans the whole quasi-tree list at every node."""

import random

import pytest

from qpoly.quasitrees import (
    ActivityPartition,
    activities,
    one_vertex_word,
    quasi_tree_masks,
    resolution_tree,
)
from qpoly.ribbon import RibbonError

from fixture_graphs import FIXTURES, random_twisted_graphs


def reference_activities(g, order, mask):
    """Live: no lower-ordered edge links the edge in the vertex word of the
    partial dual; orientable: its loop there is untwisted."""
    word = one_vertex_word(g, mask)
    rank = {label: i for i, label in enumerate(order)}
    sets = {k: [] for k in ("di", "i_o", "i_n", "de", "e_o", "e_n")}
    for label in g.edge_labels:
        live = not any(word.links(label, f) for f in g.edge_labels
                       if rank[f] < rank[label])
        internal = bool(mask & (1 << g._edge_index[label]))
        if not live:
            sets["di" if internal else "de"].append(label)
        elif word.sign(label) > 0:
            sets["i_o" if internal else "e_o"].append(label)
        else:
            sets["i_n" if internal else "e_n"].append(label)
    return ActivityPartition(**sets)


def reference_tree(g, order):
    """Pre-order (edge, ones, zeros, leaf Q, unresolved) of the resolution
    tree, deciding each branch by scanning every quasi-tree."""
    qts = quasi_tree_masks(g)
    desc = [g._edge_index[label] for label in reversed(order)]
    nodes = []

    def viable(ones, zeros):
        return any(q & zeros == 0 and q & ones == ones for q in qts)

    def build(ones, zeros, idx):
        for j in range(idx, len(desc)):
            bit = 1 << desc[j]
            if viable(ones, zeros | bit) and viable(ones | bit, zeros):
                nodes.append((g.edge_labels[desc[j]], ones, zeros, None, None))
                build(ones, zeros | bit, j + 1)
                build(ones | bit, zeros, j + 1)
                return
        done = [q for q in qts if q & zeros == 0 and q & ones == ones]
        assert len(done) == 1
        unresolved = frozenset(g.edge_labels[ei] for ei in range(g.n_edges)
                               if not ((ones | zeros) >> ei) & 1)
        nodes.append((None, ones, zeros, done[0], unresolved))

    build(0, 0, 0)
    return nodes


def preorder(node):
    out = [(node.edge, node.ones, node.zeros, node.quasi_tree, node.unresolved)]
    if not node.is_leaf:
        out += preorder(node.zero) + preorder(node.one)
    return out


GRAPHS = [(name, make()) for name, make in FIXTURES.items()]
GRAPHS += [("R%d" % i, g) for i, g in enumerate(random_twisted_graphs())]


def cases():
    rng = random.Random(6)
    for name, g in GRAPHS:
        for k in range(3):
            order = list(g.edge_labels)
            rng.shuffle(order)
            yield "%s/%d" % (name, k), g, order


CASES = list(cases())


@pytest.mark.parametrize("name,g,order", CASES, ids=[c[0] for c in CASES])
def test_activities_match_reference(name, g, order):
    for qmask in quasi_tree_masks(g):
        assert activities(g, order, qmask) == \
            reference_activities(g, order, qmask), (name, qmask)


@pytest.mark.parametrize("name,g,order", CASES, ids=[c[0] for c in CASES])
def test_resolution_tree_matches_reference(name, g, order):
    tree = resolution_tree(g, order)
    nodes = preorder(tree.root)
    assert nodes == reference_tree(g, order), name
    assert [leaf.quasi_tree for leaf in tree.leaves] == \
        [n[3] for n in nodes if n[0] is None]


@pytest.mark.parametrize("name,g", GRAPHS, ids=[c[0] for c in GRAPHS])
def test_activities_reject_non_quasi_trees_like_the_word(name, g):
    qts = set(quasi_tree_masks(g))
    for mask in range(g.full_mask + 1):
        if mask in qts:
            continue
        with pytest.raises(RibbonError) as ours:
            activities(g, None, mask)
        with pytest.raises(RibbonError) as ref:
            reference_activities(g, g.edge_labels, mask)
        assert str(ours.value) == str(ref.value) == \
            "subgraph is not a quasi-tree (bc != 1)"
