"""The qp command line tool.

Subcommands:

    qp compute -i FILE -p {krushkal,tutte,br,lv} -m {brute,quasitree}
    qp check -i FILE
    qp quasitrees -i FILE
    qp dual -i FILE [-H e1,e2,...]
    qp random -v N -e M [-t PROB] [-s SEED]

Exit codes: 0 on success, 1 when the input document cannot be read or
parsed, 2 when the input is invalid for the requested operation (and
for usage errors), 3 when qp check finds a failing identity.

Reading '-' as the input file takes the document from stdin.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .checks import _component_order, compute_polynomial, run_checks
# quasi_tree_masks is no longer called here, but perfbench's tracer test
# checks that the tracer patches this binding too
from .quasitrees import activities, quasi_tree_masks, resolution_tree
from .ribbon import EmbeddedGraph, RibbonError
from .textio import ParseError, parse, random_graph, serialize

__all__ = ["main"]


def _read_document(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse(text)


def _cmd_compute(args):
    emb, order = _read_document(args.input)
    poly = compute_polynomial(emb, order, args.polynomial, args.method)
    print(poly.canonical_text())
    return 0


def _cmd_check(args):
    emb, order = _read_document(args.input)
    failed = False
    for name, status, detail in run_checks(emb, order):
        line = "%s %s" % (status, name)
        if detail:
            line += " (%s)" % detail
        print(line)
        if status == "FAIL":
            failed = True
    return 3 if failed else 0


def _set(labels):
    return "{%s}" % ",".join(labels)


def _cmd_quasitrees(args):
    emb, order = _read_document(args.input)
    g = emb.ribbon_subgraph()
    sub_order = _component_order(order, g)
    # the leaves of the descent are the quasi-trees, one each
    leaves = resolution_tree(g, sub_order).leaves
    for qmask in sorted(leaf.quasi_tree for leaf in leaves):
        ap = activities(g, sub_order, qmask)
        fields = ["Q=%s" % _set(g.mask_labels(qmask))]
        for key, val in ap.as_dict().items():
            fields.append("%s=%s" % (key, _set(
                lbl for lbl in g.edge_labels if lbl in val)))
        print(" ".join(fields))
    return 0


def _cmd_dual(args):
    emb, order = _read_document(args.input)
    g = emb.cellulation
    if args.edges is None:
        mask = g.full_mask
    else:
        labels = [t for t in args.edges.split(",") if t]
        mask = g.edge_mask(labels)
    out = EmbeddedGraph(g.partial_dual(mask),
                        None if emb.is_cellular else sorted(emb.marked))
    sys.stdout.write(serialize(out, order))
    return 0


def _cmd_random(args):
    try:
        twist = Fraction(args.twist)
    except ZeroDivisionError:
        raise ValueError("twist probability %s has a zero denominator"
                         % args.twist) from None
    g = random_graph(args.vertices, args.edges, twist, seed=args.seed)
    sys.stdout.write(serialize(g))
    return 0


def _parser():
    top = argparse.ArgumentParser(
        prog="qp",
        description="Polynomial invariants of graphs embedded in surfaces.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate a polynomial invariant")
    p.add_argument("-i", "--input", required=True, metavar="FILE")
    p.add_argument("-p", "--polynomial", required=True,
                   choices=["krushkal", "tutte", "br", "lv"])
    p.add_argument("-m", "--method", required=True,
                   choices=["brute", "quasitree"])
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("check", help="run the identity suite on a document")
    p.add_argument("-i", "--input", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("quasitrees",
                       help="list quasi-trees and edge activities")
    p.add_argument("-i", "--input", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_quasitrees)

    p = sub.add_parser("dual", help="write the (partial) dual document")
    p.add_argument("-i", "--input", required=True, metavar="FILE")
    p.add_argument("-H", "--edges", metavar="e1,e2,...",
                   help="dualize only these edges (default: all)")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("random", help="generate a random graph document")
    p.add_argument("-v", "--vertices", type=int, required=True)
    p.add_argument("-e", "--edges", type=int, required=True)
    p.add_argument("-t", "--twist", default="0", metavar="PROB",
                   help="twist probability, an exact fraction like 0.3 or 3/10")
    p.add_argument("-s", "--seed", type=int, default=1)
    p.set_defaults(func=_cmd_random)

    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("qp: parse error: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print("qp: cannot read input: %s" % exc, file=sys.stderr)
        return 1
    except (RibbonError, ValueError) as exc:
        print("qp: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
