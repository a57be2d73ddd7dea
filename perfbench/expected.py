"""Regenerate expected.json: brute-route digests of every polynomial the
workloads compute.  A pass verifies each compute op against them and
refuses to run without them.

    python3 perfbench/expected.py    (from the repository root)

Graphs and markings are pinned, the workload seed only shuffles the edge
order, and the keys leave the order out, so one table holds for every
seed.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from worker import EXPECTED, digest, doc_key


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import qpoly
    table = {}
    for name in workloads.WORKLOADS:
        docs, ops = workloads.build(qpoly, name, 1)
        for op in ops:
            if op.kind == "check":
                continue
            text, emb, order = docs[op.doc]
            key = doc_key(text, op.poly)
            if key not in table:
                poly = qpoly.compute_polynomial(emb, order, op.poly, "brute")
                table[key] = digest(poly.canonical_text())
                print(name, op.doc, op.poly, file=sys.stderr)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
