"""Span tracer that wraps qpoly's public functions from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span: name, start, end, parent span and the op it ran
under.  Every binding of the original object is replaced, so calls reach
the wrapper whichever module they come from: names imported with
``from .x import f`` into other qpoly modules, class aliases such as
``__radd__ = __add__``, and the ``CHECKS`` table of identity functions.
``uninstall`` puts the originals back.

Spans live in flat arrays in memory while the workload runs; ``summary``
and ``write`` turn them into per-layer numbers and a file after the timed
region.  A span's self time is its duration minus the durations of its
child spans; spans are strictly nested because the program is single
threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, class or None, attribute, span name).  Aliases of an attribute
# inside its class (``__radd__`` for ``__add__``, ``__call__`` for
# ``rank``) are found by identity and share its span name.
TARGETS = (
    ("ribbon", "RibbonGraph", "__init__", "ribbon.RibbonGraph"),
    ("ribbon", "RibbonGraph", "boundary_components", "ribbon.boundary_components"),
    ("ribbon", "RibbonGraph", "components", "ribbon.components"),
    ("ribbon", "RibbonGraph", "genus_s", "ribbon.genus_s"),
    ("ribbon", "RibbonGraph", "partial_dual", "ribbon.partial_dual"),
    ("ribbon", "RibbonGraph", "subgraph_profile", "ribbon.subgraph_profile"),
    ("quasitrees", None, "quasi_tree_masks", "quasitrees.quasi_tree_masks"),
    ("quasitrees", None, "one_vertex_word", "quasitrees.one_vertex_word"),
    ("quasitrees", None, "activities", "quasitrees.activities"),
    ("quasitrees", None, "expansion_krushkal", "quasitrees.expansion_krushkal"),
    ("quasitrees", None, "expansion_br", "quasitrees.expansion_br"),
    ("quasitrees", None, "expansion_lv", "quasitrees.expansion_lv"),
    ("quasitrees", None, "resolution_tree", "quasitrees.resolution_tree"),
    ("invariants", None, "krushkal", "invariants.krushkal"),
    ("invariants", None, "tutte", "invariants.tutte"),
    ("invariants", None, "bollobas_riordan", "invariants.bollobas_riordan"),
    ("invariants", None, "las_vergnas", "invariants.las_vergnas"),
    ("invariants", None, "specialize", "invariants.specialize"),
    ("graphs", "MultiGraph", "components", "graphs.components"),
    ("laurent", "LaurentPoly", "__add__", "laurent.add"),
    ("laurent", "LaurentPoly", "__sub__", "laurent.add"),
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly", "__pow__", "laurent.pow"),
    ("laurent", "LaurentPoly", "substitute", "laurent.substitute"),
    ("matroid", "RankFunction", "rank", "matroid.rank"),
    ("checks", None, "compute_polynomial", "checks.compute_polynomial"),
    ("checks", None, "run_checks", "checks.run_checks"),
    ("textio", None, "random_graph", "textio.random_graph"),
    ("textio", None, "serialize", "textio.serialize"),
    ("textio", None, "parse", "textio.parse"),
)

EXPANSIONS = frozenset(("quasitrees.expansion_krushkal",
                        "quasitrees.expansion_br",
                        "quasitrees.expansion_lv"))
TUTTE_MINOR = "invariants.tutte_minor"

# The exact per-document counts that must repeat between traced runs.
COUNT_KEYS = ("quasi_trees", "subsets_scanned", "ribbon.partial_dual.calls",
              "invariants.tutte_minor.calls", "tutte_minor_keys",
              "ribbon.boundary_components.calls")


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._expansions = 0
        self.current_op = -1
        # (op index, counter name) -> exact count
        self.counters = defaultdict(int)
        # Hooks run in the caller's time, so they only store references;
        # the keys are hashed after the timed region.
        self.minor_graphs = []    # (op index, vertices, edges) per minor
        self.copied_terms = 0
        self._patched = []

    # -- span recording ------------------------------------------------

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        """Start a span; returns its index for ``close``."""
        i = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        """A wrapper of fn recording one span per call."""
        tracer = self
        is_expansion = name in EXPANSIONS
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if hook is not None:
                span = hook(tracer, args) or name
            if is_expansion:
                tracer._expansions += 1
            i = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
                if is_expansion:
                    tracer._expansions -= 1
            if name == "quasitrees.quasi_tree_masks":
                tracer.counters[tracer.current_op, "quasi_trees"] += len(result)
                tracer.counters[tracer.current_op, "subsets_scanned"] += (
                    args[0].full_mask + 1)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every target and every binding of it in qpoly's modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qpoly" or n.startswith("qpoly."))]
        for modname, clsname, attr, name in TARGETS:
            module = sys.modules["qpoly." + modname]
            owner = getattr(module, clsname) if clsname else module
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original)
            if clsname:
                for alias, value in list(owner.__dict__.items()):
                    if value is original:
                        self._set(owner, alias, wrapper)
            else:
                self._rebind(modules, original, wrapper)
        table = sys.modules["qpoly.checks"].CHECKS
        traced = tuple((cname, self.wrap("checks." + cname, fn))
                       for cname, fn in table)
        self._rebind(modules, table, traced)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the children's durations."""
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        own = array("d", dur)
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self):
        """{span name: [calls, self seconds, inclusive seconds]}.  The
        inclusive time counts a span nested in one of the same name twice;
        no traced function calls itself."""
        own = self.self_times()
        n = len(self.names)
        calls, self_s, total_s = [0] * n, [0.0] * n, [0.0] * n
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += own[i]
            total_s[nid] += self.end[i] - self.start[i]
        return {name: [calls[k], self_s[k], total_s[k]]
                for k, name in enumerate(self.names)}

    def op_counts(self):
        """{op index: {count name: exact count}} for COUNT_KEYS."""
        watched = {self._ids[k[:-len(".calls")]]: k for k in COUNT_KEYS
                   if k.endswith(".calls") and k[:-len(".calls")] in self._ids}
        out = defaultdict(lambda: dict.fromkeys(COUNT_KEYS, 0))
        for i, nid in enumerate(self.name_id):
            key = watched.get(nid)
            if key is not None:
                out[self.op[i]][key] += 1
        for (op, key), value in self.counters.items():
            out[op][key] += value
        keys = defaultdict(set)
        for op, vertices, edges in self.minor_graphs:
            keys[op].add((vertices, edges))
        for op, distinct in keys.items():
            out[op]["tutte_minor_keys"] = len(distinct)
        return dict(out)

    def minor_keys_distinct(self):
        """Distinct minor-graph keys over the whole traced run."""
        return len({(v, e) for _, v, e in self.minor_graphs})

    def write(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name_id:i", "parent:i", "op:i",
                                 "start:d", "end:d"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def _tutte_hook(tracer, args):
    """Tutte calls under an expansion are minor-graph calls: keep the
    exact structure of each graph so repeated minors show."""
    if not tracer._expansions:
        return None
    g = args[0]
    tracer.minor_graphs.append((tracer.current_op, g.vertices, g.edges))
    return TUTTE_MINOR


def _add_hook(tracer, args):
    """Count the left-operand terms each ``+`` copies."""
    tracer.copied_terms += len(args[0].items_doubled())
    return None


_HOOKS = {
    "invariants.tutte": _tutte_hook,
    "laurent.add": _add_hook,
}
