"""The public surface: every exported name resolves, and the exports are
exactly the pinned ones, so a stale or a new export fails here first."""

import importlib
import pkgutil

import qpoly

SURFACE = {
    "checks": "CHECKS compute_polynomial run_checks",
    "cli": "main",
    "graphs": "MultiGraph",
    "invariants": "PolyKind bollobas_riordan krushkal las_vergnas "
                  "specialize tutte",
    "laurent": "LaurentPoly SubstitutionError VARIABLES parse_poly",
    "matroid": "RankFunction bond_matroid cycle_matroid",
    "quasitrees": "ActivityPartition ResolutionNode ResolutionTree "
                  "activities expansion_br expansion_krushkal "
                  "expansion_lv one_vertex_word quasi_tree_masks "
                  "resolution_tree",
    "ribbon": "EmbeddedGraph RibbonError RibbonGraph",
    "textio": "ParseError XorShift64Star parse random_graph serialize",
}

# the package re-exports its submodules' names except these
NOT_REEXPORTED = {"CHECKS", "main", "ResolutionNode", "ResolutionTree",
                  "one_vertex_word", "quasi_tree_masks"}


def submodules():
    return {info.name: importlib.import_module("qpoly." + info.name)
            for info in pkgutil.iter_modules(qpoly.__path__)}


def test_every_exported_name_resolves():
    modules = {"qpoly": qpoly, **submodules()}
    for name, module in modules.items():
        exported = module.__all__
        assert len(set(exported)) == len(exported), name
        for attr in exported:
            assert getattr(module, attr, None) is not None, (name, attr)


def test_exports_are_pinned():
    modules = submodules()
    assert {name: sorted(module.__all__) for name, module in modules.items()} \
        == {name: sorted(names.split()) for name, names in SURFACE.items()}
    everything = {attr for names in SURFACE.values() for attr in names.split()}
    assert sorted(qpoly.__all__) == sorted(everything - NOT_REEXPORTED)
