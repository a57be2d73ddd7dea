"""qpoly: exact polynomial invariants of graphs embedded in surfaces.

Ribbon graphs are given as signed rotation systems.  The package computes
the Krushkal polynomial of an embedded graph together with its Tutte,
Bollobas-Riordan and Las Vergnas specializations, both by definitional
brute force over spanning subgraphs and through quasi-tree expansions, and
ships a small text format plus the ``qp`` command line tool.
"""

from .checks import compute_polynomial, run_checks
from .graphs import MultiGraph
from .invariants import (
    PolyKind,
    bollobas_riordan,
    krushkal,
    las_vergnas,
    specialize,
    tutte,
)
from .laurent import (
    VARIABLES,
    LaurentPoly,
    SubstitutionError,
    parse_poly,
)
from .matroid import RankFunction, bond_matroid, cycle_matroid
from .quasitrees import (
    ActivityPartition,
    activities,
    expansion_br,
    expansion_krushkal,
    expansion_lv,
    resolution_tree,
)
from .ribbon import EmbeddedGraph, RibbonError, RibbonGraph
from .textio import ParseError, XorShift64Star, parse, random_graph, serialize

__version__ = "0.1.0"

__all__ = [
    "VARIABLES",
    "ActivityPartition",
    "EmbeddedGraph",
    "LaurentPoly",
    "MultiGraph",
    "ParseError",
    "PolyKind",
    "RankFunction",
    "RibbonError",
    "RibbonGraph",
    "SubstitutionError",
    "XorShift64Star",
    "activities",
    "bollobas_riordan",
    "bond_matroid",
    "compute_polynomial",
    "cycle_matroid",
    "expansion_br",
    "expansion_krushkal",
    "expansion_lv",
    "krushkal",
    "las_vergnas",
    "parse",
    "parse_poly",
    "random_graph",
    "resolution_tree",
    "run_checks",
    "serialize",
    "specialize",
    "tutte",
]
