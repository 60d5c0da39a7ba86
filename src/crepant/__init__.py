"""Exact computation of Chen-Ruan, resolution and quantum-corrected
cohomology rings for orbifolds with transversal A_n singularities, and
verification of the ring isomorphisms between them.

Everything is computed in exact arithmetic over cyclotomic fields; there is
no floating point anywhere in the mathematical path.
"""

from .coeffring import BaseScalar
from .corrections import (CorrectionFunction, DeltaIndex, PoleError,
                          delta_eval)
from .exactnum import (Cyclotomic, InvalidRoot, branch_sqrt,
                       cyclotomic_polynomial, imaginary_unit, root_of_unity,
                       sqrt_rational)
from .isocheck import (RankMismatch, TransportReport, conjecture_scan,
                       solve_a1, solve_a2, transport_check)
from .mckay import (LinearMap, McKayGraph, ade_resolution_graph, an_mckay,
                    aut_gamma, bgp_map, chtd_map)
from .resolve import (ChartSurface, NotSingular, ResolutionGraph,
                      blowup_step, resolve_an)
from .ringtables import (ExcClass, ProductTable, beta_pairing, cr_table,
                         cup_table, qc_eval, qc_table)

__all__ = [
    "BaseScalar", "ChartSurface", "CorrectionFunction",
    "Cyclotomic", "DeltaIndex", "ExcClass", "InvalidRoot", "LinearMap",
    "McKayGraph", "NotSingular", "PoleError", "ProductTable",
    "RankMismatch", "ResolutionGraph", "TransportReport",
    "ade_resolution_graph", "an_mckay", "aut_gamma", "beta_pairing",
    "bgp_map", "blowup_step", "branch_sqrt", "chtd_map",
    "conjecture_scan", "cr_table", "cup_table", "cyclotomic_polynomial",
    "delta_eval", "imaginary_unit", "qc_eval", "qc_table", "resolve_an",
    "root_of_unity", "solve_a1", "solve_a2", "sqrt_rational",
    "transport_check",
]
