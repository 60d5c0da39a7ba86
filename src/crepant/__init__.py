"""Exact computation of Chen-Ruan, resolution and quantum-corrected
cohomology rings for orbifolds with transversal A_n singularities, and
verification of the ring isomorphisms between them.

Everything is computed in exact arithmetic over cyclotomic fields; there is
no floating point anywhere in the mathematical path.

`import crepant` is cheap: it loads no submodule.  Each public name below is
imported from its module on first use (PEP 562) and then bound here, so
`crepant.cr_table is crepant.ringtables.cr_table`, and a `crepant` command
loads only the modules it runs.
"""

# module -> the public names it defines
_SOURCES = {
    "coeffring": ("BaseScalar",),
    "corrections": ("CorrectionFunction", "DeltaIndex", "PoleError",
                    "delta_eval"),
    "exactnum": ("Cyclotomic", "InvalidRoot", "branch_sqrt",
                 "cyclotomic_polynomial", "imaginary_unit", "root_of_unity",
                 "sqrt_rational"),
    "isocheck": ("RankMismatch", "TransportReport", "conjecture_scan",
                 "solve_a1", "solve_a2", "transport_check"),
    "mckay": ("LinearMap", "McKayGraph", "ade_resolution_graph", "an_mckay",
              "aut_gamma", "bgp_map", "chtd_map"),
    "resolve": ("ChartSurface", "NotSingular", "ResolutionGraph",
                "blowup_step", "resolve_an"),
    "ringtables": ("ExcClass", "ProductTable", "beta_pairing", "cr_table",
                   "cup_table", "qc_eval", "qc_table"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without __getattr__
    return value


def __dir__():
    return __all__
