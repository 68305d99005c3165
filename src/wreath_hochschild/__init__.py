"""Exact Hochschild (co)homology of wreath product algebras.

The package computes graded dimension tables for the Hochschild homology
and cohomology of S_n acting on n-fold tensor powers of a fixed algebra,
packages them into bivariate generating series with closed product forms,
and cross-checks the structural identities behind those formulas with
brute-force chain-level computations at small size.

Every public name loads on first use: `wh.X`, `from wreath_hochschild
import X` and `import *` import the submodule that owns X then, and not
before, so a caller of the series layer never loads the chain-level ones.
"""

import importlib

# The one public name that is also a submodule's name.  Importing a submodule
# binds it as a package attribute, so the function is bound here first: after
# that the import is cached and nothing rebinds the name.
from .partitions import partitions

# public name -> owning submodule, one row per submodule
_EXPORTS = {
    "betti": ("AlgebraPreset", "BettiTable", "super_sym_powers"),
    "bruteforce": (
        "AutoTwistedBimodule", "FiniteDimAlgebra", "GroupAction", "RegularBimodule",
        "SizeCapExceeded", "TwistedBimodule", "afls_check", "crossed_product", "hh_dims",
        "homotopy_identity_check", "rotation_permutation", "tensor_power",
        "verify_homolog_i",
    ),
    "cherednik": (
        "CherednikElement", "NormalMonomial", "associativity_check", "confluence_check",
        "crossed_weyl_normal_order", "normal_monomial_count", "normal_order",
        "pbw_dimension_check", "spherical_check", "spherical_idempotent",
        "spherical_product",
    ),
    "koszul": (
        "RankOneElement", "WindowInstability", "build_cochain_complex",
        "crossed_z2_cohomology", "duality_check", "hh_cohomology_rank_one",
    ),
    "linalg": ("CertificateError",),
    "partitions": ("Partition", "count_by_length", "partition_count", "partitions"),
    "presets_io": ("CheckReport", "emit", "load_preset", "parse"),
    "series": ("BiSeries",),
    "wreath": (
        "PRESETS", "closed_form", "deformation_parameter_count", "gamma_preset",
        "gamma_series", "generating_series_product", "generating_series_sum",
        "hh_cohomology_wreath", "hh_homology_wreath", "hilb_poincare", "surface_preset",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
