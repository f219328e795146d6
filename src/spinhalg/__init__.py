"""Exact computational toolkit for Clifford algebras, graded Clifford
modules, characteristic-class power series, the mod-2 Steenrod action on
Stiefel-Whitney classes, and Bott-periodic K-theory coefficient tables.

All arithmetic is exact (rationals or F2); nothing here touches floats.

`import spinhalg` loads no submodule: each public name below, and each
family module, is imported on first use (PEP 562), so a CLI subcommand
pays only for the family it runs.
"""

from importlib import import_module as _import_module

# public name -> submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "clifford": (
            "AlgebraDescriptor",
            "CliffordElement",
            "Signature",
            "SignatureMismatch",
            "classify",
            "classify_indefinite",
            "graded_tensor_check",
            "volume_element",
            "volume_square_sign",
        ),
        "modules": (
            "AbGroupExpr",
            "BigradedIndex",
            "ModuleLabel",
            "ScalarChange",
            "bimodule_decomposition",
            "bold_selection",
            "fundamental_dimension",
            "graded_product",
            "ngroup",
            "ngroup_bigraded",
            "scalar_change",
        ),
        "series": (
            "ClosedManifoldModel",
            "GradedSeries",
            "a_hat_series",
            "chebyshev_theta",
            "cosh_sqrt_series",
            "genus_4manifold",
            "hp_pairing_binomial",
            "hp_pairing_matrix",
            "hp_pairing_residue",
            "weak_thom_chern_character",
        ),
        "steenrod": (
            "F2Polynomial",
            "GradedIdeal",
            "StiefelWhitneyRing",
            "adem_reduce",
            "bso_quotient_model",
            "chi_sq",
            "ideal_membership",
            "quotient_poincare_series",
            "sq",
            "sq1_homology_series",
            "wu_classes",
        ),
        "ktheory": (
            "CoefficientRing",
            "FGAbelianGroup",
            "ZkIndexInput",
            "aind_classify",
            "dual_group",
            "k_coefficients",
            "zk_index",
            "zk_sphere_group",
        ),
    }.items()
    for name in names
}

# the family modules too: the eager package bound them as a side effect,
# so `from spinhalg import *` gave them
__all__ = [*dict.fromkeys(_SUBMODULE.values()), *_SUBMODULE]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULE.values():
        # `spinhalg.steenrod` without `import spinhalg.steenrod` first
        return _import_module(f".{name}", __name__)
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
