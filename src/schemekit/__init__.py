"""Exact association schemes, composite Hamming-type schemes, weight
enumerators with their duality transforms, and modular invariance.

`import schemekit` loads no submodule.  The first read of a public name
loads the library's seven modules and binds every public name (PEP 562),
so a command of `schemekit.cli` loads only the modules it runs."""

from importlib import import_module

# public names by the module that defines them, in load order
_EXPORTS = {
    "builders": ("cycle_scheme", "group_scheme", "hamming", "one_class"),
    "codes": (
        "Code",
        "GRAY_BITS",
        "Z4Enumerators",
        "dual_code",
        "gray_image",
        "gray_lee_check",
        "inner_distribution",
        "is_additive",
        "macwilliams_transform",
        "translation_duality_check",
        "weight_enumerator",
        "z4_enumerators",
    ),
    "errors": (
        "AxiomViolation",
        "CertificationFailure",
        "ClosureFailure",
        "DimensionMismatch",
        "DuplicateWords",
        "FormatError",
        "MathError",
        "NegativeKrein",
        "NotAdditive",
        "NotScalar",
        "SchemeKitError",
        "SingularMatrix",
        "SizeCapExceeded",
        "SnapFailure",
    ),
    "exact": (
        "ExactMatrix",
        "GaussRat",
        "MPoly",
        "compositions",
        "composition_index",
        "induced_matrix",
        "substitute_linear",
        "substitute_polys",
    ),
    "genham": (
        "GHScheme",
        "build_explicit",
        "dual_eigenmatrix_gh",
        "eigenmatrix_gh",
        "formal_duality_check",
        "fusion_check_trans",
        "h_vector",
    ),
    "modular": (
        "InducedModular",
        "ModularWitness",
        "induced_modular_check",
        "search_T",
        "verify_modular",
    ),
    "scheme": (
        "AssociationScheme",
        "TranslationStructure",
        "canonical_row_key",
        "certify_eigenmatrix",
        "dual_eigenmatrix",
        "eigenmatrix",
        "fusion",
        "krein_parameters",
        "numeric_eigenmatrix",
        "orbit_fusion",
        "sort_rows_canonically",
        "tensor_product",
        "verify_axioms",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "jsonio"}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    if name not in __all__:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    for modname, names in _EXPORTS.items():
        module = import_module("." + modname, __name__)
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
