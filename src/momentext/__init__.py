"""Desk-scale toolkit for truncated moment problems on punctured space.

Exact rational arithmetic in the algebras generated by polynomials and the
bounded angular fractions x_k*x_l/||x||^2 (plus the Laurent variant), moment
functionals of atomic measures with certified PSD checks, an approximate
positive-extension search, fibre reductions of semialgebraic sets, atom
recovery, and complex moment sequence pipelines on three index semigroups.

The names below load with their module on first access (PEP 562), so
importing the package runs none of its modules.
"""

import importlib

# exported name -> defining module
_EXPORTS = {name: module for module, names in (
    ("extalg", ("AElement", "Character", "Mode", "a_normalize", "char_eval", "embed_poly",
                "generator_f", "norm_inverse_generator", "origin_character",
                "truncated_basis")),
    ("fibres", ("FibreSpec", "PartitionReport", "Preorder", "SphereFibreReduction",
                "TPositivityReport", "fibre_generators", "fibre_ideal_generators",
                "fibre_partition_check", "functional_annihilates_ideal", "kT_membership",
                "sphere_fibre_reduction", "t_positivity_check")),
    ("functionals.core", ("CsChainReport", "DiscreteMeasure", "DomainOverflowError",
                          "InconsistentFunctionalError", "LinearFunctional", "SCALAR_EXACT",
                          "SCALAR_FLOAT", "cs_chain_check", "extend_from_measure",
                          "gram_matrix", "moments_of_measure", "polynomial_moments")),
    ("functionals.feasibility", ("FeasibilityResult", "extension_feasibility")),
    ("functionals.psd", ("FloatPsdVerdict", "PsdVerdict", "hamburger_check",
                         "psd_check_exact", "psd_check_float")),
    ("functionals.recovery", ("IndeterminateRankError", "RecoveryFailedError",
                              "polynomial_moment_residual", "recover_atoms")),
    ("polyalg", ("DimensionMismatchError", "Poly", "divide_by_norm_squared",
                 "exponents_of_degree", "exponents_up_to_degree", "norm_squared")),
    ("scalars", ("GaussianRational", "as_fraction", "format_fraction")),
    ("semigroups", ("BisgaardReport", "HermitianSequence", "LaurentRelationsReport",
                    "NplusExtensionReport", "SgDomain", "SgElement", "bisgaard_check",
                    "box_window", "hermitian_embedding",
                    "inversion_automorphism", "laurent_relations_check",
                    "nplus_extension_check", "sequence_from_measure", "sg_involution",
                    "sg_product", "sg_to_functions")),
) for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package whose globals
    are ``namespace``: a name in ``exports`` (name -> defining submodule)
    imports its module on first access and is kept in ``namespace``."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f".{module}", package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
