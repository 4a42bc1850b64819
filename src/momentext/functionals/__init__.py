"""Positive functionals on the truncated algebras: construction from atomic
measures, Gram matrices with exact PSD certificates, extension feasibility,
and atom recovery.

The names below load with their module on first access (PEP 562), so
importing the package runs none of its modules.
"""

from .. import _lazy_exports

# exported name -> defining module
_EXPORTS = {name: module for module, names in (
    ("core", ("CsChainReport", "DiscreteMeasure", "DomainOverflowError",
              "InconsistentFunctionalError", "Key", "LinearFunctional", "SCALAR_EXACT",
              "SCALAR_FLOAT", "cs_chain_check", "extend_from_measure", "gram_matrix",
              "moments_of_measure", "polynomial_moments")),
    ("errors", ("IndeterminateRankError", "RecoveryFailedError")),
    ("feasibility", ("FeasibilityResult", "extension_feasibility")),
    ("psd", ("FloatPsdVerdict", "PsdVerdict", "hamburger_check", "psd_check_exact",
             "psd_check_float")),
    ("recovery", ("polynomial_moment_residual", "recover_atoms")),
) for name in names}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
