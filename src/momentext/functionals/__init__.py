"""Positive functionals on the truncated algebras: construction from atomic
measures, Gram matrices with exact PSD certificates, extension feasibility,
and atom recovery."""

from .core import (CsChainReport, DiscreteMeasure, DomainOverflowError,
                   InconsistentFunctionalError, Key, LinearFunctional,
                   SCALAR_EXACT, SCALAR_FLOAT, cs_chain_check,
                   extend_from_measure, gram_matrix, moments_of_measure,
                   polynomial_moments)
from .feasibility import FeasibilityResult, extension_feasibility
from .psd import (FloatPsdVerdict, PsdVerdict, hamburger_check,
                  psd_check_exact, psd_check_float)
from .recovery import (IndeterminateRankError, RecoveryFailedError,
                       polynomial_moment_residual, recover_atoms)

__all__ = [
    "CsChainReport", "DiscreteMeasure", "DomainOverflowError",
    "FeasibilityResult", "FloatPsdVerdict", "IndeterminateRankError",
    "InconsistentFunctionalError", "Key", "LinearFunctional", "PsdVerdict",
    "RecoveryFailedError", "SCALAR_EXACT", "SCALAR_FLOAT", "cs_chain_check",
    "extend_from_measure", "extension_feasibility", "gram_matrix",
    "hamburger_check", "moments_of_measure",
    "polynomial_moment_residual", "polynomial_moments", "psd_check_exact",
    "psd_check_float", "recover_atoms",
]
