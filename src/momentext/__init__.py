"""Desk-scale toolkit for truncated moment problems on punctured space.

Exact rational arithmetic in the algebras generated by polynomials and the
bounded angular fractions x_k*x_l/||x||^2 (plus the Laurent variant), moment
functionals of atomic measures with certified PSD checks, an approximate
positive-extension search, fibre reductions of semialgebraic sets, atom
recovery, and complex moment sequence pipelines on three index semigroups.
"""

from .extalg import (AElement, Character, Mode, a_normalize, char_eval,
                     embed_poly, generator_f, norm_inverse_generator,
                     origin_character, truncated_basis)
from .fibres import (FibreSpec, PartitionReport, Preorder,
                     SphereFibreReduction, TPositivityReport,
                     fibre_generators, fibre_ideal_generators,
                     fibre_partition_check, functional_annihilates_ideal,
                     kT_membership, sphere_fibre_reduction,
                     t_positivity_check)
from .functionals import (CsChainReport, DiscreteMeasure, DomainOverflowError,
                          FeasibilityResult, FloatPsdVerdict,
                          IndeterminateRankError, InconsistentFunctionalError,
                          LinearFunctional, PsdVerdict, RecoveryFailedError,
                          SCALAR_EXACT, SCALAR_FLOAT, cs_chain_check,
                          extend_from_measure, extension_feasibility,
                          gram_matrix, hamburger_check, moments_of_measure,
                          polynomial_moment_residual, polynomial_moments,
                          psd_check_exact, psd_check_float, recover_atoms)
from .polyalg import (DimensionMismatchError, Poly, divide_by_norm_squared,
                      exponents_of_degree, exponents_up_to_degree,
                      norm_squared)
from .scalars import GaussianRational, as_fraction, format_fraction
from .semigroups import (BisgaardReport, HermitianSequence,
                         LaurentRelationsReport, NplusExtensionReport,
                         SgDomain, SgElement, bisgaard_check, box_window,
                         complex_atoms_to_measure, hermitian_embedding,
                         inversion_automorphism, laurent_relations_check,
                         nplus_extension_check, sequence_from_measure,
                         sg_involution, sg_moment_matrix, sg_product,
                         sg_psd_check_exact, sg_to_functions)

__version__ = "0.1.0"
