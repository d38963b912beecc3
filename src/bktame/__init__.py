"""Exact computations with rank-one Breuil-Kisin modules carrying tame
descent data: shapes and their Ext/Hom/kExt calculus, Serre-weight
combinatorics, Dieudonne vanishing patterns, and cycle identities, with
brute-force oracles for every closed form.
"""

from .errors import (BadResidue, BKError, CongruenceFailed,
                     ContextMismatch, CuspidalDegenerate, DegreeTooLarge,
                     InternalError, InvalidShape, KindMismatch, NoNonzeroMap,
                     NoSolution, NotInPTau, NotPrime, NotSupported,
                     PeriodError, RangeError, ScalarType, SteinbergWeight,
                     TruncationUnstable, ZeroCoefficient)
from .gfarith import FieldSpec, build_field
from .rankone import (RankOneBK, exhaustive_modules, hom_dim, random_module,
                      twist_conjugate, validate)
from .rng import SplitMix64
from .shapes import (RefinedShape, Shape, build_MN, ext_dim, family_dim,
                     irred_bound, kext_dim, kext_dim_oracle, maximal_refined,
                     oracle_dims, p_tau, refined_shapes, shapes_for)
from .tametypes import (CUSPIDAL, PS, LocalContext, TameType,
                        enumerate_types, gamma_digits, make_type)
from .weights import (SerreWeight, all_weights, c_sigma_cycle, char_TN,
                      components_count, dieudonne_pattern, divisor_support,
                      jh_factors, sigma_tau_J, solve_n_tau,
                      verify_orthogonality)

__version__ = "0.1.0"
