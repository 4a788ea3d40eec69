"""lerchzeta: the Hurwitz-Lerch zeta function Phi(s,a,z) for real s, its
analytic continuation to (-1,0) u (0,1) via kernel integrals, functional-
equation cross-checks, real-zero location on (-1,0), and the classical
L-function / polylogarithm identities.
"""
from .errors import (ConditioningError, DegreeOverflowError, DomainError,
                     LerchZetaError, PoleError, SeriesDivergenceError,
                     SignConstancyError, WrongPathError)
from .evaluate import (EvalResult, Method, evaluate, hurwitz_em, phi_integral,
                       phi_series, special_value)
from .functional_eq import (phi_fe_rhs, verify_kernel_expansion_z1,
                            verify_kernel_expansion_zne1,
                            verify_mellin_identity, zeta_fe_rhs)
from .identities import (CharacterTable, SixRelationsReport,
                         builtin_characters, dirichlet_L, dirichlet_L_series,
                         gauss_sum, lerch_from_hurwitz, polylog_series,
                         verify_six_relations)
from .kernels import kernel_G, kernel_Gz, kernel_H
from .quadrature import QuadResult, exp_sinh, tanh_sinh
from .special import (bernoulli_number, bernoulli_numbers, bernoulli_poly,
                      gamma_real, principal_log)
from .verify import CheckResult, run_suite, suite_names
from .zeros import (B2_ROOT_LOWER, B2_ROOT_UPPER, Region, RegionVerdict,
                    ZeroReport, check_case3, classify, scan_zeros)

__version__ = "1.0.0"

__all__ = [
    "B2_ROOT_LOWER", "B2_ROOT_UPPER", "CharacterTable",
    "CheckResult", "ConditioningError", "DegreeOverflowError", "DomainError",
    "EvalResult", "LerchZetaError", "Method", "PoleError",
    "QuadResult", "Region", "RegionVerdict",
    "SeriesDivergenceError", "SignConstancyError", "SixRelationsReport",
    "WrongPathError", "ZeroReport",
    "bernoulli_number", "bernoulli_numbers", "bernoulli_poly",
    "builtin_characters", "check_case3", "classify",
    "dirichlet_L", "dirichlet_L_series", "evaluate",
    "exp_sinh", "gamma_real", "gauss_sum", "hurwitz_em", "kernel_G",
    "kernel_Gz", "kernel_H", "lerch_from_hurwitz",
    "phi_fe_rhs", "phi_integral", "phi_series",
    "polylog_series", "principal_log", "run_suite", "scan_zeros",
    "special_value", "suite_names", "tanh_sinh",
    "verify_kernel_expansion_z1", "verify_kernel_expansion_zne1",
    "verify_mellin_identity", "verify_six_relations",
    "zeta_fe_rhs",
]
