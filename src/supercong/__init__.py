"""Exact verification of truncated hypergeometric supercongruences.

The package checks, over ranges of primes p and rational parameters:

* classical sums with weights (4k+1), (6k+1), (8k+1) against closed forms
  modulo p^3 and p^4, including the Euler-polynomial correction terms;
* the general parameterised sum and its short truncation modulo p^4,
  plus the vanishing of the trailing block of terms;
* the supporting Pochhammer-quotient lemmas, Lehmer's harmonic-sum
  congruences, and families of exact binomial/Euler identities;
* a rational-function pair certificate and its telescoped form;
* polynomial q-congruences modulo [n] * Phi_n(q)^2 and the mod-cubed
  difference conjecture, with counterexample witnesses.

Everything is integer or rational arithmetic; no floats except the one
floating-point smoke check.
"""

from .padic import (
    AlphaDecomposition,
    NotPAdicIntegral,
    ResidueClass,
    decompose,
    is_p_integral,
    legendre,
    least_nonneg_residue,
    parse_rational,
    reduce_mod,
)
from .primes import EmptyRange, sieve_primes
from .records import (
    PreconditionViolated,
    ResidueConditionViolated,
    SkippedWhenAEqualsPMinus1,
    TruncationTooLarge,
    VerificationRecord,
)
from .sequences import (
    InverseMissing,
    alternating_reciprocal_squares,
    check_binomial_identities,
    check_euler_identities,
    check_lehmer,
    euler_number,
    euler_number_mod,
    euler_poly_coeffs,
    euler_poly_eval,
    euler_poly_eval_mod,
    harmonic,
    pochhammer,
)
from .verifier import (
    ALPHA_FAMILIES,
    FAMILIES,
    LEMMA_FAMILIES,
    MAO_VARIANTS,
    PRIME_FAMILIES,
    ramanujan_partial,
    sum_main,
    sum_main_exact,
    sum_mao,
    sum_mao_exact,
    verify_alpha,
    verify_prime,
)
from .wz import (
    DivisionByZeroTerm,
    check_pair,
    check_telescoped,
    eval_F,
    eval_G,
    sample_alphas,
    telescoped_rhs,
)
from .qseries import (
    IntPoly,
    RationalFunction,
    ZeroModulus,
    congruence_failure,
    congruence_witness,
    congruent_mod,
    conjecture41_witness,
    cyclotomic,
    lhs_e2_q,
    lhs_f2_q,
    q_integer,
    q_limit_term_check,
    q_pochhammer,
    verify_conjecture41,
    verify_gz,
)
from .sweep import (
    ConfigError,
    ReportSummary,
    SweepConfig,
    exit_code,
    render,
    run_identities,
    run_smoke,
    run_sweep,
    run_wz,
)

__version__ = "0.1.0"
