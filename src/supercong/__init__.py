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
floating-point smoke check.  A sum is read from the record that checks
it: verify_alpha(alpha, p, ("MAIN1",))[0].lhs is S(alpha, p-1) mod p^4.
The top level re-exports the public names the demos and the README use;
everything else, such as the q-sum numerator qseries._sum_numerator, is
imported from its module.
"""

from .padic import least_nonneg_residue
from .primes import sieve_primes
from .sequences import pochhammer
from .verifier import (
    FAMILIES,
    LEMMA_FAMILIES,
    ramanujan_partial,
    verify_alpha,
    verify_prime,
)
from .wz import check_pair, telescoped_rhs
from .qseries import (
    congruence_failure,
    conjecture41_witness,
    cyclotomic,
    q_integer,
    verify_q,
)

__version__ = "0.1.0"
