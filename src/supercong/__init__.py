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
The top level re-exports the public names the demos and the README use,
each imported from its module on first use (PEP 562), so that importing a
submodule such as supercong.cli imports no check module it does not run;
everything else, such as the q-sum numerator qseries._sum_numerator, is
imported from its module.
"""

import importlib

__version__ = "0.1.0"

# each re-exported name and the module it comes from
_EXPORTS = {
    "least_nonneg_residue": "padic",
    "sieve_primes": "primes",
    "pochhammer": "sequences",
    "FAMILIES": "records",
    "LEMMA_FAMILIES": "records",
    "ramanujan_partial": "verifier",
    "verify_alpha": "verifier",
    "verify_prime": "verifier",
    "check_pair": "wz",
    "telescoped_rhs": "wz",
    "congruence_failure": "qseries",
    "conjecture41_witness": "qseries",
    "cyclotomic": "qseries",
    "q_integer": "qseries",
    "verify_q": "qseries",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
