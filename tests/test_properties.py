"""Property tests: the residue fast paths against independent exact oracles.

Euler residues are checked against exact Euler polynomials and against
sympy's Euler numbers; the residue sums against their exact Fraction sums.
sympy is a test-only dependency.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supercong.padic import MAX_EXPONENT, decompose, reduce_mod
from supercong.primes import sieve_primes
from supercong.records import SkippedWhenAEqualsPMinus1
from supercong.sequences import (
    euler_number_mod,
    euler_poly_eval,
    euler_poly_eval_mod,
    pochhammer,
)
from supercong.verifier import (
    sum_main,
    sum_main_exact,
    sum_mao,
    sum_mao_exact,
    verify_tail,
)

PROPS = settings(max_examples=150, deadline=None)

odd_primes_to_60 = st.sampled_from(sieve_primes(3, 60))
primes_to_31 = st.sampled_from(sieve_primes(3, 31))
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


def _mod(x: Fraction, m: int) -> int:
    # independent of padic.reduce_mod, and not capped at MAX_EXPONENT
    return x.numerator * pow(x.denominator, -1, m) % m


@PROPS
@given(p=odd_primes_to_60, data=st.data(), x=rationals)
def test_euler_poly_residue_matches_exact(p, data, x):
    assume(x.denominator % p)
    n = data.draw(st.integers(0, 3 * p), label="n")
    got = euler_poly_eval_mod(n, x, p).value
    assert got == reduce_mod(euler_poly_eval(n, x), p, 1).value


@PROPS
@given(p=odd_primes_to_60, data=st.data())
def test_euler_number_residue_matches_sympy(p, data):
    n = data.draw(st.integers(0, 3 * p), label="n")
    assert euler_number_mod(n, p).value == int(sympy.euler(n)) % p


@PROPS
@given(p=primes_to_31, data=st.data(), alpha=rationals, e=st.integers(1, 5))
def test_sum_main_matches_exact(p, data, alpha, e):
    assume(alpha.denominator % p)
    M = data.draw(st.integers(0, p - 1), label="M")
    if e > MAX_EXPONENT:
        with pytest.raises(ValueError):
            sum_main(alpha, M, p, e)
        return
    got = sum_main(alpha, M, p, e)
    assert got.modulus == p**e
    assert got.value == _mod(sum_main_exact(alpha, M), p**e)


@PROPS
@given(p=primes_to_31, data=st.data(), e=st.integers(1, 5))
def test_sum_mao_matches_exact(p, data, e):
    M = data.draw(st.integers(0, p - 1), label="M")
    got = sum_mao(M, p, e)
    assert got.modulus == p**e
    assert got.value == _mod(sum_mao_exact(M), p**e)


@PROPS
@given(p=st.sampled_from(sieve_primes(5, 23)), alpha=rationals)
def test_tail_record_matches_exact_tail(p, alpha):
    assume(alpha.denominator % p)
    a = decompose(alpha, p).a
    if a == p - 1:
        with pytest.raises(SkippedWhenAEqualsPMinus1):
            verify_tail(alpha, p)
        return
    tail = sum(
        (
            (-1) ** k * (2 * k + alpha) * pochhammer(alpha, k) ** 3
            / math.factorial(k) ** 3
            for k in range(a + 1, p)
        ),
        Fraction(0),
    )
    rec = verify_tail(alpha, p)
    assert rec.lhs.value == _mod(tail, p**4)
    assert rec.passed
