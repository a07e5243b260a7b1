"""Pochhammer, harmonic, and Euler number/polynomial machinery."""

import math
from fractions import Fraction

import pytest

from supercong.padic import NotPAdicIntegral
from supercong.primes import sieve_primes
from supercong.sequences import (
    check_binomial_identities,
    check_euler_identities,
    check_lehmer,
    euler_poly_coeffs,
    pochhammer,
    _HarmonicPrefix,
)

from exact_oracle import (
    alternating_reciprocal_squares,
    euler_number,
    euler_number_mod,
    euler_poly_eval,
    euler_poly_eval_mod,
    harmonic,
    reduce_mod,
)


def test_pochhammer_values():
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(Fraction(-3), 4) == 0
    assert pochhammer(Fraction(2), 3) == 24


def test_pochhammer_additivity():
    # (x)_{j+k} = (x)_j * (x+j)_k
    for x in (Fraction(1, 3), Fraction(-5, 2), Fraction(4)):
        for j in range(5):
            for k in range(5):
                assert pochhammer(x, j + k) == pochhammer(x, j) * pochhammer(
                    x + j, k
                )


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(4) == Fraction(25, 12)
    assert harmonic(6) == Fraction(49, 20)
    assert harmonic(4, 2) == Fraction(205, 144)
    assert harmonic(3, 2) == Fraction(49, 36)


def test_alternating_reciprocal_squares():
    assert alternating_reciprocal_squares(0) == 0
    assert alternating_reciprocal_squares(1) == -1
    assert alternating_reciprocal_squares(2) == Fraction(-3, 4)
    # partial sums: previous + (-1)^n / n^2
    assert alternating_reciprocal_squares(5) == alternating_reciprocal_squares(
        4
    ) - Fraction(1, 25)


def test_euler_numbers():
    assert [euler_number(n) for n in range(9)] == [1, 0, -1, 0, 5, 0, -61, 0, 1385]
    assert euler_number(10) == -50521


def test_euler_poly_coeffs_degree_four():
    # E_4(x) = x^4 - 2x^3 + x
    assert euler_poly_coeffs(4) == (
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(-2),
        Fraction(1),
    )


def test_euler_poly_eval():
    assert euler_poly_eval(4, Fraction(1, 3)) == Fraction(22, 81)
    assert euler_poly_eval(2, Fraction(1, 4)) == Fraction(-3, 16)
    assert euler_poly_eval(0, Fraction(9, 7)) == 1


def test_euler_number_is_scaled_half_value():
    for n in range(0, 51):
        assert euler_number(n) == 2**n * euler_poly_eval(n, Fraction(1, 2))


def test_euler_poly_eval_mod_matches_exact():
    for p in (5, 7, 11, 13, 103):
        for n in range(0, 40, 3):
            for x in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4)):
                if x.denominator % p == 0:
                    continue
                got = euler_poly_eval_mod(n, x, p).value
                want = reduce_mod(euler_poly_eval(n, x), p, 1).value
                assert got == want


def test_euler_poly_eval_mod_example():
    assert euler_poly_eval_mod(4, Fraction(1, 3), 7).value == 2


def test_euler_number_mod():
    for p in (5, 7, 13):
        for n in (0, 2, 4, 6, 10):
            assert euler_number_mod(n, p).value == euler_number(n) % p


def test_euler_mod_p2_rejected():
    with pytest.raises(ValueError, match="needs 1/2"):
        euler_poly_eval_mod(4, Fraction(1, 3), 2)


def test_euler_mod_non_integral_point():
    with pytest.raises(NotPAdicIntegral):
        euler_poly_eval_mod(4, Fraction(1, 5), 5)


def test_check_lehmer():
    assert check_lehmer([5]) == [True]
    assert check_lehmer([5, 7, 13]) == [True, True, True]
    primes = sieve_primes(5, 199)
    assert check_lehmer(primes) == [True] * len(primes)
    assert check_lehmer([]) == []
    # a prime checked alone or after others gets the same verdict
    assert check_lehmer([197, 199]) == check_lehmer(primes)[-2:]


@pytest.mark.parametrize("m", [1, 2])
def test_harmonic_prefix_matches_the_fractions(m):
    # the running prefix check_lehmer reads, H_n^(m) = num / L^m with
    # L = lcm(1..n): at every n <= 400 in increasing order, and at every
    # seventh n once more, the n the prefix already holds
    prefix = _HarmonicPrefix(m)
    for n in sorted([*range(401), *range(0, 401, 7)]):
        num, L = prefix.at(n)
        assert L == math.lcm(*range(1, n + 1)), n
        assert Fraction(num, L**m) == harmonic(n, m), n


def test_harmonic_prefix_refuses_a_smaller_n():
    prefix = _HarmonicPrefix(2)
    held = prefix.at(17)
    with pytest.raises(ValueError, match=r"the prefix holds H_17, cannot go back to H_16"):
        prefix.at(16)
    assert prefix.at(17) == held  # the same n is not a step back


def _out_of_order(later, last):
    return pytest.raises(
        ValueError, match=f"primes must be strictly increasing, got {later} after {last}")


def test_lehmer_at_decreasing_primes():
    # the prefixes only move forward, so primes out of order are refused
    with _out_of_order(197, 199):
        check_lehmer(list(reversed(sieve_primes(5, 199))))
    with _out_of_order(11, 13):
        check_lehmer([5, 13, 11])


def test_lehmer_at_a_repeated_prime():
    with _out_of_order(5, 5):
        check_lehmer([5, 5])
    with _out_of_order(7, 7):
        check_lehmer([5, 7, 7, 11])


@pytest.mark.parametrize("n", [9, 25, 49])
def test_check_lehmer_rejects_a_composite(n):
    with pytest.raises(ValueError, match=f"p must be a prime > 3, got {n}"):
        check_lehmer([n])
    with pytest.raises(ValueError, match=f"p must be a prime > 3, got {n}"):
        check_lehmer([5, 7, n])


@pytest.mark.parametrize("n", [3, 2, 1, 0, -5])
def test_check_lehmer_rejects_3_and_below(n):
    with pytest.raises(ValueError, match=f"p must be a prime > 3, got {n}"):
        check_lehmer([n])


def test_check_euler_identities():
    assert check_euler_identities(12, 6)


def test_euler_power_sum_instance():
    # sum_{k=1}^{3} (-1)^k k^2 = -1 + 4 - 9 = -6, and E_2(x) = x^2 - x:
    # ((-1)^3/2) (E_2(4) - E_2(0)) = -(12 - 0)/2 = -6
    assert euler_poly_eval(2, Fraction(4)) == 12
    assert Fraction(-1, 2) * (euler_poly_eval(2, Fraction(4)) - 0) == -6


def test_check_binomial_identities():
    assert all(check_binomial_identities(n) for n in range(1, 31))


def test_lcm_of_a_binomial_row():
    # check_binomial_identities puts its first sum over lcm(1..n+1)/(n+1),
    # the lcm of C(n, 0), ..., C(n, n)
    for n in range(1, 201):
        row = [math.comb(n, k) for k in range(n + 1)]
        assert math.lcm(*row) == math.lcm(*range(1, n + 2)) // (n + 1), n
