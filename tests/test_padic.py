"""Rational residue arithmetic: parsing, reduction, decomposition, Legendre."""

import re
from fractions import Fraction

import pytest

from supercong.padic import (
    NotPAdicIntegral,
    ResidueClass,
    is_p_integral,
    least_nonneg_residue,
    legendre,
    parse_rational,
)
from supercong.primes import sieve_primes
from exact_oracle import _poch_prefix, reduce_mod


def test_parse_rational():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(" 7/3 ") == Fraction(7, 3)
    assert parse_rational("-9/6") == Fraction(-3, 2)


@pytest.mark.parametrize("bad", ["1.5", "", "3/", "/4", "1/-2", "a/b", "1 / 2", "1/0"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_reduce_mod_basics():
    r = reduce_mod(Fraction(1, 3), 7, 4)
    assert r == ResidueClass(1601, 2401)
    assert (3 * r.value - 1) % 2401 == 0
    assert reduce_mod(0, 5, 4) == ResidueClass(0, 625)
    assert reduce_mod(10, 7, 1).value == 3
    assert reduce_mod(Fraction(-1, 2), 5, 2) == ResidueClass(12, 25)


def test_reduce_mod_matches_brute_force_inverse():
    for p in (5, 7, 11):
        for e in (1, 2, 3, 4):
            m = p**e
            for num in (-7, -1, 1, 2, 9, 23):
                for den in (1, 2, 3, 4, 9):
                    if den % p == 0:
                        continue
                    x = Fraction(num, den)
                    got = reduce_mod(x, p, e).value
                    assert (got * x.denominator - x.numerator) % m == 0
                    assert 0 <= got < m
    # least_nonneg_residue computes its residue mod p on its own: the same
    # brute-force inverse, and the same refusal of a non-p-integral x
    for p in sieve_primes(2, 31):
        for num in range(-12, 13):
            for den in range(1, 13):
                x = Fraction(num, den)
                if x.denominator % p == 0:
                    msg = f"{x} has no residue mod {p}^1"
                    with pytest.raises(NotPAdicIntegral, match=re.escape(msg)):
                        least_nonneg_residue(x, p)
                    continue
                r = least_nonneg_residue(x, p)
                assert (r * x.denominator - x.numerator) % p == 0
                assert 0 <= r < p


def test_reduce_mod_rejects_non_integral():
    with pytest.raises(NotPAdicIntegral):
        reduce_mod(Fraction(1, 5), 5, 2)
    with pytest.raises(NotPAdicIntegral):
        reduce_mod(Fraction(3, 10), 5, 1)


def test_reduce_mod_validates_exponent():
    with pytest.raises(ValueError):
        reduce_mod(1, 5, 0)
    with pytest.raises(ValueError):
        reduce_mod(1, 5, 5)


def test_is_p_integral():
    assert is_p_integral(Fraction(1, 3), 5)
    assert not is_p_integral(Fraction(1, 3), 3)
    assert is_p_integral(Fraction(10), 5)


def test_least_nonneg_residue():
    assert least_nonneg_residue(Fraction(-1, 3), 7) == 2
    assert least_nonneg_residue(Fraction(-1, 4), 13) == 3
    assert least_nonneg_residue(Fraction(0), 11) == 0


def _decompose(alpha, p):
    # alpha + a = p*t with a = <-alpha>_p, as the paper splits alpha
    a = least_nonneg_residue(-alpha, p)
    return a, (alpha + a) / p


def test_decompose_examples():
    for alpha, p, a, t in ((Fraction(1, 3), 7, 2, Fraction(1, 3)),
                           (Fraction(-1, 2), 5, 3, Fraction(1, 2)),
                           (Fraction(1, 4), 13, 3, Fraction(1, 4)),
                           (Fraction(1), 11, 10, Fraction(1))):
        assert _decompose(alpha, p) == (a, t)
        # the per-prime oracle's prefix carries the same a, and t mod p^4
        assert _poch_prefix(alpha, p, 0)[3:] == (a, reduce_mod(t, p, 4).value)


def test_decompose_identity_holds():
    # alpha + a = p*t exactly, with 0 <= a < p and t p-integral
    for p in (5, 7, 13, 29):
        for alpha in (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(4)):
            if alpha.denominator % p == 0:
                continue
            a, t = _decompose(alpha, p)
            assert 0 <= a < p
            assert alpha + a == p * t
            assert t.denominator % p != 0


def test_legendre_values():
    assert legendre(-2, 13) == -1
    assert legendre(-2, 17) == 1
    assert legendre(2, 7) == 1
    assert legendre(0, 7) == 0
    assert legendre(-1, 5) == 1


def test_legendre_brute_force():
    for p in (5, 7, 11, 13, 17):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(-p, p):
            want = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == want


def test_legendre_multiplicative():
    for p in (7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_minus_two_parity_identity():
    # for p ≡ 1 (mod 4): (-2|p) = (-1)^((p-1)/4)
    for p in sieve_primes(5, 2000, 4, 1):
        assert legendre(-2, p) == (-1) ** ((p - 1) // 4)


def test_legendre_requires_odd_prime():
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_residue_class_str_and_int():
    r = ResidueClass(5, 625)
    assert int(r) == 5
    assert "5" in str(r) and "625" in str(r)
    with pytest.raises(ValueError):
        ResidueClass(625, 625)
    with pytest.raises(ValueError):
        ResidueClass(-1, 625)


def test_residue_class_refuses_out_of_range_with_its_messages():
    with pytest.raises(ValueError, match=r"^modulus must be positive, got 0$"):
        ResidueClass(0, 0)
    with pytest.raises(ValueError, match=r"^modulus must be positive, got -5$"):
        ResidueClass(0, -5)
    with pytest.raises(ValueError, match=r"^value 625 outside \[0, 625\)$"):
        ResidueClass(625, 625)
    with pytest.raises(ValueError, match=r"^value -1 outside \[0, 625\)$"):
        ResidueClass(-1, 625)
    assert ResidueClass(value=0, modulus=1) == ResidueClass(0, 1)
    # the namedtuple constructors check too
    with pytest.raises(ValueError, match=r"^value 7 outside \[0, 5\)$"):
        ResidueClass(1, 5)._replace(value=7)
    with pytest.raises(ValueError, match=r"^modulus must be positive, got 0$"):
        ResidueClass._make((0, 0))
    assert ResidueClass(1, 5)._replace(value=4) == ResidueClass(4, 5)
