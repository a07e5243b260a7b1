"""Pochhammer, harmonic, and Euler number/polynomial machinery."""

import math
from fractions import Fraction

import pytest

from supercong import sequences
from supercong.padic import NotPAdicIntegral
from supercong.primes import _tree, sieve_primes
from supercong.sequences import (
    check_binomial_identities,
    check_euler_identities,
    check_lehmer,
    euler_poly_coeffs,
    pochhammer,
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


def test_lehmer_in_any_order_and_with_repeats():
    # one verdict per entry, each that of its prime checked alone
    for primes in ([7, 5, 7], [13, 11, 7, 5], [199, 5, 199, 5, 13, 7]):
        assert check_lehmer(primes) == [check_lehmer([p])[0] for p in primes]
    primes = sieve_primes(5, 199)
    assert check_lehmer(primes[::-1] + primes) == [True] * (2 * len(primes))


def _lehmer_trees(monkeypatch, shift=None):
    """The (leaf, row, points) of each tree check_lehmer builds, in order;
    with shift, the H_{p-1} tree (the first) starts from row[0] +
    shift(points)."""
    trees = []
    tree = sequences._tree

    def spy(leaf, row, points):
        if shift is not None and not trees:
            row = (row[0] + shift(points), *row[1:])
        trees.append((leaf, row, points))
        return tree(leaf, row, points)

    monkeypatch.setattr(sequences, "_tree", spy)
    return trees


@pytest.mark.parametrize("m", [1, 2])
def test_harmonic_prefix_matches_the_fractions(monkeypatch, m):
    # check_lehmer's tree of order m, rebuilt mod p^3 at every prime
    # 5 <= p <= 2000, against the Fraction oracle: the first tree gives
    # H_{p-1}, the second H_{p-1}^(2) and H_{(p-1)/2}^(2), each as A / D with
    # D = M!^m.  H_{p-1} mod p^3 is nonzero at these primes, so a tree that
    # reads the wrong power of p, or the wrong harmonic order, fails here
    trees = _lehmer_trees(monkeypatch)
    check_lehmer([5])
    leaf, row, _ = trees[m - 1]
    primes = sieve_primes(5, 2000)
    cuts = {p: (p - 1, (p - 1) // 2) if m == 2 else (p - 1,) for p in primes}
    points = {}
    for p, Ms in cuts.items():
        for M in Ms:
            points[M] = points.get(M, 1) * p**3
    rows = _tree(leaf, row, points)
    for p, Ms in cuts.items():
        for M in Ms:
            A, _, D = rows[M]
            got = A * pow(D, -1, p**3) % p**3
            assert got == reduce_mod(harmonic(M, m), p, 3).value, (p, M, m)
    assert all(reduce_mod(harmonic(p - 1), p, 3).value for p in primes)


def test_lehmer_trees_read_each_prime_mod_its_power(monkeypatch):
    # every H_{p-1} mod p^2, every H^(2) mod p at p-1 and (p-1)/2; a cut
    # that two primes share ((p-1)/2 of 13 is 7-1) needs both.  At a true
    # prime each residue is 0, and 0 mod the kept prime reads as 0 mod any
    # other, so no verdict shows a modulus that drops a prime
    trees = _lehmer_trees(monkeypatch)
    primes = sieve_primes(5, 199)
    check_lehmer(primes)
    [(_, _, h1), (_, _, h2)] = trees
    for p in primes:
        assert h1[p - 1] % p**2 == 0, p
        assert h2[p - 1] % p == 0 and h2[(p - 1) // 2] % p == 0, p
    assert h2[6] % (7 * 13) == 0


def test_lehmer_tells_mod_p_from_mod_p_squared(monkeypatch):
    # Wolstenholme: H_{p-1} ≡ 0 (mod p^2) at every p > 3, so no true prime
    # shows a read of H_{p-1} mod p only.  Started from the product of the
    # primes, the H_{p-1} tree gives A ≡ p u (mod p^2), u a unit: 0 mod p
    # but not mod p^2, which must fail at every prime
    trees = _lehmer_trees(monkeypatch, lambda points: math.prod(M + 1 for M in points))
    assert check_lehmer([5, 7, 13, 199]) == [False] * 4
    assert len(trees) == 2


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
