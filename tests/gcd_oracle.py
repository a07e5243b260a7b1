"""Lowest-terms oracle for the q-congruence tests, in sympy's ZZ[q].

The package tests congruences at roots of unity, from factorizations it
knows, and builds its polynomials from (1 - q^s) factors on coefficient
lists.  This module shares no arithmetic with it: its polynomials are
elements of sympy's sparse polynomial ring ZZ[q], whose cancel, gcd and
div reduce a rational function to lowest terms and test the congruence,
and which multiplies out the dense construction of the e2/f2 sums (one
full cube power per term) and their common denominator; Phi_d comes from
sympy's cyclotomic_poly.  It also keeps two ways to find how often Phi_d
divides a polynomial: by exact division, and by the order of vanishing at
a d-th root of unity mod a prime.
"""

from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, count, repeat
from operator import add, mul

import sympy

ZQ, Q = sympy.ring("q", sympy.ZZ)


def poly(f: Sequence[int]):
    """The element of ZZ[q] with the coefficients f, lowest degree first."""
    return ZQ.from_list(list(f)[::-1])


def coeff_tuple(f) -> tuple[int, ...]:
    """The coefficients of f in ZZ[q], lowest degree first, without trailing
    zeros: the package's polynomial form."""
    return tuple(int(c) for c in reversed(f.to_dense()))


@lru_cache(maxsize=None)
def phi(d: int):
    """The cyclotomic polynomial Phi_d."""
    return ZQ(sympy.cyclotomic_poly(d, sympy.Symbol("q")))


def q_int(m: int):
    """[m] = 1 + q + ... + q^(m-1)."""
    return ZQ.from_list([1] * m)


def reduce(num, den):
    """num / den in lowest terms, the denominator with a positive lead."""
    return num.cancel(den)


def congruent(num, den, modulus) -> bool:
    """num / den ≡ 0 (mod modulus) for a monic modulus: in lowest terms, the
    denominator is coprime to the modulus and the modulus divides the
    numerator (over ZZ, since the modulus is monic)."""
    n, d = reduce(num, den)
    return not n or (d.gcd(modulus).degree() == 0 and not n.rem(modulus))


@lru_cache(maxsize=None)
def dense_denominator(n: int):
    """((q^4;q^4)_{n-1})^3, one cube power per factor."""
    if n <= 1:
        return ZQ(1)
    return dense_denominator(n - 1) * (1 - Q ** (4 * (n - 1))) ** 3


@lru_cache(maxsize=None)
def _pochhammer_cube(k: int, kind: str):
    """(q;q^2)_k^3 for e2, (q;q^4)_k^3 for f2, one cube power per factor."""
    if k == 0:
        return ZQ(1)
    a = 2 * k - 1 if kind == "e2" else 4 * k - 3
    return _pochhammer_cube(k - 1, kind) * (1 - Q**a) ** 3


@lru_cache(maxsize=None)
def lhs_q_dense(n: int, kind: str):
    """(num, den) of the e2/f2 partial sum over den = ((q^4;q^4)_{n-1})^3.

    A Horner step in n: the numerator at n is the one at n - 1 times the
    full cube (1 - q^(4(n-1)))^3, plus the numerator of the summand
    k = n - 1, whose own denominator (q^4;q^4)_k^3 is the common one.
    """
    k = n - 1
    if kind == "e2":
        s_k = q_int(6 * k + 1) * _pochhammer_cube(k, kind) * Q ** (3 * k * k)
    else:
        s_k = q_int(8 * k + 1) * _pochhammer_cube(k, kind) * Q ** (2 * k * k + k)
    if k % 2:
        s_k = -s_k
    if k == 0:
        return s_k, ZQ(1)
    prev = lhs_q_dense(n - 1, kind)[0]
    return prev * (1 - Q ** (4 * k)) ** 3 + s_k, dense_denominator(n)


def cyclotomic_multiplicity(f, d: int) -> int:
    """The largest v with Phi_d^v | f, by repeated exact division (f != 0)."""
    v = 0
    while True:
        quo, rem = f.div(phi(d))
        if rem:
            return v
        f, v = quo, v + 1


@lru_cache(maxsize=None)
def _root_of_unity(d: int, bound: int) -> tuple[int, list[int]]:
    """The least prime p ≡ 1 (mod d) above bound, and the powers w^i, i < p,
    of an element w of order d in F_p."""
    p = next(p for p in count(bound // d * d + 1, d) if p > bound and sympy.isprime(p))
    w = next(w for w in (pow(g, (p - 1) // d, p) for g in range(2, p))
             if all(pow(w, k, p) != 1 for k in range(1, d)))
    return p, [pow(w, i, p) for i in range(p)]


def root_order(f: Sequence[int], d: int, bound: int) -> int:
    """Order of vanishing of f at a primitive d-th root of unity, mod a prime.

    The root w lives in F_p for the least prime p ≡ 1 (mod d) above bound.
    The order equals the multiplicity of Phi_d in f when f is a product of
    cyclotomic polynomials Phi_m with every m < p (the roots of Phi_m mod p
    have order m) and the order is below p.  Since (q - w)^p = q^p - w in
    F_p[q], f mod (q - w)^p is a fold of the coefficient blocks of length
    p, weighted by powers of w; the order is then read off by repeated
    division of g(w y) by y - 1 on fewer than p coefficients.
    """
    p, powers = _root_of_unity(d, bound)
    cs = list(f) + [0] * (-len(f) % p)
    g = [0] * p
    for m, start in enumerate(range(0, len(cs), p)):
        g = list(map(add, g, map(mul, cs[start:start + p], repeat(powers[m % d]))))
    # g(w y) vanishes at y = 1 to the same order; divide by y - 1 by suffix sums
    h = list(map(mul, g, powers))
    order = 0
    while h:
        h = list(accumulate(reversed(h)))
        if h.pop() % p:
            return order
        h = [c % p for c in reversed(h)]
        order += 1
    raise ValueError(f"the order at a root of Phi_{d} is not below {p}")
