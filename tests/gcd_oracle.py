"""Lowest-terms oracle for the q-congruence tests.

The package tests congruences at roots of unity, from factorizations it
knows.  This module keeps the integer gcd route as an independent check: a
primitive pseudo-remainder gcd in Z[q], reduction of a rational function to
lowest terms, and the congruence test built on them.  It also keeps the
dense construction of the e2/f2 sums (one full cube power per term), and
two ways to find how often Phi_d divides a polynomial: by exact division,
and by the order of vanishing at a d-th root of unity mod a prime.
"""

import math
from functools import lru_cache
from itertools import accumulate, count, repeat
from operator import add, mul

import sympy

from supercong.qseries import (
    IntPoly,
    RationalFunction,
    cyclotomic,
    q_integer,
    q_pochhammer,
)


def content(f: IntPoly) -> int:
    return math.gcd(*f.coeffs) if f.coeffs else 0


def primitive_part(f: IntPoly) -> IntPoly:
    """f divided by ±content so the leading coefficient is positive."""
    if f.is_zero:
        return f
    c = content(f)
    if f.lc < 0:
        c = -c
    return IntPoly(tuple(x // c for x in f.coeffs))


def pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """prem(f, g) = lc(g)^(deg f - deg g + 1) * f  mod g (fraction-free)."""
    if g.is_zero:
        raise ZeroDivisionError("pseudo-remainder by zero")
    if f.is_zero or f.degree < g.degree:
        return f
    e = int(f.degree - g.degree) + 1
    lg = g.lc
    r = f
    steps = 0
    while not r.is_zero and r.degree >= g.degree:
        shift = int(r.degree - g.degree)
        r = r * lg - IntPoly.monomial(r.lc, shift) * g
        steps += 1
    return r * lg ** (e - steps)


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd in Z[q] (primitive PRS), normalized to positive leading coefficient."""
    if f.is_zero and g.is_zero:
        return IntPoly.zero()
    if f.is_zero:
        return g if g.lc > 0 else -g
    if g.is_zero:
        return f if f.lc > 0 else -f
    c = math.gcd(content(f), content(g))
    a, b = primitive_part(f), primitive_part(g)
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = pseudo_rem(a, b)
        a, b = b, primitive_part(r)
    return c * a


def reduce(a: RationalFunction) -> RationalFunction:
    """Lowest terms, primitive parts, positive leading denominator coefficient."""
    if a.num.is_zero:
        return RationalFunction(IntPoly.zero(), IntPoly.one())
    n, d = a.num, a.den
    sign = 1 if (n.lc > 0) == (d.lc > 0) else -1
    np, dp = primitive_part(n), primitive_part(d)
    g = poly_gcd(np, dp)
    np, dp = np.exact_div(g), dp.exact_div(g)
    cn, cd = content(n), content(d)
    c = math.gcd(cn, cd)
    return RationalFunction(sign * (cn // c) * np, (cd // c) * dp)


def modulus_part(den: IntPoly, modulus: IntPoly) -> IntPoly:
    """The largest divisor of den supported on irreducible factors of modulus.

    Both arguments primitive; extraction by repeated gcd keeps every
    multiplicity (each pass removes one layer of the shared factors).
    """
    part = IntPoly.one()
    rest = den
    g = poly_gcd(rest, modulus)
    while g.degree > 0:
        part = part * g
        rest = rest.exact_div(g)
        g = poly_gcd(rest, g)
    return part


def gcd_witness(a: RationalFunction, modulus: IntPoly) -> IntPoly | None:
    """None when a ≡ 0 (mod modulus); otherwise a nonzero pseudo-remainder.

    With N/D the raw pair and dM the modulus-supported part of D, the
    lowest-terms condition is exactly (modulus * dM) | N.
    """
    m = primitive_part(modulus)
    if m.degree < 1 or a.num.is_zero:
        return None
    n = primitive_part(a.num)
    check = m * modulus_part(primitive_part(a.den), m)
    if n.try_exact_div(check) is not None:
        return None
    return pseudo_rem(n, check)


def lhs_q_dense(n: int, kind: str) -> RationalFunction:
    """e2/f2 partial sum by a Horner pass with dense cube powers per term."""
    m = n - 1
    pk = IntPoly.one()
    acc = IntPoly.zero()
    for k in range(m + 1):
        if k > 0:
            pk = pk - pk.shift(2 * k - 1 if kind == "e2" else 4 * k - 3)
        if kind == "e2":
            s_k = (q_integer(6 * k + 1) * pk**3).shift(3 * k * k)
        else:
            s_k = (q_integer(8 * k + 1) * pk**3).shift(2 * k * k + k)
        if k % 2:
            s_k = -s_k
        cube = (IntPoly.one() - IntPoly.monomial(1, 4 * k)) ** 3
        acc = s_k if k == 0 else acc * cube + s_k
    return RationalFunction(acc, q_pochhammer(4, 4, m) ** 3)


def cyclotomic_multiplicity(f: IntPoly, d: int) -> int:
    """The largest v with Phi_d^v | f, by repeated exact division (f != 0)."""
    v = 0
    while (quo := f.try_exact_div(cyclotomic(d))) is not None:
        f, v = quo, v + 1
    return v


@lru_cache(maxsize=None)
def _root_of_unity(d: int, bound: int) -> tuple[int, list[int]]:
    """The least prime p ≡ 1 (mod d) above bound, and the powers w^i, i < p,
    of an element w of order d in F_p."""
    p = next(p for p in count(bound // d * d + 1, d) if p > bound and sympy.isprime(p))
    w = next(w for w in (pow(g, (p - 1) // d, p) for g in range(2, p))
             if all(pow(w, k, p) != 1 for k in range(1, d)))
    return p, [pow(w, i, p) for i in range(p)]


def root_order(f: IntPoly, d: int, bound: int) -> int:
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
    cs = list(f.coeffs) + [0] * (-len(f.coeffs) % p)
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
