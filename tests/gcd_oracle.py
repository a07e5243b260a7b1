"""Lowest-terms oracle for the q-congruence tests.

The package tests congruences at roots of unity.  This module keeps the
integer gcd route as an independent check: a primitive pseudo-remainder
gcd in Z[q], reduction of a rational function to lowest terms, and the
congruence test built on them.  It also keeps the dense construction of
the e2/f2 sums (one full cube power per term).
"""

import math

from supercong.qseries import IntPoly, RationalFunction, q_integer, q_pochhammer


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
    c = math.gcd(f.content(), g.content())
    a, b = f.primitive_part(), g.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = pseudo_rem(a, b)
        a, b = b, r.primitive_part()
    return c * a


def reduce(a: RationalFunction) -> RationalFunction:
    """Lowest terms, primitive parts, positive leading denominator coefficient."""
    if a.num.is_zero:
        return RationalFunction(IntPoly.zero(), IntPoly.one())
    n, d = a.num, a.den
    sign = 1 if (n.lc > 0) == (d.lc > 0) else -1
    np, dp = n.primitive_part(), d.primitive_part()
    g = poly_gcd(np, dp)
    np, dp = np.exact_div(g), dp.exact_div(g)
    cn, cd = n.content(), d.content()
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
    m = modulus.primitive_part()
    if m.degree < 1 or a.num.is_zero:
        return None
    n = a.num.primitive_part()
    check = m * modulus_part(a.den.primitive_part(), m)
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
