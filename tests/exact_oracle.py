"""Exact Fraction oracles for the residue sums, the lemma right sides and
the prime tables, and the coefficient-list parser of the witness files.

The package computes the sums S(alpha, M) and the 8^(-k) sum term by term
mod p^e, and the five lemma right sides and the prefix tables j!, H_j,
H_j^(2) and sum (-1)^k/k^2 as residues mod p^4, and checks the
Euler-polynomial identities on integer-scaled coefficients.  This module
keeps the exact rational route as an independent check: Pochhammer
symbols, harmonic sums and Euler polynomial values as Fractions, reduced
only at the end.
"""

import math
from fractions import Fraction

from supercong import sequences
from supercong.sequences import _horner, harmonic, pochhammer


def sum_main_exact(alpha: Fraction, M: int) -> Fraction:
    """sum_{k=0}^{M} (-1)^k (2k+alpha) (alpha)_k^3 / k!^3."""
    alpha = Fraction(alpha)
    total = Fraction(0)
    for k in range(M + 1):
        sign = -1 if k % 2 else 1
        total += (
            sign
            * (2 * k + alpha)
            * pochhammer(alpha, k) ** 3
            / Fraction(math.factorial(k)) ** 3
        )
    return total


def sum_mao_exact(M: int) -> Fraction:
    """sum_{k=0}^{M} (-1)^k (6k+1) (1/2)_k^3 / (k!^3 8^k)."""
    half = Fraction(1, 2)
    total = Fraction(0)
    for k in range(M + 1):
        sign = -1 if k % 2 else 1
        total += (
            sign
            * (6 * k + 1)
            * pochhammer(half, k) ** 3
            / (Fraction(math.factorial(k)) ** 3 * 8**k)
        )
    return total


_altsq: list[Fraction] = [Fraction(0)]


def alternating_reciprocal_squares(n: int) -> Fraction:
    """sum_{k=1}^{n} (-1)^k / k^2."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    while len(_altsq) <= n:
        k = len(_altsq)
        _altsq.append(_altsq[-1] + Fraction((-1) ** k, k**2))
    return _altsq[n]


def lemma_rhs_exact(fam: str, alpha: Fraction, p: int) -> Fraction:
    """The right side of one LEMMA_* family as an exact rational, in
    a = <-alpha>_p and t = (alpha + a)/p; the caller has checked the
    family's preconditions."""
    a = -alpha.numerator * pow(alpha.denominator, -1, p) % p
    t = (alpha + a) / p
    ha, ha2 = harmonic(a), harmonic(a, 2)
    if fam == "LEMMA_WZPROD":
        if a == p - 1:
            return p * t
        return -(p * p * t * (t + 1) / (a + 1)) * (
            1 + 2 * p * ha + p * (t + 2) / (a + 1)
        )
    if fam == "LEMMA_ALPHAP3":
        return (alpha + a) ** 3
    if fam == "LEMMA_SIGMA1":
        return (-1) ** (a + 1) * (alpha + a) ** 3 * (
            ha2 + 2 * alternating_reciprocal_squares(a)
        )
    if fam == "LEMMA_PROD":
        pt = alpha + a
        return (
            pt
            + p * pt * (t + 1) * ha
            + p**2 * pt * (t + 1) ** 2 / 2 * ha**2
            + p**2 * pt * (t**2 + 4 * t + 1) / 2 * ha2
        )
    # LEMMA_SIGMA
    sa = (-1) ** a
    return sa * p**2 * t * (t + 1) * (ha - Fraction(sa, a + 1)) + sa * p**3 * t * (
        t + 1
    ) * (
        (t + 1) / 2 * ha**2
        + (3 * t + 1) / 2 * ha2
        - Fraction(2 * sa, a + 1) * ha
        - sa * (t + 2) / (a + 1) ** 2
    )


def check_euler_identities(n_max: int, m_max: int) -> bool:
    """The Euler-polynomial identities of
    sequences.check_euler_identities, by Fraction Horner evaluation.

    The coefficients come from sequences.euler_poly_coeffs, looked up at
    call time, so a test that replaces it feeds both routes."""
    coeffs = [sequences.euler_poly_coeffs(n) for n in range(max(n_max, m_max) + 1)]

    for n in range(2, n_max + 1, 2):
        if coeffs[n][0] != 0 or sum(coeffs[n]) != 0:  # E_n(0), E_n(1)
            return False

    points = [Fraction(j, 2) for j in range(n_max + 2)]
    for n in range(n_max + 1):
        c = coeffs[n]
        flip = n % 2
        for x in points:
            y = _horner(c, x)
            if _horner(c, 1 - x) != (-y if flip else y):
                return False

    for m in range(1, m_max + 1):
        c = coeffs[m]
        e_m0 = c[0]
        acc = 0
        for n in range(1, n_max + 1):
            sign = (-1) ** n
            acc += sign * n**m
            if acc != Fraction(sign, 2) * (_horner(c, Fraction(n + 1)) + sign * e_m0):
                return False
    return True


def poly_from_string(text: str) -> tuple[int, ...]:
    """The coefficient tuple of a comma-separated list, lowest degree first,
    with "0" for () (the inverse of qseries._poly_str)."""
    cs = tuple(int(part) for part in text.strip().split(","))
    return () if cs == (0,) else cs
