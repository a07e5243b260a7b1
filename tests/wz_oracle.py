"""Fraction oracle for the integer certificate-pair and identity checks.

The package checks the pair relation as one integer equality per point,
over a common denominator and less the factor P_n^2 its four numerators
share; it carries the telescoped partial sum across N and forms the
closed form over the same denominator, and it sums the binomial
identities as integer numerators.  This module keeps the exact Fraction
route as an independent check: Pochhammer symbols as Fraction products,
F and G evaluated as values, the pair relation compared point by point
with every point of the grid visited (rows with P_n = 0 included), each
partial sum rebuilt from k = 0 against the closed form, and the four
binomial sums accumulated term by term.  The exceptions and their
messages are those the package must also raise.  F and G also come as
unreduced integer (numerator, denominator) pairs off a wz._Table, the
table of P_m and factorials that check_pair and check_telescoped read.
"""

import math
from fractions import Fraction

from supercong.wz import DivisionByZeroTerm

from exact_oracle import alternating_reciprocal_squares, harmonic


def poch(alpha: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= alpha + j
    return out


def _poch_den(alpha: Fraction, k: int, where: str) -> Fraction:
    v = poch(alpha, k)
    if v == 0:
        raise DivisionByZeroTerm(f"(alpha)_{k} = 0 for alpha={alpha} in {where}")
    return v


def eval_F(n: int, k: int, alpha: Fraction) -> Fraction:
    a = Fraction(alpha)
    pk = _poch_den(a, k, f"F({n},{k})")
    if n - k < 0:
        return Fraction(0)
    sign = -1 if (n + k) % 2 else 1
    num = sign * (2 * n + a) * poch(a, n) ** 2 * poch(a, n + k)
    den = Fraction(math.factorial(n)) ** 2 * math.factorial(n - k) * pk**2
    return num / den


def eval_G(n: int, k: int, alpha: Fraction) -> Fraction:
    a = Fraction(alpha)
    pk = _poch_den(a, k, f"G({n},{k})")
    if n == 0 or n - k < 0:
        return Fraction(0)
    sign = -1 if (n + k) % 2 else 1
    num = sign * poch(a, n) ** 2 * poch(a, n + k - 1)
    den = Fraction(math.factorial(n - 1)) ** 2 * math.factorial(n - k) * pk**2
    return num / den


def F(t, n: int, k: int) -> tuple[int, int]:
    """F(n, k) for 0 <= k <= n from the wz._Table t:
    (-1)^(n+k) (2nd + r) P_n^2 P_{n+k} / (d^(3n-k+1) n!^2 (n-k)! P_k^2)."""
    P, fact, d = t.P, t.fact, t.d
    num = (2 * n * d + t.r) * P[n] ** 2 * P[n + k]
    den = d ** (3 * n - k + 1) * fact[n] ** 2 * fact[n - k] * P[k] ** 2
    return (-num if (n + k) % 2 else num), den


def G(t, n: int, k: int) -> tuple[int, int]:
    """G(n, k) for 0 <= k <= n, n >= 1, from the wz._Table t:
    (-1)^(n+k) P_n^2 P_{n+k-1} / (d^(3n-k-1) (n-1)!^2 (n-k)! P_k^2)."""
    P, fact = t.P, t.fact
    num = P[n] ** 2 * P[n + k - 1]
    den = t.d ** (3 * n - k - 1) * fact[n - 1] ** 2 * fact[n - k] * P[k] ** 2
    return (-num if (n + k) % 2 else num), den


def check_pair(n_max: int, k_max: int, alphas) -> bool:
    for a in alphas:
        for n in range(n_max + 1):
            for k in range(1, k_max + 1):
                lhs = eval_F(n, k - 1, a) - eval_F(n, k, a)
                rhs = eval_G(n + 1, k, a) - eval_G(n, k, a)
                if lhs != rhs:
                    return False
    return True


def telescoped_rhs(N: int, alpha: Fraction) -> Fraction:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    a = Fraction(alpha)
    fnm1 = Fraction(math.factorial(N - 1))
    head = poch(a, 2 * N - 1) / fnm1**2
    corr = Fraction(0)
    for k in range(1, N):
        pk = _poch_den(a, k, f"telescoped_rhs(N={N})")
        sign = -1 if k % 2 else 1
        corr += sign * poch(a, N + k - 1) / (math.factorial(N - k) * pk**2)
    nsign = -1 if N % 2 else 1
    return head + nsign * poch(a, N) ** 2 / fnm1**2 * corr


def check_telescoped(N: int, alpha: Fraction) -> bool:
    a = Fraction(alpha)
    lhs = sum((eval_F(k, 0, a) for k in range(N)), Fraction(0))
    return lhs == telescoped_rhs(N, a)


def check_binomial_identities(n: int) -> bool:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s1 = s2 = s3 = s4 = Fraction(0)
    hk = Fraction(0)
    for k in range(1, n + 1):
        sign = (-1) ** k
        c = math.comb(n, k)
        hk += Fraction(1, k)
        s1 += Fraction(sign, k**2 * c)
        s2 += Fraction(sign * c, k)
        s3 += Fraction(sign * c, k**2)
        s4 += Fraction(sign * c, k) * hk
    hn = harmonic(n, 1)
    hn2 = harmonic(n, 2)
    return (
        s1 == hn2 + 2 * alternating_reciprocal_squares(n)
        and s2 == -hn
        and s3 == -(hn2 + hn * hn) / 2
        and s4 == -hn2
    )
