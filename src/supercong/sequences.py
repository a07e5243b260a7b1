"""Rising factorials, Euler polynomials and the classical identity checks.

Pochhammer symbols and the coefficients of the Euler polynomials E_n(x)
are exact Fractions.  The Euler polynomials follow the Appell recurrence

    E_n(x) = x^n - (1/2) * sum_{k<n} C(n,k) E_k(x),

and the Euler numbers are E_n = 2^n E_n(1/2); the residues E_{p-3}(x) mod
p that the congruences read come from verifier's Euler tree.  The classical
identities the congruence machinery relies on (Lehmer's harmonic
congruences, the Euler reflection/vanishing rules, four alternating
binomial identities) are exposed as boolean checks on integers; Lehmer's
reads its harmonic numbers off the remainder trees of primes._tree, as
verifier reads its sums.  The Fraction harmonic numbers and Euler values
they replaced are kept in tests/exact_oracle.py as the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .primes import _tree

__all__ = [
    "pochhammer",
    "euler_poly_coeffs",
    "check_lehmer",
    "check_euler_identities",
    "check_binomial_identities",
]


def pochhammer(alpha: Fraction, k: int) -> Fraction:
    """Rising factorial (alpha)_k = alpha (alpha+1) ... (alpha+k-1), (alpha)_0 = 1."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    out = Fraction(1)
    for j in range(k):
        out *= alpha + j
    return out


# ---------------------------------------------------------------------------
# Euler polynomials, exact

_euler_at_zero: list[Fraction] = [Fraction(1)]  # E_k(0)


def euler_poly_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of E_n(x), lowest degree first, length n+1.

    E_n is an Appell sequence, E_n(x) = sum_k C(n,k) E_k(0) x^(n-k), and the
    recurrence at x = 0 reads E_m(0) = -(1/2) sum_{k<m} C(m,k) E_k(0).
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    e0 = _euler_at_zero
    while len(e0) <= n:
        m = len(e0)
        e0.append(-sum(math.comb(m, k) * e0[k] for k in range(m)) / 2)
    return tuple(math.comb(n, j) * e0[n - j] for j in range(n + 1))


# ---------------------------------------------------------------------------
# identity checks

def check_lehmer(primes: list[int]) -> list[bool]:
    """Lehmer's congruences at each prime p > 3 of primes, in any order:

    H_{p-1} ≡ 0 (mod p^2),  H_{p-1}^(2) ≡ 0 (mod p),  H_{(p-1)/2}^(2) ≡ 0 (mod p),

    one verdict per entry, repeats included.  H_M^(m) is A / M!^m for the
    row (A, M!^m, M!^m) after the leaves (j^m, 1, j^m), j = 1..M, from the
    row (0, 1, 1): one remainder tree (primes._tree) reads every H_{p-1}
    mod p^2, and a second every H^(2) mod p at p-1 and (p-1)/2.  M! is a
    unit mod p for M < p, so H ≡ 0 (mod p^e) exactly when p^e divides A.
    """
    for p in primes:
        if p <= 3 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"p must be a prime > 3, got {p}")
    cuts = {p: (p - 1, (p - 1) // 2) for p in primes}  # the M of H^(2) at p
    h1 = _tree(lambda j: (j, 1, j), (0, 1, 1), {p - 1: p * p for p in cuts})
    points: dict[int, int] = {}
    for p, Ms in cuts.items():
        for M in Ms:  # (p-1)/2 of p = 2q-1 is q-1 of q
            points[M] = points.get(M, 1) * p
    h2 = _tree(lambda j: (j * j, 1, j * j), (0, 1, 1), points)
    return [h1[p - 1][0] % p**2 == 0 and all(h2[M][0] % p == 0 for M in cuts[p])
            for p in primes]


def _horner_halves(a: list[int], j: int) -> int:
    """sum_i a_i j^i 2^(n-i) with n = len(a) - 1: 2^n P(j/2) for the
    polynomial P with coefficients a, lowest degree first, in integers."""
    n = len(a) - 1
    out = 0
    for i in range(n, -1, -1):
        out = out * j + (a[i] << (n - i))
    return out


def check_euler_identities(n_max: int, m_max: int) -> bool:
    """Classical Euler-polynomial identities, checked exactly:

    * E_{2n}(0) = E_{2n}(1) = 0 for 1 <= n <= n_max//2;
    * reflection E_n(1-x) = (-1)^n E_n(x) for n <= n_max at the n_max+2
      points x = j/2, 0 <= j <= n_max+1 (enough points to pin down a
      degree-n_max polynomial);
    * sum_{k=1}^{n} (-1)^k k^m = ((-1)^n/2) (E_m(n+1) + (-1)^n E_m(0))
      for n <= n_max, 1 <= m <= m_max (at m = 0 the k = 0 term of the
      telescoped form contributes 1, so the closed form starts at m = 1).

    Each E_n's coefficients are built once per call and scaled by D_n,
    the lcm of their denominators (a power of 2), to integers a_i.  Each
    identity is then one integer equality: a_0 = 0 and sum a_i = 0;
    2^n D_n E_n(j/2) = sum_i a_i j^i 2^(n-i) at j and at 2 - j; and
    2 D_m sum_{k<=n} (-1)^k k^m = s (D_m E_m(n+1) + s a_0), s = (-1)^n.
    No Fraction is formed after the coefficients.  The Fraction checks
    this replaced are kept in tests/exact_oracle.py as the oracle.
    """
    scaled = []  # (D_n, [a_0, ..., a_n])
    for n in range(max(n_max, m_max) + 1):
        c = euler_poly_coeffs(n)
        D = math.lcm(*(q.denominator for q in c))
        scaled.append((D, [q.numerator * (D // q.denominator) for q in c]))

    for n in range(2, n_max + 1, 2):
        a = scaled[n][1]
        if a[0] != 0 or sum(a) != 0:  # E_n(0), E_n(1)
            return False

    for n in range(n_max + 1):
        a = scaled[n][1]
        flip = n % 2
        for j in range(n_max + 2):
            y = _horner_halves(a, j)
            if _horner_halves(a, 2 - j) != (-y if flip else y):
                return False

    for m in range(1, m_max + 1):
        D, a = scaled[m]
        acc = 0
        for n in range(1, n_max + 1):
            s = -1 if n % 2 else 1
            acc += s * n**m
            val = 0  # D_m E_m(n+1)
            for coef in reversed(a):
                val = val * (n + 1) + coef
            if 2 * D * acc != s * (val + s * a[0]):
                return False
    return True


def check_binomial_identities(n: int) -> bool:
    """Four alternating binomial-sum identities at a given n >= 1, exactly:

    sum (-1)^k / (k^2 C(n,k))      = H_n^(2) + 2 sum (-1)^k / k^2
    sum (-1)^k C(n,k) / k          = -H_n
    sum (-1)^k C(n,k) / k^2        = -(H_n^(2) + H_n^2) / 2
    sum (-1)^k C(n,k) H_k / k      = -H_n^(2)

    (all sums over k = 1..n).  With L = lcm(1..n), u_k = L/k and
    h_k = L H_k are integers, and each sum is an integer numerator over a
    fixed denominator: the second over L, the third and fourth over L^2,
    and the first over Lc L^2, with Lc the lcm of the C(n,k), which is
    lcm(1..n+1)/(n+1).  C(n,k) and Lc/C(n,k) are running products, the
    second exact because each of its values is an integer.  The term
    (-1)^k C(n,k) u_k is formed once per k, and the second, third and
    fourth numerators read it.  Each identity is then one integer
    equality, and no Fraction is formed.  The Fraction sums this replaced
    are kept in tests/wz_oracle.py as the oracle.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # lcm(1..n): every j <= n/2 has a multiple in (n/2, n]
    L = math.lcm(*range(n // 2 + 1, n + 1))
    Lc = math.lcm(L, n + 1) // (n + 1)  # = lcm of C(n, 0..n)
    s1 = s2 = s3 = s4 = 0
    h = h2 = a2 = 0  # L H_k, L^2 H_k^(2), L^2 sum_{j<=k} (-1)^j / j^2
    c, q = 1, Lc  # C(n, k) and Lc / C(n, k)
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        q = q * k // (n - k + 1)  # exact: Lc / C(n, k) is an integer
        u = L // k
        cu = c * u
        sq = u * u
        h += u
        h2 += sq
        if k % 2:
            cu, sq = -cu, -sq
        a2 += sq
        s1 += sq * q
        s2 += cu
        s3 += cu * u
        s4 += cu * h
    return (
        s1 == Lc * (h2 + 2 * a2)
        and s2 == -h
        and 2 * s3 == -(h2 + h * h)
        and s4 == -h2
    )
