"""A WZ pair for alternating (2k+alpha)(alpha)_k^3/k!^3 sums.

With alpha = r/d in lowest terms (d > 0), every Pochhammer symbol is an
integer prefix product over a power of d:

    (alpha)_m = P_m / d^m,    P_m = prod_{j<m} (r + j d).

So, with the convention 1/(1)_m = 0 for m < 0,

    F(n, k) = (-1)^(n+k) (2nd + r) P_n^2 P_{n+k} / (d^(3n-k+1) n!^2 (n-k)! P_k^2),
    G(n, k) = (-1)^(n+k) P_n^2 P_{n+k-1} / (d^(3n-k-1) (n-1)!^2 (n-k)! P_k^2).

check_pair compares the two sides of the pair relation

    F(n, k-1) - F(n, k) = G(n+1, k) - G(n, k)

as one equality of integers per point: brought over one denominator and
rid of the factor P_n^2 that all four numerators share, each term is a
small integer times P_{n+k-1} or P_{n+k}, read off one table of P_m.  The
relation telescopes (sum over n = 0..N-1) into a closed form for the
partial sums, which check_telescoped verifies for N = 1..n_max from one
table: the partial sum is carried from N to N+1 in one step, and the
closed form is one O(N) integer sum over the same denominator.  Only
telescoped_rhs builds a Fraction, from the same integers.  The Fraction
loops these checks replaced, and F and G of a table as (numerator,
denominator) pairs, are kept in tests/wz_oracle.py as the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

__all__ = [
    "DivisionByZeroTerm",
    "check_pair",
    "check_telescoped",
    "telescoped_rhs",
    "sample_alphas",
]


class DivisionByZeroTerm(ZeroDivisionError):
    """A Pochhammer factor in a denominator vanished ((alpha)_k = 0)."""


class _Table:
    """alpha = r/d (d > 0) with P_j = d^j (alpha)_j and j! for j <= m."""

    def __init__(self, alpha: Fraction, m: int):
        self.alpha = Fraction(alpha)
        r, d = self.alpha.numerator, self.alpha.denominator
        self.r, self.d = r, d
        self.P = P = [1]
        self.fact = fact = [1]
        for j in range(m):
            P.append(P[-1] * (r + j * d))
            fact.append(fact[-1] * (j + 1))

    def first_pole(self, k: int) -> int:
        """The least j with P_j = 0 if P_k = 0, else 0.

        (alpha)_k = 0 exactly when alpha is an integer in {1-k, ..., 0},
        and then P_j = 0 for every j from 1 - alpha on.
        """
        return self.P.index(0) if self.P[k] == 0 else 0

    def pole_error(self, k: int, where: str) -> DivisionByZeroTerm:
        msg = f"(alpha)_{k} = 0 for alpha={self.alpha} in {where}"
        return DivisionByZeroTerm(msg)


def check_pair(n_max: int, k_max: int, alphas: list[Fraction]) -> bool:
    """F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k) on 0<=n<=n_max, 1<=k<=k_max, exactly.

    Points with k > n+1 are 0 = 0 and are skipped.  A pole (alpha)_k = 0
    with k <= k_max raises DivisionByZeroTerm naming F(0,k), the first
    point that divides by it.

    Times (-1)^(n+k) d^(3n-k+2) n!^2 (n-k+1)! P_k^2 / P_n^2, and with
    e = 2nd + r and m = n - k + 1, the four terms are (as
    P_{n+1}^2 = (r + nd)^2 P_n^2)

        F(n, k-1): e (r + (k-1) d)^2 P_{n+k-1}     F(n, k): e d m P_{n+k}
        G(n+1, k): (r + nd)^2 P_{n+k}              G(n, k): d^3 n^2 m P_{n+k-1}

    and the relation reads

        (e (r + (k-1) d)^2 - d^3 n^2 m) P_{n+k-1} == ((r + nd)^2 - e d m) P_{n+k}.

    At k = n + 1, m = 0 drops F(n, k) and G(n, k), which vanish there.  Off
    a pole the multiplier is nonzero, so this is the relation itself while
    P_n != 0.  P_n = 0 only for an integer alpha <= 0, and then for every
    later n too: every term carries P_n^2, and those rows read 0 = 0.
    """
    for alpha in alphas:
        t = _Table(alpha, max(k_max, 2 * n_max + 1, 0))
        if n_max >= 0 and k_max >= 1 and (pole := t.first_pole(k_max)):
            raise t.pole_error(pole, f"F(0,{pole})")
        r, d, P = t.r, t.d, t.P
        sq = [(r + j * d) ** 2 for j in range(max(k_max, n_max + 1))]
        for n in range(n_max + 1):
            if not P[n]:
                break
            e, g = 2 * n * d + r, d**3 * n * n
            for k in range(1, min(k_max, n + 1) + 1):
                m = n - k + 1
                if ((e * sq[k - 1] - g * m) * P[n + k - 1]
                        != (sq[n] - e * d * m) * P[n + k]):
                    return False
    return True


def _closed_form(N: int, t: _Table) -> tuple[int, int]:
    """(rhs, den): telescoped_rhs(N, alpha) is rhs/den, over the partial
    sum's denominator den = d^(3N-2) (N-1)!^3, for N >= 1 from t, a _Table
    of alpha with P_j and j! for j <= 2N - 1.

    Over den P_{N-1}^2 both terms of the closed form carry the factor
    P_{N-1}^2, nonzero off a pole; without it the numerator is

        d^(N-1) (N-1)! P_{2N-1} + (r + (N-1) d)^2 C,
        C = sum_{k=1}^{N-1} (-1)^(N+k) d^(k-1) ((N-1)!/(N-k)!) (P_{N-1}/P_k)^2 P_{N+k-1}.

    The coefficient (-1)^(N+k) d^(k-1) (N-1)!/(N-k)! is a running product
    in k, and (P_{N-1}/P_k)^2, the product of (r + jd)^2 over k <= j < N-1,
    enters by Horner's rule, so no term needs a division or a power.
    """
    if pole := t.first_pole(N - 1):
        raise t.pole_error(pole, f"telescoped_rhs(N={N})")
    r, d, P = t.r, t.d, t.P
    C = 0
    c = 1 if N % 2 else -1  # the coefficient at k = 1
    for k in range(1, N):
        C = C * (r + (k - 1) * d) ** 2 + c * P[N + k - 1]
        c *= -d * (N - k)
    u = d ** (N - 1) * t.fact[N - 1]
    return u * P[2 * N - 1] + (r + (N - 1) * d) ** 2 * C, d * u**3


def telescoped_rhs(N: int, alpha: Fraction) -> Fraction:
    """Closed form of sum_{k=0}^{N-1} (-1)^k (2k+alpha)(alpha)_k^3/k!^3:

        (a)_{2N-1}/(N-1)!^2
          + (-1)^N ((a)_N^2/(N-1)!^2) sum_{k=1}^{N-1} (-1)^k (a)_{N+k-1}/((N-k)! (a)_k^2)

    The (-1)^N factor makes the telescoped identity hold for every N >= 1,
    not only odd N.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return Fraction(*_closed_form(N, _Table(alpha, 2 * N - 1)))


def check_telescoped(n_max: int, alpha: Fraction) -> bool:
    """Exact equality of the partial sum with telescoped_rhs(N, alpha) for
    every N = 1..n_max, in increasing N.

    One _Table of alpha, of P_j and j! for j <= 2 n_max - 1, serves every
    N.  Over d^(3N-2) (N-1)!^3 the partial sum sum_{k<N} F(k, 0) is S_N,
    with S_{N+1} = S_N (dN)^3 + (-1)^N (2Nd + r) P_N^3, and it is compared
    with the numerator of _closed_form(N).  The first N that fails gives
    False; a pole raises DivisionByZeroTerm naming telescoped_rhs at the
    first N that reads it.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    t = _Table(alpha, 2 * n_max - 1)
    r, d, P = t.r, t.d, t.P
    S = 0
    for N in range(n_max):  # S_N to S_{N+1}
        term = (2 * N * d + r) * P[N] ** 3
        S = S * (d * N) ** 3 + (-term if N % 2 else term)
        if S != _closed_form(N + 1, t)[0]:
            return False
    return True


def sample_alphas(count: int, seed: int) -> list[Fraction]:
    """Deterministic pole-free sample from {±r/d : 1 <= r,d <= 9}.

    The pool is the 110 distinct values ±r/d less the nonpositive integers
    -1, ..., -9: 101 alphas, and count may not exceed that.  Poles of
    (alpha)_k are nonpositive integers, so no alpha in the pool has one,
    whatever the range of k.
    """
    pool = sorted(
        {
            Fraction(s * r, d)
            for s in (1, -1)
            for r in range(1, 10)
            for d in range(1, 10)
        }
    )
    pool = [a for a in pool if not (a.denominator == 1 and a <= 0)]
    if count > len(pool):
        raise ValueError(f"at most {len(pool)} distinct alphas available")
    return Random(seed).sample(pool, count)
