"""A WZ pair for alternating (2k+alpha)(alpha)_k^3/k!^3 sums.

With alpha = r/d in lowest terms (d > 0), every Pochhammer symbol is an
integer prefix product over a power of d:

    (alpha)_m = P_m / d^m,    P_m = prod_{j<m} (r + j d).

F and G are read from their defining products as unreduced integer
numerators off one table of P_m and factorials, with the convention
1/(1)_m = 0 for m < 0.  check_pair compares the two sides of the pair
relation

    F(n, k-1) - F(n, k) = G(n+1, k) - G(n, k)

over one denominator per point, Q = d^(3n-k+2) n!^2 (n-k+1)! P_k^2, which
each of the four denominators divides with a small integer quotient; so
only numerators are formed, and never a denominator.  The relation
telescopes (sum over n = 0..N-1) into a closed form for the partial sums,
which check_telescoped verifies for N = 1..n_max from one table, each
partial sum and its closed form over one integer denominator.  Only
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

    def F_row(self, n: int, ks: range) -> list[int]:
        """The numerators of F(n, k) for k in ks (each k <= n) without
        their sign (-1)^(n+k): (2nd + r) P_n^2 P_{n+k}, over F's
        denominators d^(3n-k+1) n!^2 (n-k)! P_k^2."""
        P = self.P
        head = (2 * n * self.d + self.r) * P[n] ** 2
        return [head * P[n + k] for k in ks]

    def G_row(self, n: int, ks: range) -> list[int]:
        """The numerators of G(n, k) for k in ks (n >= 1, each k <= n)
        without their sign (-1)^(n+k): P_n^2 P_{n+k-1}, over G's
        denominators d^(3n-k-1) (n-1)!^2 (n-k)! P_k^2."""
        P = self.P
        head = P[n] ** 2
        return [head * P[n + k - 1] for k in ks]


def check_pair(n_max: int, k_max: int, alphas: list[Fraction]) -> bool:
    """F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k) on 0<=n<=n_max, 1<=k<=k_max, exactly.

    Points with k > n+1 are 0 = 0 and are skipped.  A pole (alpha)_k = 0
    with k <= k_max raises DivisionByZeroTerm naming F(0,k), the first
    point that divides by it.  Row n reads the numerators of F(n, k) for
    k <= min(n, k_max) and of G(n+1, k) for k <= min(n+1, k_max) from
    _Table.F_row and G_row; the G row is carried into row n+1 as its
    G(n, k), so each numerator is formed once per alpha.

    Times (-1)^(n+k) Q, with Q = d^(3n-k+2) n!^2 (n-k+1)! P_k^2, the four
    terms are their unsigned numerators times Q over their denominators:

        F(n, k-1): (r + (k-1) d)^2      F(n, k): d (n-k+1)
        G(n+1, k): 1                    G(n, k): d^3 n^2 (n-k+1)

    With a, c, f and h these products for F(n, k-1), F(n, k), G(n+1, k)
    and G(n, k), the relation reads a + c == f + h.  Q is never formed;
    off a pole it is nonzero, so this is the relation itself.
    """
    for alpha in alphas:
        t = _Table(alpha, max(k_max, 2 * n_max + 1, 0))
        if n_max >= 0 and k_max >= 1 and (pole := t.first_pole(k_max)):
            raise t.pole_error(pole, f"F(0,{pole})")
        r, d = t.r, t.d
        d3 = d**3
        # the multiplier of F(n, k-1): (P_k / P_{k-1})^2, at index k - 1
        sq = [(r + (k - 1) * d) ** 2 for k in range(1, k_max + 1)]
        g_old: list[int] = []  # G(n, k) for 1 <= k <= min(n, k_max)
        for n in range(n_max + 1):
            top = min(k_max, n + 1)
            f_row = t.F_row(n, range(min(k_max, n) + 1))
            g_new = t.G_row(n + 1, range(1, top + 1))
            for k in range(1, top + 1):
                a = f_row[k - 1] * sq[k - 1]
                if k > n:  # k = n + 1: F(n, k) = G(n, k) = 0
                    if a != g_new[k - 1]:
                        return False
                    continue
                m = n - k + 1
                c = f_row[k] * (d * m)
                h = g_old[k - 1] * (d3 * n * n * m)
                if a + c != g_new[k - 1] + h:
                    return False
            g_old = g_new
    return True


def _telescope(N: int, t: _Table) -> tuple[int, int, int]:
    """(lhs, rhs, den): the partial sum sum_{k<N} F(k, 0) is lhs/den and
    telescoped_rhs(N, alpha) is rhs/den, with

        den = d^(3N-1) (N-1)!^3 P_{N-1}^2,

    for N >= 1, from t, a _Table of alpha with P_j and j! for j <= 2N - 1.
    """
    if pole := t.first_pole(N - 1):
        raise t.pole_error(pole, f"telescoped_rhs(N={N})")
    r, d, P, fact = t.r, t.d, t.P, t.fact
    f = fact[N - 1]
    # F(k, 0) = (-1)^k (2kd + r) P_k^3 / (d^(3k+1) k!^3) over d^(3N-2) f^3
    lhs = 0
    # the correction sum's terms over d^(N-1) f P_{N-1}^2
    corr = 0
    for k in range(N):
        s = -1 if k % 2 else 1
        scale = d ** (N - 1 - k) * f // fact[k]
        lhs += s * (2 * k * d + r) * (P[k] * scale) ** 3
        if k:
            rest = P[N - 1] // P[k]
            corr += s * P[N + k - 1] * d**k * (f // fact[N - k]) * rest**2
    sq = P[N - 1] ** 2
    rhs = d**N * f * sq * P[2 * N - 1] + (-1 if N % 2 else 1) * P[N] ** 2 * corr
    return lhs * d * sq, rhs, d ** (3 * N - 1) * f**3 * sq


def telescoped_rhs(N: int, alpha: Fraction) -> Fraction:
    """Closed form of sum_{k=0}^{N-1} (-1)^k (2k+alpha)(alpha)_k^3/k!^3:

        (a)_{2N-1}/(N-1)!^2
          + (-1)^N ((a)_N^2/(N-1)!^2) sum_{k=1}^{N-1} (-1)^k (a)_{N+k-1}/((N-k)! (a)_k^2)

    The (-1)^N factor makes the telescoped identity hold for every N >= 1,
    not only odd N.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _, rhs, den = _telescope(N, _Table(alpha, 2 * N - 1))
    return Fraction(rhs, den)


def check_telescoped(n_max: int, alpha: Fraction) -> bool:
    """Exact equality of the partial sum with telescoped_rhs(N, alpha) for
    every N = 1..n_max, in increasing N.

    One _Table of alpha, of P_j and j! for j <= 2 n_max - 1, serves every
    N.  The first N that fails gives False; a pole raises
    DivisionByZeroTerm naming telescoped_rhs at the first N that reads it.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    t = _Table(alpha, 2 * n_max - 1)
    sides = (_telescope(N, t) for N in range(1, n_max + 1))
    return all(lhs == rhs for lhs, rhs, _ in sides)


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
