"""A WZ pair for alternating (2k+alpha)(alpha)_k^3/k!^3 sums.

F and G are evaluated exactly from their defining products, with the
convention 1/(1)_m = 0 for m < 0.  The pair relation

    F(n, k-1) - F(n, k) = G(n+1, k) - G(n, k)

telescopes (sum over n = 0..N-1) into a closed form for the partial sums,
which check_telescoped verifies exactly for any positive N.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from random import Random

__all__ = [
    "DivisionByZeroTerm",
    "eval_F",
    "eval_G",
    "check_pair",
    "check_telescoped",
    "telescoped_rhs",
    "sample_alphas",
]


class DivisionByZeroTerm(ZeroDivisionError):
    """A Pochhammer factor in a denominator vanished ((alpha)_k = 0)."""


# (alpha)_0, (alpha)_1, ... per alpha, grown on demand: a miss of the
# cache below extends this row instead of recursing, so a cold call at
# large k cannot overflow the stack
_poch_rows: dict[Fraction, list[Fraction]] = {}


@lru_cache(maxsize=None)
def _poch(alpha: Fraction, k: int) -> Fraction:
    row = _poch_rows.setdefault(alpha, [Fraction(1)])
    while len(row) <= k:
        row.append(row[-1] * (alpha + len(row) - 1))
    return row[k]


def _poch_den(alpha: Fraction, k: int, where: str) -> Fraction:
    v = _poch(alpha, k)
    if v == 0:
        raise DivisionByZeroTerm(f"(alpha)_{k} = 0 for alpha={alpha} in {where}")
    return v


def eval_F(n: int, k: int, alpha: Fraction) -> Fraction:
    """F(n,k) = (-1)^(n+k) (2n+a)(a)_n^2 (a)_{n+k} / ((1)_n^2 (1)_{n-k} (a)_k^2)."""
    a = Fraction(alpha)
    pk = _poch_den(a, k, f"F({n},{k})")
    if n - k < 0:
        return Fraction(0)
    sign = -1 if (n + k) % 2 else 1
    num = sign * (2 * n + a) * _poch(a, n) ** 2 * _poch(a, n + k)
    den = Fraction(math.factorial(n)) ** 2 * math.factorial(n - k) * pk**2
    return num / den

def eval_G(n: int, k: int, alpha: Fraction) -> Fraction:
    """G(n,k) = (-1)^(n+k) (a)_n^2 (a)_{n+k-1} / ((1)_{n-1}^2 (1)_{n-k} (a)_k^2).

    G(0, k) = 0 via the (1)_{n-1} convention, so the vanishing factors are
    checked before (a)_{n+k-1} is ever formed.
    """
    a = Fraction(alpha)
    pk = _poch_den(a, k, f"G({n},{k})")
    if n == 0 or n - k < 0:
        return Fraction(0)
    sign = -1 if (n + k) % 2 else 1
    num = sign * _poch(a, n) ** 2 * _poch(a, n + k - 1)
    den = Fraction(math.factorial(n - 1)) ** 2 * math.factorial(n - k) * pk**2
    return num / den


def check_pair(n_max: int, k_max: int, alphas: list[Fraction]) -> bool:
    """F(n,k-1) - F(n,k) = G(n+1,k) - G(n,k) on 0<=n<=n_max, 1<=k<=k_max, exactly."""
    for a in alphas:
        for n in range(n_max + 1):
            for k in range(1, k_max + 1):
                lhs = eval_F(n, k - 1, a) - eval_F(n, k, a)
                rhs = eval_G(n + 1, k, a) - eval_G(n, k, a)
                if lhs != rhs:
                    return False
    return True


def telescoped_rhs(N: int, alpha: Fraction) -> Fraction:
    """Closed form of sum_{k=0}^{N-1} (-1)^k (2k+alpha)(alpha)_k^3/k!^3:

        (a)_{2N-1}/(N-1)!^2
          + (-1)^N ((a)_N^2/(N-1)!^2) sum_{k=1}^{N-1} (-1)^k (a)_{N+k-1}/((N-k)! (a)_k^2)

    The (-1)^N factor makes the telescoped identity hold for every N >= 1,
    not only odd N.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    a = Fraction(alpha)
    fnm1 = Fraction(math.factorial(N - 1))
    head = _poch(a, 2 * N - 1) / fnm1**2
    corr = Fraction(0)
    for k in range(1, N):
        pk = _poch_den(a, k, f"telescoped_rhs(N={N})")
        sign = -1 if k % 2 else 1
        corr += sign * _poch(a, N + k - 1) / (math.factorial(N - k) * pk**2)
    nsign = -1 if N % 2 else 1
    return head + nsign * _poch(a, N) ** 2 / fnm1**2 * corr


def check_telescoped(N: int, alpha: Fraction) -> bool:
    """Exact equality of the partial sum with telescoped_rhs(N, alpha)."""
    a = Fraction(alpha)
    lhs = sum((eval_F(k, 0, a) for k in range(N)), Fraction(0))
    return lhs == telescoped_rhs(N, a)


def sample_alphas(count: int, seed: int, k_max: int = 30) -> list[Fraction]:
    """Deterministic pole-free sample from {±r/d : 1 <= r,d <= 9}.

    Poles of (alpha)_k for k <= k_max are exactly the integers in
    {0, -1, ..., -(k_max-1)}; nonpositive integers are excluded outright.
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
