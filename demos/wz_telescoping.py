"""The rational certificate pair that proves the sum collapses.

F(n, k) carries the series summand at k = 0; its partner G satisfies

    F(n, k-1) - F(n, k) = G(n+1, k) - G(n, k)

for all n >= 0, k >= 1.  Summing this relation over a triangle telescopes
the series: the partial sum of F(., 0) up to N-1 equals a boundary value
plus a short correction sum, all exact rationals.  The congruence results
come from p-adic analysis of that closed form.
"""

from fractions import Fraction
from math import factorial

from supercong import check_pair, pochhammer, telescoped_rhs

alpha = Fraction(1, 2)


def F(n, k):
    # (-1)^(n+k) (2n+a) (a)_n^2 (a)_{n+k} / (n!^2 (n-k)! (a)_k^2), 0 for k > n
    if k > n:
        return Fraction(0)
    return ((-1) ** (n + k) * (2 * n + alpha) * pochhammer(alpha, n) ** 2
            * pochhammer(alpha, n + k)
            / (factorial(n) ** 2 * factorial(n - k) * pochhammer(alpha, k) ** 2))


def G(n, k):
    # (-1)^(n+k) (a)_n^2 (a)_{n+k-1} / ((n-1)!^2 (n-k)! (a)_k^2), 0 for
    # n = 0 or k > n
    if n == 0 or k > n:
        return Fraction(0)
    return ((-1) ** (n + k) * pochhammer(alpha, n) ** 2 * pochhammer(alpha, n + k - 1)
            / (factorial(n - 1) ** 2 * factorial(n - k) * pochhammer(alpha, k) ** 2))


print("pair relation at a few points (all must be 0):")
for n in range(1, 5):
    for k in range(1, 4):
        lhs = F(n, k - 1) - F(n, k)
        rhs = G(n + 1, k) - G(n, k)
        print(f"  n={n} k={k}: {lhs - rhs}")

print("\ngrid check 12x12, three parameters:",
      check_pair(12, 12, [Fraction(1, 2), Fraction(2, 7), Fraction(-3, 5)]))

print("\npartial sums vs telescoped closed form (alpha = 1/2):")
acc = Fraction(0)
for N in range(1, 9):
    acc += F(N - 1, 0)
    closed = telescoped_rhs(N, alpha)
    print(f"  N={N}: sum = {str(acc):>24}  closed = {str(closed):>24}"
          f"  match={acc == closed}")
