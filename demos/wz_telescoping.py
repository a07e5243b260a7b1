"""The rational certificate pair that proves the sum collapses.

F(n, k) carries the series summand at k = 0; its partner G satisfies

    F(n, k-1) - F(n, k) = G(n+1, k) - G(n, k)

for all n >= 0, k >= 1.  Summing this relation over a triangle telescopes
the series: the partial sum of F(., 0) up to N-1 equals a boundary value
plus a short correction sum, all exact rationals.  The congruence results
come from p-adic analysis of that closed form.
"""

from fractions import Fraction

from supercong import check_pair, eval_F, eval_G, telescoped_rhs

alpha = Fraction(1, 2)

print("pair relation at a few points (all must be 0):")
for n in range(1, 5):
    for k in range(1, 4):
        lhs = eval_F(n, k - 1, alpha) - eval_F(n, k, alpha)
        rhs = eval_G(n + 1, k, alpha) - eval_G(n, k, alpha)
        print(f"  n={n} k={k}: {lhs - rhs}")

print("\ngrid check 12x12, three parameters:",
      check_pair(12, 12, [Fraction(1, 2), Fraction(2, 7), Fraction(-3, 5)]))

print("\npartial sums vs telescoped closed form (alpha = 1/2):")
acc = Fraction(0)
for N in range(1, 9):
    acc += eval_F(N - 1, 0, alpha)
    closed = telescoped_rhs(N, alpha)
    print(f"  N={N}: sum = {str(acc):>24}  closed = {str(closed):>24}"
          f"  match={acc == closed}")
