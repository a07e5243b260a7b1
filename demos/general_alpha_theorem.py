"""The parameterised congruence behind all the classical families.

For a p-adically integral rational alpha, write <-alpha>_p = a for the
least nonnegative residue and alpha + a = p*t.  Then the alternating sum

    S(alpha, M) = sum_{k=0}^{M} (-1)^k (2k + alpha) (alpha)_k^3 / k!^3

satisfies, modulo p^4, for both M = a and M = p-1:

    S = (-1)^a (alpha + a) + (alpha + a)^3 E_{p-3}(alpha)

where E_{p-3} is an Euler polynomial.  Every classical family is this
statement at alpha in {1/2, 1/3, 1/4} scaled by the denominator.
"""

from fractions import Fraction

from supercong import least_nonneg_residue, verify_alpha

p = 13
print(f"p = {p}\n")

for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4),
              Fraction(5, 6), Fraction(7), Fraction(2, 3)):
    a = least_nonneg_residue(-alpha, p)
    t = (alpha + a) / p  # p-integral: alpha + a ≡ 0 (mod p)
    # one call checks both truncations and the tail between them
    full, short, tail = verify_alpha(alpha, p, ("MAIN1", "MAIN1_TRUNC", "TAIL"))
    print(f"alpha = {str(alpha):>4}:  a = {a:2d}, t = {t}")
    print(f"  S(alpha, {a:2d}) = {int(short.lhs):5d},"
          f"  S(alpha, {p - 1}) = {int(full.lhs):5d},"
          f"  closed form = {int(full.rhs):5d} (mod {p}^4)"
          f"  -> {'ok' if full.passed and short.passed else 'FAIL'}")
    # the two truncations agree because the trailing block of terms
    # vanishes mod p^4 on its own
    if tail.passed is None:  # skipped: a = p-1
        print("  tail is empty (a = p-1)")
    else:
        print(f"  tail k = {a + 1}..{p - 1}: {int(tail.lhs)} (mod {p}^4)")
    print()

# integer alpha work too: alpha = 7 has a = p - 7 and the same collapse
print("residue sums for alpha = 1 telescope exactly:",
      [verify_alpha(Fraction(1), q, ("MAIN1",))[0].lhs.value
       for q in (5, 7, 11, 13)])
