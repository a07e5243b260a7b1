"""One Pochhammer-quotient congruence worked by hand, then all five swept.

The quotient (alpha)_{2p-1}/(p-1)!^2 is a plain rational number.  For
alpha = 1, p = 5 it is (1)_9/4!^2 = 9!/576 = 630, and 630 = 5 + 625, so it
reduces to 5 mod 5^4.  The congruences pin such quotients down mod p^4 in
terms of a = <-alpha>_p and t = (alpha + a)/p alone.
"""

from fractions import Fraction

from supercong import LEMMA_FAMILIES, least_nonneg_residue, pochhammer, verify_alpha

p = 5
alpha = Fraction(1)
exact = pochhammer(alpha, 2 * p - 1) / pochhammer(Fraction(1), p - 1) ** 2
print(f"(1)_9 / 4!^2 = {exact}, and {exact} mod 5^4 = {int(exact) % p**4}")

[rec] = verify_alpha(alpha, p, ("LEMMA_WZPROD",))
print(f"verify_alpha agrees: lhs={rec.lhs.value} rhs={rec.rhs.value}"
      f" mod {rec.modulus} passed={rec.passed}")

half = Fraction(1, 2)
a = least_nonneg_residue(-half, 7)
print(f"\nalpha = 1/2, p = 7: a = <-1/2>_7 = {a}, t = {(half + a) / 7}")
print("all five congruences at that point:")
for r in verify_alpha(half, 7, LEMMA_FAMILIES):
    tag = "ok" if r.passed else "FAIL"
    print(f"  [{tag}] {r.family:<14} lhs={r.lhs.value:>6} rhs={r.rhs.value:>6}"
          f"  mod {r.modulus}")

print("\nsame five across primes, alpha = 2/3:")
for q in (5, 7, 11, 13, 17, 19, 23):
    print(f"  p={q:>2}: " + "  ".join(
        f"{r.family.removeprefix('LEMMA_')}={'ok' if r.passed else 'FAIL'}"
        for r in verify_alpha(Fraction(2, 3), q, LEMMA_FAMILIES)))
