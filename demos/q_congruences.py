"""Polynomial analogues: congruences between truncated q-series.

[n] = 1 + q + ... + q^(n-1) plays the role of the prime, the cyclotomic
polynomial Phi_n(q) the role of its powers.  The two truncated q-series
agree with a sign-twisted [n] modulo [n] Phi_n(q)^2, and conjecturally
with each other modulo [n] Phi_n(q)^3.  Everything here is exact integer
polynomial arithmetic; q -> 1 recovers the numeric supercongruences.
Each congruence is tested at roots of unity: for every factor Phi_d^e of
the modulus, the Hasse derivatives D^j N of the numerator must vanish
mod Phi_d for j below e plus the multiplicity of Phi_d in the denominator.
Both factorizations are known, so congruence_failure takes the numerator,
the modulus as its (d, e) list and the denominator's multiplicities.
The numerator of a weighted sum minus a right side, all over the common
denominator (q^4;q^4)_{n-1}^3, comes from qseries._sum_numerator.
"""

import math
from fractions import Fraction

from supercong import (
    congruence_failure,
    conjecture41_witness,
    cyclotomic,
    pochhammer,
    q_integer,
    verify_q,
)
from supercong.qseries import _binomials, _gz_rhs, _poly_str, _sum_numerator

print("building blocks:")
print(f"  [5]       = {_poly_str(q_integer(5))}   (coefficient list, low degree first)")
print(f"  Phi_5(q)  = {_poly_str(cyclotomic(5))}")
print(f"  Phi_12(q) = {_poly_str(cyclotomic(12))}")
print(f"  Phi_105 has degree {len(cyclotomic(105)) - 1} and a -2 coefficient:"
      f" {min(cyclotomic(105))}")

print("\nsign-twisted [n] congruences, modulus [n] Phi_n(q)^2:")
for fam, ns in (("gz-e2", (3, 5, 7, 9, 11)), ("gz-f2", (5, 9, 13))):
    for n in ns:
        [r] = verify_q(n, (fam,))
        tag = "ok" if r.passed else "FAIL"
        e = (n - 1) * (n - 3) // 8
        print(f"  [{tag}] {fam} n={n:>2}: rhs = (-q)^{e} [{n}]"
              f" = {_poly_str(_gz_rhs(n)):<32}  mod {r.modulus}")

print("\nmod [n] Phi_n(q)^3 agreement of the two series (open conjecture):")
for n in (5, 9, 13):
    [r] = verify_q(n, ("CONJ41",))
    print(f"  [{'ok' if r.passed else 'FAIL'}] n={n:>2}  mod {r.modulus}")

w = conjecture41_witness(5)
print("\nwitness payload at n=5 (what a counterexample report would carry):")
print(f"  difference numerator starts {w['difference_numerator'][:40]}...")
print(f"  remainder certificate: {w['remainder_certificate']!r} (empty = congruent)")
print(f"  failing factor Phi_d, derivative order j: "
      f"{w['cyclotomic_index']}, {w['derivative_order']} (None = congruent)")

print("\na deliberately broken difference, e2(9) - f2(9) + Phi_9^3, mod [9] Phi_9^3:")
# Phi_9 = (1 - q^9) / (1 - q^3); over den = (q^4;q^4)_8^3, the numerator of
# e2 - f2 - rhs with rhs = -Phi_9^3 is e2.num - f2.num + den * Phi_9^3
minus_phi9_cubed = [-c for c in _binomials({9: 3, 3: -3})]
broken = _sum_numerator(9, 1, -1, minus_phi9_cubed)
# [9] Phi_9^3 = Phi_3 Phi_9^4; Phi_3 | 1 - q^(4j) for j = 3, 6, cubed in den
d, j, residue = congruence_failure(broken, [(3, 1), (9, 4)], {3: 6, 9: 0})
print(f"  Phi_3 divides the denominator 6 times, so D^j N must vanish mod Phi_3"
      f" for j < 7;\n  first nonzero: d={d}, j={j}, D^j N mod Phi_d ="
      f" {_poly_str(residue)}")


def q_limit(k):
    """The k-th e2 summand at q -> 1, up to its sign, factor by factor:
    [6k+1] -> 6k+1, q^(3k^2) -> 1 and (1 - q^a) / (1 - q^b) -> a / b for the
    factor pairs 1 - q^(2i+1) of (q;q^2)_k and 1 - q^(4i+4) of (q^4;q^4)_k."""
    ratio = math.prod(Fraction(2 * i + 1, 4 * i + 4) for i in range(k))
    return (6 * k + 1) * ratio**3


def numeric_term(k):
    """(6k+1) (1/2)_k^3 / (8^k k!^3), the k-th term of the numeric series."""
    cube = pochhammer(Fraction(1, 2), k) ** 3
    return (6 * k + 1) * cube / (8**k * math.factorial(k) ** 3)


print("\nq -> 1 limit of each summand matches the numeric series term by term:")
print("  k=0..7:", all(q_limit(k) == numeric_term(k) for k in range(8)))
