"""Sweep the ten classical truncated-series congruence families.

Each family states that a weighted alternating sum of cubed Pochhammer
ratios, truncated just below p, collapses modulo p^3 or p^4 to a tiny
closed form: a signed multiple of p, sometimes corrected by a p^3 times
Euler-polynomial term.  This script runs every family over a small prime
range and prints the verdicts.
"""

from supercong import FAMILIES, sieve_primes, verify_prime

P_MIN, P_MAX = 5, 60

for name, fam in FAMILIES.items():
    primes = sieve_primes(P_MIN, P_MAX, fam.p_mod, fam.p_res)
    cond = f"p = {fam.p_res} (mod {fam.p_mod})" if fam.p_mod else "all p > 3"
    print(f"{name}: weight ({2 * fam.weight_d}k+1), mod p^{fam.modulus_exp}, {cond}")
    for p in primes:
        short, full = verify_prime(p, (name,), ("short", "full"))
        mark = "ok" if short.passed and full.passed else "FAIL"
        print(f"  p={p:3d}  short M={fam.short_m(p):3d}: {int(short.lhs):>9d}"
              f"  full M={p - 1:3d}: {int(full.lhs):>9d}"
              f"  rhs: {int(full.rhs):>9d}  [{mark}]")
    print()

# The lhs/rhs columns are residues mod p^e; a family passes when they
# agree for every qualifying prime and both truncation lengths.
