"""Exact Fraction oracles for the residue sums, the lemma right sides and
the prime tables, the per-prime residue passes and lemma path the
remainder trees replaced, and the coefficient-list parser of the witness
files.

The Fraction definitions themselves live here too: the reduction of a
rational mod p^e (reduce_mod), the harmonic numbers H_n^(m), and the Euler
polynomial values E_n(x) and Euler numbers E_n by Horner evaluation of
sequences.euler_poly_coeffs.  No command runs them; the tests compare the
package's integer paths against them.

The package reads the sums S(alpha, M), the 8^(-k) sum, the Euler
residues E_{p-3}(x) mod p and both sides of the five lemmas (with the
prefix values j!, H_j, H_j^(2) and sum (-1)^k/k^2 mod p^4) off remainder
trees over a block of primes, and checks the Euler-polynomial identities
on integer-scaled coefficients.  This module keeps the exact rational
route as an independent check: Pochhammer symbols, harmonic sums and
Euler polynomial values as Fractions, reduced only at the end.  It also
keeps the O(p) pass per (alpha, p), the O(p) Euler table per (n, p) and
the per-prime lemma path (a Pochhammer prefix to 2p-1 per (alpha, p), the
lemma tables of p and the sides read from them) that the trees replaced,
as a second, per-prime oracle that is fast enough for every prime up to a
few thousand.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat

from supercong import sequences
from supercong.padic import NotPAdicIntegral, ResidueClass, is_p_integral
from supercong.sequences import pochhammer
from supercong.records import PreconditionViolated
from supercong.verifier import _a_t, _parity_sign

MAX_EXPONENT = 4  # residue arithmetic in the package never leaves p**4


def check_exponent(e: int) -> None:
    """Refuse a modulus exponent outside 1..MAX_EXPONENT."""
    if not 1 <= e <= MAX_EXPONENT:
        raise ValueError(f"exponent must be in 1..{MAX_EXPONENT}, got {e}")


def reduce_mod(x: Fraction, p: int, e: int) -> ResidueClass:
    """Residue of the rational x modulo p**e.

    Computed as num * den^(-1) mod p**e; the denominator inverse exists
    exactly when x is a p-adic integer.
    """
    check_exponent(e)
    x = Fraction(x)
    if not is_p_integral(x, p):
        raise NotPAdicIntegral(f"{x} has no residue mod {p}^{e}")
    m = p**e
    return ResidueClass(x.numerator * pow(x.denominator, -1, m) % m, m)


_harmonic_cache: dict[int, list[Fraction]] = {}


def _harmonic_value(n: int, m: int) -> Fraction:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    vals = _harmonic_cache.setdefault(m, [Fraction(0)])
    while len(vals) <= n:
        j = len(vals)
        vals.append(vals[-1] + Fraction(1, j**m))
    return vals[n]


def harmonic(n: int, m: int = 1) -> Fraction:
    """Generalized harmonic number H_n^(m) = sum_{j=1}^{n} 1/j^m; H_0 = 0."""
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    return _harmonic_value(n, m)


def _horner(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    out = Fraction(0)
    for coef in reversed(coeffs):
        out = out * x + coef
    return out


def euler_poly_eval(n: int, x: Fraction) -> Fraction:
    """E_n(x) evaluated exactly (Horner)."""
    return _horner(sequences.euler_poly_coeffs(n), Fraction(x))


def euler_number(n: int) -> int:
    """Euler number E_n = 2^n E_n(1/2); always an integer."""
    val = 2**n * euler_poly_eval(n, Fraction(1, 2))
    assert val.denominator == 1
    return val.numerator


# ---------------------------------------------------------------------------
# the per-prime lemma path the remainder trees replaced: O(p) per (alpha, p)

def _lemma_tables(p: int) -> tuple[tuple[int, ...], ...]:
    """(fact, h1, h2, alt2) mod p^4 for j = 0..p-1: j!, H_j = sum_{k<=j} 1/k,
    H_j^(2) = sum_{k<=j} 1/k^2 and sum_{k<=j} (-1)^k / k^2, which only the
    lemma sides read.

    Every j < p is a unit mod p^4, so one inverse of (p-1)! and a backward
    pass give every 1/j!, and 1/k is (k-1)!/k!.
    """
    m = p**4
    fact = tuple(accumulate(range(1, p), lambda acc, j: acc * j % m, initial=1))
    inv_fact = [0] * p
    inv_fact[p - 1] = pow(fact[p - 1], -1, m)
    for j in range(p - 1, 0, -1):
        inv_fact[j - 1] = inv_fact[j] * j % m
    recip = [fact[k - 1] * inv_fact[k] % m for k in range(1, p)]
    squares = [r * r % m for r in recip]
    signed = [-r if k % 2 else r for k, r in enumerate(squares, 1)]

    def prefix(terms):
        return tuple(s % m for s in accumulate(terms, initial=0))

    return fact, prefix(recip), prefix(squares), prefix(signed)


def _poch_prefix(
    alpha: Fraction, p: int, n: int
) -> tuple[list[int], int, int, int, int]:
    """(u, v0, v1, a, t): (alpha)_j = p^(e_j) u_j for j = 0..n <= 2p-1, u_j
    mod p^4, a = <-alpha>_p and alpha + a = p*t, t mod p^4.

    The only factors alpha+i (i <= 2p-2) divisible by p are alpha+a = p*t
    and alpha+a+p = p*(t+1), of valuations v0 and v1.  e_j adds v0 once
    j > a and v1 once j > a+p, and u_j multiplies every other factor with
    the unit parts of those two.  A zero factor (t = 0 or t+1 = 0: a
    nonpositive-integer alpha) has unit part 0, so every u_j past it is 0.
    a and t are those of _a_t.
    """
    a, t = _a_t(alpha, p)
    m = p**4
    num, den = alpha.numerator, alpha.denominator
    inv = pow(den, -1, m)
    x = num * inv % m

    def unit(i: int) -> tuple[int, int]:
        # unit part mod m and p-adic valuation of alpha+i = (num + i den)/den
        g, v = num + i * den, 0
        while g and g % p == 0:
            g //= p
            v += 1
        return g * inv % m, v

    (u0, v0), (u1, v1) = unit(a), unit(a + p)
    factors = list(range(x, x + 2 * p))  # alpha+i mod m, up to a multiple of m
    factors[a], factors[a + p] = u0, u1
    out, acc = [1], 1
    for f in factors[:n]:
        acc = acc * f % m
        out.append(acc)
    return out, v0, v1, a, t


def _lemma_sum(
    u: list[int], fact: tuple[int, ...], p: int, k0: int, k1: int
) -> tuple[int, int]:
    """sum_{k=k0}^{k1} (-1)^k u_{p+k-1} / ((p-k)! u_k^2) mod p^4 as (num, den).

    The running denominator den keeps the sum at one inverse for the caller.
    """
    m = p**4
    s, d = 0, 1
    for k in range(k0, k1 + 1):
        w = fact[p - k] * u[k] * u[k] % m
        c = u[p + k - 1] * d
        s = (s * w + (-c if k & 1 else c)) % m
        d = d * w % m
    return s, d


def lemma_sides_per_prime(fam: str, alpha: Fraction, p: int, pre: tuple,
                          tables: tuple) -> tuple[int, int]:
    """Left and right side mod p^4 of one LEMMA_* family, by the per-prime
    path: pre = _poch_prefix(alpha, p, 2p-1) and tables = _lemma_tables(p).

    Each left side is p^v times a p-adic integer, with v read off the
    valuations of alpha+a and alpha+a+p and the integer computed mod p^4
    from the unit residues of pre, in O(p) operations and two inverses.
    The preconditions, skip reasons and right sides are those of
    verifier._lemma_pass_at.
    """
    u, v0, v1, a, t = pre
    if a == 0 and fam in ("LEMMA_WZPROD", "LEMMA_SIGMA1"):
        raise PreconditionViolated(f"alpha = {alpha} ≡ 0 (mod {p})")
    # only the factor alpha+a of (alpha)_{a+1} (LEMMA_PROD), and likewise of
    # (alpha)_{p-1} (LEMMA_SIGMA), can vanish: exactly when t = 0, which
    # t ≡ 0 (mod p^4) does not imply
    zero = alpha.numerator + a * alpha.denominator == 0
    if fam == "LEMMA_PROD" and zero:
        raise PreconditionViolated(f"(alpha)_{a + 1} = 0 at alpha = {alpha} (p = {p})")
    if fam == "LEMMA_SIGMA":
        if a > p - 2:
            raise PreconditionViolated(f"a = p-1 violates a <= p-2 (alpha = {alpha})")
        if zero:
            raise PreconditionViolated(
                f"(alpha)_k = 0 for some k <= {p - 1} at alpha = {alpha}"
            )
    m = p**4
    fact, h1, h2, alt2 = tables
    f2 = fact[p - 1] ** 2
    pt, ha, ha2 = p * t, h1[a], h2[a]

    # the left side is p^v * num / den, den a unit mod p^4
    if fam == "LEMMA_WZPROD":
        num, den = u[2 * p - 1], f2
        if a == p - 1:  # alpha+a+p is past the last factor
            v, rhs = v0, pt
        else:
            v = v0 + v1
            inv = pow(a + 1, -1, m)
            rhs = -p * pt * (t + 1) * inv * (1 + 2 * p * ha + p * (t + 2) * inv)
    elif fam == "LEMMA_ALPHAP3":
        v, num, den = 3 * v0, u[p] ** 3, fact[p - 1] ** 3
        rhs = pt**3
    elif fam == "LEMMA_SIGMA1":
        # (alpha)_k for k <= a has no factor divisible by p, so it is never 0;
        # (alpha)_{p+k-1} has valuation v0, so every term has valuation v0
        s, d = _lemma_sum(u, fact, p, 1, a)
        v, num, den = 3 * v0, u[p] ** 2 * s, f2 * d
        rhs = _parity_sign(a + 1) * pt**3 * (ha2 + 2 * alt2[a])
    elif fam == "LEMMA_PROD":
        v = v0  # valuation 3 v0 over (alpha)_{a+1}^2, valuation 2 v0
        num = u[p] ** 2 * u[p + a]
        den = f2 * fact[p - a - 1] * u[a + 1] ** 2
        half = (m + 1) // 2  # 1/2 mod p^4
        rhs = pt * (
            1
            + p * (t + 1) * ha
            + p * p * half * ((t + 1) ** 2 * ha * ha + (t * t + 4 * t + 1) * ha2)
        )
    else:  # LEMMA_SIGMA
        # every term is (alpha)_{p+k-1}, valuation v0 + v1, over (alpha)_k^2,
        # valuation 2 v0
        s, d = _lemma_sum(u, fact, p, a + 2, p - 1)
        v, num, den = v0 + v1, u[p] ** 2 * s, f2 * d
        sa = _parity_sign(a)
        inv = pow(a + 1, -1, m)
        half = (m + 1) // 2
        rhs = sa * p * pt * (t + 1) * (
            ha - sa * inv
            + p * (
                half * ((t + 1) * ha * ha + (3 * t + 1) * ha2)
                - 2 * sa * inv * ha
                - sa * (t + 2) * inv * inv
            )
        )
    return (p**v * num * pow(den, -1, m) % m if v < 4 else 0), rhs % m


@lru_cache(maxsize=4)
def _signed_inverse_cubes(p: int) -> tuple[int, ...]:
    # (-1)^j / j!^3 mod p^4 for j = 0..p-1
    m = p**4
    out, f = [], 1
    for j in range(p):
        if j:
            f = f * pow(j, -1, m) % m
        out.append((-f if j & 1 else f) * f * f % m)
    return tuple(out)


def _partial_sums(
    pre: tuple, p: int, top: int, b: int, c: int, z: int = 1
) -> list[int]:
    """[s_0, ..., s_top], s_M ≡ sum_{k=0}^{M} (b k + c) z^k (-1)^k
    (alpha)_k^3 / k!^3 (mod p^4), from pre = _poch_prefix(alpha, p, n),
    top <= n and top < p.  The s_M are not reduced: a caller reduces the
    ones it reads.

    (alpha)_k is u_k for k <= a = <-alpha>_p and p^v0 u_k past it, so
    each term is one product of the unit table and the (-1)^k/k!^3 table,
    reduced once, times p^(3 v0) past a.
    """
    u, v0, _, a, _ = pre
    m = p**4
    w = _signed_inverse_cubes(p)
    if z != 1:  # fold z^k into the weights
        zk = accumulate(repeat(z, top), lambda x, y: x * y % m, initial=1)
        w = [x * y for x, y in zip(w, zk)]
    c %= m
    terms = [(b * k + c) * x * x * x * y % m for k, x, y in zip(range(top + 1), u, w)]
    if a < top:
        scale = p ** (3 * v0)
        terms[a + 1:] = [x * scale for x in terms[a + 1:]]
    return list(accumulate(terms))


def _main_sums(pre: tuple, p: int, top: int) -> list[int]:
    # the partial sums of S(alpha, .); the weight 2k + alpha has alpha = p*t - a
    _, _, _, a, t = pre
    return _partial_sums(pre, p, top, 2, p * t - a)


def _mao_sums(half: tuple, p: int, top: int) -> list[int]:
    # the partial sums of the 8^(-k) family from the prefix at alpha = 1/2
    return _partial_sums(half, p, top, 6, 1, pow(8, -1, p**4))


def sum_main_mod(alpha: Fraction, M: int, p: int) -> int:
    """S(alpha, M) mod p^4 by one O(p) pass at p."""
    return _main_sums(_poch_prefix(alpha, p, M), p, M)[M] % p**4


def sum_mao_mod(M: int, p: int) -> int:
    """The 8^(-k) sum to M mod p^4 by one O(p) pass at p."""
    return _mao_sums(_poch_prefix(Fraction(1, 2), p, M), p, M)[M] % p**4


# E_n(x) + E_n(x+1) = 2x^n telescopes to
#     sum_{k<p} (-1)^k (x+k)^n = (E_n(x) + E_n(x+p)) / 2,
# and since E_n has only 2-power denominators, E_n(x+p) ≡ E_n(x) (mod p)
# for odd p: the sum is E_n(x) mod p.  Folding x+k into 0..p-1 with the
# prefix sums P_i = sum_{j<i} (-1)^j j^n gives, for a residue 0 <= r < p,
#     E_n(r) ≡ (-1)^r (P_p - 2 P_r)  (mod p).
# One table costs O(p) and needs an odd modulus p.
@lru_cache(maxsize=8)
def _euler_prefix(n: int, p: int) -> tuple[int, ...]:
    terms = (-pow(j, n, p) if j % 2 else pow(j, n, p) for j in range(p))
    return tuple(accumulate(terms, initial=0))


def euler_poly_eval_mod(n: int, x: Fraction, p: int) -> ResidueClass:
    """E_n(x) mod p for odd prime p and p-integral x."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if p == 2:
        raise ValueError("E_n(x) mod 2 needs 1/2")
    x = Fraction(x)
    if not is_p_integral(x, p):
        raise NotPAdicIntegral(f"{x} has no residue mod {p}")
    r = x.numerator * pow(x.denominator, -1, p) % p
    pre = _euler_prefix(n, p)
    return ResidueClass((-1) ** r * (pre[p] - 2 * pre[r]) % p, p)


def euler_number_mod(n: int, p: int) -> ResidueClass:
    """E_n mod p (via 2^n E_n(1/2))."""
    v = euler_poly_eval_mod(n, Fraction(1, 2), p).value
    return ResidueClass(pow(2, n, p) * v % p, p)


def sum_main_exact(alpha: Fraction, M: int) -> Fraction:
    """sum_{k=0}^{M} (-1)^k (2k+alpha) (alpha)_k^3 / k!^3."""
    alpha = Fraction(alpha)
    total = Fraction(0)
    for k in range(M + 1):
        sign = -1 if k % 2 else 1
        total += (
            sign
            * (2 * k + alpha)
            * pochhammer(alpha, k) ** 3
            / Fraction(math.factorial(k)) ** 3
        )
    return total


def sum_mao_exact(M: int) -> Fraction:
    """sum_{k=0}^{M} (-1)^k (6k+1) (1/2)_k^3 / (k!^3 8^k)."""
    half = Fraction(1, 2)
    total = Fraction(0)
    for k in range(M + 1):
        sign = -1 if k % 2 else 1
        total += (
            sign
            * (6 * k + 1)
            * pochhammer(half, k) ** 3
            / (Fraction(math.factorial(k)) ** 3 * 8**k)
        )
    return total


_altsq: list[Fraction] = [Fraction(0)]


def alternating_reciprocal_squares(n: int) -> Fraction:
    """sum_{k=1}^{n} (-1)^k / k^2."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    while len(_altsq) <= n:
        k = len(_altsq)
        _altsq.append(_altsq[-1] + Fraction((-1) ** k, k**2))
    return _altsq[n]


def lemma_rhs_exact(fam: str, alpha: Fraction, p: int) -> Fraction:
    """The right side of one LEMMA_* family as an exact rational, in
    a = <-alpha>_p and t = (alpha + a)/p; the caller has checked the
    family's preconditions."""
    a = -alpha.numerator * pow(alpha.denominator, -1, p) % p
    t = (alpha + a) / p
    ha, ha2 = harmonic(a), harmonic(a, 2)
    if fam == "LEMMA_WZPROD":
        if a == p - 1:
            return p * t
        return -(p * p * t * (t + 1) / (a + 1)) * (
            1 + 2 * p * ha + p * (t + 2) / (a + 1)
        )
    if fam == "LEMMA_ALPHAP3":
        return (alpha + a) ** 3
    if fam == "LEMMA_SIGMA1":
        return (-1) ** (a + 1) * (alpha + a) ** 3 * (
            ha2 + 2 * alternating_reciprocal_squares(a)
        )
    if fam == "LEMMA_PROD":
        pt = alpha + a
        return (
            pt
            + p * pt * (t + 1) * ha
            + p**2 * pt * (t + 1) ** 2 / 2 * ha**2
            + p**2 * pt * (t**2 + 4 * t + 1) / 2 * ha2
        )
    # LEMMA_SIGMA
    sa = (-1) ** a
    return sa * p**2 * t * (t + 1) * (ha - Fraction(sa, a + 1)) + sa * p**3 * t * (
        t + 1
    ) * (
        (t + 1) / 2 * ha**2
        + (3 * t + 1) / 2 * ha2
        - Fraction(2 * sa, a + 1) * ha
        - sa * (t + 2) / (a + 1) ** 2
    )


def check_euler_identities(n_max: int, m_max: int) -> bool:
    """The Euler-polynomial identities of
    sequences.check_euler_identities, by Fraction Horner evaluation.

    The coefficients come from sequences.euler_poly_coeffs, looked up at
    call time, so a test that replaces it feeds both routes."""
    coeffs = [sequences.euler_poly_coeffs(n) for n in range(max(n_max, m_max) + 1)]

    for n in range(2, n_max + 1, 2):
        if coeffs[n][0] != 0 or sum(coeffs[n]) != 0:  # E_n(0), E_n(1)
            return False

    points = [Fraction(j, 2) for j in range(n_max + 2)]
    for n in range(n_max + 1):
        c = coeffs[n]
        flip = n % 2
        for x in points:
            y = _horner(c, x)
            if _horner(c, 1 - x) != (-y if flip else y):
                return False

    for m in range(1, m_max + 1):
        c = coeffs[m]
        e_m0 = c[0]
        acc = 0
        for n in range(1, n_max + 1):
            sign = (-1) ** n
            acc += sign * n**m
            if acc != Fraction(sign, 2) * (_horner(c, Fraction(n + 1)) + sign * e_m0):
                return False
    return True


def poly_from_string(text: str) -> tuple[int, ...]:
    """The coefficient tuple of a comma-separated list, lowest degree first,
    with "0" for () (the inverse of qseries._poly_str)."""
    cs = tuple(int(part) for part in text.strip().split(","))
    return () if cs == (0,) else cs
