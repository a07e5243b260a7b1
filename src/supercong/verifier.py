"""Truncated hypergeometric supercongruences modulo p^3 and p^4.

The central object is the alternating sum

    S(alpha, M) = sum_{k=0}^{M} (-1)^k (2k+alpha) (alpha)_k^3 / k!^3,

computed mod p^4 as the partial sums of two tables: the Pochhammer prefix
(alpha)_k = p^(e_k) u_k of _poch_prefix, one per (alpha, p), and
(-1)^k / k!^3 from _prime_tables, one per prime.  One prefix sum gives
S(alpha, M) at every M < p.  The classical (4k+1)/(6k+1)/(8k+1) families
are d * S(1/d, M) for d = 2, 3, 4.  Against it we check:

* the general-alpha congruence S(alpha, M) ≡ (-1)^a (alpha+a)
  + (alpha+a)^3 E_{p-3}(alpha) mod p^4 where a = <-alpha>_p, alpha + a = p t,
  with M = p-1 or M = a, plus the tail-vanishing statement that bridges
  the two truncations;
* the ten classical families, five mod p^3 and five mod p^4, which are
  that congruence at alpha = 1/d times d: one helper (_closed_form) gives
  the right side to both, so a family is only data (d, residue class,
  exponent);
* the (6k+1)(1/2)_k^3/(8^k k!^3) family (full and half truncations) and its
  equivalence with the (8k+1) family for p ≡ 1 (mod 4);
* the five auxiliary Pochhammer-quotient congruences the proofs run on,
  whose left sides are p^v times a unit residue mod p^4 (only alpha+a and
  alpha+a+p among the Pochhammer factors are divisible by p), and whose
  right sides are polynomials in t and the harmonic-type prefixes at a,
  read from one lemma table per prime (_lemma_tables).

The classical and 8^(-k) families are statements about one prime p, the
general-alpha congruence, its tail and the five lemmas statements about
one pair (alpha, p).  verify_at_prime checks any of them at one prime and
any number of alphas in one call: each distinct alpha, the classical 1/d
among them, gets one prefix, one set of partial sums read at every
truncation and one closed form per exponent, and the call times each of
its phases.  verify_prime (the prime families) and verify_alpha (the
alpha families at one alpha) are thin calls into it.  A failed hypothesis
(p > 3 and its class, alpha p-integral, a <= p-2, no zero Pochhammer
factor) raises PreconditionViolated where it is tested: a skip row.

Everything is exact integer arithmetic mod p^e; the Fraction oracles
these residues are checked against live in the tests.  The family tables
(FAMILIES, PRIME_CLASSES, the MAO, LEMMA and ALPHA names, PHASES) live in
records, which the CLI reads without importing this module; they are
imported from there and re-exported here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, repeat
from time import perf_counter

from .padic import ResidueClass, is_p_integral, least_nonneg_residue, legendre
from .records import (
    ALPHA_FAMILIES,
    ALPHA_TRUNCATIONS,
    FAMILIES,
    LEMMA_FAMILIES,
    MAO_TRUNCATIONS,
    MAO_VARIANTS,
    PHASES,
    PRIME_CLASSES,
    PRIME_FAMILIES,
    PreconditionViolated,
    Side,
    TheoremFamily,
    VerificationRecord,
    admits,
    family_rows,
    norm_family,
)
from .sequences import euler_number_mod, euler_poly_eval_mod

__all__ = [
    "TheoremFamily",
    "FAMILIES",
    "LEMMA_FAMILIES",
    "ALPHA_FAMILIES",
    "ALPHA_TRUNCATIONS",
    "MAO_TRUNCATIONS",
    "MAO_VARIANTS",
    "PRIME_FAMILIES",
    "PRIME_CLASSES",
    "PHASES",
    "admits",
    "verify_at_prime",
    "verify_prime",
    "verify_alpha",
    "ramanujan_partial",
]


# ---------------------------------------------------------------------------
# sums

def _partial_sums(
    pre: tuple, p: int, top: int, b: int, c: int, z: int = 1
) -> list[int]:
    """[s_0, ..., s_top], s_M ≡ sum_{k=0}^{M} (b k + c) z^k (-1)^k
    (alpha)_k^3 / k!^3 (mod p^4), from pre = _poch_prefix(alpha, p, n),
    top <= n and top < p.  The s_M are not reduced: a caller reduces the
    ones it reads.

    (alpha)_k is u_k for k <= a = <-alpha>_p and p^v0 u_k past it, so
    each term is one product of the unit table and the (-1)^k/k!^3 table
    of _prime_tables, reduced once, times p^(3 v0) past a.
    """
    u, v0, _, a, _ = pre
    m = p**4
    w = _prime_tables(p)[2]
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


def ramanujan_partial(N: int) -> float:
    """Float estimate of sum (-1)^k (4k+1) (1/2)_k^3/k!^3 = 2/pi from N terms.

    The raw alternating partial sums converge like 1/sqrt(N), useless as a
    smoke test, so the first N partial sums are collapsed by iterated
    pairwise averaging (Euler's transformation in tableau form), which is
    accurate to ~1e-16 by N = 50.  N = 1 returns the bare first term, 1.0.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    row = []
    s = 0.0
    t = 1.0  # (1/2)_k^3 / k!^3
    for k in range(N):
        s += (1 if k % 2 == 0 else -1) * (4 * k + 1) * t
        row.append(s)
        t *= ((k + 0.5) / (k + 1)) ** 3
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) / 2.0 for i in range(len(row) - 1)]
    return row[0]


# ---------------------------------------------------------------------------
# classical theorem families

def _parity_sign(j: int) -> int:
    return -1 if j % 2 else 1


def _p3_times(p: int, x: int, m: int) -> int:
    # p^3 * X mod p^4 only needs X mod p: p^3*(X mod p) ≡ p^3*X (mod p^4)
    return p**3 * (x % p) % m


def _closed_form(alpha: Fraction, a: int, t: int, p: int, e: int) -> int:
    """The right side of the general-alpha congruence at a = <-alpha>_p,
    (-1)^a (alpha+a) + (alpha+a)^3 E_{p-3}(alpha) mod p^e, alpha + a = p*t.

    The cube vanishes mod p^3, so E_{p-3} is only evaluated (mod p) when
    e = 4.
    """
    m = p**e
    pt = p * t % m
    rhs = _parity_sign(a) * pt
    if e == 4:
        rhs += pt**3 * euler_poly_eval_mod(p - 3, alpha, p).value
    return rhs % m


def _residue_sides(p: int, e: int, lhs: int, rhs: int) -> tuple[str, Side, Side]:
    # a record's (modulus, lhs, rhs) from two residues mod p^e
    return f"{p}^{e}", ResidueClass(lhs, p**e), ResidueClass(rhs, p**e)


# ---------------------------------------------------------------------------
# auxiliary Pochhammer-quotient congruences

# The sums and the lemma sides of one prime read these tables, each sum
# and each lemma table once.
@lru_cache(maxsize=4)
def _prime_tables(p: int) -> tuple[tuple[int, ...], ...]:
    """(fact, inv_fact, sinv3) mod p^4 for j = 0..p-1: j!, 1/j! and
    (-1)^j / j!^3.

    Every j < p is a unit mod p^4, so one inverse of (p-1)! and a backward
    pass give every 1/j!.
    """
    m = p**4
    fact = tuple(accumulate(range(1, p), lambda acc, j: acc * j % m, initial=1))
    inv_fact = [0] * p
    inv_fact[p - 1] = pow(fact[p - 1], -1, m)
    for j in range(p - 1, 0, -1):
        inv_fact[j - 1] = inv_fact[j] * j % m
    sinv3 = tuple((-f if j & 1 else f) * f * f % m for j, f in enumerate(inv_fact))
    return fact, tuple(inv_fact), sinv3


@lru_cache(maxsize=4)
def _lemma_tables(p: int) -> tuple[tuple[int, ...], ...]:
    """(h1, h2, alt2) mod p^4 for j = 0..p-1: H_j = sum_{k<=j} 1/k, H_j^(2) =
    sum_{k<=j} 1/k^2 and sum_{k<=j} (-1)^k / k^2, which only the lemma right
    sides read.  1/k is (k-1)!/k!, from _prime_tables.
    """
    m = p**4
    fact, inv_fact, _ = _prime_tables(p)
    recip = [fact[k - 1] * inv_fact[k] % m for k in range(1, p)]
    squares = [r * r % m for r in recip]
    signed = [-r if k % 2 else r for k, r in enumerate(squares, 1)]

    def prefix(terms):
        return tuple(s % m for s in accumulate(terms, initial=0))

    return prefix(recip), prefix(squares), prefix(signed)


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
    t is (num + a den)/p times 1/den, from the integers: alpha + a reduced
    mod p^4 first would give t only mod p^3.  A non-p-integral alpha raises
    NotPAdicIntegral.
    """
    a = least_nonneg_residue(-alpha, p)
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
    return out, v0, v1, a, (num + a * den) // p * inv % m


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


def _lemma_sides(fam: str, alpha: Fraction, p: int, pre: tuple) -> tuple[int, int]:
    """Left and right side mod p^4 of one LEMMA_* family.

    Families (a = <-alpha>_p, alpha + a = p*t throughout):

    * LEMMA_WZPROD:  (alpha)_{2p-1}/(p-1)!^2, two branches (a = p-1 / a < p-1);
      needs alpha ≢ 0 (mod p).
    * LEMMA_ALPHAP3: (alpha)_p^3/(p-1)!^3 ≡ (alpha+a)^3.
    * LEMMA_SIGMA1:  weighted sum over k = 1..a; needs alpha ≢ 0 (mod p).
    * LEMMA_PROD:    (alpha)_p^2 (alpha)_{p+a} / ((p-1)!^2 (p-a-1)! (alpha)_{a+1}^2).
    * LEMMA_SIGMA:   weighted sum over k = a+2..p-1; needs a <= p-2.

    Each left side is p^v times a p-adic integer, with v read off the
    valuations of alpha+a and alpha+a+p and the integer computed mod p^4
    from the unit residues of pre = _poch_prefix(alpha, p, 2p-1), in O(p)
    operations and two inverses.  The right sides are polynomials in t
    (mod p^4), H_a, H_a^(2) and sum_{k<=a} (-1)^k/k^2, read from
    _lemma_tables; the divisions by 2 and by a+1 are by units in every
    branch that makes them.  A family whose hypothesis fails, alphas that
    zero a denominator Pochhammer among them, raises PreconditionViolated.
    """
    u, v0, v1, a, t = pre
    if a == 0 and fam in ("LEMMA_WZPROD", "LEMMA_SIGMA1"):
        raise PreconditionViolated(f"alpha = {alpha} ≡ 0 (mod {p})")
    # only the factor alpha+a of (alpha)_{a+1} (LEMMA_PROD), and likewise of
    # (alpha)_{p-1} (LEMMA_SIGMA), can vanish: exactly when t = 0, which
    # t ≡ 0 (mod p^4) does not imply
    zero = alpha + a == 0
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
    fact = _prime_tables(p)[0]
    h1, h2, alt2 = _lemma_tables(p)
    f2 = fact[p - 1] ** 2
    pt, ha, ha2 = p * t, h1[a], h2[a]
    half = pow(2, -1, m)

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
        rhs = sa * p * pt * (t + 1) * (
            ha - sa * inv
            + p * (
                half * ((t + 1) * ha * ha + (3 * t + 1) * ha2)
                - 2 * sa * inv * ha
                - sa * (t + 2) * inv * inv
            )
        )
    return (p**v * num * pow(den, -1, m) % m if v < 4 else 0), rhs % m


# ---------------------------------------------------------------------------
# every family at one prime

def verify_at_prime(
    p: int,
    families: tuple[str, ...],
    alphas: tuple[Fraction, ...] = (),
    truncations: tuple[str, ...] = ("short", "full"),
) -> tuple[list[tuple], dict[str, float]]:
    """The rows (records.family_rows) of every requested family at p, and the
    seconds spent in each of PHASES.

    A classical family gives one row per truncation, a MAO variant one, in
    the order given (see verify_prime); then each alpha gives one row per
    requested alpha family, in the order given (see verify_alpha).  Each
    distinct p-integral alpha, 1/d for the classical weight d and 1/2 for
    the 8^(-k) sum among them, gets one Pochhammer prefix (to p-1, or to
    2p-1 when a lemma family is requested), one set of main partial sums
    S(alpha, .), read at every truncation, and one closed form per
    exponent; each is computed when a row first reads it.  A family whose
    precondition fails gets a skip row with the reason; any other error
    raises records.InternalError, naming the family and its labels.
    """
    fams = [norm_family(f) for f in families]
    if unknown := [f for f in fams if f not in PRIME_FAMILIES + ALPHA_FAMILIES]:
        raise ValueError(f"unknown families: {unknown}")
    if bad := [t for t in truncations if t not in ("short", "full")]:
        raise ValueError(f"truncation must be short|full, got {bad[0]!r}")
    m = p**4
    alpha_fams = [f for f in fams if f in ALPHA_FAMILIES]
    lemmas = not set(LEMMA_FAMILIES).isdisjoint(alpha_fams)
    top = 2 * p - 1 if lemmas else p - 1
    seconds = dict.fromkeys(PHASES, 0.0)
    alphas = [Fraction(a) for a in alphas]
    # one slot per distinct alpha, the requested ones and 1/d for each
    # classical weight d; the values below are cached by slot, which hashes
    # faster than a Fraction
    values = list(dict.fromkeys(alphas + [Fraction(1, d) for d in (2, 3, 4)]))
    slot = {alpha: i for i, alpha in enumerate(values)}
    weight = {d: slot[Fraction(1, d)] for d in (2, 3, 4)}

    def timed(phase: str, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[phase] += perf_counter() - t0

    if p > 3 and fams:  # every check past p > 3 reads the tables
        timed("tables", _prime_tables, p)
        if lemmas:
            timed("tables", _lemma_tables, p)

    @cache
    def pre(i: int) -> tuple:
        alpha = values[i]
        if not is_p_integral(alpha, p):
            # padic.reduce_mod's wording, kept so that reports stay byte-identical
            raise PreconditionViolated(f"{-alpha} has no residue mod {p}^1")
        return timed("prefix", _poch_prefix, alpha, p, top)

    @cache
    def main(i: int) -> list[int]:
        return timed("sums", _main_sums, pre(i), p, p - 1)

    @cache
    def mao() -> list[int]:
        return timed("sums", _mao_sums, pre(weight[2]), p, p - 1)

    @cache
    def closed(i: int, e: int) -> int:
        _, _, _, a, t = pre(i)
        return timed("closed", _closed_form, values[i], a, t, p, e)

    def check_class(fam: str) -> None:
        if not admits(fam, p):
            mod, res = PRIME_CLASSES[fam]
            raise PreconditionViolated(
                f"{fam} needs p ≡ {res} (mod {mod}), got p = {p}")

    def mao_rhs(fam: str) -> int:
        if fam == "MAO_HALF":
            x = euler_poly_eval_mod(p - 3, Fraction(1, 4), p).value * pow(16, -1, p)
        else:  # SUN_HALF_CONJ
            x = legendre(2, p) * euler_number_mod(p - 3, p).value * pow(4, -1, p)
        return (p * legendre(-2, p) + _p3_times(p, x, m)) % m

    def prime_sides(fam: str, truncation: str) -> tuple[int, int, int]:
        # (e, lhs, rhs) of one record mod p^e
        if fam in FAMILIES:
            check_class(fam)
            if p <= 3:
                raise PreconditionViolated(f"{fam} needs p > 3, got p = {p}")
            f = FAMILIES[fam]
            d, e = f.weight_d, f.modulus_exp
            i = weight[d]
            s = main(i)[pre(i)[3] if truncation == "short" else p - 1]
            return e, d * s % p**e, d * closed(i, e) % p**e
        if p <= 3:
            raise PreconditionViolated(f"needs p > 3, got p = {p}")
        check_class(fam)
        if fam == "EQUIV":
            return 4, mao()[p - 1] % m, 4 * main(weight[4])[p - 1] % m
        M = p - 1 if fam == "MAO_HALF" else (p - 1) // 2
        return 4, mao()[M] % m, timed("closed", mao_rhs, fam)

    def alpha_sides(i: int, fam: str) -> tuple[int, int]:
        if p <= 3:
            raise PreconditionViolated(f"needs p > 3, got p = {p}")
        a = pre(i)[3]
        if fam in ALPHA_TRUNCATIONS:
            return main(i)[p - 1 if fam == "MAIN1" else a] % m, closed(i, 4)
        if fam == "TAIL":
            if a == p - 1:
                raise PreconditionViolated(
                    f"<-alpha>_p = p-1 for alpha = {values[i]}, p = {p}: tail is empty"
                )
            s = main(i)
            return (s[p - 1] - s[a]) % m, 0
        return timed("lemma", _lemma_sides, fam, values[i], p, pre(i))

    checks = [(fam, tr) for fam in fams if fam in PRIME_FAMILIES
              for tr in (truncations if fam in FAMILIES else (MAO_TRUNCATIONS[fam],))]
    rows = family_rows(checks, lambda fam, tr: _residue_sides(p, *prime_sides(fam, tr)),
                       p=p)
    checks = [(fam, ALPHA_TRUNCATIONS.get(fam)) for fam in alpha_fams]
    for alpha in alphas:
        i = slot[alpha]
        rows += family_rows(
            checks, lambda fam, _: _residue_sides(p, 4, *alpha_sides(i, fam)),
            p=p, alpha=alpha)
    return rows, seconds


def verify_prime(
    p: int,
    families: tuple[str, ...] = PRIME_FAMILIES,
    truncations: tuple[str, ...] = ("short", "full"),
) -> list[VerificationRecord]:
    """One record per requested classical family and truncation, and one per
    MAO variant, at one prime, in the order given.

    A classical family's record compares d * S(1/d, M) with d times the
    general-alpha closed form at 1/d, mod p^(modulus_exp), with M =
    <-1/d>_p ("short", the stated truncation) or p-1 ("full").  A MAO
    variant gives one record at its own truncation (MAO_TRUNCATIONS): the
    8^(-k) sum at p-1 (MAO_HALF) or (p-1)/2 (SUN_HALF_CONJ), and its
    agreement with the (8k+1) sum at p-1 when p ≡ 1 (mod 4) (EQUIV).  Each
    sum is computed once mod p^4 by verify_at_prime: S(1/d, .) from the
    prefix at 1/d for each weight d (read mod p^3 by the p^3 families), and
    the 8^(-k) sum from the prefix at 1/2.  A family whose precondition
    fails gets a skip record with the reason; its residue class of p is the
    one in PRIME_CLASSES.
    """
    fams = [norm_family(f) for f in families]
    if unknown := [f for f in fams if f not in PRIME_FAMILIES]:
        raise ValueError(f"unknown prime families: {unknown}")
    rows, _ = verify_at_prime(p, fams, (), truncations)
    return [VerificationRecord(*row) for row in rows]


def verify_alpha(
    alpha: Fraction, p: int, families: tuple[str, ...] = ALPHA_FAMILIES
) -> list[VerificationRecord]:
    """One record mod p^4 per requested family, in the order given.

    With a = <-alpha>_p and S(alpha, M) = sum_{k<=M} (-1)^k (2k+alpha)
    (alpha)_k^3 / k!^3:

    * MAIN1, MAIN1_TRUNC: S(alpha, M) ≡ (-1)^a (alpha+a)
      + (alpha+a)^3 E_{p-3}(alpha), with M = p-1 ("full") or M = a ("short").
    * TAIL: S(alpha, p-1) - S(alpha, a) ≡ 0, the terms k = a+1..p-1; a <= p-2.
    * the five LEMMA_* families (see _lemma_sides).

    Every family needs p > 3 and a p-integral alpha; a family whose
    precondition fails gets a skip record with the reason.  verify_at_prime
    computes one Pochhammer prefix, which also gives a and t, one closed
    form and one set of partial sums S(alpha, .), each only when a
    requested family reads it.
    """
    fams = [norm_family(f) for f in families]
    if unknown := [f for f in fams if f not in ALPHA_FAMILIES]:
        raise ValueError(f"unknown alpha families: {unknown}")
    rows, _ = verify_at_prime(p, fams, (alpha,))
    return [VerificationRecord(*row) for row in rows]
