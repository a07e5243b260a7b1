"""Truncated hypergeometric supercongruences modulo p^3 and p^4.

The central object is the alternating sum

    S(alpha, M) = sum_{k=0}^{M} (-1)^k (2k+alpha) (alpha)_k^3 / k!^3.

The classical (4k+1)/(6k+1)/(8k+1) families are d * S(1/d, M) for
d = 2, 3, 4.  Against it we check:

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
  read from one lemma table per job (_lemma_tables).

The sums and the Euler residues of the right sides come from accumulating
remainder trees (primes._tree; Costa, Gerbicz and Harvey, "A search for
Wilson primes", Math. Comp. 2014) over the primes of all jobs.  Each sum
is a row of integers advanced by one lower-triangular matrix per term k,
the same matrix for every prime (_sums): one tree per distinct alpha
multiplies these out once and reads every prime's breakpoints
a = <-alpha>_p and p-1 ((p-1)/2 and p-1 for the 8^(-k) sum) off it, each
reduced mod its own p^4.  A second tree, mod p, gives every E_{p-3}(r)
(_euler_residues).  Where a pass per (alpha, p) costs O(p) interpreted
steps at each prime, a tree makes O(N) big-integer products and
reductions for N the jobs' largest prime, with operands of up to about
N log N bits near its root.  The lemmas' Pochhammer quotients hold (p-k)!
terms, which no fixed matrix carries, so they keep a per-prime path: a
prefix (alpha)_j = p^(e_j) u_j to 2p-1 (_poch_prefix) per (alpha, p), and
the factorial and harmonic-type tables of p, built once per job.

verify_primes checks any families at a list of jobs (p, families,
alphas), and times each of its phases; verify_prime (the prime families)
and verify_alpha (the alpha families at one alpha) are thin calls into it
with one job.  The classical and 8^(-k) families are statements about one
prime p, the general-alpha congruence, its tail and the five lemmas
statements about one pair (alpha, p).  A failed hypothesis
(p > 3 and its class, alpha p-integral, a <= p-2, no zero Pochhammer
factor) raises PreconditionViolated where it is tested: a skip row.

Everything is exact integer arithmetic; the Fraction oracles these
residues are checked against, and the per-prime passes the trees
replaced, live in the tests.  The family tables (FAMILIES, PRIME_CLASSES,
the MAO, LEMMA and ALPHA names, PHASES) live in records, which the CLI
reads without importing this module; they are imported from there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from time import perf_counter

from .padic import (
    NotPAdicIntegral,
    ResidueClass,
    is_p_integral,
    legendre,
)
from .primes import _tree
from .records import (
    ALPHA_FAMILIES,
    ALPHA_TRUNCATIONS,
    FAMILIES,
    LEMMA_FAMILIES,
    MAO_TRUNCATIONS,
    PHASES,
    PRIME_CLASSES,
    PRIME_FAMILIES,
    PreconditionViolated,
    Side,
    VerificationRecord,
    admits,
    family_rows,
    norm_family,
)

__all__ = [
    "verify_primes",
    "verify_prime",
    "verify_alpha",
    "ramanujan_partial",
]


def _sums(alpha: Fraction | None, cuts: dict[int, tuple[int, ...]]) -> dict:
    """{p: (the sum to M mod p^4, for each M of cuts[p])}, every M < p, from
    one tree: S(alpha, M), or for alpha None the 8^(-k) sum
    sum_{k<=M} (-1)^k (6k+1) (1/2)_k^3 / (8^k k!^3).

    For alpha = r/s the row (A, P, D) starts at (r, r^3, 1), and leaf k is
    ((sk)^3, (-1)^k (2ks + r), (r+ks)^3).  After leaf M, P is
    prod_{i<=M} (r+is)^3, D = s^(3M) M!^3, and A / D is s times S(alpha, M).
    The 8^(-k) sum has leaf ((4k)^3, (-1)^k (6k+1), (1+2k)^3) from the row
    (1, 1, 1), and is A / D.  D is a unit mod p for M < p, and a factor
    alpha + i divisible by p stays in the integer product P.  An alpha that
    is not p-integral at some p of cuts raises NotPAdicIntegral.
    """
    if alpha is None:
        r, s, q, b, c, den = 1, 2, 4, 6, 1, 1
    else:
        r, s = alpha.numerator, alpha.denominator
        q, b, c, den = s, 2 * s, r, s
        if bad := [p for p in cuts if s % p == 0]:
            raise NotPAdicIntegral(f"{alpha} has no residue mod {bad[0]}")

    def leaf(k: int) -> tuple[int, int, int]:
        w = b * k + c
        return (q * k) ** 3, (-w if k & 1 else w), (r + s * k) ** 3

    points: dict[int, int] = {}
    for p, Ms in cuts.items():
        for M in set(Ms):
            points[M] = points.get(M, 1) * p**4
    rows = _tree(leaf, (c, r**3, 1), points)
    out = {}
    for p, Ms in cuts.items():
        m = p**4
        out[p] = tuple(rows[M][0] * pow(den * rows[M][2], -1, m) % m for M in Ms)
    return out


# E_n(x) + E_n(x+1) = 2x^n telescopes to
#     sum_{k<p} (-1)^k (x+k)^n = (E_n(x) + E_n(x+p)) / 2,
# and since E_n has only 2-power denominators, E_n(x+p) ≡ E_n(x) (mod p)
# for odd p: the sum is E_n(x) mod p.  Folding x+k into 0..p-1 gives, for
# 0 <= r < p, E_n(r) ≡ (-1)^r (P_p - 2 P_r) (mod p) with
# P_i = sum_{j<i} (-1)^j j^n.  At n = p-3 > 0, j^(p-3) ≡ 1/j^2, so
# P_i ≡ A_i = sum_{1<=j<i} (-1)^j / j^2, whose terms do not depend on p.
def _euler_residues(wanted: dict[int, set[int]]) -> dict[int, dict[int, int]]:
    """{p: {r: E_{p-3}(r) mod p}} for each residue 0 <= r < p in wanted[p],
    p > 3, from one tree mod p: the row (B, Q, Q) starts at (0, 1, 1), and
    leaf j is (j^2, (-1)^j, j^2), so after leaf i-1, A_i = B / Q."""
    points: dict[int, int] = {}
    for p, rs in wanted.items():
        for M in {p - 1} | {max(r - 1, 0) for r in rs}:
            points[M] = points.get(M, 1) * p
    rows = _tree(lambda j: (j * j, -1 if j & 1 else 1, j * j), (0, 1, 1), points)

    def alt(p: int, i: int) -> int:  # A_i mod p; A_0 = A_1 = 0
        B, Q, _ = rows[max(i - 1, 0)]
        return B * pow(Q, -1, p) % p

    out = {}
    for p, rs in wanted.items():
        full = alt(p, p)
        out[p] = {r: _parity_sign(r) * (full - 2 * alt(p, r)) % p for r in rs}
    return out


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


def _a_t(alpha: Fraction, p: int) -> tuple[int, int]:
    """a = <-alpha>_p and t = (alpha + a)/p mod p^4, for p-integral alpha.

    t is (num + a den)/p times 1/den, from the integers: alpha + a reduced
    mod p^4 first would give t only mod p^3.  A non-p-integral alpha raises
    NotPAdicIntegral.
    """
    num, den = alpha.numerator, alpha.denominator
    if den % p == 0:
        raise NotPAdicIntegral(f"{alpha} has no residue mod {p}")
    m = p**4
    inv = pow(den, -1, m)
    a = -num * inv % p
    return a, (num + a * den) // p * inv % m


def _closed_form(alpha: Fraction, a: int, t: int, p: int, e: int,
                 euler: int | None) -> int:
    """The right side of the general-alpha congruence at a = <-alpha>_p,
    (-1)^a (alpha+a) + (alpha+a)^3 E_{p-3}(alpha) mod p^e, alpha + a = p*t,
    with euler = E_{p-3}(alpha) mod p.

    The cube vanishes mod p^3, so euler is only read when e = 4.
    """
    m = p**e
    pt = p * t % m
    rhs = _parity_sign(a) * pt
    if e == 4:
        rhs += pt**3 * euler
    return rhs % m


def _residue_sides(p: int, e: int, lhs: int, rhs: int) -> tuple[str, Side, Side]:
    # a record's (modulus, lhs, rhs) from two residues mod p^e
    return f"{p}^{e}", ResidueClass(lhs, p**e), ResidueClass(rhs, p**e)


# ---------------------------------------------------------------------------
# auxiliary Pochhammer-quotient congruences

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


def _lemma_sides(fam: str, alpha: Fraction, p: int, pre: tuple,
                 tables: tuple) -> tuple[int, int]:
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
    (mod p^4), H_a, H_a^(2) and sum_{k<=a} (-1)^k/k^2, read from tables =
    _lemma_tables(p); the divisions by 2 and by a+1 are by units in every
    branch that makes them.  A family whose hypothesis fails, alphas that
    zero a denominator Pochhammer among them, raises PreconditionViolated.
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


# ---------------------------------------------------------------------------
# every family at a list of jobs

# the slots of 1/2, 1/3 and 1/4, the first three of every run: 1/d is d - 2
_HALF, _QUARTER = 0, 2


def _tree_values(jobs: list, values: list[Fraction], seconds: dict) -> tuple[dict, dict]:
    """The sums and Euler residues the rows of jobs read, from the trees:
    ({i: {p: (sum to the short cut, sum to p-1)}} for each slot i of values,
    and i = None for the 8^(-k) sum, whose short cut is (p-1)/2 where the
    others' is a = <-alpha>_p; {p: {r: E_{p-3}(r) mod p}}).  A family reads
    them at p > 3 in its residue class, and an alpha family at each
    p-integral alpha of its job; the alphas of a job are slots of values."""
    fracs = [(x.numerator, x.denominator) for x in values]
    cuts: dict = {}
    residues: dict[int, set[int]] = {}
    for p, fams, slots in jobs:
        if p <= 3:
            continue
        sums, eulers = set(), set()
        for fam in fams:
            if fam in PRIME_FAMILIES and not admits(fam, p):
                continue
            if fam in FAMILIES:
                f = FAMILIES[fam]
                sums.add(f.weight_d - 2)  # the slot of 1/d
                if f.modulus_exp == 4:
                    eulers.add(f.weight_d - 2)
            elif fam in MAO_TRUNCATIONS:
                sums.add(None)
                if fam == "EQUIV":
                    sums.add(_QUARTER)
                else:
                    eulers.add(_QUARTER if fam == "MAO_HALF" else _HALF)
            elif fam not in LEMMA_FAMILIES:
                here = [i for i in slots if fracs[i][1] % p]
                sums.update(here)
                if fam != "TAIL":
                    eulers.update(here)
        for i in sums:
            if i is None:
                cut = (p - 1) // 2
            else:
                num, den = fracs[i]
                cut = -num * pow(den, -1, p) % p
            cuts.setdefault(i, {})[p] = (cut, p - 1)
        if eulers:
            residues.setdefault(p, set()).update(
                fracs[i][0] * pow(fracs[i][1], -1, p) % p for i in eulers)
    t0 = perf_counter()
    sums = {i: _sums(None if i is None else values[i], c) for i, c in cuts.items()}
    t1 = perf_counter()
    euler = _euler_residues(residues)
    seconds["sums"] += t1 - t0
    seconds["closed"] += perf_counter() - t1
    return sums, euler


def verify_primes(
    jobs: tuple[tuple[int, tuple[str, ...], tuple[Fraction, ...]], ...],
    truncations: tuple[str, ...] = ("short", "full"),
) -> tuple[list[tuple], dict[str, float]]:
    """The rows (records.family_rows) of every job (p, families, alphas), in
    order, and the seconds spent in each of PHASES.

    At each job's prime, a classical family gives one row per truncation, a
    MAO variant one, in the order given (see verify_prime); then each alpha
    gives one row per requested alpha family, in the order given (see
    verify_alpha).  Every sum and Euler residue of the classical, 8^(-k),
    MAIN1, MAIN1_TRUNC and TAIL rows of all jobs comes from one remainder
    tree per distinct alpha and one Euler tree (_tree_values), built before
    the first row.  A lemma family reads a Pochhammer prefix to 2p-1 per
    p-integral alpha, built when a row first reads it, and the lemma tables
    of p, built once per job.  A family whose precondition fails gets a
    skip row with the reason; any other error raises records.InternalError,
    naming the family and its labels.
    """
    # one slot per distinct alpha of the jobs, 1/2, 1/3 and 1/4 first;
    # the values of an alpha are kept by slot, which hashes faster than a
    # Fraction
    slot = {Fraction(1, d): d - 2 for d in (2, 3, 4)}
    normed = []
    for p, fams, alphas in jobs:
        fams = [norm_family(f) for f in fams]
        if unknown := [f for f in fams if f not in PRIME_FAMILIES + ALPHA_FAMILIES]:
            raise ValueError(f"unknown families: {unknown}")
        normed.append((p, fams, [slot.setdefault(Fraction(a), len(slot))
                                 for a in alphas]))
    if bad := [t for t in truncations if t not in ("short", "full")]:
        raise ValueError(f"truncation must be short|full, got {bad[0]!r}")
    values = list(slot)
    seconds = dict.fromkeys(PHASES, 0.0)
    sums, euler = _tree_values(normed, values, seconds)

    def timed(phase: str, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[phase] += perf_counter() - t0

    rows: list[tuple] = []
    for p, fams, slots in normed:
        rows += _job_rows(p, fams, slots, truncations, values, sums, euler, timed)
    return rows, seconds


def _job_rows(p: int, fams: list[str], slots: list[int], truncations: tuple[str, ...],
              values: list[Fraction], sums: dict, euler: dict, timed) -> list[tuple]:
    # the rows of one job of verify_primes; alphas are slots of values
    m = p**4
    alpha_fams = [f for f in fams if f in ALPHA_FAMILIES]
    tables = None  # the lemma tables of p, read by the lemma families only
    if p > 3 and not set(LEMMA_FAMILIES).isdisjoint(alpha_fams):
        tables = timed("tables", _lemma_tables, p)

    @cache
    def a_t(i: int) -> tuple[int, int]:
        alpha = values[i]
        if not is_p_integral(alpha, p):
            # least_nonneg_residue's wording at -alpha, kept for byte identity
            raise PreconditionViolated(f"{-alpha} has no residue mod {p}^1")
        return _a_t(alpha, p)

    def euler_at(i: int) -> int:
        x = values[i]
        return euler[p][x.numerator * pow(x.denominator, -1, p) % p]

    @cache
    def closed(i: int, e: int) -> int:
        a, t = a_t(i)
        return timed("closed", _closed_form, values[i], a, t, p, e,
                     euler_at(i) if e == 4 else None)

    @cache
    def pre(i: int) -> tuple:
        a_t(i)
        return timed("prefix", _poch_prefix, values[i], p, 2 * p - 1)

    def check_class(fam: str) -> None:
        if not admits(fam, p):
            mod, res = PRIME_CLASSES[fam]
            raise PreconditionViolated(
                f"{fam} needs p ≡ {res} (mod {mod}), got p = {p}")

    def mao_rhs(fam: str) -> int:
        if fam == "MAO_HALF":
            x = euler_at(_QUARTER) * pow(16, -1, p)
        else:  # SUN_HALF_CONJ: E_{p-3} = 2^(p-3) E_{p-3}(1/2) ≡ E_{p-3}(1/2) / 4
            x = legendre(2, p) * euler_at(_HALF) * pow(16, -1, p)
        return (p * legendre(-2, p) + _p3_times(p, x, m)) % m

    def prime_sides(fam: str, truncation: str) -> tuple[int, int, int]:
        # (e, lhs, rhs) of one record mod p^e
        if fam in FAMILIES:
            check_class(fam)
            if p <= 3:
                raise PreconditionViolated(f"{fam} needs p > 3, got p = {p}")
            f = FAMILIES[fam]
            d, e = f.weight_d, f.modulus_exp
            s = sums[d - 2][p][0 if truncation == "short" else 1]
            return e, d * s % p**e, d * closed(d - 2, e) % p**e
        if p <= 3:
            raise PreconditionViolated(f"needs p > 3, got p = {p}")
        check_class(fam)
        half, full = sums[None][p]
        if fam == "EQUIV":
            return 4, full, 4 * sums[_QUARTER][p][1] % m
        return 4, (full if fam == "MAO_HALF" else half), timed("closed", mao_rhs, fam)

    def alpha_sides(i: int, fam: str) -> tuple[int, int]:
        if p <= 3:
            raise PreconditionViolated(f"needs p > 3, got p = {p}")
        a, _ = a_t(i)
        if fam in ALPHA_TRUNCATIONS:
            return sums[i][p][1 if fam == "MAIN1" else 0], closed(i, 4)
        if fam == "TAIL":
            if a == p - 1:
                raise PreconditionViolated(
                    f"<-alpha>_p = p-1 for alpha = {values[i]}, p = {p}: tail is empty"
                )
            short, full = sums[i][p]
            return (full - short) % m, 0
        return timed("lemma", _lemma_sides, fam, values[i], p, pre(i), tables)

    checks = [(fam, tr) for fam in fams if fam in PRIME_FAMILIES
              for tr in (truncations if fam in FAMILIES else (MAO_TRUNCATIONS[fam],))]
    rows = family_rows(checks, lambda fam, tr: _residue_sides(p, *prime_sides(fam, tr)),
                       p=p)
    checks = [(fam, ALPHA_TRUNCATIONS.get(fam)) for fam in alpha_fams]
    for i in slots:
        rows += family_rows(
            checks, lambda fam, _: _residue_sides(p, 4, *alpha_sides(i, fam)),
            p=p, alpha=values[i])
    return rows


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
    sum is computed once mod p^4 by verify_primes at one job:
    S(1/d, .) from the tree at 1/d for each weight d (read mod p^3 by the
    p^3 families), and the 8^(-k) sum from its own tree.  A family whose
    precondition fails gets a skip record with the reason; its residue
    class of p is the one in PRIME_CLASSES.
    """
    fams = [norm_family(f) for f in families]
    if unknown := [f for f in fams if f not in PRIME_FAMILIES]:
        raise ValueError(f"unknown prime families: {unknown}")
    rows, _ = verify_primes(((p, fams, ()),), truncations)
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
    precondition fails gets a skip record with the reason.  verify_primes,
    at one job, computes one tree for S(alpha, .), one closed form and, for
    the lemma families, one Pochhammer prefix and the lemma tables of p,
    each only when a requested family reads it.
    """
    fams = [norm_family(f) for f in families]
    if unknown := [f for f in fams if f not in ALPHA_FAMILIES]:
        raise ValueError(f"unknown alpha families: {unknown}")
    rows, _ = verify_primes(((p, fams, (alpha,)),))
    return [VerificationRecord(*row) for row in rows]
