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
  right sides are polynomials in t and the harmonic-type prefixes at a.

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
N log N bits near its root.  The lemmas read trees too (_lemma_trees):
per alpha = r/s, one of the products r(r+s)...(r+(j-1)s), and one over
Z[P]/(P^3) (_Trunc) for the factors (alpha+p+i) and (p-1)!/(p-k)! of the
lemma sums: one leaf serves every prime, read at P = p.  With three
harmonic-type trees, one pass per (alpha, p) reads them (_lemma_pass_at).

verify_primes checks any families at a list of jobs (p, families,
alphas), and times each of its phases; verify_prime (the prime families)
and verify_alpha (the alpha families at one alpha) are thin calls into it
with one job.  A failed hypothesis (p > 3 and its class, alpha p-integral,
a <= p-2, no zero Pochhammer factor) raises PreconditionViolated where it
is tested: a skip row.

Everything is exact integer arithmetic; the Fraction oracles these
residues are checked against, and the per-prime passes and lemma path the
trees replaced, live in the tests.  The family tables (FAMILIES, PRIME_CLASSES,
the MAO, LEMMA and ALPHA names, PHASES) live in records, which the CLI
reads without importing this module; they are imported from there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from time import perf_counter
from typing import Callable

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


def _cut(points: dict[int, int], Ms, q: int) -> None:
    # the cuts Ms of one prime, each mod its modulus q once
    for M in Ms:
        points[M] = points.get(M, 1) * q


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
        _cut(points, set(Ms), p**4)
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
        _cut(points, {p - 1} | {max(r - 1, 0) for r in rs}, p)
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


def _closed_form(a: int, t: int, p: int, e: int, euler: int | None) -> int:
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


def _residue_sides(p: int) -> Callable[[int, int, int], tuple[str, Side, Side]]:
    """sides(e, lhs, rhs): a record's (modulus, lhs, rhs) from two residues
    mod p^e, with the label "p^e" and p^e made once per e."""
    moduli: dict[int, tuple[str, int]] = {}

    def sides(e: int, lhs: int, rhs: int) -> tuple[str, Side, Side]:
        if e not in moduli:
            moduli[e] = f"{p}^{e}", p**e
        label, m = moduli[e]
        return label, ResidueClass(lhs, m), ResidueClass(rhs, m)
    return sides


# ---------------------------------------------------------------------------
# auxiliary Pochhammer-quotient congruences

class _Trunc(tuple):
    """c0 + c1 P + c2 P^2 in Z[P]/(P^3), as (c0, c1, c2), with +, * (by
    another or by an int) and % (coefficient-wise) for primes._tree.  At P = p
    the dropped terms are multiples of p^3, and a record reads a W sum only
    times p^v0 or p^(3 v0), v0 >= 1 (_lemma_pass_at)."""

    __slots__ = ()

    def __add__(self, other):
        a0, a1, a2 = self
        b0, b1, b2 = (other, 0, 0) if isinstance(other, int) else other
        return _Trunc((a0 + b0, a1 + b1, a2 + b2))
    __radd__ = __add__

    def __mul__(self, other):
        a0, a1, a2 = self
        if isinstance(other, int):
            return _Trunc((a0 * other, a1 * other, a2 * other))
        b0, b1, b2 = other
        return _Trunc((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0))
    __rmul__ = __mul__

    def __mod__(self, m: int):
        c0, c1, c2 = self
        return _Trunc((c0 % m, c1 % m, c2 % m))

    def at(self, p: int, m: int) -> int:  # the value at P = p, mod m
        c0, c1, c2 = self
        return (c2 * p + c1) * p % m + c0 % m


def _w_tree(r: int, s: int, cuts: dict[int, int]) -> dict[int, tuple]:
    """The W tree of alpha = r/s: leaf k is (g^2, 1, n_{k+1}) with g = r+(k-1)s,
    n_1 = -s and n_{k+1} = -s (g+sP)(P-k).  From (0, s n_1, 1), the row after
    leaf M is (A_M, s n_1...n_{M+1}, Pi_M^2), and A_M / Pi_M^2 at P = p is
    W_M = sum_{k<=M} (-1)^k (alpha+p)_{k-1} (p-1)!/(p-k)! / (alpha)_k^2."""
    def leaf(k: int) -> tuple:
        g = r + (k - 1) * s  # n_{k+1} = s g k + s (s - r) P - s^2 P^2
        return g * g, 1, _Trunc((s * g * k, s * (s - r), -s * s))
    return _tree(leaf, (0, _Trunc((-s * s, 0, 0)), 1), cuts)


def _lemma_trees(jobs: list, values: list[Fraction]) -> dict[int, tuple]:
    """{i: (pi, w, h, v0s)} for each slot i of values that a lemma row of jobs
    reads: the rows of the Pi and W trees of values[i], of the three
    harmonic trees all alphas share (see _lemma_pass_at), and v0s = {p: v0}.  At
    each prime p > 3 of a job with a lemma family, each p-integral alpha =
    r/s of the job, with a = <-alpha>_p and v0 = v_p(r+as) (0 if r+as = 0),
    cuts its Pi tree at p, p+a and 2p-1 mod p^4, and its W tree at a, and
    p-1 if a <= p-2 and r+as != 0, mod p^(4+2v0); the harmonic trees are cut
    at every a, p-1 and p-a-1 mod p^4.  A prime enters each of its cuts once."""
    pi_cuts: dict[int, dict[int, int]] = {}
    w_cuts: dict[int, dict[int, int]] = {}
    v0s: dict[int, dict[int, int]] = {}
    h_cuts: dict[int, int] = {}
    for p, fams, slots in jobs:
        if p <= 3 or set(LEMMA_FAMILIES).isdisjoint(fams):
            continue
        wanted = {p - 1}
        for i in slots:
            r, s = values[i].numerator, values[i].denominator
            if s % p == 0:
                continue
            a, v0 = -r * pow(s, -1, p) % p, 0
            while r + a * s and (r + a * s) % p ** (v0 + 1) == 0:
                v0 += 1
            v0s.setdefault(i, {})[p] = v0
            _cut(pi_cuts.setdefault(i, {}), {p, p + a, 2 * p - 1}, p**4)
            _cut(w_cuts.setdefault(i, {}),
                 {a, p - 1} if a <= p - 2 and r + a * s else {a}, p ** (4 + 2 * v0))
            wanted |= {a, p - a - 1}
        _cut(h_cuts, wanted, p**4)
    h = tuple(_tree(leaf, (0, 1, 1), h_cuts) for leaf in (
        lambda j: (j, 1, j), lambda j: (j * j, 1, j * j),
        lambda j: (j * j, (-1) ** j, j * j)))
    out = {}
    for i, cuts in pi_cuts.items():
        r, s = values[i].numerator, values[i].denominator
        pi = _tree(lambda j: (1, 0, r + (j - 1) * s), (0, 1, 1), cuts)
        out[i] = pi, _w_tree(r, s, w_cuts[i]), h, v0s[i]
    return out


def _lemma_pass_at(alpha: Fraction, p: int, a: int, t: int, trees: tuple):
    """One pass over the LEMMA_* families at (alpha, p), from (a, t) =
    _a_t(alpha, p) and the trees (pi, w, h, v0s) of _lemma_trees: makes what
    they share, and returns sides(fam, truncation), one family's (4, lhs, rhs)
    mod p^4 for _residue_sides.  With alpha = r/s, Pi_M = s^M (alpha)_M,
    v0 = v_p(r+as) and U_M = Pi_M / p^v0 for M > a, the left sides are:

    * LEMMA_WZPROD:  (alpha)_{2p-1}/(p-1)!^2 = Pi_{2p-1} / (s^(2p-1) (p-1)!^2),
      two branches (a = p-1 / a < p-1); needs alpha ≢ 0 (mod p).
    * LEMMA_ALPHAP3: (alpha)_p^3/(p-1)!^3 = Pi_p^3 / (s^(3p) (p-1)!^3) ≡ (alpha+a)^3.
    * LEMMA_SIGMA1:  the sum over k = 1..a, LEMMA_ALPHAP3's left side times
      W_a; needs alpha ≢ 0 (mod p).
    * LEMMA_PROD:    (alpha)_p^2 (alpha)_{p+a} / ((p-1)!^2 (p-a-1)! (alpha)_{a+1}^2)
      = p^v0 U_p^2 U_{p+a} s^(a+2) / (s^(3p) (p-1)!^2 (p-a-1)! U_{a+1}^2).
    * LEMMA_SIGMA:   the sum over k = a+2..p-1, p^v0 U_p^3 X / (s^(3p)
      (p-1)!^3) with X = p^(2v0) (W_{p-1} - W_{a+1}); needs a <= p-2.

    W_M is A_M(p) / D_M for the W tree's row (A_M, N_M, D_M), D_M = Pi_M^2;
    the row at a+1 is the row at a times leaf a+1, so U_{a+1}^2 = D_a
    ((r+as)/p^v0)^2, and X reads the units D_M / p^(2v0).  The families
    share s^p (p-1)!, its inverse cube, 1/a!, H_a, H_a^(2), U_p and
    U_{a+1}^2.  The right sides are polynomials in t, H_a, H_a^(2) and
    sum_{k<=a} (-1)^k/k^2 from h, mod p^4, divided by 2 and a+1 where those
    are units.  A family whose hypothesis fails raises PreconditionViolated:
    among them a zero denominator Pochhammer, whose only factor that can
    vanish is alpha+a, exactly when t = 0, which t ≡ 0 (mod p^4) does not imply.
    """
    m = p**4
    r, s = alpha.numerator, alpha.denominator
    pi, w, (h1, h2, alt), v0s = trees
    q, pv = p ** (4 + 2 * v0s[p]), p ** v0s[p]
    sf = pow(s, p, m) * h1[p - 1][1] % m  # s^p (p-1)!
    isf3 = pow(sf, -3, m)
    ia = pow(h1[a][1], -1, m)  # 1/a!
    ha, ha2 = h1[a][0] * ia % m, h2[a][0] * ia * ia % m
    inv = pow(a + 1, -1, m) if a < p - 1 else None
    up = pi[p][1] % m // pv  # U_p mod p^(4-v0)
    ua2 = w[a][2] * ((r + a * s) // pv) ** 2 % m  # U_{a+1}^2
    pt = p * t
    half = (m + 1) // 2  # 1/2 mod p^4
    zero = r + a * s == 0  # t = 0

    def sides(fam: str, _) -> tuple[int, int, int]:
        if a == 0 and fam in ("LEMMA_WZPROD", "LEMMA_SIGMA1"):
            raise PreconditionViolated(f"alpha = {alpha} ≡ 0 (mod {p})")
        if fam == "LEMMA_PROD" and zero:
            raise PreconditionViolated(
                f"(alpha)_{a + 1} = 0 at alpha = {alpha} (p = {p})")
        if fam == "LEMMA_SIGMA" and a > p - 2:
            raise PreconditionViolated(f"a = p-1 violates a <= p-2 (alpha = {alpha})")
        if fam == "LEMMA_SIGMA" and zero:
            raise PreconditionViolated(
                f"(alpha)_k = 0 for some k <= {p - 1} at alpha = {alpha}")
        if fam == "LEMMA_ALPHAP3":
            lhs, rhs = pi[p][1] ** 3 * isf3, pt**3
        elif fam == "LEMMA_WZPROD":
            lhs = pi[2 * p - 1][1] * s * sf * isf3  # 1/sf^2 = sf/sf^3
            if a == p - 1:  # alpha+a+p is past the last factor
                rhs = pt
            else:
                rhs = -p * pt * (t + 1) * inv * (1 + 2 * p * ha + p * (t + 2) * inv)
        elif fam == "LEMMA_SIGMA1":
            A, _, D = w[a]
            lhs = pi[p][1] ** 3 * A.at(p, m) * isf3 * pow(D, -1, m)
            rhs = _parity_sign(a + 1) * pt**3 * (ha2 + 2 * alt[a][0] * ia * ia)
        elif fam == "LEMMA_PROD":
            num = pv * up * up * (pi[p + a][1] % m // pv) * pow(s, a + 2 - p, m) * sf
            lhs = num * isf3 * pow(h1[p - a - 1][1] * ua2, -1, m)
            rhs = pt * (
                1
                + p * (t + 1) * ha
                + p * p * half * ((t + 1) ** 2 * ha * ha + (t * t + 4 * t + 1) * ha2)
            )
        else:  # LEMMA_SIGMA
            A, N, _ = w[a]
            A1 = (A * (r + a * s) ** 2 + N) % q  # times leaf a+1
            D2 = w[p - 1][2] % q // pv**2
            num = pv * up**3 * (w[p - 1][0].at(p, m) * ua2 - A1.at(p, m) * D2)
            lhs = num * isf3 * pow(ua2 * D2, -1, m)
            sa = _parity_sign(a)
            rhs = sa * p * pt * (t + 1) * (
                ha - sa * inv
                + p * (
                    half * ((t + 1) * ha * ha + (3 * t + 1) * ha2)
                    - 2 * sa * inv * ha
                    - sa * (t + 2) * inv * inv
                )
            )
        return 4, lhs % m, rhs % m
    return sides


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
    one row per requested alpha family, in the order given but the lemma
    families last (see verify_alpha).  Every sum and Euler residue of the
    classical, 8^(-k), MAIN1, MAIN1_TRUNC and TAIL rows of all jobs comes
    from one remainder tree per distinct alpha and one Euler tree
    (_tree_values), and every lemma value from the lemma trees
    (_lemma_trees) and one pass per alpha and prime (_lemma_pass_at).  A family
    whose precondition fails gets a skip row with the reason; any other
    error raises records.InternalError, naming the family and its labels.
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

    def timed(phase: str, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            seconds[phase] += perf_counter() - t0

    sums, euler = _tree_values(normed, values, seconds)
    lemma = {}
    if any(f in LEMMA_FAMILIES for _, fams, _ in normed for f in fams):
        lemma = timed("lemma", _lemma_trees, normed, values)
    rows: list[tuple] = []
    for p, fams, slots in normed:
        rows += _job_rows(p, fams, slots, truncations, values, sums, euler, lemma, timed)
    return rows, seconds


def _job_rows(p: int, fams: list[str], slots: list[int], truncations: tuple[str, ...],
              values: list[Fraction], sums: dict, euler: dict, lemma: dict, timed):
    # the rows of one job of verify_primes; alphas are slots of values
    m = p**4

    @cache
    def a_t(i: int) -> tuple[int, int]:
        if p <= 3:
            raise PreconditionViolated(f"needs p > 3, got p = {p}")
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
        return timed("closed", _closed_form, a, t, p, e,
                     euler_at(i) if e == 4 else None)

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
        a, t = a_t(i)
        if fam in ALPHA_TRUNCATIONS:
            return sums[i][p][1 if fam == "MAIN1" else 0], closed(i, 4)
        if a == p - 1:  # TAIL
            raise PreconditionViolated(
                f"<-alpha>_p = p-1 for alpha = {values[i]}, p = {p}: tail is empty"
            )
        short, full = sums[i][p]
        return (full - short) % m, 0

    # one pass per alpha, made at its first lemma row, which names its errors
    lemma_pass = cache(lambda i: _lemma_pass_at(values[i], p, *a_t(i), lemma[i]))

    checks = [(fam, tr) for fam in fams if fam in PRIME_FAMILIES
              for tr in (truncations if fam in FAMILIES else (MAO_TRUNCATIONS[fam],))]
    residue = _residue_sides(p)
    rows = family_rows(checks, lambda fam, tr: residue(*prime_sides(fam, tr)), p=p)
    checks = [(fam, ALPHA_TRUNCATIONS.get(fam)) for fam in fams
              if fam in ALPHA_FAMILIES and fam not in LEMMA_FAMILIES]
    lemmas = [(fam, None) for fam in fams if fam in LEMMA_FAMILIES]
    for i in slots:
        rows += family_rows(
            checks, lambda fam, _: residue(4, *alpha_sides(i, fam)),
            p=p, alpha=values[i])
        if lemmas:
            rows += timed("lemma", family_rows, lemmas,
                          lambda *c: residue(*lemma_pass(i)(*c)), p, None, values[i])
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
    * the five LEMMA_* families (see _lemma_pass_at).

    Every family needs p > 3 and a p-integral alpha; a family whose
    precondition fails gets a skip record with the reason.  verify_primes,
    at one job, computes one tree for S(alpha, .), one closed form and, for
    the lemma families, the lemma trees and a pass, each only when read.
    """
    fams = [norm_family(f) for f in families]
    if unknown := [f for f in fams if f not in ALPHA_FAMILIES]:
        raise ValueError(f"unknown alpha families: {unknown}")
    rows, _ = verify_primes(((p, fams, (alpha,)),))
    rows.sort(key=lambda row: fams.index(row[0]))  # verify_primes puts lemmas last
    return [VerificationRecord(*row) for row in rows]
