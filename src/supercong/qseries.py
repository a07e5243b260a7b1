"""Integer polynomials in q and the q-analogue congruences.

A polynomial is a tuple of its integer coefficients, lowest degree first,
with no trailing zero; the zero polynomial is ().  Every polynomial built
here is a product of binomials (1 - q^s)^(+-k), a one-pass Horner sum, or a
remainder modulo a monic Phi_d, computed on coefficient lists; functions
that take a polynomial accept any int sequence.  Congruence of a rational
function N/D modulo a polynomial M means: in lowest terms, the denominator
is coprime to M and M divides the numerator (the standard convention for
q-congruences whose raw denominators are only coprime to M after
cancellation).

Every modulus here has a known cyclotomic factorization,
[n] Phi_n^e = prod_{d | n, d > 1} Phi_d * Phi_n^e, and Phi_d divides the
common denominator (q^4;q^4)_{n-1}^3 of the sums below exactly
v_d = 3 floor((n-1) / (d / gcd(d, 4))) times.  The congruence is therefore
tested at roots of unity from these facts, without gcds, without reducing
and without building the denominator: for each factor Phi_d^e of M, the
Hasse derivatives D^j N (j < v_d + e) of the raw numerator must vanish mod
Phi_d.  Each D^j N mod Phi_d is a fold of the weighted coefficients mod
q^d - 1 followed by one monic remainder (the root-of-unity viewpoint of
Guo and Zudilin's q-microscope).  The numerator of a weighted sum minus
its right side comes from one Horner pass.

The verified statements live on the sums

    e2(n) = sum_{k=0}^{n-1} (-1)^k [6k+1] (q;q^2)_k^3 / (q^4;q^4)_k^3 * q^(3k^2)
    f2(n) = sum_{k=0}^{n-1} (-1)^k [8k+1] (q;q^4)_k^3 / (q^4;q^4)_k^3 * q^(2k^2+k)

which are ≡ (-q)^((n-1)(n-3)/8) [n] mod [n]Phi_n(q)^2 (e2 for odd n, f2 for
n ≡ 1 mod 4), and conjecturally e2(n) ≡ f2(n) mod [n]Phi_n(q)^3 for
n ≡ 1 (mod 4).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate

from .records import (
    Q_FAMILIES,
    PreconditionViolated,
    QFamily,
    VerificationRecord,
    family_rows,
    norm_family,
)

__all__ = [
    "InternalNonExactDivision",
    "q_integer",
    "cyclotomic",
    "congruence_failure",
    "QFamily",
    "Q_FAMILIES",
    "verify_at_n",
    "verify_q",
    "conjecture41_witness",
]


class InternalNonExactDivision(ArithmeticError):
    """A division that must be exact left a remainder (indicates a bug)."""


def _trim(c: list[int]) -> tuple[int, ...]:
    """The normal form of a coefficient list: a tuple, lowest degree first,
    without trailing zeros, so the zero polynomial is ()."""
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    return tuple(c[:end])


def _poly_str(f: Sequence[int]) -> str:
    """The coefficients of f, comma-separated, lowest degree first; "0" for ()."""
    return ",".join(map(str, f)) or "0"


# ---------------------------------------------------------------------------
# q-objects

def q_integer(n: int) -> tuple[int, ...]:
    """[n] = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (1,) * n


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _mobius(n: int) -> int:
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def _binomials(exponents: dict[int, int]) -> list[int]:
    """prod_s (1 - q^s)^k_s for exponents {s: k_s}, as a coefficient list.

    Every factor with k_s > 0 is multiplied in first, by shift-and-subtract;
    then each (1 - q^s) with k_s < 0 is divided out by the running sum
    c[i] += c[i - s], which stays exact whenever the whole product is a
    polynomial.  A division that leaves a remainder raises.
    """
    c = [1]
    for s, k in sorted(exponents.items(), key=lambda sk: -sk[1]):
        for _ in range(k):
            c = [x - y for x, y in zip(c + [0] * s, [0] * s + c)]
        for _ in range(-k):
            for r in range(s):
                c[r::s] = accumulate(c[r::s])
            if any(c[-s:]):
                raise InternalNonExactDivision(f"1 - q^{s} leaves a remainder")
            del c[-s:]
    return c


def _mobius_exponents(n: int, e: int) -> Counter:
    """{d: e mu(n/d)} for d | n: Phi_n^e = prod_{d|n} (1 - q^d)^(e mu(n/d)) for
    n > 1, where the signs of the (q^d - 1) cancel since sum mu(n/d) = 0."""
    return Counter({d: e * mu for d in _divisors(n) if (mu := _mobius(n // d))})


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n(q) via the Moebius product prod_{d|n} (q^d - 1)^mu(n/d)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    return tuple(_binomials(_mobius_exponents(n, 1)))


# ---------------------------------------------------------------------------
# congruence at roots of unity

def _monic_rem(c: list[int], m: tuple[int, ...]) -> tuple[int, ...]:
    """c mod the monic m, both coefficient lists; c is overwritten."""
    k = len(m) - 1
    for i in range(len(c) - 1, k - 1, -1):
        if t := c[i]:
            c[i - k:i] = [x - t * y for x, y in zip(c[i - k:i], m)]
    return _trim(c[:k])


def _hasse_residues(f: Sequence[int], d: int):
    """Yield D^j f mod Phi_d for j = 0, 1, 2, ...; D^j f = f^(j) / j!.

    D^j f = sum_i C(i, j) c_i q^(i-j).  Its residue comes from folding the
    exponents i - j mod d (q^d ≡ 1 mod Phi_d) and one remainder by the
    monic Phi_d.  The weights c_i C(i, j) carry over from one j to the next.
    """
    phi = cyclotomic(d)
    w = list(f)
    j = 0
    while True:
        folded = [sum(w[s::d]) for s in range(d)]
        shift = j % d
        yield _monic_rem(folded[shift:] + folded[:shift], phi)
        w = [c * (i - j) // (j + 1) for i, c in enumerate(w)]
        j += 1


def congruence_failure(
    num: Sequence[int], factors: list[tuple[int, int]], den_orders: dict[int, int]
) -> tuple[int, int, tuple[int, ...]] | None:
    """None when N/D ≡ 0 (mod prod Phi_d^e); otherwise (d, j, D^j N mod Phi_d).

    num is the raw numerator N, factors the modulus as [(d, e), ...], and
    den_orders[d] the multiplicity v_d of Phi_d in the raw denominator D,
    which is not needed itself.  Congruence of N/D modulo prod Phi_d^e
    means, in lowest terms, that every Phi_d^e divides the numerator and no
    Phi_d divides the denominator; that is, v_d(N) >= v_d(D) + e for every
    factor.  v_d(f) is the order of vanishing of f at a primitive d-th root
    of unity, i.e. the first j with the Hasse derivative D^j f ≢ 0
    (mod Phi_d).  The triple names the first factor (in list order) and the
    first derivative order that breaks this, with its nonzero residue as
    certificate.
    """
    for d, e in factors:
        for j, r in zip(range(den_orders[d] + e), _hasse_residues(num, d)):
            if r:
                return d, j, r
    return None


# ---------------------------------------------------------------------------
# the two q-sums over (q^4;q^4)_{n-1}^3

def _times_cube(a: list[int], s: int) -> list[int]:
    """a * (1 - q^s)^3 = a * (1 - 3q^s + 3q^(2s) - q^(3s)), on coefficient lists."""
    z = [0] * s
    shifted = zip(a + z + z + z, z + a + z + z, z + z + a + z, z + z + z + a)
    return [w - 3 * x + 3 * y - u for w, x, y, u in shifted]


def _times_q_integer(a: list[int], m: int) -> list[int]:
    """a * [m] by a running window sum of m coefficients."""
    prefix = list(accumulate(a + [0] * (m - 1), initial=0))
    return [x - y for x, y in zip(prefix[1:], [0] * (m - 1) + prefix)]


def _sum_numerator(
    n: int, w_e2: int, w_f2: int, rhs: Sequence[int] = ()
) -> tuple[int, ...]:
    """Numerator of w_e2 e2(n) + w_f2 f2(n) - rhs over ((q^4;q^4)_{n-1})^3.

    The weights are -1, 0 or 1.  The numerator
    sum_k (w_e2 S_k^e2 + w_f2 S_k^f2) prod_{j>k} (1-q^(4j))^3 minus
    rhs prod_{j<n} (1-q^(4j))^3 is assembled by a nested Horner pass whose
    accumulator starts at S_0 - rhs = w_e2 + w_f2 - rhs.  Each step
    multiplies the accumulator and the running cube (q;q^2)_k^3 resp.
    (q;q^4)_k^3 of each weighted sum by one sparse 4-term cube, and forms
    S_k from the running cube by a window sum, so a step costs O(degree).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    acc = [-c for c in rhs] or [0]
    acc[0] += w_e2 + w_f2
    e3 = f3 = [1]  # (q;q^2)_k^3 and (q;q^4)_k^3
    for k in range(1, n):
        acc = _times_cube(acc, 4 * k)
        terms = []
        if w_e2:
            e3 = _times_cube(e3, 2 * k - 1)
            terms.append((w_e2, _times_q_integer(e3, 6 * k + 1), 3 * k * k))
        if w_f2:
            f3 = _times_cube(f3, 4 * k - 3)
            terms.append((w_f2, _times_q_integer(f3, 8 * k + 1), 2 * k * k + k))
        for w, s_k, shift in terms:
            add = operator.add if w * (-1) ** k > 0 else operator.sub
            end = shift + len(s_k)
            acc += [0] * (end - len(acc))  # f2 terms outgrow the accumulator
            acc[shift:end] = map(add, acc[shift:end], s_k)
    return _trim(acc)


def _cube_denominator(n: int) -> tuple[int, ...]:
    """((q^4;q^4)_{n-1})^3 = prod_{k<n} (1 - q^(4k))^3."""
    return tuple(_binomials({4 * k: 3 for k in range(1, n)}))


def _den_order(n: int, d: int) -> int:
    """Multiplicity of Phi_d in ((q^4;q^4)_{n-1})^3.

    q^m - 1 is squarefree and Phi_d divides it iff d | m, so Phi_d divides
    1 - q^(4j) once when d / gcd(d, 4) divides j and not at all otherwise.
    """
    return 3 * ((n - 1) // (d // math.gcd(d, 4)))


# ---------------------------------------------------------------------------
# verifications

def _gz_rhs(n: int) -> tuple[int, ...]:
    # (-q)^((n-1)(n-3)/8) [n]; the exponent is a nonnegative integer for odd n
    e = (n - 1) * (n - 3) // 8
    return (0,) * e + (-1 if e % 2 else 1,) * n


# the families are the rows of Q_FAMILIES, a table that lives in records,
# which the CLI reads without importing this module
def _q_check(
    n: int, f: QFamily
) -> tuple[tuple[int, ...], tuple[int, int, tuple[int, ...]] | None]:
    """The family's numerator N over ((q^4;q^4)_{n-1})^3 and its failure
    modulo [n] Phi_n^e = prod_{d | n, 1 < d < n} Phi_d * Phi_n^(1+e)."""
    num = _sum_numerator(n, *f.weights, _gz_rhs(n) if f.gz_rhs else ())
    factors = [(d, 1 + f.phi_exp if d == n else 1) for d in _divisors(n) if d > 1]
    return num, congruence_failure(
        num, factors, {d: _den_order(n, d) for d, _ in factors})


def verify_at_n(n: int, families: tuple[str, ...]) -> list[tuple]:
    """One row (records.family_rows) per requested q-family at index n, in
    the order given.

    GZ_E2 (odd n >= 3) and GZ_F2 (n ≡ 1 mod 4, n >= 5): the sum is
    ≡ (-q)^((n-1)(n-3)/8) [n] (mod [n] Phi_n(q)^2).  CONJ41 (n ≡ 1 mod 4,
    n >= 5): e2(n) ≡ f2(n) (mod [n] Phi_n(q)^3).  A family whose condition
    on n fails gets a skip row with the reason.
    """
    fams = [norm_family(f) for f in families]
    if unknown := [f for f in fams if f not in Q_FAMILIES]:
        raise ValueError(f"unknown q-families: {unknown}")

    def sides(fam: str, _) -> tuple[str, str, str]:
        f = Q_FAMILIES[fam]
        if n < f.n_min or n % f.n_mod != 1:
            raise PreconditionViolated(f"{fam} needs {f.condition}, got n = {n}")
        ok = _q_check(n, f)[1] is None
        return f"[{n}]*Phi_{n}^{f.phi_exp}", "0" if ok else "nonzero residue", "0"

    return family_rows([(fam, None) for fam in fams], sides, n=n)


def verify_q(
    n: int, families: tuple[str, ...] = tuple(Q_FAMILIES)
) -> list[VerificationRecord]:
    """One record per requested q-family at index n, in the order given:
    the rows of verify_at_n."""
    return [VerificationRecord(*row) for row in verify_at_n(n, families)]


def conjecture41_witness(n: int) -> dict[str, int | str | None]:
    """Serialized certificate for a failed mod-cubed check at this n.

    cyclotomic_index d and derivative_order j name the first failing
    factor: remainder_certificate is D^j N mod Phi_d, with D^j N =
    N^(j) / j! for the difference numerator N.  All three are empty
    (None, None, "") when the check passes.
    """
    f = Q_FAMILIES["CONJ41"]
    num, failure = _q_check(n, f)
    d, j, witness = failure or (None, None, None)
    # [n] Phi_n^e = (1 - q^n) / (1 - q) * Phi_n^e
    modulus = _mobius_exponents(n, f.phi_exp)
    modulus.update({n: 1, 1: -1})
    return {
        "n": n,
        "modulus": _poly_str(_binomials(modulus)),
        "difference_numerator": _poly_str(num),
        "difference_denominator": _poly_str(_cube_denominator(n)),
        "cyclotomic_index": d,
        "derivative_order": j,
        "remainder_certificate": "" if witness is None else _poly_str(witness),
    }
