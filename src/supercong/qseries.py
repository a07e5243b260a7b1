"""Exact polynomial algebra in q and the q-analogue congruences.

IntPoly is a dense integer-coefficient polynomial; RationalFunction a
num/den pair of them.  Congruence of a rational function A modulo a
polynomial M means: in the lowest-terms form N/D of A, the denominator D
is coprime to M and M | N (the standard convention for q-congruences
whose raw denominators are only coprime to M after cancellation).

Every modulus here is a product of cyclotomic polynomials Phi_d^e, and so
is the denominator (q^4;q^4)_{n-1}^3 of the sums below.  The congruence
is therefore tested at roots of unity, without gcds or reducing A: for
each factor Phi_d^e of M, with v the multiplicity of Phi_d in the raw
denominator, the Hasse derivatives D^j N (j < v + e) of the raw
numerator must vanish mod Phi_d.  Each D^j N mod Phi_d is a fold of the
weighted coefficients mod q^d - 1 followed by one monic remainder (the
root-of-unity viewpoint of Guo and Zudilin's q-microscope).

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .records import (
    ResidueConditionViolated,
    VerificationRecord,
    make_record,
    norm_family,
)
from .sequences import pochhammer

__all__ = [
    "ZeroModulus",
    "InternalNonExactDivision",
    "IntPoly",
    "RationalFunction",
    "q_integer",
    "q_pochhammer",
    "cyclotomic",
    "lhs_e2_q",
    "lhs_f2_q",
    "congruence_failure",
    "verify_gz",
    "verify_conjecture41",
    "conjecture41_witness",
    "q_limit_term_check",
]


class ZeroModulus(ZeroDivisionError):
    """Congruence modulo the zero polynomial is undefined."""


class InternalNonExactDivision(ArithmeticError):
    """A division that must be exact left a remainder (indicates a bug)."""


NEG_INF = float("-inf")


class IntPoly:
    """Dense univariate polynomial over Z, lowest degree first.

    Immutable; the zero polynomial has an empty coefficient tuple and
    degree -inf.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- constructors

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def monomial(cls, c: int, d: int) -> IntPoly:
        if d < 0:
            raise ValueError(f"degree must be >= 0, got {d}")
        return cls((0,) * d + (c,))

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- structure

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic

    def __add__(self, other) -> IntPoly:
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> IntPoly:
        return self + (-_coerce(other))

    def __rsub__(self, other) -> IntPoly:
        return _coerce(other) + (-self)

    def __mul__(self, other) -> IntPoly:
        if isinstance(other, int):
            if other == 0:
                return IntPoly.zero()
            return IntPoly(tuple(other * c for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        ia = [(i, c) for i, c in enumerate(self.coeffs) if c]
        ib = [(j, c) for j, c in enumerate(other.coeffs) if c]
        if len(ia) > len(ib):
            ia, ib = ib, ia
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in ia:
            for j, cj in ib:
                out[i + j] += ci * cj
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> IntPoly:
        if e < 0:
            raise ValueError(f"exponent must be >= 0, got {e}")
        out = IntPoly.one()
        base = self
        while True:
            if e & 1:
                out = out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def shift(self, d: int) -> IntPoly:
        """Multiply by q^d."""
        if d < 0:
            raise ValueError(f"shift must be >= 0, got {d}")
        if self.is_zero:
            return self
        return IntPoly((0,) * d + self.coeffs)

    def evaluate(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- content and division

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> IntPoly:
        """self divided by ±content so the leading coefficient is positive."""
        if self.is_zero:
            return self
        c = self.content()
        if self.lc < 0:
            c = -c
        return IntPoly(tuple(x // c for x in self.coeffs))

    def _long_div(self, d: IntPoly) -> tuple[IntPoly, IntPoly] | None:
        """Integer long division; None as soon as a quotient step is non-integral.

        When it returns (q, r), self = q*d + r over Z with deg r < deg d.
        """
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        dd = len(d.coeffs) - 1
        dc = d.coeffs
        if len(r) - 1 < dd:
            return IntPoly.zero(), self
        q = [0] * (len(r) - dd)
        for i in range(len(r) - 1 - dd, -1, -1):
            head = r[i + dd]
            if head == 0:
                continue
            step, rem = divmod(head, dc[-1])
            if rem:
                return None
            q[i] = step
            for j, c in enumerate(dc):
                r[i + j] -= step * c
        return IntPoly(q), IntPoly(r)

    def try_exact_div(self, d: IntPoly) -> IntPoly | None:
        """self / d when d divides self exactly over Z; None otherwise."""
        qr = self._long_div(d)
        if qr is None or not qr[1].is_zero:
            return None
        return qr[0]

    def exact_div(self, d: IntPoly) -> IntPoly:
        q = self.try_exact_div(d)
        if q is None:
            raise InternalNonExactDivision(f"{d!r} does not divide {self!r}")
        return q


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly((x,))
    raise TypeError(f"cannot treat {type(x).__name__} as IntPoly")


# ---------------------------------------------------------------------------
# q-objects

def q_integer(n: int) -> IntPoly:
    """[n] = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return IntPoly((1,) * n)


def q_pochhammer(a: int, b: int, k: int) -> IntPoly:
    """(q^a; q^b)_k = prod_{i=0}^{k-1} (1 - q^(a+b*i))."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    out = IntPoly.one()
    for i in range(k):
        out = out - out.shift(a + b * i)
    return out


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


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """Phi_n(q) via the Moebius product prod_{d|n} (q^d - 1)^mu(n/d)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    num = IntPoly.one()
    dens = []
    for d in _divisors(n):
        mu = _mobius(n // d)
        if mu == 0:
            continue
        f = IntPoly.monomial(1, d) - 1
        if mu == 1:
            num = num * f
        else:
            dens.append(f)
    # dividing factor by factor stays exact: after each step the quotient
    # is still Phi_n times a product of the remaining (q^d - 1)
    for f in dens:
        num = num.exact_div(f)
    return num


# ---------------------------------------------------------------------------
# rational functions and congruence

@dataclass(frozen=True)
class RationalFunction:
    num: IntPoly
    den: IntPoly

    def __post_init__(self) -> None:
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        if self.den == other.den:
            return RationalFunction(self.num - other.num, self.den)
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def sub_poly(self, poly: IntPoly) -> RationalFunction:
        return RationalFunction(self.num - poly * self.den, self.den)

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _totient(n: int) -> int:
    """phi(n) = deg Phi_n = sum_{d|n} mu(n/d) d."""
    return sum(_mobius(n // d) * d for d in _divisors(n))


def _cyclotomic_factors(m: IntPoly) -> list[tuple[int, int]]:
    """[(d, e), ...] with m = prod Phi_d^e, d increasing, by trial division.

    m must be primitive with a positive leading coefficient, so the rest is
    1 once it has degree 0 (the Phi_d are monic).  Only d with
    phi(d) <= deg(rest) can divide the rest, and phi(d) >= sqrt(d) for
    d not in {2, 6}, so the search ends by d = max(6, deg(rest)^2).
    """
    factors = []
    rest = m
    d = 0
    while rest.degree > 0:
        d += 1
        if d > max(6, rest.degree**2):
            raise ValueError(f"modulus {m!r} has a non-cyclotomic factor")
        if _totient(d) > rest.degree:
            continue
        e = 0
        while (quo := rest.try_exact_div(cyclotomic(d))) is not None:
            rest, e = quo, e + 1
        if e:
            factors.append((d, e))
    return factors


def _hasse_residues(f: IntPoly, d: int):
    """Yield D^j f mod Phi_d for j = 0, 1, 2, ...; D^j f = f^(j) / j!.

    D^j f = sum_i C(i, j) c_i q^(i-j).  Its residue comes from folding the
    exponents i - j mod d (q^d ≡ 1 mod Phi_d) and one remainder by the
    monic Phi_d.  The weights c_i C(i, j) carry over from one j to the next.
    """
    phi = cyclotomic(d)
    w = list(f.coeffs)
    j = 0
    while True:
        folded = [sum(w[s::d]) for s in range(d)]
        shift = j % d
        # Phi_d is monic, so the integer long division always completes
        yield IntPoly(folded[shift:] + folded[:shift])._long_div(phi)[1]
        w = [c * (i - j) // (j + 1) for i, c in enumerate(w)]
        j += 1


def congruence_failure(
    a: RationalFunction, modulus: IntPoly
) -> tuple[int, int, IntPoly] | None:
    """None when a ≡ 0 (mod modulus); otherwise (d, j, D^j N mod Phi_d).

    The modulus must be a product of cyclotomic polynomials (up to a
    constant factor), else ValueError.  Congruence of A = N/D modulo
    prod Phi_d^e means, in lowest terms, that every Phi_d^e divides the
    numerator and no Phi_d divides the denominator; that is,
    v_d(N) >= v_d(D) + e for every factor.  v_d(f) is the order of
    vanishing of f at a primitive d-th root of unity, i.e. the first j
    with the Hasse derivative D^j f ≢ 0 (mod Phi_d).  The triple names the
    first factor (by increasing d) and the first derivative order that
    breaks this, with its nonzero residue as certificate.
    """
    if modulus.is_zero:
        raise ZeroModulus("congruence modulo the zero polynomial")
    factors = _cyclotomic_factors(modulus.primitive_part())
    if a.num.is_zero:
        return None
    for d, e in factors:
        v = next(j for j, r in enumerate(_hasse_residues(a.den, d)) if r)
        for j, r in zip(range(v + e), _hasse_residues(a.num, d)):
            if r:
                return d, j, r
    return None


# ---------------------------------------------------------------------------
# the two q-sums

def _times_cube(a: list[int], s: int) -> list[int]:
    """a * (1 - q^s)^3 = a * (1 - 3q^s + 3q^(2s) - q^(3s)), on coefficient lists."""
    z = [0] * s
    shifted = zip(a + z + z + z, z + a + z + z, z + z + a + z, z + z + z + a)
    return [w - 3 * x + 3 * y - u for w, x, y, u in shifted]


def _times_q_integer(a: list[int], m: int) -> list[int]:
    """a * [m] by a running window sum of m coefficients."""
    prefix = list(accumulate(a + [0] * (m - 1), initial=0))
    return [x - y for x, y in zip(prefix[1:], [0] * (m - 1) + prefix)]


def _lhs_q(n: int, kind: str) -> RationalFunction:
    """e2/f2 partial sum over the common denominator ((q^4;q^4)_{n-1})^3.

    The numerator sum_k S_k * prod_{j>k} (1-q^(4j))^3 is assembled by a
    nested Horner pass.  Each step multiplies the accumulator, the running
    cube (q;q^2)_k^3 resp. (q;q^4)_k^3 and the denominator by one sparse
    4-term cube, and forms S_k from the running cube by a window sum, so
    a step costs O(degree).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pk3 = [1]  # (q;q^2)_k^3 resp. (q;q^4)_k^3
    acc = [1]  # S_0 = 1
    den = [1]
    for k in range(1, n):
        if kind == "e2":
            pk3 = _times_cube(pk3, 2 * k - 1)
            s_k, shift = _times_q_integer(pk3, 6 * k + 1), 3 * k * k
        else:
            pk3 = _times_cube(pk3, 4 * k - 3)
            s_k, shift = _times_q_integer(pk3, 8 * k + 1), 2 * k * k + k
        acc = _times_cube(acc, 4 * k)
        den = _times_cube(den, 4 * k)
        add = operator.sub if k % 2 else operator.add
        end = shift + len(s_k)
        acc += [0] * (end - len(acc))  # f2 terms outgrow the accumulator
        acc[shift:end] = map(add, acc[shift:end], s_k)
    return RationalFunction(IntPoly(acc), IntPoly(den))


def lhs_e2_q(n: int) -> RationalFunction:
    """sum_{k=0}^{n-1} (-1)^k [6k+1] (q;q^2)_k^3 q^(3k^2) / (q^4;q^4)_k^3."""
    return _lhs_q(n, "e2")


def lhs_f2_q(n: int) -> RationalFunction:
    """sum_{k=0}^{n-1} (-1)^k [8k+1] (q;q^4)_k^3 q^(2k^2+k) / (q^4;q^4)_k^3."""
    return _lhs_q(n, "f2")


# ---------------------------------------------------------------------------
# verifications

def _gz_rhs(n: int) -> IntPoly:
    # (-q)^((n-1)(n-3)/8) [n]; the exponent is a nonnegative integer for odd n
    e = (n - 1) * (n - 3) // 8
    rhs = q_integer(n).shift(e)
    return -rhs if e % 2 else rhs


def verify_gz(n: int, family: str) -> VerificationRecord:
    """lhs ≡ (-q)^((n-1)(n-3)/8) [n]  (mod [n] Phi_n(q)^2).

    family "gz-e2" needs odd n >= 3; "gz-f2" needs n ≡ 1 (mod 4), n >= 5.
    """
    fam = norm_family(family)
    if fam not in ("GZ_E2", "GZ_F2"):
        raise ValueError(f"unknown q-family: {family!r}")
    if fam == "GZ_E2":
        if n < 3 or n % 2 == 0:
            raise ResidueConditionViolated(f"GZ_E2 needs odd n >= 3, got n = {n}")
        lhs = lhs_e2_q(n)
    else:
        if n < 5 or n % 4 != 1:
            raise ResidueConditionViolated(
                f"GZ_F2 needs n ≡ 1 (mod 4), n >= 5, got n = {n}"
            )
        lhs = lhs_f2_q(n)
    modulus = q_integer(n) * cyclotomic(n) ** 2
    ok = congruence_failure(lhs.sub_poly(_gz_rhs(n)), modulus) is None
    return make_record(
        fam,
        f"[{n}]*Phi_{n}^2",
        "0" if ok else "nonzero residue",
        "0",
        n=n,
    )


def verify_conjecture41(n: int) -> VerificationRecord:
    """e2(n) ≡ f2(n) (mod [n] Phi_n(q)^3) for n ≡ 1 (mod 4), n >= 5.

    An open conjecture: a False verdict is a reportable finding (the
    sweep layer gives it a distinguished exit code), not an artifact bug.
    """
    if n < 5 or n % 4 != 1:
        raise ResidueConditionViolated(
            f"CONJ41 needs n ≡ 1 (mod 4), n >= 5, got n = {n}"
        )
    diff = lhs_e2_q(n) - lhs_f2_q(n)  # same denominator, fast path
    modulus = q_integer(n) * cyclotomic(n) ** 3
    ok = congruence_failure(diff, modulus) is None
    return make_record(
        "CONJ41",
        f"[{n}]*Phi_{n}^3",
        "0" if ok else "nonzero residue",
        "0",
        n=n,
    )


def conjecture41_witness(n: int) -> dict[str, int | str | None]:
    """Serialized certificate for a failed mod-cubed check at this n.

    cyclotomic_index d and derivative_order j name the first failing
    factor: remainder_certificate is D^j N mod Phi_d, with D^j N =
    N^(j) / j! for the difference numerator N.  All three are empty
    (None, None, "") when the check passes.
    """
    diff = lhs_e2_q(n) - lhs_f2_q(n)
    modulus = q_integer(n) * cyclotomic(n) ** 3
    d, j, witness = congruence_failure(diff, modulus) or (None, None, None)
    return {
        "n": n,
        "modulus": modulus.to_string(),
        "difference_numerator": diff.num.to_string(),
        "difference_denominator": diff.den.to_string(),
        "cyclotomic_index": d,
        "derivative_order": j,
        "remainder_certificate": "" if witness is None else witness.to_string(),
    }


def q_limit_term_check(n: int, k: int) -> bool:
    """q -> 1 specialization of the k-th e2 summand.

    Cancels (1-q)^(3k) from (q;q^2)_k^3 and (q^4;q^4)_k^3, evaluates at
    q = 1 ([6k+1] -> 6k+1, q-powers -> 1), and compares exactly with
    (6k+1) (1/2)_k^3 / (8^k k!^3).
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k = {k}, n = {n}")
    num = q_pochhammer(1, 2, k) ** 3
    den = q_pochhammer(4, 4, k) ** 3
    one_minus_q = IntPoly((1, -1))
    for _ in range(3 * k):
        num = num.exact_div(one_minus_q)
        den = den.exact_div(one_minus_q)
    left = Fraction(6 * k + 1) * Fraction(num.evaluate(1), den.evaluate(1))
    right = (
        Fraction(6 * k + 1)
        * pochhammer(Fraction(1, 2), k) ** 3
        / (Fraction(8) ** k * Fraction(math.factorial(k)) ** 3)
    )
    return left == right
