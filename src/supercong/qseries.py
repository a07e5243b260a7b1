"""Exact polynomial algebra in q and the q-analogue congruences.

IntPoly is a dense integer-coefficient polynomial; RationalFunction a
num/den pair of them.  Congruence of a rational function A modulo a
polynomial M means: in the lowest-terms form N/D of A, the denominator D
is coprime to M and M | N (the standard convention for q-congruences
whose raw denominators are only coprime to M after cancellation).

The verified statements live on the sums

    e2(n) = sum_{k=0}^{n-1} (-1)^k [6k+1] (q;q^2)_k^3 / (q^4;q^4)_k^3 * q^(3k^2)
    f2(n) = sum_{k=0}^{n-1} (-1)^k [8k+1] (q;q^4)_k^3 / (q^4;q^4)_k^3 * q^(2k^2+k)

which are ≡ (-q)^((n-1)(n-3)/8) [n] mod [n]Phi_n(q)^2 (e2 for odd n, f2 for
n ≡ 1 mod 4), and conjecturally e2(n) ≡ f2(n) mod [n]Phi_n(q)^3 for
n ≡ 1 (mod 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    "pseudo_rem",
    "poly_gcd",
    "q_integer",
    "q_pochhammer",
    "cyclotomic",
    "lhs_e2_q",
    "lhs_f2_q",
    "congruent_mod",
    "congruence_witness",
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

    @classmethod
    def from_string(cls, text: str) -> IntPoly:
        return cls(int(part) for part in text.strip().split(","))

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
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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


def pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """prem(f, g) = lc(g)^(deg f - deg g + 1) * f  mod g (fraction-free)."""
    if g.is_zero:
        raise ZeroDivisionError("pseudo-remainder by zero")
    if f.is_zero or f.degree < g.degree:
        return f
    e = int(f.degree - g.degree) + 1
    lg = g.lc
    r = f
    steps = 0
    while not r.is_zero and r.degree >= g.degree:
        shift = int(r.degree - g.degree)
        r = r * lg - IntPoly.monomial(r.lc, shift) * g
        steps += 1
    return r * lg ** (e - steps)


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd in Z[q] (primitive PRS), normalized to positive leading coefficient."""
    if f.is_zero and g.is_zero:
        return IntPoly.zero()
    if f.is_zero:
        return g if g.lc > 0 else -g
    if g.is_zero:
        return f if f.lc > 0 else -f
    c = math.gcd(f.content(), g.content())
    a, b = f.primitive_part(), g.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = pseudo_rem(a, b)
        a, b = b, r.primitive_part()
    return c * a


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

    def reduce(self) -> RationalFunction:
        """Lowest terms, primitive parts, positive leading denominator coefficient."""
        if self.num.is_zero:
            return RationalFunction(IntPoly.zero(), IntPoly.one())
        n, d = self.num, self.den
        sign = 1 if (n.lc > 0) == (d.lc > 0) else -1
        np, dp = n.primitive_part(), d.primitive_part()
        g = poly_gcd(np, dp)
        np, dp = np.exact_div(g), dp.exact_div(g)
        cn, cd = n.content(), d.content()
        c = math.gcd(cn, cd)
        return RationalFunction(sign * (cn // c) * np, (cd // c) * dp)

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _modulus_part(den: IntPoly, modulus: IntPoly) -> IntPoly:
    """The largest divisor of den supported on irreducible factors of modulus.

    Both arguments primitive; extraction by repeated gcd keeps every
    multiplicity (each pass removes one layer of the shared factors).
    """
    part = IntPoly.one()
    rest = den
    g = poly_gcd(rest, modulus)
    while g.degree > 0:
        part = part * g
        rest = rest.exact_div(g)
        g = poly_gcd(rest, g)
    return part


def congruence_witness(a: RationalFunction, modulus: IntPoly) -> IntPoly | None:
    """None when a ≡ 0 (mod modulus); otherwise a nonzero remainder certificate.

    Equivalent to the lowest-terms definition without reducing a: with
    N/D the raw pair and dM the modulus-supported part of D, the condition
    v_P(N) - v_P(D) >= mult_P(modulus) for every irreducible P | modulus
    is exactly (modulus * dM) | N.  Avoids a full gcd of the near-dense
    degree-~900 numerator/denominator pairs the q-sums produce.
    """
    if modulus.is_zero:
        raise ZeroModulus("congruence modulo the zero polynomial")
    m = modulus.primitive_part()
    if m.degree < 1:
        return None
    if a.num.is_zero:
        return None
    n = a.num.primitive_part()
    d = a.den.primitive_part()
    check = m * _modulus_part(d, m)
    if n.try_exact_div(check) is not None:
        return None
    r = pseudo_rem(n, check)
    assert not r.is_zero
    return r


def congruent_mod(a: RationalFunction, modulus: IntPoly) -> bool:
    """a ≡ 0 (mod modulus): reduced denominator coprime to modulus and
    modulus divides the reduced numerator."""
    return congruence_witness(a, modulus) is None


# ---------------------------------------------------------------------------
# the two q-sums

def _cube_of_factor(j: int) -> IntPoly:
    # (1 - q^(4j))^3 = 1 - 3q^(4j) + 3q^(8j) - q^(12j)
    out = [0] * (12 * j + 1)
    out[0] = 1
    out[4 * j] = -3
    out[8 * j] = 3
    out[12 * j] = -1
    return IntPoly(out)


def _lhs_q(n: int, kind: str) -> RationalFunction:
    """e2/f2 partial sum over the common denominator ((q^4;q^4)_{n-1})^3.

    The numerator sum_k S_k * prod_{j>k} (1-q^(4j))^3 is assembled by a
    nested Horner pass so each step multiplies by one sparse 4-term cube.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = n - 1
    pk = IntPoly.one()  # (q;q^2)_k resp. (q;q^4)_k
    acc = IntPoly.zero()
    for k in range(m + 1):
        if k > 0:
            step = 2 * k - 1 if kind == "e2" else 4 * k - 3
            pk = pk - pk.shift(step)
        if kind == "e2":
            s_k = (q_integer(6 * k + 1) * pk**3).shift(3 * k * k)
        else:
            s_k = (q_integer(8 * k + 1) * pk**3).shift(2 * k * k + k)
        if k % 2:
            s_k = -s_k
        acc = s_k if k == 0 else acc * _cube_of_factor(k) + s_k
    return RationalFunction(acc, q_pochhammer(4, 4, m) ** 3)


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
    if not fam.startswith("GZ_"):
        fam = "GZ_" + fam
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
    ok = congruent_mod(lhs.sub_poly(_gz_rhs(n)), modulus)
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
    ok = congruent_mod(diff, modulus)
    return make_record(
        "CONJ41",
        f"[{n}]*Phi_{n}^3",
        "0" if ok else "nonzero residue",
        "0",
        n=n,
    )


def conjecture41_witness(n: int) -> dict[str, str]:
    """Serialized certificate for a failed mod-cubed check at this n."""
    diff = lhs_e2_q(n) - lhs_f2_q(n)
    modulus = q_integer(n) * cyclotomic(n) ** 3
    witness = congruence_witness(diff, modulus)
    return {
        "n": n,
        "modulus": modulus.to_string(),
        "difference_numerator": diff.num.to_string(),
        "difference_denominator": diff.den.to_string(),
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
