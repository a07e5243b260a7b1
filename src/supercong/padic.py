"""Rationals and their residues: the residue type, rational literals,
p-integrality, the least residue mod p and the Legendre symbol.

Rationals are stdlib :class:`fractions.Fraction` values, which are always
stored in lowest terms with positive denominator.  A rational x is a p-adic
integer when p does not divide its denominator; only such values have a
residue mod p**e.  The checks reduce their integers mod p**e where they
read them; the exact reduction of a Fraction mod p**e is a test oracle.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "NotPAdicIntegral",
    "ResidueClass",
    "parse_rational",
    "is_p_integral",
    "least_nonneg_residue",
    "legendre",
]

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


class NotPAdicIntegral(ArithmeticError):
    """Raised when a residue is requested for x with p dividing den(x)."""


class ResidueClass(namedtuple("ResidueClass", ("value", "modulus"))):
    """An integer residue together with its (prime-power) modulus.

    A tuple (value, modulus), so it pickles and compares as one; a value
    outside [0, modulus) is refused, also when it is unpickled or made by
    _make or _replace."""

    __slots__ = ()

    def __new__(cls, value: int, modulus: int) -> ResidueClass:
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if not 0 <= value < modulus:
            raise ValueError(f"value {value} outside [0, {modulus})")
        return tuple.__new__(cls, (value, modulus))

    @classmethod
    def _make(cls, iterable) -> ResidueClass:
        return cls(*iterable)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def parse_rational(text: str) -> Fraction:
    """Parse a base-10 rational literal "num/den" or "num" (optional leading minus)."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def is_p_integral(x: Fraction, p: int) -> bool:
    """True when x has no p in its denominator."""
    return x.denominator % p != 0


def least_nonneg_residue(alpha: Fraction, p: int) -> int:
    """The unique r in 0..p-1 with alpha ≡ r (mod p): num * den^(-1) mod p.

    The denominator inverse exists exactly when alpha is a p-adic integer;
    otherwise NotPAdicIntegral is raised.
    """
    x = Fraction(alpha)
    if not is_p_integral(x, p):
        raise NotPAdicIntegral(f"{x} has no residue mod {p}^1")
    return x.numerator * pow(x.denominator, -1, p) % p


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, via Euler's criterion."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1
