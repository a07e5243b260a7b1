"""Verification records, the precondition error and the record loop.

A record captures one checked instance: which family, at which prime p or
q-index n, which alpha/truncation, the modulus, and the two sides being
compared.  passed is True/False for an executed check and None for an
instance that was skipped with a reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .padic import NotPAdicIntegral, ResidueClass
from .wz import DivisionByZeroTerm

__all__ = [
    "PreconditionViolated",
    "SKIP_ERRORS",
    "VerificationRecord",
    "family_records",
    "make_record",
    "norm_family",
]


class PreconditionViolated(ValueError):
    """The instance misses a family's hypothesis: the residue class of p or
    n, p > 3, a <= p-2, ..."""


# a failed precondition: the family is skipped with this reason, not failed
SKIP_ERRORS = (PreconditionViolated, NotPAdicIntegral, DivisionByZeroTerm)

Side = ResidueClass | str


def norm_family(name: str) -> str:
    """Canonical family name: case-insensitive, hyphens for underscores."""
    return name.strip().upper().replace("-", "_")


@dataclass(frozen=True)
class VerificationRecord:
    family: str
    modulus: str
    lhs: Side
    rhs: Side
    passed: bool | None
    p: int | None = None
    n: int | None = None
    alpha: Fraction | None = None
    truncation: str | None = None
    reason: str | None = None
    elapsed_ms: float | None = field(default=None, compare=False)

    def sort_key(self) -> tuple:
        a = self.alpha if self.alpha is not None else Fraction(0)
        return (
            self.family,
            self.p if self.p is not None else 0,
            self.n if self.n is not None else 0,
            a.numerator,
            a.denominator,
            self.truncation or "",
        )


def make_record(
    family: str, modulus: str, lhs: Side, rhs: Side, **labels
) -> VerificationRecord:
    """The record comparing lhs with rhs; labels are p, n, alpha, truncation."""
    # passed is derived, never asserted by callers
    return VerificationRecord(family, modulus, lhs, rhs, lhs == rhs, **labels)


def family_records(
    checks: Iterable[tuple[str, str | None]],
    sides: Callable[[str, str | None], tuple[str, Side, Side]],
    **labels,
) -> list[VerificationRecord]:
    """One record per (family, truncation) of checks, in order.

    sides(family, truncation) gives the record's (modulus, lhs, rhs).  If
    it raises one of SKIP_ERRORS, the family gets a skip record instead,
    with the error's text as its reason.  Both carry the family, the
    truncation and labels (p, n, alpha).
    """
    out = []
    for fam, truncation in checks:
        try:
            modulus, lhs, rhs = sides(fam, truncation)
        except SKIP_ERRORS as exc:
            out.append(VerificationRecord(fam, "-", "-", "-", None, **labels,
                                          truncation=truncation, reason=str(exc)))
        else:
            out.append(make_record(fam, modulus, lhs, rhs, **labels,
                                   truncation=truncation))
    return out
