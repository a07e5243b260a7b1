"""Verification records and the shared precondition errors.

A record captures one checked instance: which family, at which prime p or
q-index n, which alpha/truncation, the modulus, and the two sides being
compared.  passed is True/False for an executed check and None for an
instance that was skipped with a reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .padic import ResidueClass

__all__ = [
    "TruncationTooLarge",
    "ResidueConditionViolated",
    "PreconditionViolated",
    "SkippedWhenAEqualsPMinus1",
    "VerificationRecord",
    "make_record",
    "norm_family",
    "skipped_record",
]


class TruncationTooLarge(ValueError):
    """Truncation M must stay below p so that k! is invertible mod p^e."""


class ResidueConditionViolated(ValueError):
    """The instance's p (or n) misses the family's residue-class condition."""


class PreconditionViolated(ValueError):
    """A non-residue precondition fails (p too small, a = p-1, ...)."""


class SkippedWhenAEqualsPMinus1(PreconditionViolated):
    """Tail sum is empty because <-alpha>_p = p-1."""


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
    family: str,
    modulus: str,
    lhs: Side,
    rhs: Side,
    *,
    p: int | None = None,
    n: int | None = None,
    alpha: Fraction | None = None,
    truncation: str | None = None,
) -> VerificationRecord:
    # passed is derived, never asserted by callers
    return VerificationRecord(
        family=family,
        modulus=modulus,
        lhs=lhs,
        rhs=rhs,
        passed=(lhs == rhs),
        p=p,
        n=n,
        alpha=alpha,
        truncation=truncation,
    )


def skipped_record(
    family: str,
    reason: str,
    *,
    p: int | None = None,
    n: int | None = None,
    alpha: Fraction | None = None,
    truncation: str | None = None,
) -> VerificationRecord:
    return VerificationRecord(
        family=family,
        modulus="-",
        lhs="-",
        rhs="-",
        passed=None,
        p=p,
        n=n,
        alpha=alpha,
        truncation=truncation,
        reason=reason,
    )
