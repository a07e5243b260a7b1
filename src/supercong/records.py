"""Verification records, the skip and bug errors and the row loop.

A record captures one checked instance: which family, at which prime p or
q-index n, which alpha/truncation, the modulus, and the two sides being
compared.  passed is True/False for an executed check and None for an
instance that was skipped with a reason.  A row is a record's fields up to
reason as a plain tuple, the form in which every check hands back its
results (cheap to pickle between processes): VerificationRecord(*row) is
the record without its timings.  Only PreconditionViolated makes a skip
row: family_rows raises any other error as an InternalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .padic import ResidueClass

__all__ = [
    "InternalError",
    "PreconditionViolated",
    "VerificationRecord",
    "describe",
    "family_rows",
    "norm_family",
]


class PreconditionViolated(ValueError):
    """The instance misses a family's hypothesis: the residue class of p or
    n, p > 3, a <= p-2, ..."""


class InternalError(RuntimeError):
    """A check raised an error that is not a precondition: a bug."""


Side = ResidueClass | str


def norm_family(name: str) -> str:
    """Canonical family name: case-insensitive, hyphens for underscores."""
    return name.strip().upper().replace("-", "_")


def describe(family: str, p: int | None = None, n: int | None = None,
             alpha: Fraction | None = None, truncation: str | None = None) -> str:
    """The check to re-run: the family, then k=v for each label that is set."""
    labels = {"p": p, "n": n, "alpha": alpha, "truncation": truncation}
    return " ".join([family] + [f"{k}={v}" for k, v in labels.items() if v is not None])


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
    # the wall time of the instance that made the record, and the seconds it
    # spent in each of verifier.PHASES (None where it has no phases), both
    # in ms and divided by the instance's number of records
    elapsed_ms: float | None = field(default=None, compare=False)
    phase_ms: tuple[float, ...] | None = field(default=None, compare=False)

    def sort_key(self) -> tuple:
        a = self.alpha
        return (
            self.family,
            self.p if self.p is not None else 0,
            self.n if self.n is not None else 0,
            a.numerator if a is not None else 0,
            a.denominator if a is not None else 1,
            self.truncation or "",
        )


def family_rows(
    checks: Iterable[tuple[str, str | None]],
    sides: Callable[[str, str | None], tuple[str, Side, Side]],
    p: int | None = None,
    n: int | None = None,
    alpha: Fraction | None = None,
) -> list[tuple]:
    """One row per (family, truncation) of checks, in order.

    sides(family, truncation) gives the record's (modulus, lhs, rhs).  If
    it raises PreconditionViolated, the family gets a skip row instead, with
    the error's text as its reason.  Both carry the family, the truncation
    and the labels p, n and alpha.  Any other error raises InternalError.
    """
    out = []
    for fam, truncation in checks:
        try:
            modulus, lhs, rhs = sides(fam, truncation)
        except PreconditionViolated as exc:
            out.append((fam, "-", "-", "-", None, p, n, alpha, truncation, str(exc)))
        except Exception as exc:
            where = describe(fam, p, n, alpha, truncation)
            raise InternalError(
                f"internal error checking {where}: {type(exc).__name__}: {exc}"
            ) from exc
        else:
            # passed is derived, never asserted by callers
            out.append((fam, modulus, lhs, rhs, lhs == rhs, p, n, alpha, truncation,
                        None))
    return out

