"""Verification records, the family tables, the skip and bug errors and
the row loop.

A record captures one checked instance: which family, at which prime p or
q-index n, which alpha/truncation, the modulus, and the two sides being
compared.  passed is True/False for an executed check and None for an
instance that was skipped with a reason.  A row is a record's fields up to
reason as a plain tuple, the form in which every check hands back its
results (cheap to pickle between processes): VerificationRecord(*row) is
the record without its timings.  Records are NamedTuples, so _replace and
_asdict work on them; the timings take no part in == or hash.  Only
PreconditionViolated makes a skip row: family_rows raises any other error
as an InternalError.

The family tables live here, not in the modules that check them: the
names, residue classes and truncations of the prime and alpha families
(verifier), the phases verify_primes times, and the q-family table
(qseries).  The CLI's parser and the sweep's expansion read them without
importing a check module; verifier and qseries import them from here,
and verifier re-exports none of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .padic import ResidueClass

__all__ = [
    "ALPHA_FAMILIES",
    "ALPHA_TRUNCATIONS",
    "FAMILIES",
    "InternalError",
    "LEMMA_FAMILIES",
    "MAO_TRUNCATIONS",
    "MAO_VARIANTS",
    "PHASES",
    "PRIME_CLASSES",
    "PRIME_FAMILIES",
    "PreconditionViolated",
    "QFamily",
    "Q_FAMILIES",
    "TheoremFamily",
    "VerificationRecord",
    "admits",
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


class VerificationRecord(NamedTuple):
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
    # spent in each of PHASES (None where it has no phases), both in ms and
    # divided by the instance's number of records; == and hash leave them
    # out, so a record equals its row's record whatever the run's timings
    elapsed_ms: float | None = None
    phase_ms: tuple[float, ...] | None = None

    def __eq__(self, other):
        if not isinstance(other, VerificationRecord):
            return NotImplemented
        return self[:10] == other[:10]

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash(self[:10])

    def sort_key(self) -> tuple:
        # (family, p, n, alpha's numerator and denominator, truncation), the
        # fields read by position; an unset label sorts as 0, 0/1 or ""
        a = self[7]
        return (
            self[0],
            self[5] or 0,
            self[6] or 0,
            a.numerator if a is not None else 0,
            a.denominator if a is not None else 1,
            self[8] or "",
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



# ---------------------------------------------------------------------------
# the family tables

class TheoremFamily(NamedTuple):
    """One (2dk+1)-weighted congruence family, d = weight_d.

    The summand weight 2dk + 1 is d times the (2k + 1/d) summand of
    S(1/d, .), so the family is d * S(1/d, M) checked against d times the
    general-alpha closed form at alpha = 1/d.  With r = p mod d that is

        r p (-1)^a + p^3 r^3 E_{p-3}(1/d) / d^2   (the p^3 term mod p^4 only),

    where a = <-1/d>_p = (rp-1)/d is the stated short truncation; the full
    truncation M = p-1 has the same right side.  A family is claimed mod
    p^modulus_exp for primes p ≡ p_res (mod p_mod) (every p > 3 if None).
    """

    name: str
    weight_d: int
    modulus_exp: int
    p_mod: int | None
    p_res: int | None

    def short_m(self, p: int) -> int:
        """The stated truncation <-1/d>_p = ((p mod d) p - 1) / d."""
        d = self.weight_d
        return ((p % d) * p - 1) // d


FAMILIES: dict[str, TheoremFamily] = {
    f.name: f
    for f in (
        TheoremFamily("B2", 2, 3, None, None),
        TheoremFamily("E2", 3, 3, 3, 1),
        TheoremFamily("F2", 4, 3, 4, 1),
        TheoremFamily("SW_E2", 3, 3, 3, 2),
        TheoremFamily("SW_F2", 4, 3, 4, 3),
        TheoremFamily("E2_MOD4", 3, 4, 3, 1),
        TheoremFamily("F2_MOD4", 4, 4, 4, 1),
        TheoremFamily("SW_E2_MOD4", 3, 4, 3, 2),
        TheoremFamily("SW_F2_MOD4", 4, 4, 4, 3),
        TheoremFamily("SUN_B2", 2, 4, None, None),
    )
}

# the (6k+1)(1/2)_k^3/8^k families and the truncation each is stated at
MAO_TRUNCATIONS = {"MAO_HALF": "full", "SUN_HALF_CONJ": "short", "EQUIV": "full"}
MAO_VARIANTS = tuple(MAO_TRUNCATIONS)
# the families checked at one prime, by verifier.verify_prime
PRIME_FAMILIES = tuple(FAMILIES) + MAO_VARIANTS
# (p_mod, p_res) of the prime families stated only for p ≡ p_res (mod p_mod)
PRIME_CLASSES = {
    **{f.name: (f.p_mod, f.p_res) for f in FAMILIES.values() if f.p_mod is not None},
    "EQUIV": (4, 1),
}


def admits(fam: str, p: int) -> bool:
    """Whether p is in the residue class prime family fam is stated for."""
    mod, res = PRIME_CLASSES.get(fam, (1, 0))
    return p % mod == res


LEMMA_FAMILIES = (
    "LEMMA_WZPROD",
    "LEMMA_ALPHAP3",
    "LEMMA_SIGMA1",
    "LEMMA_PROD",
    "LEMMA_SIGMA",
)
# the families checked at a pair (alpha, p), by verifier.verify_alpha
ALPHA_FAMILIES = ("MAIN1", "MAIN1_TRUNC", "TAIL") + LEMMA_FAMILIES
# the truncation labels of the general-alpha records; the others have none
ALPHA_TRUNCATIONS = {"MAIN1": "full", "MAIN1_TRUNC": "short"}

# the phases verifier.verify_primes times: the sums trees, the Euler tree
# and the closed forms (right sides) of the sums, and the lemmas' trees and
# both of their sides
PHASES = ("sums", "closed", "lemma")


class QFamily(NamedTuple):
    """w_e2 e2(n) + w_f2 f2(n), minus (-q)^((n-1)(n-3)/8) [n] if gz_rhs,
    ≡ 0 (mod [n] Phi_n(q)^phi_exp) for n ≡ 1 (mod n_mod), n >= n_min;
    condition states that range of n in the skip reason (see qseries)."""

    weights: tuple[int, int]
    gz_rhs: bool
    phi_exp: int
    n_mod: int
    n_min: int
    condition: str


Q_FAMILIES: dict[str, QFamily] = {
    "GZ_E2": QFamily((1, 0), True, 2, 2, 3, "odd n >= 3"),
    "GZ_F2": QFamily((0, 1), True, 2, 4, 5, "n ≡ 1 (mod 4), n >= 5"),
    # an open conjecture: a False verdict is a reportable finding (the sweep
    # layer gives it a distinguished exit code), not an artifact bug
    "CONJ41": QFamily((1, -1), False, 3, 4, 5, "n ≡ 1 (mod 4), n >= 5"),
}
