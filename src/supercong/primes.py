"""Prime enumeration with optional residue-class filtering."""

from __future__ import annotations

__all__ = ["EmptyRange", "sieve_primes"]


class EmptyRange(ValueError):
    """p_min..p_max is not a valid range (needs 2 <= p_min <= p_max)."""


def sieve_primes(
    p_min: int, p_max: int, mod: int | None = None, res: int | None = None
) -> list[int]:
    """Ascending primes in [p_min, p_max], optionally with p ≡ res (mod mod).

    An empty result is fine; an inverted or sub-2 range is an EmptyRange error.
    """
    if not 2 <= p_min <= p_max:
        raise EmptyRange(f"need 2 <= p_min <= p_max, got [{p_min}, {p_max}]")
    if (mod is None) != (res is None):
        raise ValueError("mod and res must be given together")
    flags = bytearray([1]) * (p_max + 1)
    flags[0:2] = b"\x00\x00"
    i = 2
    while i * i <= p_max:
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
        i += 1
    out = [p for p in range(p_min, p_max + 1) if flags[p]]
    if mod is not None:
        out = [p for p in out if p % mod == res]
    return out
