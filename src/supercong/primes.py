"""Prime enumeration, and the accumulating remainder trees over primes.

sieve_primes lists the primes of a range, optionally in one residue class.
_tree reads a running product of 2x2 lower-triangular integer matrices
off one accumulating remainder tree (Costa, Gerbicz and Harvey, "A search
for Wilson primes", Math. Comp. 2014), each prefix reduced mod its own
modulus: verifier reads its sums, Euler residues and lemma values from
it, and sequences.check_lehmer its harmonic numbers.  Both live here
because every command imports this module.
"""

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


# ---------------------------------------------------------------------------
# accumulating remainder trees

# A leaf (x, y, z) is the lower-triangular matrix [[x, 0], [y, z]].  It
# acts on a row (A, P, D) from the right, with D multiplied by x alongside:
# (A, P, D) -> (A x + P y, P z, D x).  Entries are integers or verifier's
# truncated polynomials, which have +, * and % by an integer.

def _times(left: tuple, right: tuple) -> tuple[int, int, int]:
    # the product of two leaves, left acting first
    x1, y1, z1 = left
    x2, y2, z2 = right
    return x1 * x2, y1 * x2 + z1 * y2, z1 * z2


def _leaves(leaf, lo: int, hi: int) -> tuple[int, int, int]:
    """leaf(lo + 1) ... leaf(hi), by binary splitting; (1, 0, 1) if lo = hi."""
    if hi - lo > 16:
        mid = (lo + hi) // 2
        return _times(_leaves(leaf, lo, mid), _leaves(leaf, mid, hi))
    acc = leaf(lo + 1) if hi > lo else (1, 0, 1)
    for k in range(lo + 2, hi + 1):
        acc = _times(acc, leaf(k))
    return acc


def _build(segs: list, mods: list, lo: int, hi: int, product: bool) -> tuple:
    """The node over segments lo..hi-1: (their product, or None unless
    product is set, the product of their moduli, the two children or None,
    lo).  Only a left child's product is ever read."""
    if hi - lo == 1:
        return segs[lo], mods[lo], None, lo
    mid = (lo + hi) // 2
    left = _build(segs, mods, lo, mid, True)
    right = _build(segs, mods, mid, hi, product)
    return (_times(left[0], right[0]) if product else None,
            left[1] * right[1], (left, right), lo)


def _descend(node: tuple, row: tuple, out: list) -> None:
    """out[i] = the row after segment i, mod the modulus of segment i, for
    each segment i under node.  row is the prefix before the node's first
    segment, reduced mod the node's modulus: the left child reads it
    reduced mod its own, the right child after the left child's product."""
    seg, m, kids, i = node
    A, P, D = row
    if kids is None:
        x, y, z = seg
        out[i] = ((A * x + P * y) % m, P * z % m, D * x % m)
        return
    left, right = kids
    ml, mr = left[1], right[1]
    _descend(left, (A % ml, P % ml, D % ml), out)
    x, y, z = left[0]
    _descend(right, ((A * x + P * y) % mr, P * z % mr, D * x % mr), out)


def _tree(leaf, row: tuple, points: dict[int, int]) -> dict[int, tuple[int, int, int]]:
    """{M: row times leaf(1) ... leaf(M), mod points[M]} for each M >= 0
    of points: an accumulating remainder tree; {} if points is empty.

    The segments between consecutive M are multiplied out once, and so
    are, up a binary tree, the products of the segments and of their
    moduli.  Going down, each node gets the prefix before it reduced mod
    the product of its moduli, so no prefix grows past the moduli below
    it.
    """
    if not points:
        return {}
    cuts = sorted(points)
    segs = [_leaves(leaf, lo, hi) for lo, hi in zip([0] + cuts, cuts)]
    root = _build(segs, [points[M] for M in cuts], 0, len(cuts), False)
    out: list = [None] * len(cuts)
    _descend(root, tuple(v % root[1] for v in row), out)
    return dict(zip(cuts, out))
