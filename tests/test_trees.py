"""The remainder trees against the per-prime oracle.

verifier reads every sum and Euler residue of the classical, 8^(-k),
MAIN1, MAIN1_TRUNC and TAIL records, and every side of the five lemma
records, off accumulating remainder trees (primes._tree) over the primes
of its jobs.  exact_oracle keeps the O(p) pass per (alpha, p), the O(p)
Euler table per prime and the per-prime lemma path (a Pochhammer prefix to
2p-1 per (alpha, p) and the lemma tables of p) that the trees replaced.
Here every value the trees give a list of jobs is compared with that
oracle: the sums at a = <-alpha>_p and p-1 for the default alphas and
those of the report digests, the 8^(-k) sum at (p-1)/2 and p-1, E_{p-3} at
every residue the rows read, and both sides of every lemma record, or its
skip reason, for every prime 5 <= p <= 600 and in [1900, 2000]; the lemma
records also at 13 edge alphas for p <= 200.  The W tree's sums are pinned
to their exact Fractions at small p.
"""

import math
from fractions import Fraction

import pytest

import supercong.primes
from supercong import verifier
from supercong.primes import sieve_primes
from supercong.records import (
    ALPHA_FAMILIES,
    LEMMA_FAMILIES,
    PHASES,
    PRIME_FAMILIES,
    PreconditionViolated,
    admits,
)
from supercong.sweep import RATIONAL_ALPHAS, default_alphas
from supercong.sequences import pochhammer
from supercong.verifier import _lemma_trees, _sums, _tree_values, verify_primes

from exact_oracle import (
    _lemma_tables,
    _main_sums,
    _mao_sums,
    _poch_prefix,
    euler_poly_eval_mod,
    lemma_sides_per_prime,
    reduce_mod,
)
from test_report_digests import ALPHAS

PRIMES = sieve_primes(5, 600) + sieve_primes(1900, 2000)
EXTRA = tuple(dict.fromkeys(Fraction(a) for a in ALPHAS))


def _jobs(primes):
    # every tree family (all but the lemmas) p admits, at the default alphas
    # and the digests'
    return [(p, tuple(f for f in PRIME_FAMILIES + ALPHA_FAMILIES
                      if f not in LEMMA_FAMILIES and admits(f, p)),
             tuple(dict.fromkeys(default_alphas(p) + list(EXTRA))))
            for p in primes]


@pytest.fixture(scope="module")
def values():
    # _tree_values reads the alphas as slots of a list that starts with 1/2,
    # 1/3 and 1/4; its sums are keyed by slot, here by alpha again
    jobs = _jobs(PRIMES)
    fracs = list(dict.fromkeys([Fraction(1, d) for d in (2, 3, 4)]
                               + [a for _, _, alphas in jobs for a in alphas]))
    slot = {a: i for i, a in enumerate(fracs)}
    sums, euler = _tree_values(
        [(p, fams, [slot[a] for a in alphas]) for p, fams, alphas in jobs], fracs,
        dict.fromkeys(PHASES, 0.0))
    return jobs, ({None if i is None else fracs[i]: v for i, v in sums.items()}, euler)


def test_every_sum_matches_the_per_prime_pass(values):
    jobs, (sums, _) = values
    # one tree per p-integral alpha that some job reads, and one 8^(-k) tree
    want = {a for p, _, alphas in jobs for a in alphas if a.denominator % p}
    assert set(sums) == want | {None}
    assert set(RATIONAL_ALPHAS) | {Fraction(i) for i in range(1, 31)} <= want
    checked = 0
    for alpha, by_p in sums.items():
        for p, got in by_p.items():
            pre = _poch_prefix(Fraction(1, 2) if alpha is None else alpha, p, p - 1)
            if alpha is None:
                cuts, oracle = ((p - 1) // 2, p - 1), _mao_sums(pre, p, p - 1)
            else:
                cuts, oracle = (pre[3], p - 1), _main_sums(pre, p, p - 1)
            assert got == tuple(oracle[M] % p**4 for M in cuts), (alpha, p)
            checked += 1
    # every prime reads the 8^(-k) sum and 1/2, 1/3, 1/4
    assert all(set(sums[a]) == set(PRIMES)
               for a in (None, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)))
    assert checked > 1500


def test_every_euler_residue_matches_the_per_prime_table(values):
    jobs, (_, euler) = values
    assert set(euler) == set(PRIMES)
    for p, _, alphas in jobs:
        # the closed forms at 1/2, 1/3, 1/4 and at each p-integral alpha
        xs = [Fraction(1, d) for d in (2, 3, 4)] + [a for a in alphas if a.denominator % p]
        rs = {x.numerator * pow(x.denominator, -1, p) % p for x in xs}
        assert set(euler[p]) == rs, p
        for r in rs:
            assert euler[p][r] == euler_poly_eval_mod(p - 3, Fraction(r), p).value, (p, r)


def test_blocks_give_the_rows_of_one_block():
    # a block builds its trees from k = 1, so splitting the jobs into
    # contiguous blocks changes no row
    jobs = _jobs(sieve_primes(5, 400))
    one, _ = verify_primes(jobs)
    for k in (2, 3):
        rows = []
        for i in range(k):
            rows += verify_primes(jobs[i * len(jobs) // k:(i + 1) * len(jobs) // k])[0]
        assert rows == one, k


def test_each_node_reads_its_prefix_reduced(monkeypatch):
    # the prefix a node receives is reduced mod the product of its moduli,
    # so no prefix grows past the moduli below it
    seen = []
    descend = supercong.primes._descend

    def check(node, row, out):
        seen.append(all(0 <= v < node[1] for v in row))
        return descend(node, row, out)

    monkeypatch.setattr(supercong.primes, "_descend", check)
    primes = sieve_primes(5, 300)
    alpha = Fraction(-1, 3)
    cuts = {p: (verifier._a_t(alpha, p)[0], p - 1) for p in primes}
    got = _sums(alpha, cuts)
    assert len(seen) > 2 * len(primes) and all(seen)
    for p, Ms in cuts.items():
        oracle = _main_sums(_poch_prefix(alpha, p, p - 1), p, p - 1)
        assert got[p] == tuple(oracle[M] % p**4 for M in Ms), p


def test_a_tree_without_points_is_empty():
    # no cut, no segment: the tree is {} rather than a descent into nothing
    assert supercong.primes._tree(lambda k: (k, 1, k), (0, 1, 1), {}) == {}
    assert verifier._euler_residues({}) == {}
    assert _sums(Fraction(1, 3), {}) == {}


# zero factors (0, -1, -3, -13, -30, -125), v_p(alpha + a) >= 2 at some p
# (25, -25, 49, 169/2, 121/3 at p = 5, 7, 13, 11) and two plain fractions
EDGE = tuple(Fraction(x) for x in ("0", "-1", "-3", "-13", "-30", "-125", "25", "-25",
                                   "49", "169/2", "121/3", "-7/2", "7/3"))


def test_every_lemma_side_matches_the_per_prime_path():
    # every (family, alpha, p): both sides, or the skip reason, as the
    # per-prime path gives them; among them a = p-1 and a = p-2, where one
    # prime asks for the same Pi cut twice (a+1 = p, p+a = 2p-1) or reads the
    # W row at p-1 as a+1
    jobs = [(p, LEMMA_FAMILIES, tuple(dict.fromkeys(
        default_alphas(p) + list(EDGE if p <= 200 else ()))))
            for p in PRIMES]
    rows, _ = verify_primes(jobs)
    assert len(rows) == len(LEMMA_FAMILIES) * sum(len(alphas) for _, _, alphas in jobs)
    tables = {p: _lemma_tables(p) for p in PRIMES}
    at = pre = None  # the prefix of the last (alpha, p): its rows are together
    seen = set()
    for fam, _, lhs, rhs, passed, p, _, alpha, _, reason in rows:
        if alpha.denominator % p == 0:
            assert reason == f"{-alpha} has no residue mod {p}^1", (fam, alpha, p)
            continue
        if at != (alpha, p):
            at, pre = (alpha, p), _poch_prefix(alpha, p, 2 * p - 1)
        try:
            want = lemma_sides_per_prime(fam, alpha, p, pre, tables[p])
        except PreconditionViolated as exc:
            assert passed is None and reason == str(exc), (fam, alpha, p)
            continue
        assert (lhs.value, rhs.value) == want, (fam, alpha, p)
        assert passed, (fam, alpha, p)
        a, v0 = pre[3], pre[1]
        seen.add((a == p - 1, a == p - 2, v0 >= 2, alpha in EDGE))
    assert seen >= {(True, False, False, False), (False, True, False, False),
                    (False, False, True, True)}


def _w_exact(alpha, p, M):
    # p^(2 v0 [M > a]) W_M as a Fraction, W_M = sum_{k<=M} (-1)^k
    # (alpha+p)_{k-1} (p-1)!/(p-k)! / (alpha)_k^2, a = <-alpha>_p
    _, v0, _, a, _ = _poch_prefix(alpha, p, 0)
    total = sum((Fraction((-1) ** k) * pochhammer(alpha + p, k - 1)
                 * math.perm(p - 1, k - 1) / pochhammer(alpha, k) ** 2
                 for k in range(1, M + 1)), Fraction(0))
    return total * p ** (2 * v0 * (M > a))


def test_the_w_tree_reads_every_cut_mod_p4():
    # the W tree's rows at a and p-1, cut mod p^(4+2 v0), give
    # p^(2 v0 [M > a]) W_M mod p^(4-v0), the precision the records read:
    # p^v0 or p^(3 v0) multiplies W there.  The tree drops the P^3 terms,
    # so W_M is known only mod p^3; 25 has v0 = 2 at p = 5
    primes = sieve_primes(5, 43)
    alphas = (Fraction(1, 3), Fraction(-5, 2), Fraction(25), Fraction(3, 7))
    jobs = [(p, ["LEMMA_SIGMA"], [i for i, x in enumerate(alphas) if x.denominator % p])
            for p in primes]
    trees = _lemma_trees(jobs, list(alphas))
    checked, seen = 0, set()
    for p, _, slots in jobs:
        m = p**4
        for i in slots:
            alpha = alphas[i]
            _, v0, _, a, _ = _poch_prefix(alpha, p, 0)
            w = trees[i][1]
            for M in {a, p - 1 if a <= p - 2 else a} - {0}:  # W_0 = 0 is the start row
                A, _, D = w[M]
                unit = D % p ** (4 + 2 * v0) // p ** (2 * v0 * (M > a))
                got = A.at(p, m) * pow(unit, -1, m) % p ** (4 - v0)
                want = reduce_mod(_w_exact(alpha, p, M), p, 4 - v0).value
                assert got == want, (alpha, p, M)
                seen.add(v0)
                checked += 1
    assert checked > 50 and seen == {1, 2}
