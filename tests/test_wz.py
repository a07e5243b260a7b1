"""Rational certificate pair: pointwise values, pair relation, telescoping."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from supercong import wz
from supercong.wz import (
    DivisionByZeroTerm,
    check_pair,
    check_telescoped,
    sample_alphas,
    telescoped_rhs,
)

from exact_oracle import sum_main_exact
import wz_oracle
from wz_oracle import F, G


def _F(n, k, alpha):
    # F(n, k), 0 <= k <= n, from the integer pair check_pair forms
    return Fraction(*F(wz._Table(alpha, n + k), n, k))


def _G(n, k, alpha):
    # G(n, k), 0 <= k <= n, n >= 1, likewise
    return Fraction(*G(wz._Table(alpha, n + k), n, k))


def test_point_values():
    assert _F(0, 0, Fraction(1, 2)) == Fraction(1, 2)
    assert _F(1, 0, Fraction(1, 2)) == Fraction(-5, 16)
    assert _G(1, 0, Fraction(1, 2)) == Fraction(-1, 4)
    assert _G(1, 1, Fraction(2, 3)) == Fraction(2, 3)


def test_f_vanishes_below_diagonal():
    # 1/(1)_m = 0 for m < 0 kills F(n, k) and G(n, k) at k > n, which
    # check_pair takes as 0: the relation at k = n + 1 is then
    # F(n, n) = G(n + 1, n + 1)
    for a in (Fraction(1, 3), Fraction(-2, 5)):
        for n in range(1, 5):
            assert _F(n, n, a) == _G(n + 1, n + 1, a)
        assert check_pair(4, 7, [a])


def test_g_vanishes_at_n_zero():
    # (1)_{n-1} = (1)_{-1} kills G(0, k), so row n = 0 of the relation is
    # F(0, k-1) - F(0, k) = G(1, k): F(0, 0) = G(1, 1), and 0 = 0 past it
    for a in (Fraction(1, 2), Fraction(2, 3)):
        assert _F(0, 0, a) == _G(1, 1, a)
        for k in range(1, 4):
            assert check_pair(0, k, [a])


def test_the_pair_relation_holds_for_every_alpha_and_point():
    # less its factor P_{n+k-1} (P_{n+k} = (r + (n+k-1) d) P_{n+k-1}), the
    # relation check_pair tests at a point is a cubic in r, d, n and k that
    # expands to 0, with e = 2nd + r and m = n - k + 1.  With G(0, k) = 0
    # and F(n, K) = 0 for K > n it holds at every alpha and (n, k), so a wz
    # verdict tests the code, not the mathematics
    import sympy

    r, d, n, k = sympy.symbols("r d n k")
    e, m = 2 * n * d + r, n - k + 1
    bracket = (e * (r + (k - 1) * d) ** 2 - d**3 * n**2 * m
               - ((r + n * d) ** 2 - e * d * m) * (r + (n + k - 1) * d))
    assert sympy.expand(bracket) == 0
    for a in sample_alphas(6, seed=0):
        for j in range(6):
            assert wz_oracle.eval_G(0, j, a) == 0
            for K in range(j + 1, j + 4):
                assert wz_oracle.eval_F(j, K, a) == 0


def test_f_at_k_zero_is_series_summand():
    # F(n, 0) = (-1)^n (2n + a) (a)_n^3 / n!^3
    from supercong.sequences import pochhammer
    import math

    for a in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
        for n in range(6):
            want = (
                Fraction(-1) ** n
                * (2 * n + a)
                * pochhammer(a, n) ** 3
                / math.factorial(n) ** 3
            )
            assert _F(n, 0, a) == want


def test_pole_raises():
    # (alpha)_k = 0 at alpha = -1 from k = 2 on
    with pytest.raises(DivisionByZeroTerm):
        check_pair(3, 2, [Fraction(-1)])
    with pytest.raises(DivisionByZeroTerm):
        check_telescoped(3, Fraction(-1))


def test_pair_relation_small_grid():
    assert check_pair(5, 5, [Fraction(1, 2), Fraction(1, 3)])
    assert check_pair(4, 6, [Fraction(-2, 5)])


@pytest.mark.parametrize("point", [(3, 2), (3, 3)])
def test_pair_check_catches_a_broken_certificate(monkeypatch, point):
    # check_pair reads every F and G value off the table of P, so the break
    # is made there: P_{n+k-1}, which G(n, k) reads, goes up by 1 for the
    # point (n, k).  Row i reads P_{i+j-1} and P_{i+j} at its points
    # j <= min(k_max, i + 1), and check_pair fails on exactly the grids
    # with a row that reads the broken entry
    n, k = point
    bad = n + k - 1
    good_init = wz._Table.__init__

    def broken(self, alpha, m):
        good_init(self, alpha, m)
        if m >= bad:
            self.P[bad] += 1

    monkeypatch.setattr(wz._Table, "__init__", broken)
    for n_max in range(7):
        for k_max in range(1, 8):
            reads = any(bad in (i + j - 1, i + j) for i in range(n_max + 1)
                        for j in range(1, min(k_max, i + 1) + 1))
            assert check_pair(n_max, k_max, [Fraction(1, 2)]) is not reads, (
                n_max, k_max)
    # row n - 1 reads G(n, k) at its point k as G(n + 1, k); no row before it
    # reaches the entry
    assert not check_pair(n - 1, k, [Fraction(1, 2)])
    assert check_pair(n - 2, 7, [Fraction(1, 2)])


# alphas with d from 1 to 7 and both signs of r, and nonpositive integers,
# whose P_k vanish from k = 1 - alpha on
ROW_ALPHAS = tuple(map(Fraction, ("1/2", "-2/3", "5/7", "7/4", "1", "0", "-3", "-1")))


@pytest.mark.parametrize("alpha", ROW_ALPHAS, ids=str)
def test_row_multipliers_bring_each_term_over_one_denominator(alpha):
    # check_pair's four terms at (n, k), k <= n + 1, are F and G times
    # (-1)^(n+k) Q / P_n^2, with Q = d^(3n-k+2) n!^2 (n-k+1)! P_k^2: each
    # term times P_n^2 times its point's denominator is the point's
    # numerator times Q, less the sign (-1)^(n+k) the relation carries
    t = wz._Table(alpha, 41)
    r, d, P, fact = t.r, t.d, t.P, t.fact
    for n in range(21):
        e = 2 * n * d + r
        for k in range(1, n + 2):
            m = n - k + 1
            Q = d ** (3 * n - k + 2) * fact[n] ** 2 * fact[m] * P[k] ** 2
            terms = [  # (term, point, its oracle, sign of the point's term)
                (e * (r + (k - 1) * d) ** 2 * P[n + k - 1], (n, k - 1), F, -1),
                ((r + n * d) ** 2 * P[n + k], (n + 1, k), G, -1),
            ]
            if k <= n:
                terms += [
                    (e * d * m * P[n + k], (n, k), F, 1),
                    (d**3 * n * n * m * P[n + k - 1], (n, k), G, 1),
                ]
            for term, (i, j), exact, sign in terms:
                num, den = exact(t, i, j)
                assert term * P[n] ** 2 * den == sign * (-1) ** (n + k) * num * Q


def test_rows_with_a_vanishing_prefix_read_zero():
    # P_n = 0 from n = 1 - alpha on, past the pole-free k <= k_max: every
    # term of those rows carries P_n^2, and check_pair skips them
    for alpha, n_max, k_max in ((-3, 12, 2), (-3, 12, 3), (-2, 4, 2)):
        alphas = [Fraction(alpha)]
        assert wz._Table(alphas[0], n_max).P[n_max] == 0
        assert check_pair(n_max, k_max, alphas) is True
        assert wz_oracle.check_pair(n_max, k_max, alphas) is True


def test_pole_at_the_edge_of_the_range():
    # (-2)_k = 0 from k = 3 on: a denominator only when k reaches 3
    msg = "(alpha)_3 = 0 for alpha=-2 in "
    with pytest.raises(DivisionByZeroTerm, match=re.escape(msg + "F(0,3)")):
        check_pair(0, 3, [Fraction(-2)])
    assert check_pair(4, 2, [Fraction(-2)])
    where = "telescoped_rhs(N=4)"
    with pytest.raises(DivisionByZeroTerm, match=re.escape(msg + where)):
        check_telescoped(4, Fraction(-2))
    assert check_telescoped(3, Fraction(-2))


@pytest.mark.parametrize("bad", [1, 4, 7])
def test_telescoped_fails_when_one_n_fails(monkeypatch, bad):
    # one N of 1..7 whose two sides differ: check_telescoped(n_max) is
    # False exactly when n_max reaches it, and reads N in increasing order
    good = wz._closed_form
    seen = []

    def broken(N, t):
        seen.append(N)
        rhs, den = good(N, t)
        return rhs + (N == bad), den

    monkeypatch.setattr(wz, "_closed_form", broken)
    alpha = Fraction(1, 3)
    for n_max in range(1, 8):
        seen.clear()
        assert check_telescoped(n_max, alpha) is (n_max < bad), n_max
        assert seen == list(range(1, min(n_max, bad) + 1)), n_max


def test_telescoped_small():
    for N in (1, 2, 3, 10):
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)):
            assert check_telescoped(N, a)


def test_telescoped_even_length():
    # regression: the correction-sum sign depends on the parity of N
    assert check_telescoped(2, Fraction(1))
    lhs = sum(_F(k, 0, Fraction(1)) for k in range(2))
    assert lhs == Fraction(-2)
    assert telescoped_rhs(2, Fraction(1)) == Fraction(-2)


def test_telescoped_rhs_matches_partial_sums():
    for a in (Fraction(1, 4), Fraction(2, 3)):
        for N in range(1, 9):
            assert telescoped_rhs(N, a) == sum_main_exact(a, N - 1)


def test_sample_alphas_deterministic_and_pole_free():
    a1 = sample_alphas(12, seed=3)
    a2 = sample_alphas(12, seed=3)
    assert a1 == a2
    assert len(set(a1)) == 12
    for a in a1:
        # no nonpositive integers: those put zeros in (alpha)_k
        assert not (a.denominator == 1 and a <= 0)
    assert sample_alphas(5, seed=0) != sample_alphas(5, seed=1)


def test_cold_pochhammer_cache_at_large_index():
    # regression: a recursive cache overflowed the stack on a cold miss at
    # k ~ 1000, so this runs in a fresh interpreter
    code = (
        "from fractions import Fraction\n"
        "from supercong.wz import _Table, telescoped_rhs\n"
        "from wz_oracle import F\n"
        "telescoped_rhs(600, Fraction(1, 3))\n"
        "F(_Table(Fraction(2, 7), 700), 700, 0)\n"
        "print('ok')\n"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (here.parent / "src", here)))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
