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
    # check_pair reads every numerator from the row methods, so the break
    # is made there: F or G at the points goes up by 1, which moves the
    # unsigned numerator by (-1)^(n+k) times the point's denominator
    good_F, good_G = wz._Table.F_row, wz._Table.G_row

    def bumped(good, exact, points):
        def row(self, n, ks):
            nums = good(self, n, ks)
            for i, k in enumerate(ks):
                if (n, k) in points:
                    nums[i] += (-1) ** (n + k) * exact(self, n, k)[1]
            return nums
        return row

    monkeypatch.setattr(wz._Table, "G_row", bumped(good_G, G, {point}))
    # row n = 2 reaches G(3, 2) at k = 2 and G(3, 3) only at k = n + 1
    assert not check_pair(2, 4, [Fraction(1, 2)])
    # rows n <= 1 only reach G(2, k) and G(1, k)
    assert check_pair(1, 4, [Fraction(1, 2)])

    # Adding 1 to F(2, j) for j < k as well keeps every relation of row 2;
    # then only row 3, which reads G(3, k) as the G(n, k) carried over
    # from row 2, sees the break.
    n, k = point
    monkeypatch.setattr(wz._Table, "F_row",
                        bumped(good_F, F, {(n - 1, j) for j in range(k)}))
    assert check_pair(2, 4, [Fraction(1, 2)])
    assert not check_pair(3, 4, [Fraction(1, 2)])
    assert not check_pair(3, k, [Fraction(1, 2)])


# alphas with d from 1 to 7 and both signs of r, and nonpositive integers,
# whose P_k vanish from k = 1 - alpha on
ROW_ALPHAS = tuple(map(Fraction, ("1/2", "-2/3", "5/7", "7/4", "1", "0", "-3", "-1")))


@pytest.mark.parametrize("alpha", ROW_ALPHAS, ids=str)
def test_row_multipliers_bring_each_term_over_one_denominator(alpha):
    # check_pair's multipliers are Q over each term's denominator, with
    # Q = d^(3n-k+2) n!^2 (n-k+1)! P_k^2, and the row numerators are the
    # numerators of F and G less their sign (-1)^(n+k)
    t = wz._Table(alpha, 41)
    r, d, P, fact = t.r, t.d, t.P, t.fact
    for n in range(21):
        s = (-1) ** n
        assert [s * x for x in t.F_row(n, range(n + 1))] == [
            (-1) ** k * F(t, n, k)[0] for k in range(n + 1)]
        assert [-s * x for x in t.G_row(n + 1, range(n + 2))] == [
            (-1) ** k * G(t, n + 1, k)[0] for k in range(n + 2)]
        for k in range(1, n + 2):
            Q = d ** (3 * n - k + 2) * fact[n] ** 2 * fact[n - k + 1] * P[k] ** 2
            assert F(t, n, k - 1)[1] * (r + (k - 1) * d) ** 2 == Q
            assert G(t, n + 1, k)[1] == Q
            if k <= n:
                assert F(t, n, k)[1] * d * (n - k + 1) == Q
                assert G(t, n, k)[1] * d**3 * n**2 * (n - k + 1) == Q


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
    good = wz._telescope
    seen = []

    def broken(N, t):
        seen.append(N)
        lhs, rhs, den = good(N, t)
        return lhs, rhs + (N == bad), den

    monkeypatch.setattr(wz, "_telescope", broken)
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
