"""Integer polynomial algebra in q and the polynomial congruence checks.

Products the tests build themselves are multiplied out in sympy's ZZ[q]
(gcd_oracle), not with the package's (1 - q^s) products under test.
"""

import math

import pytest
import sympy

from supercong import qseries
from supercong.qseries import (
    InternalNonExactDivision,
    Q_FAMILIES,
    _binomials,
    _cube_denominator,
    _den_order,
    _divisors,
    _gz_rhs,
    _poly_str,
    _q_check,
    _sum_numerator,
    congruence_failure,
    conjecture41_witness,
    cyclotomic,
    q_integer,
    verify_q,
)

from exact_oracle import poly_from_string
from gcd_oracle import (
    Q,
    ZQ,
    coeff_tuple,
    congruent,
    cyclotomic_multiplicity,
    dense_denominator,
    phi,
    poly,
    q_int,
    reduce,
    root_order,
)


def test_serialization_roundtrip():
    for coeffs in ((), (5,), (0, -3, 1), (1, 0, 0, 2)):
        assert poly_from_string(_poly_str(coeffs)) == coeffs
    assert _poly_str(()) == "0" and _poly_str([0, -3, 1]) == "0,-3,1"
    assert poly_from_string("1,1,1") == q_integer(3)


def _is_normal(f) -> bool:
    """A tuple of ints, lowest degree first, whose last entry is nonzero, or ()."""
    return type(f) is tuple and all(type(c) is int for c in f) and (not f or f[-1] != 0)


def test_polynomials_are_in_normal_form():
    # every kind of polynomial the module returns, for n <= 40 and every
    # d | n; the sum numerators of CONJ41 (n ≡ 1 mod 4) and GZ_E2 (n ≡ 3)
    assert qseries._trim([1, 0, 2, 0, 0]) == (1, 0, 2) and qseries._trim([0, 0]) == ()
    assert _sum_numerator(1, 1, -1) == () and _sum_numerator(1, 0, 0, (0, 1)) == (0, -1)
    for n in range(1, 41):
        assert _is_normal(q_integer(n)) and _is_normal(_cube_denominator(n)), n
        if n % 4 == 1:
            assert _is_normal(_sum_numerator(n, 1, -1)), n
        elif n % 4 == 3:
            assert _is_normal(_sum_numerator(n, 1, 0, _gz_rhs(n))), n
        for d in _divisors(n):
            assert _is_normal(cyclotomic(d)), d
            # [n] vanishes to order 1 at each root of q^n - 1 but q = 1,
            # where it is n: the certificate is D^1 [n] or [n] mod Phi_d
            fail = congruence_failure(q_integer(n), [(d, 2)], {d: 0})
            assert fail[:2] == (d, 1 if d > 1 else 0) and _is_normal(fail[2]), (n, d)
            assert fail[2] and len(fail[2]) < len(cyclotomic(d)), (n, d)


def test_binomials_against_sympy():
    cases = (
        {}, {1: 1}, {3: 2}, {4: 3, 8: 3}, {6: 1, 2: -1}, {6: 2, 3: -1, 2: -1},
        {12: 1, 6: -1, 4: -1, 2: 1}, {9: 3, 3: -3}, {5: 4, 1: -1},
    )
    for exponents in cases:
        want = ZQ(1)
        for s, k in exponents.items():
            if k > 0:
                want *= (1 - Q**s) ** k
        for s, k in exponents.items():
            if k < 0:
                want = want.exquo((1 - Q**s) ** -k)
        assert _binomials(exponents) == list(coeff_tuple(want)), exponents


def test_binomials_division_must_be_exact():
    for exponents in ({2: -1}, {3: 1, 2: -1}, {6: 1, 4: -1}, {4: 1, 2: -3}):
        with pytest.raises(InternalNonExactDivision):
            _binomials(exponents)


def test_q_integer():
    assert q_integer(1) == (1,)
    assert q_integer(3) == (1, 1, 1)
    assert sum(q_integer(7)) == 7
    with pytest.raises(ValueError):
        q_integer(0)


def test_cyclotomic_small():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_factorization():
    for n in range(1, 61):
        prod = ZQ(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod *= poly(cyclotomic(d))
        assert prod == Q**n - 1, n


def test_cyclotomic_known_facts():
    for n in range(2, 40):
        assert cyclotomic(n)[0] == 1  # constant term 1 for n >= 2
    # value at 1: p at prime powers, else 1
    assert sum(cyclotomic(9)) == 3
    assert sum(cyclotomic(8)) == 2
    assert sum(cyclotomic(15)) == 1
    # first index with a coefficient outside {-1, 0, 1}
    c = cyclotomic(105)
    assert len(c) == 49 and c[7] == -2 and c[41] == -2


def test_lhs_q_first_terms():
    for weights in ((1, 0), (0, 1)):
        assert _sum_numerator(1, *weights) == (1,)
    assert _cube_denominator(1) == (1,)
    hand = (1 - Q**4) ** 3 - q_int(7) * (1 - Q) ** 3 * Q**3
    assert _sum_numerator(2, 1, 0) == coeff_tuple(hand)
    assert _cube_denominator(2) == coeff_tuple((1 - Q**4) ** 3)


def test_lhs_q_denominator_shape():
    for n in range(1, 18):
        assert _cube_denominator(n) == coeff_tuple(dense_denominator(n))


def test_den_order_is_the_multiplicity_in_the_denominator():
    # the closed form against the order of vanishing of ((q^4;q^4)_{n-1})^3
    # at a primitive d-th root of unity, summed over its factors
    # (1 - q^(4j))^3, since orders add under products, and read once from
    # the whole product at n = 40.  The factors are Phi_m with
    # m <= 4(n-1) < 160, so root_order is exact
    top = 4 * 39
    orders = [[0] * (top + 1)]  # orders[n - 1][d], the order at d of the n-th product
    for j in range(1, 40):
        cube = coeff_tuple((1 - Q ** (4 * j)) ** 3)
        orders.append([v + root_order(cube, d, 160) if d else 0
                       for d, v in enumerate(orders[-1])])
    for n in range(1, 41):
        for d in range(1, 4 * (n - 1) + 1):
            assert _den_order(n, d) == orders[n - 1][d], (n, d)
    den = coeff_tuple(dense_denominator(40))
    for d in range(1, top + 1):
        assert root_order(den, d, 160) == orders[39][d], d


def test_rational_function_reduce():
    r = reduce(2 * Q**2 - 2, 2 * Q + 2)  # 2(q^2-1)/2(q+1)
    assert r == (Q - 1, ZQ(1))
    # sign lands in the numerator; denominator keeps a positive lead
    assert reduce(1 + Q, -Q) == (-1 - Q, Q)


def test_congruent_mod_worked_cases():
    phi3 = cyclotomic(3)
    # (q^6-1)/(q^2-1) = Phi_3 Phi_6, and Phi_3 does not divide q^2-1
    assert congruence_failure((-1, 0, 0, 0, 0, 0, 1), [(3, 1)], {3: 0}) is None
    assert congruence_failure((1,), [(3, 1)], {3: 0}) is not None
    assert congruence_failure((), [(3, 1)], {3: 5}) is None
    assert congruence_failure(phi3, [(3, 1)], {3: 0}) is None
    # Phi_3 / Phi_3 = 1: the denominator's Phi_3 takes the numerator's, and
    # the certificate is D^1 Phi_3 = 1 + 2q
    assert congruence_failure(phi3, [(3, 1)], {3: 1}) == (3, 1, (1, 2))


def test_congruent_mod_against_naive_oracle():
    # oracle: reduce to lowest terms, require gcd(den, M) constant and M | num
    cases = []
    phi5 = phi(5)
    for num in (
        phi5 * (1 + 3 * Q),
        phi5 * phi5,
        1 + Q + Q**2,
        q_int(5) * phi5**2 * (2 + Q),
        ZQ(3),
    ):
        for den in (ZQ(1), 1 + 2 * Q, 2 + Q**2, phi5):
            cases.append((num, den))
    for m, factors in (
        (phi5, [(5, 1)]),
        (q_int(5) * phi5**2, [(5, 3)]),
        (Q - 1, [(1, 1)]),
    ):
        for num, den in cases:
            orders = {d: cyclotomic_multiplicity(den, d) for d, _ in factors}
            got = congruence_failure(coeff_tuple(num), factors, orders)
            assert (got is None) == congruent(num, den, m), (num, den, m)


def test_congruent_mod_multiplier_invariance():
    import random

    rng = random.Random(7)
    m = q_int(5) * phi(5) ** 2  # Phi_5^3
    num, den = m * (2 - Q + 3 * Q**2), 1 + 2 * Q**2
    assert congruence_failure(coeff_tuple(num), [(5, 3)],
                              {5: cyclotomic_multiplicity(den, 5)}) is None
    for _ in range(12):
        mult = ZQ.from_list([rng.randint(1, 4) for _ in range(rng.randint(1, 5))])
        if not mult or mult.gcd(m).degree() > 0:
            continue
        orders = {5: cyclotomic_multiplicity(den * mult, 5)}
        assert congruence_failure(coeff_tuple(num * mult), [(5, 3)], orders) is None


def test_congruence_witness_nonzero_on_failure():
    w = congruence_failure([1, 1], [(5, 1)], {5: 0})
    assert w is not None and w[2]
    assert congruence_failure(cyclotomic(5), [(5, 1)], {5: 0}) is None


def _skip_reason(n, family):
    [r] = verify_q(n, (family,))
    assert r.passed is None and (r.n, r.modulus, r.lhs, r.rhs) == (n, "-", "-", "-")
    return r.reason


def test_verify_gz_e2():
    for n in (3, 5, 7):
        [r] = verify_q(n, ("GZ_E2",))
        assert r.passed, n
        assert r.n == n and r.family == "GZ_E2" and r.truncation is None
        assert r.modulus == f"[{n}]*Phi_{n}^2"
    for bad in (4, 1):
        assert _skip_reason(bad, "GZ_E2") == f"GZ_E2 needs odd n >= 3, got n = {bad}"


def test_verify_gz_f2():
    [r] = verify_q(5, ("GZ_F2",))
    assert r.passed and r.modulus == "[5]*Phi_5^2"
    for bad in (7, 3):  # needs n ≡ 1 (mod 4), n >= 5
        assert _skip_reason(bad, "gz-f2") == (
            f"GZ_F2 needs n ≡ 1 (mod 4), n >= 5, got n = {bad}"
        )


def test_verify_gz_needs_the_full_family_name():
    # norm_family only folds case and hyphens; no GZ_ prefix is added
    with pytest.raises(ValueError, match="unknown q-families"):
        verify_q(5, ("e2",))
    assert [r.family for r in verify_q(9)] == list(Q_FAMILIES)


def test_mod_squared_difference():
    # proved statement: the two sums agree mod [n] Phi_n^2
    for n in (5, 9):
        diff = coeff_tuple(poly(_sum_numerator(n, 1, 0)) - poly(_sum_numerator(n, 0, 1)))
        factors = [(d, 1) for d in sympy.divisors(n)[1:-1]] + [(n, 3)]
        den = dense_denominator(n)
        orders = {d: cyclotomic_multiplicity(den, d) for d, _ in factors}
        assert congruence_failure(diff, factors, orders) is None
        num, failure = _q_check(n, Q_FAMILIES["CONJ41"]._replace(phi_exp=2))
        assert num == diff and failure is None


def test_conj41_numerator_is_the_gz_difference():
    # e2 - f2 = (e2 - rhs) - (f2 - rhs): at every n where all three families
    # apply, the CONJ41 numerator is the GZ_E2 one minus the GZ_F2 one
    for n in range(5, 30, 4):
        rhs = _gz_rhs(n)
        gz_e2, gz_f2 = _sum_numerator(n, 1, 0, rhs), _sum_numerator(n, 0, 1, rhs)
        assert _sum_numerator(n, 1, -1) == coeff_tuple(poly(gz_e2) - poly(gz_f2)), n


def test_verify_conjecture41():
    [r] = verify_q(5, ("CONJ41",))
    assert r.passed and r.family == "CONJ41" and r.modulus == "[5]*Phi_5^3"
    assert verify_q(9, ("conj41",))[0].passed
    for bad in (1, 3, 7, 8):
        assert _skip_reason(bad, "CONJ41") == (
            f"CONJ41 needs n ≡ 1 (mod 4), n >= 5, got n = {bad}"
        )


def test_conjecture41_witness_payload():
    w = conjecture41_witness(5)
    assert w["n"] == 5
    assert poly_from_string(w["modulus"]) == coeff_tuple(q_int(5) * phi(5) ** 3)
    num = poly_from_string(w["difference_numerator"])
    den = poly_from_string(w["difference_denominator"])
    assert poly(num) == poly(_sum_numerator(5, 1, 0)) - poly(_sum_numerator(5, 0, 1))
    assert den == coeff_tuple(dense_denominator(5))
    assert w["remainder_certificate"] == ""  # passes, so no remainder
    assert w["cyclotomic_index"] is None and w["derivative_order"] is None


@pytest.mark.parametrize("n", [9, 21])
def test_conjecture41_witness_modulus(n):
    # [n] Phi_n^3 from its (1 - q^s) factors, against the sympy product
    want = q_int(n) * phi(n) ** 3
    assert poly_from_string(conjecture41_witness(n)["modulus"]) == coeff_tuple(want)


@pytest.mark.parametrize("n, d, j", [(5, 5, 3), (9, 3, 6)])
def test_conjecture41_witness_certificate_recomputed(monkeypatch, n, d, j):
    # break the difference numerator by + den * Phi_n^3.  For n = 9 the
    # first failing factor is Phi_3, at j = v_3(den) = 3 * #{j <= 8 : 3 | 4j}
    # = 6; for n = 5 it is Phi_5 itself, at j = 3
    numerator = qseries._sum_numerator

    def broken(k, *weights):
        return coeff_tuple(poly(numerator(k, *weights)) + dense_denominator(k) * phi(k) ** 3)

    monkeypatch.setattr(qseries, "_sum_numerator", broken)
    w = conjecture41_witness(n)
    assert (w["cyclotomic_index"], w["derivative_order"]) == (d, j)
    q = sympy.symbols("q")
    coeffs = [int(c) for c in w["difference_numerator"].split(",")]
    phi_d = sympy.Poly(sympy.cyclotomic_poly(d, q), q, domain="QQ")
    # N = A Phi_d^(j+1) + R: every derivative of A Phi_d^(j+1) of order <= j
    # is a multiple of Phi_d, so D^k N ≡ D^k R (mod Phi_d) for k <= j
    small = sympy.Poly(coeffs[::-1], q, domain="QQ").rem(phi_d ** (j + 1))

    def residue(k):  # diff(N, k) / k! rem Phi_d
        return (small.diff((q, k)) * sympy.Rational(1, math.factorial(k))).rem(phi_d)

    assert all(residue(k).is_zero for k in range(j))
    got = residue(j).all_coeffs()[::-1]
    assert tuple(int(c) for c in got) == poly_from_string(w["remainder_certificate"])
    assert w["remainder_certificate"] not in ("", "0")


def test_large_n_congruences():
    assert [(r.family, r.passed) for r in verify_q(29)] == [
        ("GZ_E2", True), ("GZ_F2", True), ("CONJ41", True)
    ]


@pytest.mark.parametrize("n, d, j", [(9, 3, 6), (21, 3, 18), (29, 29, 3)])
def test_perturbed_difference_fails_at_expected_factor(monkeypatch, n, d, j):
    # Phi_n^3 is not ≡ 0 mod [n] Phi_n^3, so diff + Phi_n^3 fails.  Phi_d
    # divides the denominator 3 * floor((n-1)/d) times for odd d | n, d < n;
    # the sum first fails at the smallest such d, at that order, or at
    # Phi_n itself (j = 3) when n is prime
    num, den = _sum_numerator(n, 1, -1), dense_denominator(n)
    conj41 = Q_FAMILIES["CONJ41"]
    assert _q_check(n, conj41) == (num, None)
    broken = coeff_tuple(poly(num) + den * phi(n) ** 3)
    monkeypatch.setattr(qseries, "_sum_numerator", lambda *args: broken)
    [r] = verify_q(n, ("CONJ41",))
    assert r.passed is False and r.lhs == "nonzero residue"
    got = _q_check(n, conj41)[1]
    assert got is not None and got[:2] == (d, j)
    assert got[2] and len(got[2]) < len(cyclotomic(d))
    # the same failure from the factor list and orders found independently;
    # den is a product of Phi_m with m <= 4(n-1), so root_order is exact
    factors = [(m, 1) for m in sympy.divisors(n)[1:-1]] + [(n, 4)]
    orders = {m: root_order(coeff_tuple(den), m, 4 * n) for m, _ in factors}
    assert congruence_failure(broken, factors, orders) == got


SHARP = [("GZ_E2", n) for n in range(5, 30, 2)] + [
    (fam, n) for fam in ("GZ_F2", "CONJ41") for n in range(5, 30, 4)
]


@pytest.mark.parametrize("family, n", SHARP)
def test_q_moduli_are_sharp(family, n):
    # one more power of any factor of the modulus breaks the congruence, at
    # the first derivative order past the ones the check reads: Phi_n at
    # exponent 2 + phi_exp fails at v_n + 1 + phi_exp, and each proper
    # divisor d > 1 at exponent 2 fails at v_d + 1
    f = Q_FAMILIES[family]
    num, failure = _q_check(n, f)
    assert failure is None
    v = _den_order(n, n)
    got = congruence_failure(num, [(n, 2 + f.phi_exp)], {n: v})
    assert got[:2] == (n, v + 1 + f.phi_exp)
    for d in _divisors(n)[1:-1]:
        v = _den_order(n, d)
        assert congruence_failure(num, [(d, 2)], {d: v})[:2] == (d, v + 1), d


def test_gz_e2_at_3_has_excess_order_4():
    # the one exception: at n = 3 the GZ_E2 numerator vanishes at Phi_3 to
    # order v_3 + 4, one more than the modulus [3] Phi_3^2 asks for
    num, failure = _q_check(3, Q_FAMILIES["GZ_E2"])
    v = _den_order(3, 3)
    assert failure is None
    assert congruence_failure(num, [(3, 4)], {3: v}) is None
    assert congruence_failure(num, [(3, 5)], {3: v})[:2] == (3, v + 4)


def test_gz_rhs_shape():
    # the closed form is ± q^((n-1)(n-3)/8) [n]; exponents 0,1,3,6 for n=3..9
    assert [(n - 1) * (n - 3) // 8 for n in (3, 5, 7, 9)] == [0, 1, 3, 6]
