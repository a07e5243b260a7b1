"""Integer polynomial algebra in q and the polynomial congruence checks."""

import math
from fractions import Fraction

import pytest
import sympy

from supercong import qseries
from supercong.qseries import (
    IntPoly,
    InternalNonExactDivision,
    RationalFunction,
    Q_FAMILIES,
    _den_order,
    _q_check,
    _sum_numerator,
    congruence_failure,
    conjecture41_witness,
    cyclotomic,
    lhs_e2_q,
    lhs_f2_q,
    q_integer,
    q_limit_term_check,
    q_pochhammer,
    verify_q,
)

from exact_oracle import poly_from_string
from gcd_oracle import cyclotomic_multiplicity, poly_gcd, pseudo_rem, reduce, root_order


# -- independent oracle helpers: dense Fraction-coefficient arithmetic

def _frac_divmod(num, den):
    num = [Fraction(c) for c in num.coeffs]
    den = [Fraction(c) for c in den.coeffs]
    out = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        q = num[-1] / den[-1]
        shift = len(num) - len(den)
        out[shift] = q
        for i, c in enumerate(den):
            num[shift + i] -= q * c
        num.pop()
    return out, num


def _divides_exactly(den, num):
    _, rem = _frac_divmod(num, den)
    return not any(rem)


def test_intpoly_basics():
    z = IntPoly.zero()
    assert z.is_zero and z.degree == float("-inf")
    one = IntPoly.one()
    assert one.degree == 0
    p = IntPoly((1, 2, 3))
    assert p.degree == 2 and p.lc == 3
    assert p.evaluate(2) == 1 + 4 + 12
    assert (p - p).is_zero
    assert (-p).coeffs == (-1, -2, -3)
    assert IntPoly((1, 0, 0)).coeffs == (1,)  # trailing zeros trimmed


def test_intpoly_mul_pow_shift():
    p = IntPoly((1, 1))  # 1 + q
    assert (p * p).coeffs == (1, 2, 1)
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert (3 * p).coeffs == (3, 3)
    assert p.shift(2).coeffs == (0, 0, 1, 1)
    assert (p * IntPoly.zero()).is_zero


def test_intpoly_pow_is_repeated_multiplication():
    for p in (IntPoly((1, 1)), IntPoly((2, 0, -1)), cyclotomic(12), IntPoly((-3,))):
        want = IntPoly.one()
        for e in range(6):
            assert p**e == want, (p, e)
            want = want * p
    with pytest.raises(ValueError):
        IntPoly((1, 1)) ** -1


def test_intpoly_is_immutable_value_type():
    p = IntPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert p == IntPoly((1, 2))
    assert hash(p) == hash(IntPoly((1, 2)))


def test_serialization_roundtrip():
    for coeffs in ((), (5,), (0, -3, 1), (1, 0, 0, 2)):
        p = IntPoly(coeffs)
        assert poly_from_string(p.to_string()) == p
    assert IntPoly.zero().to_string() == "0"
    assert poly_from_string("1,1,1") == q_integer(3)


def test_exact_div():
    num = IntPoly((-1, 0, 0, 0, 0, 0, 1))  # q^6 - 1
    den = IntPoly((-1, 0, 1))  # q^2 - 1
    assert num.exact_div(den).coeffs == (1, 0, 1, 0, 1)
    with pytest.raises(InternalNonExactDivision):
        IntPoly((1, 1)).exact_div(IntPoly((0, 1)))
    assert num.try_exact_div(IntPoly((0, 1))) is None


def test_pseudo_rem_degree_contract():
    f = IntPoly((3, 1, -2, 0, 7, 1))
    g = IntPoly((1, 4, 2))
    r = pseudo_rem(f, g)
    assert r.is_zero or r.degree < g.degree
    # oracle: same remainder up to a rational scalar
    _, rem = _frac_divmod(f, g)
    if any(rem):
        k = None
        for a, b in zip(r.coeffs, rem):
            if b != 0:
                k = Fraction(a) / b
                break
        assert all(Fraction(a) == k * b for a, b in zip(r.coeffs, rem))
    else:
        assert r.is_zero


def test_poly_gcd():
    a = IntPoly((-1, 1))  # q - 1
    b = IntPoly((1, 1))
    prod = a * b * IntPoly((2, 0, 2))
    assert poly_gcd(prod, a * IntPoly((3,))) == a
    # gcd of coprime polynomials is a constant
    assert poly_gcd(a, b).degree == 0
    # common content survives into the gcd
    assert poly_gcd(IntPoly((4,)), IntPoly((6,))) == IntPoly((2,))


def test_q_integer():
    assert q_integer(1) == IntPoly.one()
    assert q_integer(3).coeffs == (1, 1, 1)
    assert q_integer(7).evaluate(1) == 7
    with pytest.raises(ValueError):
        q_integer(0)


def test_q_pochhammer():
    assert q_pochhammer(1, 2, 0) == IntPoly.one()
    want = IntPoly((1, -1)) * IntPoly((1, 0, 0, -1))  # (1-q)(1-q^3)
    assert q_pochhammer(1, 2, 2) == want
    assert q_pochhammer(4, 4, 3).degree == 4 + 8 + 12


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_factorization():
    for n in range(1, 61):
        prod = IntPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,)), n


def test_cyclotomic_known_facts():
    for n in range(2, 40):
        assert cyclotomic(n).coeffs[0] == 1  # constant term 1 for n >= 2
    # value at 1: p at prime powers, else 1
    assert cyclotomic(9).evaluate(1) == 3
    assert cyclotomic(8).evaluate(1) == 2
    assert cyclotomic(15).evaluate(1) == 1
    # first index with a coefficient outside {-1, 0, 1}
    c = cyclotomic(105)
    assert c.degree == 48 and c.coeffs[7] == -2 and c.coeffs[41] == -2


def test_lhs_q_first_terms():
    for f in (lhs_e2_q, lhs_f2_q):
        r = f(1)
        assert r.num == IntPoly.one() and r.den == IntPoly.one()
    r = lhs_e2_q(2)
    hand = (IntPoly.one() - IntPoly.monomial(1, 4)) ** 3 - (
        q_integer(7) * (IntPoly.one() - IntPoly.monomial(1, 1)) ** 3
    ).shift(3)
    assert r.num == hand
    assert r.den == q_pochhammer(4, 4, 1) ** 3


def test_lhs_q_denominator_shape():
    for n in range(1, 18):
        assert lhs_e2_q(n).den == q_pochhammer(4, 4, n - 1) ** 3
        assert lhs_f2_q(n).den == q_pochhammer(4, 4, n - 1) ** 3


def test_den_order_is_the_multiplicity_in_the_denominator():
    # the closed form against the order of vanishing of ((q^4;q^4)_{n-1})^3
    # itself, built factor by factor, at a primitive d-th root of unity.  Its
    # factors are Phi_m with m <= 4(n-1) < 160, so root_order is exact
    den = IntPoly.one()
    for n in range(1, 41):
        if n > 1:
            den = den * (IntPoly.one() - IntPoly.monomial(1, 4 * (n - 1))) ** 3
        for d in range(1, 4 * (n - 1) + 1):
            assert _den_order(n, d) == root_order(den, d, 160), (n, d)


def test_rational_function_reduce():
    a = RationalFunction(IntPoly((-2, 0, 2)), IntPoly((2, 2)))  # 2(q^2-1)/2(q+1)
    r = reduce(a)
    assert r.num == IntPoly((-1, 1)) and r.den == IntPoly.one()
    # sign lands in the numerator; denominator keeps a positive lead
    b = reduce(RationalFunction(IntPoly((1, 1)), IntPoly((0, -1))))
    assert b.den.lc > 0
    assert b.num == IntPoly((-1, -1)) and b.den == IntPoly((0, 1))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(IntPoly.one(), IntPoly.zero())


def test_congruent_mod_worked_cases():
    phi3 = cyclotomic(3)
    # (q^6-1)/(q^2-1) = Phi_3 Phi_6, and Phi_3 does not divide q^2-1
    assert congruence_failure(IntPoly((-1, 0, 0, 0, 0, 0, 1)), [(3, 1)], {3: 0}) is None
    assert congruence_failure(IntPoly.one(), [(3, 1)], {3: 0}) is not None
    assert congruence_failure(phi3, [(3, 1)], {3: 0}) is None
    # Phi_3 / Phi_3 = 1: the denominator's Phi_3 takes the numerator's, and
    # the certificate is D^1 Phi_3 = 1 + 2q
    assert congruence_failure(phi3, [(3, 1)], {3: 1}) == (3, 1, IntPoly((1, 2)))


def test_congruent_mod_against_naive_oracle():
    # oracle: reduce to lowest terms, require gcd(den, M) constant and M | num
    def naive(a, m):
        r = reduce(a)
        if r.num.is_zero:
            return True
        if poly_gcd(r.den, m).degree > 0:
            return False
        return _divides_exactly(m, r.num)

    cases = []
    phi5 = cyclotomic(5)
    for num in (
        phi5 * IntPoly((1, 3)),
        phi5 * phi5,
        IntPoly((1, 1, 1)),
        q_integer(5) * cyclotomic(5) ** 2 * IntPoly((2, 1)),
        IntPoly((3,)),
    ):
        for den in (IntPoly.one(), IntPoly((1, 2)), IntPoly((2, 0, 1)), phi5):
            cases.append(RationalFunction(num, den))
    for m, factors in (
        (phi5, [(5, 1)]),
        (q_integer(5) * phi5**2, [(5, 3)]),
        (IntPoly((-1, 1)), [(1, 1)]),
    ):
        for a in cases:
            orders = {d: cyclotomic_multiplicity(a.den, d) for d, _ in factors}
            got = congruence_failure(a.num, factors, orders)
            assert (got is None) == naive(a, m), (a, m)


def test_congruent_mod_multiplier_invariance():
    import random

    rng = random.Random(7)
    m = q_integer(5) * cyclotomic(5) ** 2  # Phi_5^3
    num, den = m * IntPoly((2, -1, 3)), IntPoly((1, 0, 2))
    assert congruence_failure(num, [(5, 3)], {5: cyclotomic_multiplicity(den, 5)}) is None
    for _ in range(12):
        mult = IntPoly(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5))))
        if poly_gcd(mult, m).degree > 0 or mult.is_zero:
            continue
        orders = {5: cyclotomic_multiplicity(den * mult, 5)}
        assert congruence_failure(num * mult, [(5, 3)], orders) is None


def test_congruence_witness_nonzero_on_failure():
    w = congruence_failure(IntPoly((1, 1)), [(5, 1)], {5: 0})
    assert w is not None and not w[2].is_zero
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
        e2, f2 = lhs_e2_q(n), lhs_f2_q(n)
        factors = [(d, 1) for d in sympy.divisors(n)[1:-1]] + [(n, 3)]
        orders = {d: cyclotomic_multiplicity(e2.den, d) for d, _ in factors}
        assert congruence_failure(e2.num - f2.num, factors, orders) is None
        num, failure = _q_check(n, Q_FAMILIES["CONJ41"]._replace(phi_exp=2))
        assert num == e2.num - f2.num and failure is None


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
    assert poly_from_string(w["modulus"]) == q_integer(5) * cyclotomic(5) ** 3
    num = poly_from_string(w["difference_numerator"])
    den = poly_from_string(w["difference_denominator"])
    assert not den.is_zero
    e2, f2 = lhs_e2_q(5), lhs_f2_q(5)
    assert num == e2.num - f2.num and den == e2.den == f2.den
    assert w["remainder_certificate"] == ""  # passes, so no remainder
    assert w["cyclotomic_index"] is None and w["derivative_order"] is None


@pytest.mark.parametrize("n, d, j", [(5, 5, 3), (9, 3, 6)])
def test_conjecture41_witness_certificate_recomputed(monkeypatch, n, d, j):
    # break the difference numerator by + den * Phi_n^3.  For n = 9 the
    # first failing factor is Phi_3, at j = v_3(den) = 3 * #{j <= 8 : 3 | 4j}
    # = 6; for n = 5 it is Phi_5 itself, at j = 3
    numerator = qseries._sum_numerator

    def broken(k, *weights):
        return numerator(k, *weights) + q_pochhammer(4, 4, k - 1) ** 3 * cyclotomic(k) ** 3

    monkeypatch.setattr(qseries, "_sum_numerator", broken)
    w = conjecture41_witness(n)
    assert (w["cyclotomic_index"], w["derivative_order"]) == (d, j)
    q = sympy.symbols("q")
    coeffs = [int(c) for c in w["difference_numerator"].split(",")]
    num = sympy.Poly(coeffs[::-1], q, domain="QQ")
    phi = sympy.Poly(sympy.cyclotomic_poly(d, q), q, domain="QQ")

    def residue(k):  # diff(N, k) / k! rem Phi_d
        return (num.diff((q, k)) * sympy.Rational(1, math.factorial(k))).rem(phi)

    assert all(residue(k).is_zero for k in range(j))
    got = residue(j).all_coeffs()[::-1]
    assert IntPoly(int(c) for c in got) == poly_from_string(w["remainder_certificate"])
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
    num, den = _sum_numerator(n, 1, -1), lhs_e2_q(n).den
    conj41 = Q_FAMILIES["CONJ41"]
    assert _q_check(n, conj41) == (num, None)
    monkeypatch.setattr(qseries, "_sum_numerator",
                        lambda *args: num + den * cyclotomic(n) ** 3)
    [r] = verify_q(n, ("CONJ41",))
    assert r.passed is False and r.lhs == "nonzero residue"
    got = _q_check(n, conj41)[1]
    assert got is not None and got[:2] == (d, j)
    assert not got[2].is_zero and got[2].degree < cyclotomic(d).degree
    # the same failure from the factor list and orders found independently
    factors = [(m, 1) for m in sympy.divisors(n)[1:-1]] + [(n, 4)]
    orders = {m: cyclotomic_multiplicity(den, m) for m, _ in factors}
    assert congruence_failure(num + den * cyclotomic(n) ** 3, factors, orders) == got


def test_q_limit_term_check():
    assert q_limit_term_check(9, 0)
    assert q_limit_term_check(9, 1)
    assert q_limit_term_check(9, 2)
    assert q_limit_term_check(13, 5)
    # k = 1 by hand: both sides 7 * (1/2)^3 / 8 = 7/64
    assert (6 * 1 + 1) * Fraction(1, 2) ** 3 / 8 == Fraction(7, 64)


def test_gz_rhs_shape():
    # the closed form is ± q^((n-1)(n-3)/8) [n]; exponents 0,1,3,6 for n=3..9
    assert [(n - 1) * (n - 3) // 8 for n in (3, 5, 7, 9)] == [0, 1, 3, 6]
