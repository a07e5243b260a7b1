"""Property tests: the residue fast paths against independent exact oracles.

Euler residues, from the Euler tree and from the per-prime oracle, are
checked against exact Euler polynomials and against sympy's Euler numbers,
and the integer Euler-identity check against its Fraction loop in
exact_oracle; the residue sums, and every truncation read from one
remainder tree, against their exact Fraction sums; the per-prime oracle's
Pochhammer prefix against exact Pochhammer symbols;
the Pochhammer-quotient lemmas, read off their remainder trees, against
their exact Fraction evaluation (both sides at p <= 31, at the default
alphas and at edge alphas with zero factors and v_p(alpha + a) >= 2, the
right sides at every prime in [1900, 2000]), and the per-prime oracle's
factorial and harmonic residue tables entry by entry;
the root-of-unity congruence test against the gcd lowest-terms oracle, the
sparse q-sum construction against the dense one, and cyclotomic
polynomials against sympy.  The integer certificate-pair, telescope and
binomial-identity checks are compared with their Fraction loops in
wz_oracle, verdicts and exceptions alike.  sympy is a test-only dependency.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from supercong.padic import least_nonneg_residue
from supercong.primes import sieve_primes
from supercong.qseries import (
    _cube_denominator,
    _gz_rhs,
    _sum_numerator,
    congruence_failure,
    cyclotomic,
)
from supercong.records import PreconditionViolated
from supercong import sequences
from supercong.records import LEMMA_FAMILIES
from supercong.sequences import (
    _horner_halves,
    check_binomial_identities,
    check_euler_identities,
    pochhammer,
)
from supercong.verifier import (
    _euler_residues,
    _sums,
    verify_alpha,
    verify_primes,
)
from supercong.sweep import default_alphas
from supercong.wz import (
    DivisionByZeroTerm,
    _Table,
    _closed_form,
    check_pair,
    check_telescoped,
    telescoped_rhs,
)

import wz_oracle
import exact_oracle
from exact_oracle import (
    MAX_EXPONENT,
    _horner,
    _lemma_tables,
    _poch_prefix,
    _signed_inverse_cubes,
    alternating_reciprocal_squares,
    euler_number_mod,
    euler_poly_eval,
    euler_poly_eval_mod,
    harmonic,
    lemma_rhs_exact,
    reduce_mod,
    sum_main_exact,
    sum_mao_exact,
)
from gcd_oracle import (
    ZQ,
    coeff_tuple,
    congruent,
    cyclotomic_multiplicity,
    lhs_q_dense,
    phi,
    poly,
)

PROPS = settings(max_examples=150, deadline=None)

odd_primes_to_60 = st.sampled_from(sieve_primes(3, 60))
primes_to_31 = st.sampled_from(sieve_primes(3, 31))
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


def _mod(x: Fraction, m: int) -> int:
    # independent of exact_oracle.reduce_mod, and not capped at MAX_EXPONENT
    return x.numerator * pow(x.denominator, -1, m) % m


@PROPS
@given(p=odd_primes_to_60, data=st.data(), x=rationals)
def test_euler_poly_residue_matches_exact(p, data, x):
    assume(x.denominator % p)
    n = data.draw(st.integers(0, 3 * p), label="n")
    got = euler_poly_eval_mod(n, x, p).value
    assert got == reduce_mod(euler_poly_eval(n, x), p, 1).value


@PROPS
@given(p=odd_primes_to_60, data=st.data())
def test_euler_number_residue_matches_sympy(p, data):
    n = data.draw(st.integers(0, 3 * p), label="n")
    assert euler_number_mod(n, p).value == int(sympy.euler(n)) % p


@PROPS
@given(ps=st.lists(st.sampled_from(sieve_primes(5, 60)), min_size=1, max_size=4),
       data=st.data())
def test_euler_tree_matches_exact(ps, data):
    # E_{p-3}(r) mod p from one Euler tree over several primes, at any
    # residues 0 <= r < p
    wanted = {p: set(data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                        max_size=5), label=f"r{p}")) for p in ps}
    got = _euler_residues(wanted)
    assert set(got) == set(wanted)
    for p, rs in wanted.items():
        assert got[p] == {
            r: reduce_mod(euler_poly_eval(p - 3, Fraction(r)), p, 1).value for r in rs}


@PROPS
@given(a=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30),
       j=st.integers(-40, 40))
def test_horner_halves_is_the_scaled_half_value(a, j):
    n = len(a) - 1
    assert _horner_halves(a, j) == 2**n * _horner(tuple(a), Fraction(j, 2))


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(0, 30), m_max=st.integers(1, 12))
def test_euler_identities_match_fraction_oracle(n_max, m_max):
    want = exact_oracle.check_euler_identities(n_max, m_max)
    assert check_euler_identities(n_max, m_max) == want


@pytest.mark.parametrize(
    "n_max, m_max, index, degree",
    [
        (12, 6, 9, 3),  # E_9 is read only by the reflection checks
        (4, 8, 7, 1),  # E_7 is read only by the power sums
        (12, 6, 8, 0),  # E_8(0) = 0 is one of the vanishing checks
    ],
)
def test_euler_identities_catch_a_perturbed_coefficient(
    monkeypatch, n_max, m_max, index, degree
):
    good = sequences.euler_poly_coeffs

    def perturbed(n):
        c = list(good(n))
        if n == index:
            c[degree] += 1
        return tuple(c)

    assert check_euler_identities(n_max, m_max)
    assert exact_oracle.check_euler_identities(n_max, m_max)
    monkeypatch.setattr(sequences, "euler_poly_coeffs", perturbed)
    assert not check_euler_identities(n_max, m_max)
    assert not exact_oracle.check_euler_identities(n_max, m_max)


@PROPS
@given(p=primes_to_31, data=st.data(), alpha=rationals,
       e=st.integers(1, MAX_EXPONENT))
def test_sum_main_matches_exact(p, data, alpha, e):
    assume(alpha.denominator % p)
    M = data.draw(st.integers(0, p - 1), label="M")
    [got] = _sums(alpha, {p: (M,)})[p]
    assert got % p**e == _mod(sum_main_exact(alpha, M), p**e)


@PROPS
@given(p=primes_to_31, data=st.data(), e=st.integers(1, MAX_EXPONENT))
def test_sum_mao_matches_exact(p, data, e):
    M = data.draw(st.integers(0, p - 1), label="M")
    [got] = _sums(None, {p: (M,)})[p]
    assert got % p**e == _mod(sum_mao_exact(M), p**e)


@PROPS
@given(p=primes_to_31, data=st.data(), alpha=rationals)
def test_checkpoints_match_exact(p, data, alpha):
    # one tree, read at several truncations (in any order, repeats
    # allowed), gives each truncated sum
    assume(alpha.denominator % p)
    Ms = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6),
                         label="Ms"))
    m = p**4
    assert list(_sums(alpha, {p: Ms})[p]) == [
        _mod(sum_main_exact(alpha, M), m) for M in Ms]
    assert list(_sums(None, {p: Ms})[p]) == [_mod(sum_mao_exact(M), m) for M in Ms]


@PROPS
@given(p=st.sampled_from(sieve_primes(5, 23)), alpha=rationals)
def test_tail_record_matches_exact_tail(p, alpha):
    assume(alpha.denominator % p)
    a = least_nonneg_residue(-alpha, p)
    [rec] = verify_alpha(alpha, p, ("TAIL",))
    if a == p - 1:
        assert rec.passed is None
        assert rec.reason == (
            f"<-alpha>_p = p-1 for alpha = {alpha}, p = {p}: tail is empty"
        )
        return
    tail = sum(
        (
            (-1) ** k * (2 * k + alpha) * pochhammer(alpha, k) ** 3
            / math.factorial(k) ** 3
            for k in range(a + 1, p)
        ),
        Fraction(0),
    )
    assert rec.lhs.value == _mod(tail, p**4)
    assert rec.passed


def _lemma_exact(fam: str, alpha: Fraction, p: int) -> tuple[int, int]:
    """A lemma record's (lhs, rhs) mod p^4 from exact Fraction Pochhammer
    products, factorials and harmonic sums, raising the error whose text
    verify_alpha gives as the skip reason."""
    if p <= 3:
        raise PreconditionViolated(f"needs p > 3, got p = {p}")
    a = least_nonneg_residue(-alpha, p)
    poch = [Fraction(1)]  # (alpha)_j for j = 0..2p-1
    for j in range(2 * p - 1):
        poch.append(poch[-1] * (alpha + j))
    fact = math.factorial
    fpm1 = Fraction(fact(p - 1))

    def weighted_sum(ks):
        return sum(
            ((-1) ** k * poch[p + k - 1] / (fact(p - k) * poch[k] ** 2) for k in ks),
            Fraction(0),
        )

    if fam == "LEMMA_WZPROD":
        if a == 0:
            raise PreconditionViolated(f"alpha = {alpha} ≡ 0 (mod {p})")
        lhs = poch[2 * p - 1] / fpm1**2
    elif fam == "LEMMA_ALPHAP3":
        lhs = poch[p] ** 3 / fpm1**3
    elif fam == "LEMMA_SIGMA1":
        if a == 0:
            raise PreconditionViolated(f"alpha = {alpha} ≡ 0 (mod {p})")
        if poch[a] == 0:
            raise DivisionByZeroTerm(
                f"(alpha)_k = 0 for some k <= {a} at alpha = {alpha}"
            )
        lhs = poch[p] ** 2 / fpm1**2 * weighted_sum(range(1, a + 1))
    elif fam == "LEMMA_PROD":
        if poch[a + 1] == 0:
            raise DivisionByZeroTerm(
                f"(alpha)_{a + 1} = 0 at alpha = {alpha} (p = {p})"
            )
        lhs = poch[p] ** 2 * poch[p + a] / (
            fpm1**2 * fact(p - a - 1) * poch[a + 1] ** 2
        )
    else:  # LEMMA_SIGMA
        if a > p - 2:
            raise PreconditionViolated(f"a = p-1 violates a <= p-2 (alpha = {alpha})")
        if poch[p - 1] == 0:
            raise DivisionByZeroTerm(
                f"(alpha)_k = 0 for some k <= {p - 1} at alpha = {alpha}"
            )
        lhs = poch[p] ** 2 / fpm1**2 * weighted_sum(range(a + 2, p))
    return _mod(lhs, p**4), _mod(lemma_rhs_exact(fam, alpha, p), p**4)


def _lemma_alphas(p: int):
    """p-integral alphas, including ones with v_p(t) >= 1, v_p(t+1) >= 1
    (alpha + a = p*t) and the nonpositive integers that zero a factor."""
    u = rationals.filter(lambda x: x.denominator % p != 0)
    a = st.integers(0, p - 1)
    return st.one_of(
        u,
        st.builds(lambda u, a: p * p * u - a, u, a),
        st.builds(lambda u, a: p * p * u - p - a, u, a),
        st.integers(-2 * p, 0).map(Fraction),
    )


@PROPS
@given(fam=st.sampled_from(LEMMA_FAMILIES), p=primes_to_31, data=st.data())
def test_lemma_matches_exact_oracle(fam, p, data):
    alpha = data.draw(_lemma_alphas(p), label="alpha")
    [rec] = verify_alpha(alpha, p, (fam,))
    try:
        lhs, rhs = _lemma_exact(fam, alpha, p)
    except (PreconditionViolated, DivisionByZeroTerm) as exc:
        assert rec.passed is None and rec.reason == str(exc)
        return
    assert (rec.lhs.value, rec.rhs.value) == (lhs, rhs)
    assert rec.passed == (lhs == rhs)


# zero factors, v_p(alpha + a) >= 2 at some p (25 and -25 at 5, 49 at 7,
# 169/2 at 13, 121/3 at 11) and two plain fractions
EDGE_ALPHAS = tuple(Fraction(x) for x in (
    "0", "-1", "-3", "-13", "-30", "-125", "25", "-25", "49", "169/2", "121/3",
    "-7/2", "7/3"))


@pytest.mark.parametrize("p", sieve_primes(5, 23))
def test_lemma_records_match_exact_at_edge_and_default_alphas(p):
    # every lemma record from the trees at one job, against the Fractions
    alphas = tuple(a for a in dict.fromkeys(default_alphas(p) + list(EDGE_ALPHAS))
                   if a.denominator % p)
    rows, _ = verify_primes(((p, LEMMA_FAMILIES, alphas),))
    assert len(rows) == len(LEMMA_FAMILIES) * len(alphas)
    for fam, _, lhs, rhs, passed, _, _, alpha, _, reason in rows:
        try:
            want = _lemma_exact(fam, alpha, p)
        except (PreconditionViolated, DivisionByZeroTerm) as exc:
            assert passed is None and reason == str(exc), (fam, alpha)
            continue
        assert (lhs.value, rhs.value) == want and passed, (fam, alpha)


@PROPS
@given(p=primes_to_31, data=st.data())
def test_poch_prefix_matches_exact(p, data):
    # p^(e_j) u_j ≡ (alpha)_j (mod p^4) for j <= 2p-1, e_j = v0 [j > a]
    # + v1 [j > a+p], a = <-alpha>_p and alpha + a = p*t; p^5 - 1 has
    # t = p^4 ≡ 0 (mod p^4) without a zero factor
    alpha = data.draw(st.one_of(_lemma_alphas(p), st.just(Fraction(p**5 - 1))),
                      label="alpha")
    m, n = p**4, 2 * p - 1
    u, v0, v1, a, t = _poch_prefix(alpha, p, n)
    assert a == least_nonneg_residue(-alpha, p)
    assert t == _mod((alpha + a) / p, m)
    assert len(u) == n + 1
    for j in range(n + 1):
        e = v0 * (j > a) + v1 * (j > a + p)
        assert p**e * u[j] % m == _mod(pochhammer(alpha, j), m), j


@PROPS
@given(p=st.sampled_from(sieve_primes(2, 31)))
def test_prime_tables_match_exact(p):
    m = p**4
    fact, h1, h2, alt2 = _lemma_tables(p)
    sinv3 = _signed_inverse_cubes(p)  # the oracle's own table
    assert len(fact) == len(h1) == len(h2) == len(alt2) == len(sinv3) == p
    for j in range(p):
        assert fact[j] == math.factorial(j) % m, j
        assert h1[j] == _mod(harmonic(j), m), j
        assert h2[j] == _mod(harmonic(j, 2), m), j
        assert alt2[j] == _mod(alternating_reciprocal_squares(j), m), j
        assert sinv3[j] == _mod(Fraction((-1) ** j, math.factorial(j) ** 3), m), j


@pytest.mark.parametrize("p", sieve_primes(1900, 2000))
def test_lemma_right_sides_match_exact_near_2000(p):
    # only the right sides: the exact left sides are too slow at this size
    for alpha in default_alphas(p):
        a = least_nonneg_residue(-alpha, p)
        for rec in verify_alpha(alpha, p, LEMMA_FAMILIES):
            if rec.family == "LEMMA_SIGMA" and a == p - 1:
                assert rec.passed is None, rec
                continue
            want = reduce_mod(lemma_rhs_exact(rec.family, alpha, p), p, 4).value
            assert rec.rhs.value == want, rec
            assert rec.passed, rec


def test_cyclotomic_matches_sympy():
    for n in range(1, 201):
        assert cyclotomic(n) == coeff_tuple(phi(n)), n


small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda cs: ZQ.from_list(cs[::-1]))


@st.composite
def congruence_cases(draw):
    """(N, D, [(d, e), ...]) in sympy's ZZ[q] for the modulus prod Phi_d^e,
    d increasing, and each Phi_d in N with a multiplicity on either side of
    the threshold v_d(D) + e."""
    num = draw(small_polys)
    lead = draw(st.sampled_from((-2, -1, 1, 2)))
    den = ZQ.from_list([lead] + draw(st.lists(st.integers(-3, 3), max_size=3))[::-1])
    factors = []
    for d in sorted(draw(st.lists(st.integers(1, 12), max_size=3, unique=True))):
        e = draw(st.integers(1, 3))
        v = draw(st.integers(0, 2))
        u = max(0, v + e + draw(st.integers(-2, 1)))
        factors.append((d, e))
        den, num = den * phi(d) ** v, num * phi(d) ** u
    # a denominator factor that may or may not be shared with the modulus
    den = den * phi(draw(st.integers(1, 12))) ** draw(st.integers(0, 2))
    return num, den, factors


@PROPS
@given(case=congruence_cases())
def test_congruence_matches_gcd_oracle(case):
    num, den, factors = case
    m = ZQ(1)
    for d, e in factors:
        m = m * phi(d) ** e
    want = congruent(num, den, m)
    event("congruent" if want else "not congruent")
    orders = {d: cyclotomic_multiplicity(den, d) for d, _ in factors}
    failure = congruence_failure(coeff_tuple(num), factors, orders)
    assert (failure is None) == want
    if failure is not None:
        d, j, r = failure
        assert d in dict(factors)
        assert r and r[-1] and len(r) <= phi(d).degree()


WEIGHTS = {"e2": (1, 0), "f2": (0, 1), "e2-f2": (1, -1), "gz-e2": (1, 0), "gz-f2": (0, 1)}


@pytest.mark.parametrize("kind", list(WEIGHTS))
def test_lhs_q_matches_dense_construction(kind):
    # the one-pass numerator of e2, f2, e2 - f2 and of each GZ sum minus its
    # right side (odd n), against the dense sums over the same denominator
    for n in range(1, 18, 2 if kind.startswith("gz") else 1):
        (e2, den), (f2, _) = lhs_q_dense(n, "e2"), lhs_q_dense(n, "f2")
        rhs = _gz_rhs(n) if kind.startswith("gz") else ()
        want = {
            "e2": e2,
            "f2": f2,
            "e2-f2": e2 - f2,
            "gz-e2": e2 - poly(rhs) * den,
            "gz-f2": f2 - poly(rhs) * den,
        }[kind]
        assert _sum_numerator(n, *WEIGHTS[kind], rhs) == coeff_tuple(want), n
        assert _cube_denominator(n) == coeff_tuple(den), n


def _outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# ±r/d with r, d <= 9 (r = 0 is the pole alpha = 0), and nonpositive
# integers whose first pole (alpha)_k = 0, at k = 1 - alpha, falls inside
# or beyond the k-range drawn with them
wz_alphas = st.one_of(
    st.builds(
        lambda s, r, d: Fraction(s * r, d),
        st.sampled_from((1, -1)), st.integers(0, 9), st.integers(1, 9),
    ),
    st.integers(-40, 0).map(Fraction),
)


@PROPS
@given(
    n_max=st.integers(0, 12),
    k_max=st.integers(0, 16),
    alphas=st.lists(wz_alphas, min_size=1, max_size=2),
)
def test_check_pair_matches_fraction_oracle(n_max, k_max, alphas):
    # rows n >= 1 read G(n, k) carried over from row n - 1
    event("carried rows" if n_max >= 1 and k_max >= 1 else "no carried row")
    event("k_max > n_max + 1" if k_max > n_max + 1 else "k_max <= n_max + 1")
    want = _outcome(wz_oracle.check_pair, n_max, k_max, alphas)
    event("raises" if want is not True else "passes")
    assert _outcome(check_pair, n_max, k_max, alphas) == want


@PROPS
@given(n=st.integers(0, 12), data=st.data(), alpha=wz_alphas)
def test_eval_f_g_match_fraction_oracle(n, data, alpha):
    # F(n, k) and G(n + 1, k) as check_pair forms them, k <= n + 1: each
    # pair has the oracle's value, or a zero denominator where the oracle
    # raises for a pole
    k = data.draw(st.integers(0, n + 1), label="k")
    t = _Table(alpha, 2 * n + 1)
    points = [(wz_oracle.G, wz_oracle.eval_G, n + 1)]
    if k <= n:
        points.append((wz_oracle.F, wz_oracle.eval_F, n))
    for ours, oracle, m in points:
        num, den = ours(t, m, k)
        try:
            want = oracle(m, k, alpha)
        except DivisionByZeroTerm:
            assert den == 0
        else:
            assert Fraction(num, den) == want


@PROPS
@given(N=st.integers(-1, 16), alpha=wz_alphas)
def test_telescope_matches_fraction_oracle(N, alpha):
    # check_telescoped(N) runs the oracle's check at M = 1..N in turn, from
    # one table: it gives the first outcome that is not True (False, or the
    # pole error at that M), else True
    want = _outcome(wz_oracle.check_telescoped, N, alpha)
    if N < 1:
        assert _outcome(check_telescoped, N, alpha) == (
            ValueError, f"n_max must be >= 1, got {N}")
    else:
        every = (_outcome(wz_oracle.check_telescoped, M, alpha) for M in range(1, N))
        first = next((x for x in every if x is not True), want)
        assert _outcome(check_telescoped, N, alpha) == first
    assert _outcome(telescoped_rhs, N, alpha) == _outcome(
        wz_oracle.telescoped_rhs, N, alpha
    )
    if want is True:
        # the closed form against its Fraction, over a denominator that also
        # brings the partial sum to an integer (the carried side check_telescoped
        # compares), from a table that reaches just far enough or further
        partial = sum(
            (wz_oracle.eval_F(k, 0, alpha) for k in range(N)), Fraction(0)
        )
        for m in (2 * N - 1, 2 * N + 7):
            rhs, den = _closed_form(N, _Table(alpha, m))
            assert (partial * den).denominator == 1
            assert Fraction(rhs, den) == wz_oracle.telescoped_rhs(N, alpha)


@PROPS
@given(n=st.integers(-2, 60))
def test_binomial_identities_match_fraction_oracle(n):
    assert _outcome(check_binomial_identities, n) == _outcome(
        wz_oracle.check_binomial_identities, n
    )
