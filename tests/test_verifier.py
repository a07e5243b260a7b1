"""Congruence verification: sums, theorem families, lemmas."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from supercong import verifier
from supercong.padic import (
    NotPAdicIntegral,
    is_p_integral,
    least_nonneg_residue,
)
from supercong.primes import sieve_primes
from supercong.records import (
    ALPHA_FAMILIES,
    FAMILIES,
    LEMMA_FAMILIES,
    MAO_VARIANTS,
    PHASES,
    PRIME_FAMILIES,
    InternalError,
    admits,
)
from supercong.sequences import pochhammer
from supercong.sweep import RATIONAL_ALPHAS, default_alphas
from supercong.verifier import (
    _a_t,
    _closed_form,
    _sums,
    ramanujan_partial,
    verify_alpha,
    verify_prime,
    verify_primes,
)
from supercong.wz import telescoped_rhs

from exact_oracle import (
    euler_number,
    euler_number_mod,
    euler_poly_eval,
    euler_poly_eval_mod,
    harmonic,
    reduce_mod,
    sum_main_exact,
    sum_main_mod,
    sum_mao_exact,
)


def _sum_main(alpha, M, p, e=4):
    # S(alpha, M) mod p^e from the verifier's remainder tree at one prime
    return _sums(alpha, {p: (M,)})[p][0] % p**e


def _sum_mao(M, p):
    # the 8^(-k) sum to M mod p^4, likewise
    return _sums(None, {p: (M,)})[p][0]


def _one(fam, alpha, p):
    # the record of one alpha family at (alpha, p)
    [rec] = verify_alpha(alpha, p, (fam,))
    return rec


def _theorem(fam, p, truncation):
    # the record of one classical family at one prime and truncation
    [rec] = verify_prime(p, (fam,), (truncation,))
    return rec


def _mao(p, variant):
    # the record of one MAO variant at one prime
    [rec] = verify_prime(p, (variant,))
    return rec


def test_sum_main_exact_small():
    assert sum_main_exact(Fraction(1, 3), 0) == Fraction(1, 3)
    assert sum_main_exact(Fraction(1, 3), 2) == Fraction(644, 2187)
    assert 3 * sum_main_exact(Fraction(1, 3), 2) == Fraction(644, 729)
    assert sum_main_exact(Fraction(0), 5) == 0


def test_sum_main_residue_matches_exact():
    for p in (5, 7, 11, 13):
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2)):
            for M in (0, 1, 3, p - 1):
                want = reduce_mod(sum_main_exact(a, M), p, 4).value
                assert _sum_main(a, M, p) == want


def test_sum_main_weight_one_telescopes_to_p():
    # alpha = 1 collapses to sum (-1)^k (2k+1) = p over k < p
    for p in (5, 7, 11, 23):
        assert _sum_main(Fraction(1), p - 1, p) == p


def test_sum_main_validates():
    # the tree refuses an alpha with p in its denominator
    with pytest.raises(NotPAdicIntegral):
        _sum_main(Fraction(1, 5), 2, 5)


def test_scaling_identity_per_summand():
    # d * S(1/d) reproduces the (2dk+1)-weighted series term by term
    for d in (2, 3, 4):
        a = Fraction(1, d)
        for M in (0, 1, 4):
            direct = sum(
                Fraction(-1) ** k
                * (2 * d * k + 1)
                * pochhammer(a, k) ** 3
                / math.factorial(k) ** 3
                for k in range(M + 1)
            )
            assert d * sum_main_exact(a, M) == direct


def test_sum_mao_matches_exact():
    for p in (5, 7, 13):
        for M in (0, 2, p - 1):
            want = reduce_mod(sum_mao_exact(M), p, 4).value
            assert _sum_mao(M, p) == want


def test_golden_short_truncation_instance():
    # p = 7: three-term weighted sum is 644/729 and misses the closed form
    # by exactly -5 * 7^4 / 729
    lhs = 3 * sum_main_exact(Fraction(1, 3), 2)
    assert lhs == Fraction(644, 729)
    rhs = 7 + Fraction(7**3, 9) * euler_poly_eval(4, Fraction(1, 3))
    assert rhs == Fraction(12649, 729)
    assert lhs - rhs == Fraction(-5 * 7**4, 729)


def test_golden_weight_four_p5():
    # p = 5, (4k+1) weights: short sum 435/512, defect -17 * 5^3 / 512
    lhs = 2 * sum_main_exact(Fraction(1, 2), 2)
    assert lhs == Fraction(435, 512)
    assert lhs - 5 == Fraction(-2125, 512)
    assert 2125 == 17 * 5**3
    # full sum still matches mod 5^3 but the mod-5^4 defect needs E_2 = -1
    full = 2 * sum_main_exact(Fraction(1, 2), 4)
    assert full == Fraction(1678635, 2097152)
    rhs4 = 5 * (-1) ** 2 + 5**3 * euler_number(2)
    d = full - rhs4
    assert d.numerator % 5**4 == 0 and d.denominator % 5 != 0


def test_every_family_passes_first_prime():
    first = {
        "B2": 5, "E2": 7, "F2": 5, "SW_E2": 5, "SW_F2": 7,
        "E2_MOD4": 7, "F2_MOD4": 5, "SW_E2_MOD4": 5, "SW_F2_MOD4": 7,
        "SUN_B2": 5,
    }
    assert set(first) == set(FAMILIES)
    for fam, p in first.items():
        for tr in ("short", "full"):
            r = _theorem(fam, p, tr)
            assert r.passed, (fam, p, tr)
            assert r.lhs == r.rhs
            assert r.family == fam and r.p == p and r.truncation == tr


# The first prime above 2000 in each residue class a family needs.  Each
# needs E_{p-3} mod p at p > 2000, which the O(p) power sum makes cheap.
_LARGE_P_CASES = [
    (fam, sieve_primes(2000, 2100, f.p_mod, f.p_res)[0])
    for fam, f in FAMILIES.items()
    if f.modulus_exp == 4
]


@pytest.mark.parametrize("fam,p", _LARGE_P_CASES)
def test_mod_p4_families_pass_above_2000(fam, p):
    for tr in ("short", "full"):
        r = _theorem(fam, p, tr)
        assert r.passed and r.modulus == f"{p}^4", (fam, p, tr)


@pytest.mark.parametrize("p", [2003, 2017])
def test_mao_half_and_main1_pass_above_2000(p):
    assert _mao(p, "MAO_HALF").passed
    for rec in verify_alpha(Fraction(-5, 7), p, ("MAIN1", "MAIN1_TRUNC")):
        assert rec.passed, rec


@pytest.mark.parametrize("p", [1009, 2003])
def test_lemma_families_pass_above_1000(p):
    # p^3/2 - 1 has a = 1 and t = p^2/2, so v_p(t) = 2; p^5 - 1 has a = 1 and
    # t = p^4, which is 0 mod p^4 but zeroes no factor
    for alpha in (*RATIONAL_ALPHAS, Fraction(p**3, 2) - 1, Fraction(p**5 - 1)):
        for rec in verify_alpha(alpha, p, LEMMA_FAMILIES):
            assert rec.passed, rec


def test_verify_theorem_record_fields():
    r = _theorem("E2_MOD4", 7, "short")
    assert r.passed is True
    assert r.modulus == "7^4"
    assert int(r.lhs) == int(r.rhs)


def test_verify_theorem_name_normalization():
    r = _theorem("e2-mod4", 7, "short")
    assert r.passed and r.family == "E2_MOD4"
    assert _theorem("sun_b2", 5, "short").passed
    assert _mao(7, "mao-half").family == "MAO_HALF"
    with pytest.raises(ValueError):
        verify_prime(7, ("MAIN1",))
    with pytest.raises(ValueError):
        verify_prime(7, ("B2",), ("half",))


def test_verify_theorem_residue_condition():
    # a prime outside the family's residue class skips, with the reason
    for fam, p, cls in (
        ("E2_MOD4", 5, "1 (mod 3)"),
        ("F2_MOD4", 7, "1 (mod 4)"),
        ("SW_F2_MOD4", 5, "3 (mod 4)"),
    ):
        for tr in ("short", "full"):
            r = _theorem(fam, p, tr)
            assert r.passed is None and r.truncation == tr
            assert r.reason == f"{fam} needs p ≡ {cls}, got p = {p}"


def test_verify_theorem_small_p_rejected():
    for p in (2, 3):
        r = _theorem("B2", p, "full")
        assert r.passed is None and r.reason == f"B2 needs p > 3, got p = {p}"


def _sign(j):
    return -1 if j % 2 else 1


THIRD, QUARTER = Fraction(1, 3), Fraction(1, 4)

# The paper's ten families, written out from the README table: weight d,
# stated short truncation, the mod-p^3 right side, and the mod-p^4
# correction (c, x) meaning p^3 c E_{p-3}(x), with x = None for the Euler
# number E_{p-3}.
PAPER_FAMILIES = {
    "B2": (2, lambda p: (p - 1) // 2, lambda p: p * _sign((p - 1) // 2), None),
    "E2": (3, lambda p: (p - 1) // 3, lambda p: p, None),
    "F2": (4, lambda p: (p - 1) // 4, lambda p: p * _sign((p - 1) // 4), None),
    "SW_E2": (3, lambda p: (2 * p - 1) // 3, lambda p: -2 * p, None),
    "SW_F2": (4, lambda p: (3 * p - 1) // 4,
              lambda p: 3 * p * _sign((3 * p - 1) // 4), None),
    "E2_MOD4": (3, lambda p: (p - 1) // 3, lambda p: p,
                (Fraction(1, 9), THIRD)),
    "F2_MOD4": (4, lambda p: (p - 1) // 4, lambda p: p * _sign((p - 1) // 4),
                (Fraction(1, 16), QUARTER)),
    "SW_E2_MOD4": (3, lambda p: (2 * p - 1) // 3, lambda p: -2 * p,
                   (Fraction(8, 9), THIRD)),
    "SW_F2_MOD4": (4, lambda p: (3 * p - 1) // 4,
                   lambda p: 3 * p * _sign((3 * p - 1) // 4),
                   (Fraction(27, 16), QUARTER)),
    "SUN_B2": (2, lambda p: (p - 1) // 2, lambda p: p * _sign((p - 1) // 2),
               (Fraction(1), None)),
}


def _paper_correction(corr, p):
    c, x = corr
    ev = euler_number_mod(p - 3, p) if x is None else euler_poly_eval_mod(p - 3, x, p)
    return p**3 * (reduce_mod(c, p, 1).value * ev.value % p)


@pytest.mark.parametrize("fam", sorted(PAPER_FAMILIES))
def test_classical_records_match_paper_right_sides(fam):
    # the closed form at alpha = 1/d must reproduce each family's stated
    # truncation and right side, at every qualifying p < 1000, at both
    # truncations, at the family's own exponent (a mod-p^4 family's mod-p^3
    # case is its twin's, see the next test)
    d, short_m, base, corr = PAPER_FAMILIES[fam]
    f = FAMILIES[fam]
    assert f.weight_d == d
    assert (f.modulus_exp == 4) == (corr is not None)
    e = f.modulus_exp
    primes = sieve_primes(5, 999, f.p_mod, f.p_res)
    assert len(primes) > 70
    for p in primes:
        assert f.short_m(p) == short_m(p)
        m = p**e
        want = base(p) % m
        if e == 4:
            want = (want + _paper_correction(corr, p)) % m
        for tr, M in (("short", short_m(p)), ("full", p - 1)):
            rec = _theorem(fam, p, tr)
            assert rec.modulus == f"{p}^{e}"
            assert rec.rhs.value == want, (fam, p, tr)
            assert rec.lhs.value == d * _sum_main(Fraction(1, d), M, p, e) % m
            assert rec.passed, (fam, p, tr)


# each mod-p^4 family and the mod-p^3 family it sharpens
TWINS = {"E2_MOD4": "E2", "F2_MOD4": "F2", "SW_E2_MOD4": "SW_E2",
         "SW_F2_MOD4": "SW_F2", "SUN_B2": "B2"}


@pytest.mark.parametrize("fam4", sorted(TWINS))
def test_mod_p4_family_reduced_mod_p3_is_its_twin(fam4):
    # the mod-p^3 statements of the mod-p^4 families are the five mod-p^3
    # families: same sum, same primes, same sides mod p^3
    assert sorted([*TWINS, *TWINS.values()]) == sorted(FAMILIES)
    f4, f3 = FAMILIES[fam4], FAMILIES[TWINS[fam4]]
    assert (f4.modulus_exp, f3.modulus_exp) == (4, 3)
    assert (f4.weight_d, f4.p_mod, f4.p_res) == (f3.weight_d, f3.p_mod, f3.p_res)
    for p in sieve_primes(5, 999, f4.p_mod, f4.p_res):
        m = p**3
        for tr in ("short", "full"):
            r4, r3 = verify_prime(p, (f4.name, f3.name), (tr,))
            assert r3.modulus == f"{p}^3"
            assert (r4.lhs.value % m, r4.rhs.value % m) == (
                r3.lhs.value, r3.rhs.value
            ), (fam4, p, tr)


# The primes p <= 1999 at which the p^3 Euler term of a mod-p^4 family
# vanishes mod p: E_{p-3} ≡ E_{p-3}(1/2) ≡ 0 at 149 and 241, E_{p-3}(1/4) ≡ 0
# at 1019; E_{p-3}(1/3) never.
EULER_ZERO_PRIMES = {
    "E2_MOD4": set(), "F2_MOD4": set(), "SW_E2_MOD4": set(),
    "SW_F2_MOD4": {1019}, "SUN_B2": {149, 241},
    "MAO_HALF": {1019}, "SUN_HALF_CONJ": {149, 241},
}


def _without_euler_term(fam: str, p: int) -> int:
    # the family's right side without its p^3 Euler term, from the paper:
    # (-1)^a r p for the sums at 1/d, where a = <-1/d>_p and 1 + a d = r p,
    # and (-2/p) p for the 8^(-k) sums
    if fam in FAMILIES:
        d = FAMILIES[fam].weight_d
        a = -pow(d, -1, p) % p
        r, rest = divmod(1 + a * d, p)
        assert rest == 0
        return (-1) ** a * r * p
    return (1 if p % 8 in (1, 3) else -1) * p


def test_mod_p4_families_fail_without_their_euler_term():
    # a sharpness control: each mod-p^4 statement says more than its
    # mod-p^3 twin, so the sum is ≡ the right side less its Euler term
    # exactly at the primes where that term vanishes mod p
    checked = set()
    for p in sieve_primes(5, 1999):
        fams = tuple(f for f in EULER_ZERO_PRIMES if admits(f, p))
        for rec in verify_prime(p, fams):
            assert rec.passed and rec.modulus == f"{p}^4", rec
            weak = _without_euler_term(rec.family, p) % p**4
            assert (rec.lhs.value - weak) % p**3 == 0, (rec.family, p)
            assert (rec.lhs.value == weak) == (p in EULER_ZERO_PRIMES[rec.family]), (
                rec.family, p, rec.truncation)
            checked.add((rec.family, p))
    assert {(f, p) for f, ps in EULER_ZERO_PRIMES.items() for p in ps} <= checked


def test_p_cubed_times_residue_truncation():
    # p^3 * (x mod p) ≡ p^3 * x (mod p^4): the closed forms only ever need
    # their Euler factor mod p
    for p in (5, 7, 13):
        for x in (0, 1, 7, 123456, -5):
            assert (p**3 * (x % p) - p**3 * x) % p**4 == 0


def test_verify_main1_full_and_short():
    for p in (5, 7, 13):
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 6), Fraction(3)):
            assert _one("MAIN1", a, p).passed
            assert _one("MAIN1_TRUNC", a, p).passed


def test_verify_main1_alpha_zero_trivial():
    r = _one("MAIN1", Fraction(0), 7)
    assert r.passed and int(r.lhs) == 0 and int(r.rhs) == 0


def test_verify_main1_records():
    r = _one("MAIN1_TRUNC", Fraction(1, 3), 7)
    assert r.family == "MAIN1_TRUNC" and r.alpha == Fraction(1, 3)
    assert r.truncation == "short"
    r = _one("MAIN1", Fraction(1, 3), 7)
    assert r.family == "MAIN1" and r.truncation == "full"


def test_truncation_equivalence():
    # dropping the tail block does not change the sum mod p^4
    for p in (5, 7, 13):
        for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)):
            a = least_nonneg_residue(-alpha, p)
            assert _sum_main(alpha, a, p) == _sum_main(alpha, p - 1, p)


def test_verify_tail():
    assert _one("TAIL", Fraction(1, 3), 7).passed
    assert _one("TAIL", Fraction(1, 4), 13).passed
    for alpha, p in ((Fraction(1), 7), (Fraction(1, 6), 5)):
        r = _one("TAIL", alpha, p)
        assert r.passed is None
        assert r.reason == f"<-alpha>_p = p-1 for alpha = {alpha}, p = {p}: tail is empty"


def test_sum_matches_telescoped_closed_form():
    # cross-oracle: residue pipeline vs exact rational certificate sum
    for p in (5, 7, 11):
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
            lhs = _sum_main(a, p - 1, p)
            rhs = reduce_mod(telescoped_rhs(p, a), p, 4).value
            assert lhs == rhs


def test_verify_mao_variants():
    for p in (5, 7, 11, 13):
        half, conj = verify_prime(p, ("MAO_HALF", "SUN_HALF_CONJ"))
        assert half.passed and half.truncation == "full"
        assert conj.passed and conj.truncation == "short"
    assert _mao(13, "EQUIV").passed
    r = _mao(7, "EQUIV")  # needs p ≡ 1 (mod 4)
    assert r.passed is None and r.reason == "EQUIV needs p ≡ 1 (mod 4), got p = 7"
    for variant in MAO_VARIANTS:
        r = _mao(3, variant)
        assert r.passed is None and r.reason == "needs p > 3, got p = 3"


def test_mao_p5_closed_form_exact():
    # full (6k+1) sum at p = 5 against 5*(-2|5) + (5^3/16) E_2(1/4), exactly
    lhs = sum_mao_exact(4)
    assert lhs == Fraction(7733766915, 8589934592)
    rhs = -5 + Fraction(125, 16) * euler_poly_eval(2, Fraction(1, 4))
    d = lhs - rhs
    assert d.numerator % 5**4 == 0 and d.denominator % 5 != 0


def test_equiv_identity_p13():
    # p ≡ 1 (mod 4): the (6k+1) full sum equals 4 * S(1/4) mod p^4
    assert _sum_mao(12, 13) == 4 * _sum_main(Fraction(1, 4), 12, 13) % 13**4


def test_verify_lemma_examples():
    r = _one("LEMMA_WZPROD", Fraction(1), 5)
    assert r.passed and int(r.lhs) == 5  # 630 mod 625
    assert _one("LEMMA_WZPROD", Fraction(1, 3), 7).passed
    assert _one("LEMMA_ALPHAP3", Fraction(1, 3), 7).passed
    assert _one("LEMMA_SIGMA1", Fraction(1, 2), 11).passed
    assert _one("LEMMA_PROD", Fraction(1, 2), 11).passed
    assert _one("LEMMA_SIGMA", Fraction(1, 2), 11).passed


def test_verify_lemma_sweep():
    alphas = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4))
    for p in (5, 7, 11, 13, 17):
        for a in alphas:
            for rec in verify_alpha(a, p, LEMMA_FAMILIES):
                assert rec.passed is not False, rec


def test_lemma_right_sides_are_sharp():
    # a control: with the p^3 term of its right side dropped, written here
    # from Fractions, most LEMMA_PROD and LEMMA_SIGMA records would fail, so
    # their passing shows the congruences hold to the full p^4
    differs, total = Counter(), Counter()
    for p in sieve_primes(5, 61):
        for alpha in default_alphas(p):
            if not is_p_integral(alpha, p):
                continue
            a = least_nonneg_residue(-alpha, p)
            t, ha, sa = (alpha + a) / p, harmonic(a), (-1) ** a
            weak = {"LEMMA_PROD": p * t * (1 + p * (t + 1) * ha),
                    "LEMMA_SIGMA": sa * p * p * t * (t + 1)
                    * (ha - Fraction(sa, a + 1))}
            for rec in verify_alpha(alpha, p, tuple(weak)):
                if rec.passed is None:
                    continue
                assert rec.passed, rec
                total[rec.family] += 1
                differs[rec.family] += rec.lhs.value != reduce_mod(
                    weak[rec.family], p, 4).value
    assert differs == {"LEMMA_PROD": 284, "LEMMA_SIGMA": 266}
    assert total == {"LEMMA_PROD": 305, "LEMMA_SIGMA": 295}


def _proof_chain(x, a, p):
    # the lemmas' combination that the proof of the general-alpha
    # congruence telescopes S(alpha, p-1) into, from one side of each
    if a == p - 1:  # LEMMA_PROD's and LEMMA_SIGMA's terms are past the sum
        return x["LEMMA_WZPROD"] + (-1) ** p * x["LEMMA_SIGMA1"]
    return x["LEMMA_WZPROD"] + (-1) ** p * (
        x["LEMMA_SIGMA1"] + (-1) ** (a + 1) * x["LEMMA_PROD"] + x["LEMMA_SIGMA"])


def test_lemmas_chain_into_the_general_alpha_congruence():
    # Each lemma record compares its two sides alone, so the same error in
    # both sides of one lemma passes every record.  The proof chains them:
    # mod p^4, S(alpha, p-1) is the combination of the left sides, and the
    # same combination of the right sides is the closed form.  Checked at
    # every p-integral default alpha for 5 <= p <= 400 and near 2000, and
    # for p <= 31 against the exact S(alpha, p-1) too.
    chain = ("LEMMA_WZPROD", "LEMMA_SIGMA1", "LEMMA_PROD", "LEMMA_SIGMA")
    primes = sieve_primes(5, 400) + sieve_primes(1980, 2000)
    rows, _ = verify_primes(tuple((p, chain, tuple(default_alphas(p))) for p in primes))
    sides = {}  # (alpha, p) -> {family: (lhs, rhs)} of the rows that ran
    for fam, _, lhs, rhs, passed, p, _, alpha, _, _ in rows:
        if passed is not None:
            sides.setdefault((alpha, p), {})[fam] = lhs.value, rhs.value
    pairs = edge = 0
    for p in primes:
        m = p**4
        for alpha in default_alphas(p):
            if not is_p_integral(alpha, p):
                continue
            a, t = _a_t(alpha, p)
            if a == 0:  # alpha ≡ 0 (mod p): LEMMA_WZPROD and LEMMA_SIGMA1 skip
                continue
            got = sides[alpha, p]
            assert set(chain[:2] if a == p - 1 else chain) <= set(got), (alpha, p)
            lhs = _proof_chain({f: x for f, (x, _) in got.items()}, a, p)
            rhs = _proof_chain({f: y for f, (_, y) in got.items()}, a, p)
            assert lhs % m == sum_main_mod(alpha, p - 1, p), (alpha, p)
            euler = euler_poly_eval_mod(p - 3, alpha, p).value
            assert rhs % m == _closed_form(a, t, p, 4, euler), (alpha, p)
            if p <= 31:  # and to the exact sum, the telescoped closed form
                assert lhs % m == reduce_mod(telescoped_rhs(p, alpha), p, 4).value
            pairs += 1
            edge += a == p - 1
    assert (pairs, edge) == (944, 10)


def test_verify_lemma_preconditions():
    for fam, alpha, p, reason in (
        ("LEMMA_SIGMA", Fraction(1), 7, "a = p-1 violates a <= p-2 (alpha = 1)"),
        ("LEMMA_WZPROD", Fraction(5, 6), 5, "alpha = 5/6 ≡ 0 (mod 5)"),
        ("LEMMA_PROD", Fraction(-1), 7, "(alpha)_2 = 0 at alpha = -1 (p = 7)"),
    ):
        r = _one(fam, alpha, p)
        assert r.passed is None and r.reason == reason, r
    with pytest.raises(ValueError):
        verify_alpha(Fraction(1, 2), 7, ("NOPE",))


def test_verify_lemma_needs_the_full_family_name():
    # norm_family only folds case and hyphens; no LEMMA_ prefix is added
    assert _one("lemma-wzprod", Fraction(1, 3), 7).passed
    with pytest.raises(ValueError):
        verify_alpha(Fraction(1, 3), 7, ("WZPROD",))


def test_alphap3_all_alpha_including_zero_mod_p():
    # this cube identity has no residue restriction on alpha
    assert _one("LEMMA_ALPHAP3", Fraction(5, 6), 5).passed
    assert _one("LEMMA_ALPHAP3", Fraction(-2), 7).passed


@pytest.mark.parametrize("p", sieve_primes(2, 31))
def test_verify_alpha_grouped_equals_one_family_at_a_time(p):
    alphas = default_alphas(p) + [Fraction(0), Fraction(-3), Fraction(1, 5)]
    for alpha in alphas:
        recs = verify_alpha(alpha, p)
        assert recs == [_one(f, alpha, p) for f in ALPHA_FAMILIES], (p, alpha)
        backwards = verify_alpha(alpha, p, ALPHA_FAMILIES[::-1])
        assert backwards == recs[::-1], (p, alpha)


def _counting(monkeypatch, names):
    # calls[name] lists the arguments of each call of verifier.<name> from
    # here on
    calls = {name: [] for name in names}

    def counted(name):
        real = getattr(verifier, name)

        def call(*args):
            calls[name].append(args)
            return real(*args)
        return call

    for name in names:
        monkeypatch.setattr(verifier, name, counted(name))
    return calls


def test_verify_alpha_computes_shared_values_once(monkeypatch):
    # verify_alpha is verify_primes at one job with one alpha
    calls = _counting(monkeypatch, ("_sums", "_lemma_trees", "_lemma_pass_at",
                                    "verify_primes"))

    def count(families, alpha=Fraction(1, 3), p=13):
        for args in calls.values():
            args.clear()
        recs = verify_alpha(alpha, p, families)
        assert all(r.passed for r in recs)
        assert [r.family for r in recs] == list(families)
        assert calls["verify_primes"] == [(((p, list(families), (alpha,)),),)]
        # only the lemma families read the lemma trees, all in one pass
        lemma = any(f in LEMMA_FAMILIES for f in families)
        assert [args[:2] for args in calls["_lemma_pass_at"]] == [(alpha, p)] * lemma
        return len(calls["_sums"]), len(calls["_lemma_trees"])

    # one tree serves MAIN1, MAIN1_TRUNC and TAIL; one set of trees the lemmas
    assert count(ALPHA_FAMILIES) == (1, 1)
    assert count(("MAIN1",)) == (1, 0)
    assert count(("MAIN1", "MAIN1_TRUNC", "TAIL")) == (1, 0)
    assert count(LEMMA_FAMILIES) == (0, 1)
    assert count(("TAIL", "TAIL", "LEMMA_PROD", "LEMMA_SIGMA")) == (1, 1)
    for fam in ALPHA_FAMILIES:
        assert count((fam,)) == ((0, 1) if fam in LEMMA_FAMILIES else (1, 0)), fam


@pytest.mark.parametrize("p", (5, 7, 13, 37, 2003))
def test_verify_at_prime_builds_each_alpha_once(monkeypatch, p):
    # every family at one prime: one tree for each distinct p-integral
    # alpha, the classical weights' 1/2, 1/3 and 1/4 among them, one for
    # the 8^(-k) sum, one Euler tree and one closed form per exponent for
    # each alpha; no lemma trees without a lemma family
    names = ("_sums", "_euler_residues", "_closed_form", "_lemma_trees")
    calls = _counting(monkeypatch, names)
    alphas = (Fraction(1, 3), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 5),
              Fraction(1, 4), Fraction(1, 3))
    integral = {a for a in alphas if a.denominator % p}
    for fams in (PRIME_FAMILIES + ALPHA_FAMILIES[:3], ALPHA_FAMILIES[:3] + PRIME_FAMILIES):
        for args in calls.values():
            args.clear()
        rows, seconds = verify_primes(((p, fams, alphas),))
        assert all(row[4] is not False for row in rows)
        assert len(rows) == 23 + 3 * len(alphas)
        trees = Counter(alpha for alpha, _ in calls["_sums"])
        assert trees == dict.fromkeys(integral | {None}, 1), p
        for alpha, cuts in calls["_sums"]:
            cut = (p - 1) // 2 if alpha is None else least_nonneg_residue(-alpha, p)
            assert cuts == {p: (cut, p - 1)}, (alpha, p)
        [(wanted,)] = calls["_euler_residues"]
        assert wanted == {p: {least_nonneg_residue(a, p) for a in integral}}
        # (a, t) names alpha mod p^5, so it tells these alphas apart
        closed = Counter((a, t, e) for a, t, _, e, _ in calls["_closed_form"])
        assert set(closed.values()) == {1}
        assert set(closed) == {(*_a_t(a, p), 4) for a in integral} | {
            (*_a_t(Fraction(1, d), p), 3) for d in (2, 3, 4)}
        assert calls["_lemma_trees"] == []
        assert set(seconds) == set(PHASES) and seconds["lemma"] == 0
        assert all(x >= 0 for x in seconds.values()) and seconds["sums"] > 0
    verify_primes(((p, ("LEMMA_SIGMA",), alphas),))
    assert calls["_lemma_trees"]


def test_verify_at_prime_names_the_alpha_of_an_internal_error(monkeypatch):
    real = verifier._a_t

    def broken(alpha, p):
        if alpha == Fraction(-1, 3):
            raise ZeroDivisionError("broken")
        return real(alpha, p)

    monkeypatch.setattr(verifier, "_a_t", broken)
    with pytest.raises(InternalError) as info:
        verify_primes(((13, ("E2", "MAIN1"), (Fraction(1, 2), Fraction(-1, 3))),))
    assert str(info.value) == ("internal error checking MAIN1 p=13 alpha=-1/3 "
                               "truncation=full: ZeroDivisionError: broken")
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_verify_prime_runs_one_pass_per_sum(monkeypatch):
    # the thirteen classical and MAO families at a prime: one tree per
    # weight d in {2, 3, 4} and one for the 8^(-k) sum, and one Euler tree
    calls = _counting(monkeypatch, ("_sums", "_euler_residues", "_lemma_trees"))
    assert len(PRIME_FAMILIES) == 13
    for p in (5, 7, 13, 2003):
        for args in calls.values():
            args.clear()
        recs = verify_prime(p)
        assert all(r.passed is not False for r in recs)
        assert Counter(alpha for alpha, _ in calls["_sums"]) == dict.fromkeys(
            [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), None], 1), p
        assert len(calls["_euler_residues"]) == 1 and calls["_lemma_trees"] == []
    for args in calls.values():
        args.clear()
    verify_prime(13, ("B2", "SUN_B2"), ("full",))
    assert [alpha for alpha, _ in calls["_sums"]] == [Fraction(1, 2)]
    # B2 is stated mod p^3, so the only Euler residue read is SUN_B2's E(1/2)
    [(wanted,)] = calls["_euler_residues"]
    assert wanted == {13: {least_nonneg_residue(Fraction(1, 2), 13)}}


@pytest.mark.parametrize("p", sieve_primes(2, 61))
def test_verify_prime_grouped_equals_one_family_at_a_time(p):
    truncs = ("short", "full")
    recs = verify_prime(p, PRIME_FAMILIES, truncs)
    one_at_a_time = [
        rec
        for f in PRIME_FAMILIES
        for tr in (truncs if f in FAMILIES else (None,))
        for rec in (verify_prime(p, (f,), (tr,)) if tr else verify_prime(p, (f,)))
    ]
    assert recs == one_at_a_time
    assert len(recs) == 2 * len(FAMILIES) + len(MAO_VARIANTS)
    if p <= 3:
        assert all(r.passed is None for r in recs)
    assert verify_prime(p, PRIME_FAMILIES[::-1], truncs[::-1]) == recs[::-1]


def test_each_record_reads_its_own_checkpoint(monkeypatch):
    # S(1/d, a) ≡ S(1/d, p-1) (mod p^4), so a record that read the wrong
    # truncation would still pass: fake trees whose sum to M is M show
    # which one each record read
    monkeypatch.setattr(verifier, "_sums", lambda alpha, cuts: dict(cuts))
    p = 13
    recs = [r for r in verify_prime(p) if r.passed is not None]
    assert len(recs) == 15  # 6 families at p ≡ 1 (mod 12), 3 MAO variants
    for r in recs:
        if r.family in FAMILIES:
            f = FAMILIES[r.family]
            M = f.short_m(p) if r.truncation == "short" else p - 1
            assert r.lhs.value == f.weight_d * M, r
        else:
            M = (p - 1) // 2 if r.truncation == "short" else p - 1
            assert r.lhs.value == M, r
            if r.family == "EQUIV":
                assert r.rhs.value == 4 * (p - 1)
    alpha = Fraction(1, 3)
    a = least_nonneg_residue(-alpha, p)
    got = {r.family: r.lhs.value for r in verify_alpha(alpha, p, ALPHA_FAMILIES[:3])}
    assert got == {"MAIN1": p - 1, "MAIN1_TRUNC": a, "TAIL": p - 1 - a}


def _plain_main_sum(alpha, M, p):
    # the reference: S(alpha, M) mod p^4 term by term, one inverse per term
    m = p**4
    x = reduce_mod(alpha, p, 4).value
    total, r = 0, 1  # r = (alpha)_k^3 / k!^3 mod m
    for k in range(M + 1):
        if k:
            r = r * pow(x + k - 1, 3, m) * pow(k, -3, m) % m
        total += (-1) ** k * (2 * k + x) * r
    return total % m


def _plain_mao_sum(M, p):
    m = p**4
    total, r = 0, 1  # r = (1/2)_k^3 / (8^k k!^3) mod m
    for k in range(M + 1):
        if k:
            r = r * pow(2 * k - 1, 3, m) * pow(64 * k**3, -1, m) % m
        total += (-1) ** k * (6 * k + 1) * r
    return total % m


@pytest.mark.parametrize("p", sieve_primes(1900, 2000))
def test_checkpoints_match_a_plain_loop_near_2000(p):
    for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(-8, 5)):
        Ms = (0, least_nonneg_residue(-alpha, p), (p - 1) // 2, p - 1)
        got = _sums(alpha, {p: Ms})[p]
        assert list(got) == [_plain_main_sum(alpha, M, p) for M in Ms], alpha
    Ms = (1, (p - 1) // 2, p - 1)
    got = _sums(None, {p: Ms})[p]
    assert list(got) == [_plain_mao_sum(M, p) for M in Ms]


def test_ramanujan_partial():
    assert ramanujan_partial(1) == 1.0
    assert abs(ramanujan_partial(50) - 2 / math.pi) < 1e-6
    # estimates improve monotonically enough to cross thresholds
    assert abs(ramanujan_partial(20) - 2 / math.pi) < 1e-6
    assert abs(ramanujan_partial(10) - 2 / math.pi) < 1e-3
    with pytest.raises(ValueError):
        ramanujan_partial(0)
