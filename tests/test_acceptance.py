"""Acceptance gate: eleven end-to-end criteria, one test per criterion.

Run `pytest -v tests/test_acceptance.py` for a pass/fail line per criterion.
Each test prints a [PASS] line (visible with -s) after its assertions hold.
"""

import math
import time
from fractions import Fraction

from supercong import qseries
from supercong.primes import sieve_primes
from supercong.qseries import _q_check, cyclotomic, verify_q
from supercong.sequences import (
    check_binomial_identities,
    check_euler_identities,
    check_lehmer,
)
from supercong.sweep import (
    Q_FAMILIES,
    RATIONAL_ALPHAS,
    SweepConfig,
    VERIFY_FAMILIES,
    render_json,
    run_sweep,
)
from supercong.records import LEMMA_FAMILIES
from supercong.verifier import ramanujan_partial, verify_alpha
from supercong.wz import check_pair, check_telescoped, sample_alphas

from exact_oracle import euler_poly_eval, sum_main_exact
from gcd_oracle import Q, ZQ, poly


def _sweep_all_pass(families, p_max, trunc="both"):
    s = run_sweep(SweepConfig(families=families, p_min=5, p_max=p_max, trunc=trunc))
    assert s.failed == 0, [str(r) for r in s.failures[:5]]
    assert s.passed > 0
    return s


def test_criterion_01_weight_6k_mod_p4_family_full_range():
    t0 = time.perf_counter()
    s = _sweep_all_pass(("E2_MOD4",), 499)
    elapsed = time.perf_counter() - t0
    assert {r.p for r in s.records} == set(sieve_primes(7, 499, 3, 1))
    assert s.total == 2 * len(sieve_primes(7, 499, 3, 1))  # both truncations
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: (6k+1) mod p^4 family, p <= 499, "
          f"both truncations, {elapsed:.2f}s")


def test_criterion_02_weight_8k_mod_p4_family_full_range():
    s = _sweep_all_pass(("F2_MOD4",), 499)
    assert {r.p for r in s.records} == set(sieve_primes(5, 499, 4, 1))
    print("\n[PASS] criterion 2: (8k+1) mod p^4 family, p <= 499, both truncations")


def test_criterion_03_complementary_residue_mod_p4_families_full_range():
    s = _sweep_all_pass(("SW_E2_MOD4",), 499)
    assert {r.p for r in s.records} == set(sieve_primes(5, 499, 3, 2))
    s = _sweep_all_pass(("SW_F2_MOD4",), 499)
    assert {r.p for r in s.records} == set(sieve_primes(7, 499, 4, 3))
    print("\n[PASS] criterion 3: longer-truncation mod p^4 families, p <= 499")


def test_criterion_04_general_alpha_theorem_grid():
    runs = 0
    for p in sieve_primes(5, 97):
        alphas = [Fraction(i) for i in range(p)] + list(RATIONAL_ALPHAS)
        for alpha in alphas:
            recs = verify_alpha(alpha, p, ("MAIN1", "MAIN1_TRUNC", "TAIL"))
            if alpha.denominator % p == 0:  # no residue: every family skips
                assert all(r.passed is None for r in recs), recs
                continue
            main, trunc, tail = recs
            assert main.passed and trunc.passed, (p, alpha)
            runs += 2
            if tail.passed is None:
                assert tail.reason.endswith("tail is empty"), tail
            else:
                assert tail.passed, (p, alpha)
                runs += 1
    assert runs > 3500
    print(f"\n[PASS] criterion 4: general-parameter theorem on {runs} "
          f"(p, alpha, truncation) instances, p <= 97")


def test_criterion_05_worked_golden_instance():
    lhs = 3 * sum_main_exact(Fraction(1, 3), 2)
    assert lhs == Fraction(644, 729)
    rhs = 7 + Fraction(7**3, 9) * euler_poly_eval(4, Fraction(1, 3))
    assert lhs - rhs == Fraction(-5 * 7**4, 729)
    print("\n[PASS] criterion 5: golden instance p=7 alpha=1/3 M=2, "
          "LHS 644/729, defect -5*7^4/729")


def test_criterion_06_classical_mod_p3_and_weight_6k_families():
    fams = ("B2", "E2", "F2", "SW_E2", "SW_F2", "SUN_B2",
            "MAO_HALF", "SUN_HALF_CONJ", "EQUIV")
    s = _sweep_all_pass(fams, 499)
    assert s.failed == 0 and s.skipped == 0
    # EQUIV only runs on p ≡ 1 (mod 4)
    equiv_ps = {r.p for r in s.records if r.family == "EQUIV"}
    assert equiv_ps == set(sieve_primes(5, 499, 4, 1))
    print(f"\n[PASS] criterion 6: classical mod p^3 families, both-(m) mod p^4 "
          f"family, and (6k+1) variants, p <= 499 ({s.total} records)")


def test_criterion_07_lemma_suite():
    primes = sieve_primes(5, 1999)
    assert check_lehmer(primes) == [True] * len(primes)
    assert all(check_binomial_identities(n) for n in range(1, 201))
    assert check_euler_identities(25, 10)
    runs = 0
    for p in sieve_primes(5, 97):
        for alpha in RATIONAL_ALPHAS:
            for rec in verify_alpha(alpha, p, LEMMA_FAMILIES):
                assert rec.passed is not False, rec
                runs += rec.passed is True
    assert runs > 1000
    print(f"\n[PASS] criterion 7: harmonic/binomial/Euler identity suites and "
          f"{runs} lemma instances, zero failures")


def test_criterion_08_certificate_pair_suite():
    t0 = time.perf_counter()
    alphas = sample_alphas(20, seed=0)
    assert check_pair(30, 30, alphas)
    for alpha in alphas:
        assert check_telescoped(30, alpha), alpha  # N = 1..30
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 8: pair relation on 30x30 grid and telescoped "
          f"sums, 20 alphas, {elapsed:.1f}s")


def test_criterion_09_q_congruence_suite():
    # the products are multiplied out in sympy's ZZ[q], not by qseries
    for n in range(1, 201):
        prod = ZQ(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod *= poly(cyclotomic(d))
        assert prod == Q**n - 1, n
    for n in (3, 5, 7, 9, 11, 13):
        assert verify_q(n, ("GZ_E2",))[0].passed, n
    for n in (5, 9, 13):
        assert verify_q(n, ("GZ_F2",))[0].passed, n
    mod_squared = qseries.Q_FAMILIES["CONJ41"]._replace(phi_exp=2)
    for n in (5, 9, 13):
        assert _q_check(n, mod_squared)[1] is None, n
    t0 = time.perf_counter()
    for n in (5, 9, 13):
        [r] = verify_q(n, ("CONJ41",))
        # an honest False here is a counterexample to an open conjecture,
        # reported through exit code 3 by the CLI; the expectation is pass
        assert r.passed, f"conjecture counterexample at n={n}: run the CLI " \
                         f"qverify subcommand for the witness files"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 9: q-congruences (factorization to 200, "
          f"mod-squared and mod-cubed checks to n=13), {elapsed:.1f}s")


def test_criterion_10_series_smoke():
    assert abs(ramanujan_partial(50) - 2 / math.pi) < 1e-6
    print("\n[PASS] criterion 10: 2/pi series estimate within 1e-6 at 50 terms")


def test_criterion_11_reports_deterministic_across_workers():
    # a verify run is one remainder-tree instance, which one process runs
    # whatever the worker count; the q run is above the fork floor, so at
    # 8 workers it forks
    reports = []
    for workers in (1, 8):
        cfg = SweepConfig(families=VERIFY_FAMILIES, p_min=5, p_max=307,
                          workers=workers)
        qcfg = SweepConfig(families=Q_FAMILIES, n_list=(25, 29, 33),
                           workers=workers)
        summaries = [run_sweep(cfg), run_sweep(qcfg)]
        assert summaries[0].workers == 1
        assert (summaries[1].workers > 1) == (workers > 1)
        reports.append("".join(render_json(s) for s in summaries))
    assert reports[0] == reports[1]
    assert '"pass": false' not in reports[0]
    print("\n[PASS] criterion 11: full-suite JSON byte-identical for "
          "worker counts 1 and 8")
