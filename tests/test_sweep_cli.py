"""Sweep orchestration, report rendering, CLI subcommands and exit codes."""

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from supercong import cli, forked, sweep, verifier
from supercong.cli import build_parser, main
from supercong.padic import NotPAdicIntegral, ResidueClass
from supercong.primes import EmptyRange, sieve_primes
from supercong.records import (
    ALPHA_FAMILIES,
    ALPHA_TRUNCATIONS,
    FAMILIES,
    LEMMA_FAMILIES,
    MAO_TRUNCATIONS,
    PHASES,
    PRIME_FAMILIES,
    InternalError,
    PreconditionViolated,
    VerificationRecord,
    family_rows,
)
from supercong.sequences import check_euler_identities
from supercong.sweep import (
    ConfigError,
    P_MAX,
    Q_FAMILIES,
    RATIONAL_ALPHAS,
    ReportSummary,
    SweepConfig,
    VERIFY_FAMILIES,
    build_instances,
    default_alphas,
    exit_code,
    render,
    render_csv,
    render_json,
    render_text,
    run_identities,
    run_smoke,
    run_sweep,
    run_wz,
    summarize,
)
from supercong.verifier import verify_alpha, verify_prime, verify_primes
from supercong.wz import DivisionByZeroTerm, sample_alphas


def test_sieve_primes_matches_sympy():
    import sympy

    want = list(sympy.primerange(2, 5001))
    assert sieve_primes(2, 5000) == want
    assert sieve_primes(1000, 1500) == [p for p in want if 1000 <= p <= 1500]
    for mod, res in ((3, 1), (3, 2), (4, 1), (4, 3), (8, 7)):
        assert sieve_primes(5, 5000, mod, res) == [
            p for p in want if p >= 5 and p % mod == res
        ]


def test_sieve_primes():
    assert sieve_primes(5, 20, 3, 1) == [7, 13, 19]
    assert sieve_primes(5, 20, 4, 3) == [7, 11, 19]
    assert sieve_primes(24, 28) == []
    assert sieve_primes(2, 10) == [2, 3, 5, 7]


def test_sieve_primes_validation():
    with pytest.raises(EmptyRange):
        sieve_primes(10, 5)
    with pytest.raises(EmptyRange):
        sieve_primes(1, 5)
    with pytest.raises(ValueError):
        sieve_primes(5, 20, 4, None)


def test_default_alphas():
    small = default_alphas(7)
    assert small[:6] == [Fraction(i) for i in range(1, 7)]
    assert Fraction(1, 2) in small
    big = default_alphas(97)
    assert all(a.denominator > 1 for a in big)
    assert len(big) == len(RATIONAL_ALPHAS)


def test_default_alphas_are_the_integers_then_the_rational_sample():
    # the sample holds no integer and no repeat, so default_alphas appends
    # it whole, with nothing to de-duplicate
    assert len(set(RATIONAL_ALPHAS)) == len(RATIONAL_ALPHAS)
    assert all(a.denominator > 1 for a in RATIONAL_ALPHAS)
    for p in (2, 3, 5, 29, 31, 37, 1999):
        ints = [Fraction(i) for i in range(1, p)] if p <= 31 else []
        assert default_alphas(p) == ints + list(RATIONAL_ALPHAS), p


def test_run_sweep_theorem_family():
    s = run_sweep(SweepConfig(families=("E2_MOD4",), p_min=5, p_max=50))
    # qualifying primes {7,13,19,31,37,43} x both truncations
    assert s.total == 12 and s.passed == 12 and s.failed == 0
    assert {r.p for r in s.records} == {7, 13, 19, 31, 37, 43}
    s = run_sweep(
        SweepConfig(families=("E2_MOD4",), p_min=5, p_max=50, trunc="short")
    )
    assert s.total == 6


def test_run_sweep_q_family():
    s = run_sweep(SweepConfig(families=("CONJ41",), n_list=(5, 9)))
    assert s.total == 2 and s.passed == 2
    assert all(r.family == "CONJ41" for r in s.records)


def test_run_sweep_skips_instead_of_aborting():
    # n = 4 violates the q-family residue condition; the sweep must finish
    s = run_sweep(SweepConfig(families=("GZ_F2",), n_list=(4, 5)))
    assert s.total == 2 and s.passed == 1 and s.skipped == 1
    skipped = [r for r in s.records if r.passed is None]
    assert skipped[0].n == 4 and skipped[0].reason


def test_run_sweep_alpha_families_with_explicit_alphas():
    cfg = SweepConfig(
        families=("MAIN1", "TAIL"),
        p_min=5,
        p_max=11,
        alpha_list=(Fraction(1, 2), Fraction(1)),
    )
    s = run_sweep(cfg)
    # 3 primes x 2 alphas per family; TAIL alpha=1 becomes 3 skips
    assert s.total == 12
    assert s.skipped == 3 and s.failed == 0


def test_run_sweep_config_errors():
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(families=()))
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(families=("NOT_A_FAMILY",)))
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(families=("B2",), p_min=10, p_max=5))
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(families=("B2",), trunc="sideways"))
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(families=("B2",), workers=0))
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(families=("CONJ41",), n_list=(0,)))
    with pytest.raises(ConfigError):  # no primes at all in [90, 91]
        run_sweep(SweepConfig(families=("B2",), p_min=90, p_max=91))
    with pytest.raises(ConfigError):  # no p = 1 (mod 4) primes in [7, 11]
        run_sweep(SweepConfig(families=("F2",), p_min=7, p_max=11))


@pytest.mark.parametrize("workers", [0, -3])
def test_every_runner_refuses_fewer_than_one_worker(workers):
    # the one check sits where every runner ends, so none reports workers < 1
    refused = pytest.raises(ConfigError, match=f"^workers must be >= 1, got {workers}$")
    with refused:
        run_sweep(SweepConfig(families=("B2",), workers=workers))
    with refused:
        run_identities(nmax=20, pmax=50, workers=workers)
    with refused:
        run_wz(nmax=4, kmax=4, alpha_samples=3, workers=workers)
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(families=("MAIN1",), alpha_list=("x/y",)))
    with pytest.raises(ConfigError):
        run_wz(alpha_samples=1000)


def make_record(family, modulus, lhs, rhs, **labels) -> VerificationRecord:
    # the record comparing lhs with rhs; labels are p, n, alpha, truncation
    return VerificationRecord(family, modulus, lhs, rhs, lhs == rhs, **labels)


def family_records(checks, sides, **labels) -> list[VerificationRecord]:
    return [VerificationRecord(*row) for row in family_rows(checks, sides, **labels)]


def _labels(r: VerificationRecord) -> tuple:
    return (r.family, r.p, r.n, r.alpha, r.truncation)


def _execute(inst) -> list[VerificationRecord]:
    # the records of one instance, from the rows it hands back
    rows, ms, _ = sweep._execute(inst)
    assert ms >= 0
    return [VerificationRecord(*row) for row in rows]


def _moved(inst, p=None, alphas=None):
    # a block of one job, verify_primes at one job, at another prime or with
    # other alphas
    [(p0, fams, alphas0)], truncs = inst.args
    job = (p or p0, fams, alphas0 if alphas is None else alphas)
    return inst._replace(args=((job,), truncs))


def test_skip_record_has_the_labels_of_the_result():
    # verify_q makes its own skip records: at n = 2 every q-family skips for
    # its condition on n; its labels are those of the family at n = 5
    insts = build_instances(SweepConfig(families=Q_FAMILIES, n_list=(5,)))
    reasons = {
        "GZ_E2": "GZ_E2 needs odd n >= 3, got n = 2",
        "GZ_F2": "GZ_F2 needs n ≡ 1 (mod 4), n >= 5, got n = 2",
        "CONJ41": "CONJ41 needs n ≡ 1 (mod 4), n >= 5, got n = 2",
    }
    assert [i.family for i in insts] == list(reasons)
    for inst in insts:
        [real] = _execute(inst)
        [skip] = _execute(inst._replace(args=(2,) + inst.args[1:]))
        assert real.passed is True, real
        assert skip.passed is None and skip.reason == reasons[real.family]
        assert _labels(skip._replace(n=real.n)) == _labels(real)

    # verify_primes makes its own skip records, the lemma families' among
    # them: 1/13 has no residue mod 13, so every alpha family skips; its
    # labels are those of the family
    [block] = build_instances(SweepConfig(
        families=ALPHA_FAMILIES, p_min=13, p_max=13, alpha_list=(Fraction(1, 3),)
    ))
    assert block.args[0] == ((13, ALPHA_FAMILIES, (Fraction(1, 3),)),)
    reals = _execute(block)
    skips = _execute(_moved(block, alphas=(Fraction(1, 13),)))
    assert [r.family for r in reals] == [r.family for r in skips] == list(ALPHA_FAMILIES)
    for real, skip in zip(reals, skips):
        assert real.passed is True, real
        assert skip.passed is None and skip.reason == "-1/13 has no residue mod 13^1"
        assert _labels(skip._replace(alpha=real.alpha)) == _labels(real)
        assert real.truncation == ALPHA_TRUNCATIONS.get(real.family)

    # and for the prime families: at p = 3 every family that p = 13 admits
    # skips, for p <= 3 or for its residue class
    [inst] = build_instances(SweepConfig(families=PRIME_FAMILIES, p_min=13, p_max=13))
    reals = _execute(inst)
    skips = _execute(_moved(inst, p=3))
    fams = ("B2", "E2", "F2", "E2_MOD4", "F2_MOD4", "SUN_B2")
    assert [(r.family, r.truncation) for r in reals] == [
        (f, tr) for f in fams for tr in ("short", "full")
    ] + list(MAO_TRUNCATIONS.items())
    reasons = {
        "B2": "B2 needs p > 3, got p = 3",
        "E2": "E2 needs p ≡ 1 (mod 3), got p = 3",
        "F2": "F2 needs p ≡ 1 (mod 4), got p = 3",
        "E2_MOD4": "E2_MOD4 needs p ≡ 1 (mod 3), got p = 3",
        "F2_MOD4": "F2_MOD4 needs p ≡ 1 (mod 4), got p = 3",
        "SUN_B2": "SUN_B2 needs p > 3, got p = 3",
    }
    for real, skip in zip(reals, skips, strict=True):
        assert real.passed is True, real
        reason = reasons.get(real.family, "needs p > 3, got p = 3")
        assert skip.passed is None and skip.reason == reason
        assert _labels(skip._replace(p=real.p)) == _labels(real)


@pytest.mark.parametrize("argv", [
    ["verify", "--pmax", str(P_MAX), "--family", "B2"],
    ["identities", "--pmax", str(P_MAX)],
])
def test_error_outside_every_instance_exits_4(monkeypatch, capsys, argv):
    # an error raised before any instance runs, here the sieve running out of
    # memory, is neither a failed check (1) nor a config error (2)
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(sweep, "sieve_primes", exhausted)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and err.splitlines()[-1] == "MemoryError"
    assert "config error" not in err


@pytest.mark.parametrize("argv, name", [
    (["verify", "--family", "B2"], "p_max"),
    (["identities"], "pmax"),
])
def test_pmax_past_p_max_is_a_config_error(monkeypatch, capsys, argv, name):
    # the stated limit is checked before the sieve runs: a run past it
    # allocates nothing and exits 2, and --help states it
    def unreachable(*args):
        raise AssertionError("the sieve ran")

    monkeypatch.setattr(sweep, "sieve_primes", unreachable)
    assert main(argv + ["--pmax", str(P_MAX + 1)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {name} must be <= {P_MAX}, got {P_MAX + 1}\n")
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"at most {P_MAX}" in " ".join(capsys.readouterr().out.split())
    with pytest.raises(ConfigError):
        if argv[0] == "verify":
            run_sweep(SweepConfig(families=("B2",), p_max=P_MAX + 1))
        else:
            run_identities(pmax=P_MAX + 1)


# the residue class (mod, res) of p each classical and MAO family is stated
# for, from the README table; None: every p
CLASSES = {
    "B2": None, "E2": (3, 1), "F2": (4, 1), "SW_E2": (3, 2), "SW_F2": (4, 3),
    "E2_MOD4": (3, 1), "F2_MOD4": (4, 1), "SW_E2_MOD4": (3, 2),
    "SW_F2_MOD4": (4, 3), "SUN_B2": None,
    "MAO_HALF": None, "SUN_HALF_CONJ": None, "EQUIV": (4, 1),
}


def _admitted(p):
    return tuple(
        f for f in PRIME_FAMILIES
        if CLASSES[f] is None or p % CLASSES[f][0] == CLASSES[f][1]
    )


@pytest.mark.parametrize("p", sieve_primes(2, 61))
def test_prime_skip_reasons(p):
    for r in verify_prime(p):
        mod, res = CLASSES[r.family] or (1, 0)
        small = f"{r.family} needs p > 3" if r.family in FAMILIES else "needs p > 3"
        # a classical family tests the residue class of p first, a MAO
        # variant p > 3
        off = f"{r.family} needs p ≡ {res} (mod {mod})"
        checks = [(p % mod != res, f"{off}, got p = {p}"),
                  (p <= 3, f"{small}, got p = {p}")]
        if r.family not in FAMILIES:
            checks.reverse()
        want = next((reason for failed, reason in checks if failed), None)
        assert r.reason == want, r
        assert (r.passed is None) == (want is not None), r


def test_one_block_for_every_verify_family():
    # one block of jobs, one job per prime for the classical and MAO
    # families p admits and every alpha family at every alpha, the lemma
    # families among them; none at a prime without any
    assert set(CLASSES) == set(PRIME_FAMILIES)
    alphas = (Fraction(1, 2), Fraction(-1, 3))
    cfg = SweepConfig(families=VERIFY_FAMILIES, p_min=2, p_max=13, alpha_list=alphas)
    [block] = build_instances(cfg)
    primes = sieve_primes(2, 13)
    assert (block.run, block.p) == (verify_primes, 13)
    assert block.args == (tuple((p, _admitted(p) + ALPHA_FAMILIES, alphas)
                                for p in primes), ("short", "full"))
    assert block.family == ",".join(VERIFY_FAMILIES)
    assert block.alpha is None and str(block) == f"{block.family} p=13"
    [inst] = build_instances(cfg._replace(families=("F2", "SUN_B2"), trunc="short"))
    assert inst.args == (tuple(
        (p, ("F2", "SUN_B2") if p in (5, 13) else ("SUN_B2",), ()) for p in primes),
        ("short",))
    [inst] = build_instances(SweepConfig(families=("EQUIV",)))
    assert [p for p, _, _ in inst.args[0]] == sieve_primes(5, 97, 4, 1)
    s = run_sweep(cfg._replace(families=PRIME_FAMILIES))
    assert s.total == sum(
        2 * (f in FAMILIES) + (f not in FAMILIES)
        for p in sieve_primes(2, 13) for f in _admitted(p)
    )
    # at p = 2 and at p = 3, four classical families skip twice, two MAO once
    assert s.failed == 0 and s.skipped == 2 * (4 * 2 + 2)
    # the records of a prime's instance are those of verify_prime and
    # verify_alpha at that prime
    want = [r for p in sieve_primes(2, 13)
            for r in verify_prime(p, _admitted(p))
            + [r for a in alphas for r in verify_alpha(a, p)]]
    assert list(run_sweep(cfg).records) == sorted(want, key=VerificationRecord.sort_key)


def test_importing_the_cli_does_not_import_the_pool():
    # the forked run needs pickle and select, which only a run that forks
    # imports; no run imports the process pool's modules
    pool = "('concurrent.futures', 'multiprocessing')"
    code = ("import sys, supercong.cli; "
            f"print([m for m in {pool} + ('pickle', 'select') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
    # a run this small forks only with the floor lowered
    code = ("import os, sys, supercong.cli, supercong.sweep; "
            "supercong.sweep._FORK_FLOOR = 0; "
            "code = supercong.cli.main(['qverify', '--family', 'gz-e2', "
            "'--n', '5', '--n', '7', "
            "'--workers', '2', '--output', os.devnull]); "
            f"print(code, [m for m in {pool} if m in sys.modules], "
            "'supercong.forked' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "0 [] True"


def _modules_after(code: str) -> list[str]:
    # the supercong modules and the named stdlib modules that code leaves
    # loaded, in a fresh interpreter
    watch = ("dataclasses", "inspect", "csv", "traceback")
    code += (f"; print(*(m for m in sys.modules if m.startswith('supercong.')"
             f" or m in {watch}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_each_command_imports_only_its_check_module():
    # a CLI process imports only the check modules its command runs, and
    # none of dataclasses and inspect (which dataclasses imports), csv or
    # traceback, which only a csv report and an error use
    checks = {f"supercong.{m}" for m in ("verifier", "qseries", "sequences", "wz")}
    loaded = _modules_after("import sys, supercong.cli")
    assert not {"dataclasses", "inspect", "csv", "traceback"} & set(loaded)
    assert not checks & set(loaded)
    for argv, unused in (
        (["qverify", "--n", "5"], ("verifier", "sequences", "wz")),
        (["wz"], ("verifier", "qseries", "sequences")),
        (["identities"], ("verifier", "qseries", "wz")),
        (["verify"], ("qseries", "wz")),
    ):
        loaded = _modules_after(
            "import os, sys, supercong.cli; "
            f"assert supercong.cli.main({argv} + ['--output', os.devnull]) == 0")
        assert not {f"supercong.{m}" for m in unused} & set(loaded), argv
        assert {"dataclasses", "inspect"}.isdisjoint(loaded), argv


def test_top_level_names_are_their_modules_names():
    # each re-export is imported from its module on first use, and is that
    # module's object; dir lists every one of them
    import importlib

    import supercong

    for name, module in supercong._EXPORTS.items():
        mod = importlib.import_module(f"supercong.{module}")
        assert getattr(supercong, name) is getattr(mod, name), name
        assert name in dir(supercong)
    from supercong import verify_q  # the from-import form

    assert verify_q is supercong.qseries.verify_q
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        supercong.no_such_name
    assert not hasattr(sweep, "no_such_check")


def test_one_instance_per_alpha_and_prime():
    # the alpha families alone: one instance, with one job per prime that
    # carries that prime's alphas and every alpha family, the lemma families
    # among them; an empty alpha list selects nothing
    cfg = SweepConfig(families=ALPHA_FAMILIES, p_min=2, p_max=13)
    [block] = build_instances(cfg)
    want = [(p, ALPHA_FAMILIES, tuple(default_alphas(p))) for p in sieve_primes(2, 13)]
    assert list(block.args[0]) == want
    assert block.family == ",".join(ALPHA_FAMILIES)
    s = run_sweep(cfg)
    assert s.total == len(ALPHA_FAMILIES) * sum(len(a) for _, _, a in want)
    with pytest.raises(ConfigError, match="matches no instances"):
        build_instances(cfg._replace(alpha_list=()))


def test_internal_error_is_not_a_config_error(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("base is not invertible for the given modulus")

    # the part the lemma families of one (alpha, p) share, which the first
    # of their rows makes
    monkeypatch.setattr(verifier, "_lemma_pass_at", broken)
    argv = ["verify", "--family", "lemma-sigma", "--pmin", "7", "--pmax", "7",
            "--alpha", "1/3"]
    with pytest.raises(sweep.InternalError) as info:
        run_sweep(SweepConfig(families=("lemma-sigma",), p_min=7, p_max=7,
                              alpha_list=("1/3",)))
    assert isinstance(info.value.__cause__, ValueError)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: base is not invertible" in err
    last = "InternalError: internal error checking LEMMA_SIGMA p=7 alpha=1/3"
    assert last in err.splitlines()[-1]
    assert "config error" not in err
    # a grouped instance names the family that failed, not every family
    assert main(argv[:3] + ["--family", "main1"] + argv[3:]) == 4
    last = "InternalError: internal error checking LEMMA_SIGMA p=7 alpha=1/3: "
    assert last in capsys.readouterr().err.splitlines()[-1]


def test_truncation_too_large_is_an_internal_error(monkeypatch):
    # every sweep truncation is below p, so reading a tree at M = p, where
    # p divides M!, can only be a bug
    def read_at_p(jobs, truncs):
        [(p, _, _)] = jobs
        return verifier._sums(Fraction(1, 2), {p: (p,)})

    monkeypatch.setattr(sweep, "verify_primes", read_at_p)
    with pytest.raises(sweep.InternalError) as info:
        run_sweep(SweepConfig(families=("B2",), p_min=7, p_max=7))
    assert isinstance(info.value.__cause__, ValueError)
    assert str(info.value) == ("internal error checking B2 p=7: ValueError: "
                               "base is not invertible for the given modulus")


@pytest.mark.parametrize("site, error, families, where", [
    ("_closed_form", NotPAdicIntegral, ("MAIN1", "E2"), "E2 p=7 truncation=short"),
    ("_closed_form", NotPAdicIntegral, ("MAIN1",),
     "MAIN1 p=7 alpha=1/3 truncation=full"),
    ("_lemma_pass_at", DivisionByZeroTerm, ("LEMMA_SIGMA",),
     "LEMMA_SIGMA p=7 alpha=1/3"),
])
def test_a_bug_is_not_a_skip(monkeypatch, capsys, site, error, families, where):
    # a family skips only on the PreconditionViolated its check raises; the
    # errors of padic and wz raised by a broken step are bugs, named by the
    # family and labels that were being checked
    def bug(*args):
        raise error("bug")

    monkeypatch.setattr(verifier, site, bug)
    with pytest.raises(InternalError) as info:
        run_sweep(SweepConfig(families=families, p_min=7, p_max=13,
                              alpha_list=("1/3",)))
    last = f"internal error checking {where}: {error.__name__}: bug"
    assert str(info.value) == last
    assert type(info.value.__cause__) is error
    argv = ["verify", "--pmin", "7", "--pmax", "13", "--alpha=1/3"]
    assert main(argv + [f"--family={f}" for f in families]) == 4
    assert capsys.readouterr().err.splitlines()[-1].endswith(last)


@pytest.mark.parametrize("family, site, argv", [
    ("LEHMER", "check_lehmer", ["identities", "--nmax", "1", "--pmax", "5"]),
    ("WZ_PAIR", "check_pair", ["wz", "--nmax", "1", "--kmax", "1"]),
    ("RAMANUJAN", "ramanujan_partial", ["smoke"]),
])
def test_precondition_error_outside_a_family_is_an_internal_error(
    monkeypatch, capsys, family, site, argv
):
    # only verify_prime, verify_alpha and verify_q turn a failed
    # precondition into a skip; raised by any other check it is a bug
    def refuse(*args):
        raise PreconditionViolated("refused")

    monkeypatch.setattr(sweep, site, refuse)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "supercong.records.PreconditionViolated: refused" in err
    assert err.splitlines()[-1].startswith(
        f"supercong.records.InternalError: internal error checking {family} "
    )


def test_cli_defaults_are_the_api_defaults(monkeypatch):
    monkeypatch.delenv("SUPERCONG_WORKERS", raising=False)
    parser = build_parser()

    def defaults(fn):
        return {k: v.default for k, v in inspect.signature(fn).parameters.items()}

    cfg = SweepConfig(families=())
    args = parser.parse_args(["verify"])
    assert (args.pmin, args.pmax, args.trunc, args.alphas) == (
        cfg.p_min, cfg.p_max, cfg.trunc, cfg.alpha_list
    )
    assert args.workers == cfg.workers
    assert parser.parse_args(["qverify"]).n_list is None  # means cfg.n_list
    for argv, fn, flags in (
        (["identities"], run_identities, ("nmax", "mmax", "pmax", "workers")),
        (["wz"], run_wz, ("nmax", "kmax", "alpha_samples", "seed", "workers")),
        (["smoke"], run_smoke, ("terms", "tol")),
    ):
        args, api = vars(parser.parse_args(argv)), defaults(fn)
        assert {f: args[f] for f in flags} == {f: api[f] for f in flags}, argv


def test_family_name_normalization():
    s = run_sweep(SweepConfig(families=("e2-mod4",), p_min=7, p_max=7))
    assert s.total == 2 and s.passed == 2


def test_summary_counts_consistent():
    s = run_sweep(
        SweepConfig(families=("B2", "TAIL"), p_min=5, p_max=13,
                    alpha_list=(Fraction(1),))
    )
    assert s.total == s.passed + s.failed + s.skipped
    assert len(s.failures) == s.failed == 0


def test_records_sorted_deterministically():
    cfg = SweepConfig(families=("TAIL", "B2"), p_min=5, p_max=31)
    s = run_sweep(cfg)
    keys = [r.sort_key() for r in s.records]
    assert keys == sorted(keys)


# one small run of each instance kind, with skips where the kind has them
WORKER_RUNS = {
    "prime": lambda w: run_sweep(SweepConfig(
        families=PRIME_FAMILIES, p_min=2, p_max=37, workers=w)),
    "alpha": lambda w: run_sweep(SweepConfig(
        families=ALPHA_FAMILIES, p_min=2, p_max=13,
        alpha_list=("1/5", "0", "-3", "1", "1/2", "-1/3"), workers=w)),
    "q": lambda w: run_sweep(SweepConfig(
        families=Q_FAMILIES, n_list=(1, 2, 4, 5, 7, 9), workers=w)),
    "identities": lambda w: run_identities(nmax=6, pmax=31, mmax=3, workers=w),
    "wz": lambda w: run_wz(nmax=4, kmax=4, alpha_samples=3, workers=w),
}


@pytest.fixture
def no_floor(monkeypatch):
    # every run with more than one worker forks, however small its work:
    # the forked run's own tests use runs far below sweep._FORK_FLOOR
    monkeypatch.setattr(sweep, "_FORK_FLOOR", 0)


@pytest.mark.parametrize("kind", WORKER_RUNS)
def test_worker_count_does_not_change_report(kind, monkeypatch, no_floor):
    run = WORKER_RUNS[kind]
    serial = run(1)
    assert serial.total > 1 and serial.failed == 0
    pids = _record_forks(monkeypatch)
    for workers in (2, 3):
        assert render_json(serial) == render_json(run(workers))
    # the prime and the alpha families run as one tree instance, which
    # never forks
    assert len(pids) == (0 if kind in ("prime", "alpha") else 1 + 2)


def _record_forks(monkeypatch) -> list[int]:
    # the pids of the children os.fork starts from here on
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _wait_for_exit(pid: int, timeout: float = 60.0) -> None:
    # until the child has exited, without reaping it: the parent's first
    # instance waits here, so its one child claims every other instance.
    # A child exits only once its whole message is in its pipe, which the
    # parent reads only between its instances, so the child's results must
    # fit in the pipe's buffer (64 KiB) for it to exit while the parent waits
    deadline = time.monotonic() + timeout
    while os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG) is None:
        assert time.monotonic() < deadline, f"worker {pid} did not exit"
        time.sleep(0.001)


def _assert_no_child_left(fds: int) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_pool_has_no_more_workers_than_instances(monkeypatch, no_floor):
    # the parent runs instances too, so it forks one child fewer than the
    # workers asked for, and no more than there are instances to share
    pids = _record_forks(monkeypatch)
    insts = build_instances(SweepConfig(families=("GZ_E2",), n_list=(5, 7, 9, 11)))
    assert len(insts) == 4
    serial = sweep._summary(insts, 1)
    forks = []
    for workers in (64, 2, 1):
        before = len(pids)
        s = sweep._summary(insts, workers)
        assert s.records == serial.records and s.workers == min(workers, 4)
        forks.append(len(pids) - before)
    assert forks == [3, 1, 0]


# the benchmark's lemma run: five families, p <= 199, ten alphas; about
# 0.06 s of work, below the fork floor
LEMMA_ARGV = ["verify", *(a for f in LEMMA_FAMILIES for a in ("--family", f)),
              "--pmin", "5", "--pmax", "199",
              *(f"--alpha={a}" for a in ("1/2", "1/3", "1/4", "-1/2", "5/3", "-1/4",
                                         "-8/5", "1/6", "5/6", "-1/3"))]


def test_a_run_below_the_floor_is_the_serial_run(monkeypatch, tmp_path):
    # --workers 2 below the floor: the instances of --workers 1 run here
    # without a fork or the forked module, for the benchmark's lemma run
    # (one instance) and for the q-families at n = 5, 9, 13 (nine)
    code = ("import os, sys, supercong.cli; forks = []; fork = os.fork; "
            "os.fork = lambda: forks.append(1) or fork(); "
            "code = supercong.cli.main(sys.argv[1:]); "
            "print(code, len(forks), 'supercong.forked' in sys.modules)")
    for run in (LEMMA_ARGV, ["qverify", "--n", "5", "--n", "9", "--n", "13"]):
        reports = []
        for workers in ("2", "1"):
            out = tmp_path / f"w{workers}.json"
            argv = [*run, "--workers", workers, "--format", "json", "-o", str(out)]
            proc = subprocess.run([sys.executable, "-c", code, *argv],
                                  capture_output=True, text=True, check=True)
            assert proc.stdout.split() == ["0", "0", "False"]
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
    # the verify families and the q-families at n = 5, 9, 13: ten instances
    cfg = SweepConfig(families=VERIFY_FAMILIES + Q_FAMILIES, p_min=5, p_max=97)
    assert len(build_instances(cfg)) == 10
    assert sum(i.work for i in build_instances(cfg)) < sweep._FORK_FLOOR
    assert build_instances(cfg._replace(workers=3)) == build_instances(cfg)
    pids = _record_forks(monkeypatch)
    s = run_sweep(cfg._replace(workers=3))
    assert pids == [] and s.workers == 1
    assert json.loads(render_json(s, timings=True))["summary"]["timings"]["workers"] == 1
    assert render_json(s) == render_json(run_sweep(cfg))


def test_a_run_above_the_floor_forks(monkeypatch):
    # the trees of B2 and of the lemmas at every alpha to 499, and a
    # q-family at three n, are above the floor: the tree instance first,
    # then one q-instance per n, one child, and the serial report
    cfg = SweepConfig(families=("B2", "LEMMA_ALPHAP3", "GZ_E2"), p_min=5, p_max=499,
                      n_list=(25, 29, 33))
    insts = build_instances(cfg._replace(workers=2))
    assert sum(i.work for i in insts) >= sweep._FORK_FLOOR
    assert [i.family for i in insts] == ["B2,LEMMA_ALPHAP3"] + ["GZ_E2"] * 3
    serial = run_sweep(cfg)
    pids = _record_forks(monkeypatch)
    s = run_sweep(cfg._replace(workers=2))
    assert len(pids) == 1 and s.workers == 2
    assert render_json(s) == render_json(serial)
    assert json.loads(render_json(s, timings=True))["summary"]["timings"]["workers"] == 2
    assert "workers: 2" in render_text(s, timings=True).splitlines()


def test_a_tree_only_run_above_the_floor_never_forks(monkeypatch):
    # the tree families alone are one instance, which one process runs
    # whatever --workers asks, though its work is above the floor
    cfg = SweepConfig(families=("B2", "SW_F2_MOD4", "MAO_HALF", "EQUIV",
                                "MAIN1_TRUNC", "TAIL"), p_min=5, p_max=2000)
    [inst] = build_instances(cfg._replace(workers=3))
    assert inst.work >= sweep._FORK_FLOOR
    serial = run_sweep(cfg)
    pids = _record_forks(monkeypatch)
    s = run_sweep(cfg._replace(workers=3))
    assert pids == [] and s.workers == 1
    assert json.loads(render_json(s, timings=True))["summary"]["timings"]["workers"] == 1
    assert render_json(s) == render_json(serial)


@pytest.mark.parametrize("families", [
    ("B2", "MAIN1"), ALPHA_FAMILIES, ("LEMMA_PROD", "EQUIV", "TAIL", "GZ_E2"),
], ids=["trees", "alpha", "mixed"])
def test_the_instances_do_not_depend_on_the_worker_count(families, no_floor):
    # the selection alone decides the instances: one tree instance for the
    # tree jobs of every prime, however many workers are asked for and
    # whatever the work
    cfg = SweepConfig(families=families, p_min=5, p_max=97,
                      alpha_list=("1/2", "1/3"))
    insts = build_instances(cfg)
    assert [p for p, _, _ in insts[0].args[0]] == sieve_primes(5, 97)
    assert all(len(i.args[0]) == 1 for i in insts[1:] if i.run is verify_primes)
    for workers in (2, 3, 64):
        assert build_instances(cfg._replace(workers=workers)) == insts
    if families == ("B2", "MAIN1"):
        # a job extends the trees from the last job's prime: 8 us per prime
        # and tree, here the trees of 1/2 and 1/3 for MAIN1 and of 1/3 for B2
        [tree] = insts
        assert tree.work == 8 * 97 * 3


def test_claims_of_chunks_give_the_serial_report(monkeypatch, no_floor):
    # more instances than tokens: a token claims a chunk of ceil(n / 2)
    # consecutive instances, and the last chunk is short for n = 13: the
    # tree instance and a q-instance for each of 12 n, at every worker count
    monkeypatch.setattr(forked, "_MAX_TOKENS", 2)
    cfg = SweepConfig(families=("B2", "LEMMA_PROD", "GZ_E2"), p_min=5, p_max=43,
                      n_list=tuple(range(3, 27, 2)))
    assert len(build_instances(cfg)) == 13
    serial = render_json(run_sweep(cfg))
    pids = _record_forks(monkeypatch)
    for workers in (2, 3):
        assert render_json(run_sweep(cfg._replace(workers=workers))) == serial
    assert len(pids) == 1 + 2


def test_a_bug_in_a_worker_exits_4(monkeypatch, capsys, no_floor):
    # the child's error reaches the parent with the message a serial run
    # gives and the child's traceback as its cause
    fds = len(os.listdir("/proc/self/fd"))
    parent, pids = os.getpid(), _record_forks(monkeypatch)
    check = sweep.verify_at_n

    def bug_at_11(n, *args):
        if os.getpid() == parent and pids:
            _wait_for_exit(pids[-1])
        if n == 11:
            raise ZeroDivisionError("bug at 11")
        return check(n, *args)

    monkeypatch.setattr(sweep, "verify_at_n", bug_at_11)
    cfg = SweepConfig(families=("GZ_E2",), n_list=(5, 7, 9, 11))
    msg = "internal error checking GZ_E2 n=11: ZeroDivisionError: bug at 11"
    with pytest.raises(InternalError) as serial:
        run_sweep(cfg)
    with pytest.raises(InternalError) as forked:
        run_sweep(cfg._replace(workers=2))
    assert str(serial.value) == str(forked.value) == msg
    assert "ZeroDivisionError: bug at 11" in str(forked.value.__cause__)
    argv = ["qverify", "--family", "gz-e2", "--n", "5", "--n", "7", "--n", "9",
            "--n", "11", "--workers", "2"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "ZeroDivisionError: bug at 11" in err
    assert err.splitlines()[-1] == f"supercong.records.InternalError: {msg}"
    assert len(pids) == 2
    _assert_no_child_left(fds)


def test_a_worker_that_dies_exits_4(monkeypatch, capsys, no_floor):
    # a child killed mid-run is an error naming it, never a report without
    # the records of the instances it claimed
    fds = len(os.listdir("/proc/self/fd"))
    parent, pids = os.getpid(), _record_forks(monkeypatch)
    check = sweep.verify_at_n

    def die_in_a_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        _wait_for_exit(pids[-1])
        return check(*args)

    monkeypatch.setattr(sweep, "verify_at_n", die_in_a_child)
    died = r"worker 1 \(pid \d+\) ended before its last instance: killed by SIGKILL"
    with pytest.raises(InternalError, match=died):
        run_sweep(SweepConfig(families=("GZ_E2",), n_list=(5, 7, 9, 11), workers=2))
    argv = ["qverify", "--family", "gz-e2", "--n", "5", "--n", "7", "--n", "9",
            "--n", "11", "--workers", "2"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and "killed by SIGKILL" in err.splitlines()[-1]
    assert len(pids) == 2
    _assert_no_child_left(fds)


@pytest.mark.parametrize("end", ["bug", "exit-0", "exit-1"])
def test_a_failed_worker_stops_the_parent_at_its_next_instance(monkeypatch, end,
                                                              no_floor):
    # the parent collects a finished child between its instances: once its
    # child has failed, it claims no other instance.  A child that exits
    # without its message, whatever its exit code, is an error naming it
    fds = len(os.listdir("/proc/self/fd"))
    parent, pids = os.getpid(), _record_forks(monkeypatch)
    check = sweep.verify_at_n
    ran = []  # the n of the parent's instances

    def fail_in_the_child(n, *args):
        if os.getpid() != parent:
            if end == "bug":
                raise ZeroDivisionError("bug in the child")
            os._exit(int(end[-1]))
        ran.append(n)
        _wait_for_exit(pids[-1])
        return check(n, *args)

    monkeypatch.setattr(sweep, "verify_at_n", fail_in_the_child)
    died = r"worker 1 \(pid \d+\) ended before its last instance: exit code "
    failed = (r"internal error checking GZ_E2 n=\d+: ZeroDivisionError: bug in the child"
              if end == "bug" else died + end[-1])
    with pytest.raises(InternalError, match=failed):
        run_sweep(SweepConfig(families=("GZ_E2",), n_list=tuple(range(5, 21, 2)),
                              workers=2))
    assert len(ran) == 1 and len(pids) == 1
    _assert_no_child_left(fds)


def test_a_message_of_several_reads_gives_the_serial_report(monkeypatch, no_floor):
    # a child's one message may be far larger than its pipe's buffer: the
    # parent reads it to EOF while the child writes the rest.  The parent's
    # first instance waits until its child has run one, whose rows alone
    # pickle to more than 64 KiB
    parent, pids = os.getpid(), _record_forks(monkeypatch)
    check = sweep.verify_at_n
    started, ran = os.pipe()
    waited = []

    def padded(n, *args):
        if os.getpid() != parent:
            os.write(ran, b"x")
        elif pids and not waited:
            waited.append(n)
            os.read(started, 1)
        return [(*row[:-1], f"pad {j:05} of n={n} " + "-" * 40)
                for row in check(n, *args) for j in range(3000)]

    monkeypatch.setattr(sweep, "verify_at_n", padded)
    try:
        assert len(pickle.dumps(padded(7, ("GZ_E2",)))) > 1 << 16
        cfg = SweepConfig(families=("GZ_E2",), n_list=(5, 7, 9, 11))
        serial = render_json(run_sweep(cfg))
        assert render_json(run_sweep(cfg._replace(workers=2))) == serial
    finally:
        os.close(started)
        os.close(ran)
    assert len(pids) == 1 and len(waited) == 1


@pytest.mark.parametrize("error, raised", [
    (ZeroDivisionError("bug in the parent"), InternalError),
    (KeyboardInterrupt(), KeyboardInterrupt),
], ids=["bug", "interrupt"])
def test_an_error_in_the_parent_leaves_no_worker(monkeypatch, error, raised, no_floor):
    # the children still at work are killed and reaped, and every pipe closed
    fds = len(os.listdir("/proc/self/fd"))
    parent, pids = os.getpid(), _record_forks(monkeypatch)
    check = sweep.verify_at_n
    # a child blocks in its first instance on a read from a pipe that nothing
    # writes, so the parent claims an instance and raises while both children
    # are at work; the read sees EOF only once the test has closed its end
    wait, hold = os.pipe()

    def fail_in_the_parent(*args):
        if os.getpid() == parent:
            raise error
        with contextlib.suppress(OSError):  # closed by an earlier instance
            os.close(hold)
        os.read(wait, 1)
        return check(*args)

    monkeypatch.setattr(sweep, "verify_at_n", fail_in_the_parent)
    try:
        with pytest.raises(raised):
            run_sweep(SweepConfig(families=("GZ_E2",), n_list=tuple(range(3, 35, 2)),
                                  workers=3))
    finally:
        os.close(wait)
        os.close(hold)
    assert len(pids) == 2
    _assert_no_child_left(fds)


# Runs the CLI on its argv as the child of a subreaper, so that the CLI's
# worker, orphaned by a SIGKILL, becomes this process's child.  With a second
# reader on each of the worker's pipes, neither the claim pipe nor the result
# pipe breaks when the CLI dies, so only the worker's own check can end it.
# Prints the bytes of claim tokens left when the CLI died and after the
# worker ended, and the worker's exit code.
_ORPHAN_LAUNCHER = r"""
import contextlib, ctypes, fcntl, os, signal, subprocess, sys, termios, time

assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
# no standard stream is a pipe, so the worker's only pipes are the forked run's
cli = subprocess.Popen([sys.executable, "-m", "supercong.cli", *sys.argv[1:]],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
deadline = time.monotonic() + 60
children = f"/proc/{cli.pid}/task/{cli.pid}/children"
while not (kids := open(children).read().split()):
    assert cli.poll() is None and time.monotonic() < deadline
    time.sleep(0.001)
worker = int(kids[0])


def pipes():
    out = []
    for fd in os.listdir(f"/proc/{worker}/fd"):
        with contextlib.suppress(FileNotFoundError):  # closed since the listing
            if os.readlink(f"/proc/{worker}/fd/{fd}").startswith("pipe:"):
                out.append(fd)
    return out

while len(fds := pipes()) != 2:  # until it has closed the result pipes it inherited
    assert time.monotonic() < deadline
    time.sleep(0.001)
ends = {}  # access mode of the worker's end (0 read: claims, 1 write: results)
for fd in fds:
    mode = int(open(f"/proc/{worker}/fdinfo/{fd}").read().split()[3], 8) & 3
    ends[mode] = os.open(f"/proc/{worker}/fd/{fd}", os.O_RDONLY | os.O_NONBLOCK)
os.kill(worker, signal.SIGSTOP)
os.kill(cli.pid, signal.SIGKILL)
cli.wait()

def left():  # the bytes of claim tokens in the claim pipe
    count = fcntl.ioctl(ends[0], termios.FIONREAD, bytes(4))
    return int.from_bytes(count, sys.byteorder)

before = left()
os.kill(worker, signal.SIGCONT)
while not (ended := os.waitpid(worker, os.WNOHANG))[0]:
    if time.monotonic() > deadline:
        os.kill(worker, signal.SIGKILL)
    with contextlib.suppress(BlockingIOError):
        os.read(ends[1], 1 << 16)  # the worker's results, so its pipe never fills
    time.sleep(0.001)
status = ended[1]
print(before, left(), os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs prctl and /proc")
def test_a_worker_claims_nothing_once_its_parent_is_killed():
    # SIGKILL runs no handler, so the forked run cannot end its children;
    # each child checks before every claim that the process it was forked
    # from is still its parent, and exits 1 once it is not.  It may finish
    # the chunk it holds, and claim one more chunk only if its check ran
    # just before the CLI died
    argv = ["qverify", "--family", "gz-e2", "--workers", "2",
            *(f"--n={n}" for n in range(41, 81, 2))]
    proc = subprocess.run([sys.executable, "-c", _ORPHAN_LAUNCHER, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after, code = map(int, proc.stdout.split())
    assert before > 2 * forked._TOKEN, "the run ended before its worker was stopped"
    assert before - after <= forked._TOKEN and code == 1


def test_sigterm_ends_the_cli_after_its_workers():
    # SIGTERM ends the CLI as the signal does, with no traceback, once the
    # forked run has killed and reaped its child: the child, which is at
    # work on an instance of a second or more, is gone with the parent
    argv = ["qverify", "--n", "85", "--workers", "2"]
    proc = subprocess.Popen([sys.executable, "-m", "supercong.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    children = f"/proc/{proc.pid}/task/{proc.pid}/children"
    deadline = time.monotonic() + 60
    while not (pids := open(children).read().split()):
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.001)
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (-signal.SIGTERM, "", "")
    assert not os.path.exists(f"/proc/{pids[0]}")
    # called in this process, main hands the handler it found back
    before = signal.getsignal(signal.SIGTERM)
    assert main(["verify", "--pmax", "7", "--family", "B2", "-o", os.devnull]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_render_json_shape():
    s = run_sweep(SweepConfig(families=("B2",), p_min=5, p_max=7))
    doc = json.loads(render_json(s))
    assert set(doc) == {"records", "summary"}
    rec = doc["records"][0]
    assert rec["family"] == "B2" and rec["pass"] is True
    assert "elapsed_ms" not in rec  # timings are opt-in
    assert doc["summary"]["total"] == s.total
    doc = json.loads(render_json(s, timings=True))
    assert "elapsed_ms" in doc["records"][0]


def record_to_dict(r: VerificationRecord, timings: bool = False) -> dict:
    # one record as the report's formats once read it: the JSON and CSV
    # oracles' input
    d: dict = {"family": r.family}
    if r.p is not None:
        d["p"] = r.p
    if r.n is not None:
        d["n"] = r.n
    if r.alpha is not None:
        d["alpha"] = str(r.alpha)
    if r.truncation is not None:
        d["truncation"] = r.truncation
    d["modulus"] = r.modulus
    d["lhs"] = sweep._side(r.lhs)
    d["rhs"] = sweep._side(r.rhs)
    d["pass"] = r.passed
    if r.reason is not None:
        d["reason"] = r.reason
    if timings and r.elapsed_ms is not None:
        d["elapsed_ms"] = round(r.elapsed_ms, 3)
    return d


def _render_json_oracle(summary: ReportSummary, timings: bool = False) -> str:
    # the encoder render_json replaced: indent=2 over the whole report doc
    counts = {"total": summary.total, "passed": summary.passed,
              "failed": summary.failed, "skipped": summary.skipped}
    if timings:
        counts["timings"] = sweep.timing_summary(summary)
    doc = {"records": [record_to_dict(r, timings) for r in summary.records],
           "summary": counts}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_csv_oracle(summary: ReportSummary, timings: bool = False) -> str:
    # the writer render_csv replaced: a csv.DictWriter row per record dict
    import csv

    buf = io.StringIO()
    cols = sweep._CSV_COLUMNS + (("elapsed_ms",) if timings else ())
    w = csv.DictWriter(buf, cols, restval="", lineterminator="\n")
    w.writeheader()
    for r in summary.records:
        row = record_to_dict(r, timings)
        row["result"] = {True: "pass", False: "fail", None: "skip"}[row.pop("pass")]
        w.writerow(row)
    return buf.getvalue()


def _oracle_reports() -> dict[str, ReportSummary]:
    timed = run_sweep(SweepConfig(families=VERIFY_FAMILIES, p_min=2, p_max=13,
                                  alpha_list=("1/2", "1/13", "-1")))
    # skips for the residue class (the ≡ reasons), a failure, and a reason
    # with every character JSON escapes
    odd = make_record("B2", "7^3", ResidueClass(1, 343), ResidueClass(2, 343), p=7,
                      truncation="short")
    text = VerificationRecord("TAIL", "-", "-", "-", None, p=5, alpha=Fraction(-1, 2),
                              reason='quote " backslash \\ newline \n tab \t ≡ é')
    return {
        "timed": timed,
        "mixed": summarize(list(timed.records) + verify_prime(5) + [odd, text]),
        "q": run_sweep(SweepConfig(families=Q_FAMILIES, n_list=(2, 5))),
        "identities": run_identities(nmax=3, pmax=11, mmax=2),
        "empty": summarize([]),
    }


@pytest.mark.parametrize("timings", (False, True))
def test_render_json_matches_the_indent_encoder(timings):
    reports = _oracle_reports()
    assert reports["mixed"].failed == 1
    assert len(reports["mixed"].records) == 247
    assert any("≡" in (r.reason or "") for r in reports["mixed"].records)
    for name, summary in reports.items():
        assert render_json(summary, timings) == _render_json_oracle(summary, timings), name


@pytest.mark.parametrize("timings", (False, True))
def test_render_csv_matches_the_dict_writer(timings):
    for name, summary in _oracle_reports().items():
        assert render_csv(summary, timings) == _render_csv_oracle(summary, timings), name


def test_timings_summary():
    cfg = SweepConfig(families=("E2", "MAO_HALF", "TAIL", "LEMMA_PROD"), p_min=2,
                      p_max=31, alpha_list=("1/3", "1", "1/7"))
    s = run_sweep(cfg)
    t = json.loads(render_json(s, timings=True))["summary"]["timings"]
    assert set(t) == {"family_ms", "phase_ms", "skips", "workers"}
    assert t["workers"] == 1
    # per family: the sum of its records' elapsed_ms
    for fam in cfg.families:
        want = sum(r.elapsed_ms for r in s.records if r.family == fam)
        assert t["family_ms"][fam] == round(want, 3) and want > 0
    # per phase: every verify instance's phase seconds, in ms
    assert set(t["phase_ms"]) == set(PHASES)
    assert all(ms > 0 for ms in t["phase_ms"].values())
    # elapsed_ms is the instance time over its records, and at least the
    # share of its phases: the same for all records of the one block
    assert len({(r.elapsed_ms, r.phase_ms) for r in s.records}) == 1
    assert sum(s.records[0].phase_ms) <= s.records[0].elapsed_ms
    assert sum(t["skips"].values()) == s.skipped
    # by family and reason, numbers written #: at p = 2 and 3 for each alpha,
    # at each p > 3 for alpha = 1, and at p = 7 for alpha = 1/7
    assert {k: n for k, n in t["skips"].items() if k.startswith("TAIL")} == {
        "TAIL: needs p > #, got p = #": 2 * 3,
        "TAIL: <-alpha>_p = p-# for alpha = #, p = #: tail is empty": 9,
        "TAIL: -#/# has no residue mod #^#": 1,
    }
    # the digits of a family's name, where its reason names it, stay
    q = run_sweep(SweepConfig(families=("GZ_E2", "CONJ41"), n_list=(1, 3)))
    assert sweep.timing_summary(q)["skips"] == {
        "GZ_E2: GZ_E2 needs odd n >= #, got n = #": 1,
        "CONJ41: CONJ41 needs n ≡ # (mod #), n >= #, got n = #": 2,
    }
    # the text report ends with the same figures
    text = render_text(s, timings=True).splitlines()
    assert text[-len(t["skips"]) - len(t["family_ms"]) - 1].startswith("phases: sums ")
    assert text[-len(t["skips"]) - len(t["family_ms"]) - 2] == "workers: 1"
    assert "phases:" not in render_text(s) and "timings" not in render_json(s)


def test_render_csv_shape():
    s = run_sweep(SweepConfig(families=("B2",), p_min=5, p_max=7))
    lines = render_csv(s).splitlines()
    assert lines[0].startswith("family,p,n,alpha,truncation,modulus,lhs,rhs")
    assert len(lines) == 1 + s.total
    assert ",pass," in lines[1] or lines[1].endswith("pass,")


# sha256 of the text and CSV reports of three cases of test_report_digests,
# pinned before the records came to be built by position and the summary
# counted in one pass, which every format reads
FORMAT_DIGESTS = {
    ("verify_alphas", "text"):
        "ccd1f75111b7e3821f05a0ceb5d19ea06dd07efc4adaa0e074b2702b4e947830",
    ("verify_alphas", "csv"):
        "326ad02080a017a73fa2349e06c6f4c725d988c1e9bc74ebfa547e98d3fb3379",
    ("qverify_skips", "text"):
        "b185c5fd1a46da087ddc05de5e3a15920ad0312844ae8281486cd54733431553",
    ("qverify_skips", "csv"):
        "8f29257689fa97224c6452807ae1bd8e429675402caca66ab3441168e57a6ea9",
    ("identities", "text"):
        "1959650abadf0054ee53a57729947c85bcbea5f2200424f675fcff044647a463",
    ("identities", "csv"):
        "18137f54350889dd4854b3c74374a63bf1d6c3bf4bf408f84ecca7ec76fdf5e4",
}


@pytest.mark.parametrize("name, fmt", sorted(FORMAT_DIGESTS))
def test_render_text_and_csv_digest(name, fmt):
    from test_report_digests import CASES

    got = hashlib.sha256(render(CASES[name][0](), fmt).encode()).hexdigest()
    assert got == FORMAT_DIGESTS[name, fmt], f"{name}: {fmt} report bytes changed"


def test_render_text_summary_line():
    s = run_sweep(SweepConfig(families=("B2",), p_min=5, p_max=7))
    out = render(s, "text")
    assert out.splitlines()[-1] == "total=4 passed=4 failed=0 skipped=0"
    assert out.count("[PASS]") == 4


def test_exit_code_mapping():
    passing = make_record("B2", "5^3", "1", "1", p=5)
    failing = make_record("B2", "5^3", "1", "2", p=5)
    conj_bad = make_record("CONJ41", "[5]*Phi_5^3", "nonzero", "0", n=5)
    [skip] = verify_alpha(Fraction(1), 5, ("TAIL",))  # <-1>_5 = p-1: empty
    assert exit_code(summarize([passing, skip])) == 0
    assert exit_code(summarize([passing, failing])) == 1
    assert exit_code(summarize([passing, failing, conj_bad])) == 3


def test_run_identities():
    s = run_identities(nmax=4, pmax=13, mmax=4)
    fams = {r.family for r in s.records}
    assert fams == {"BINOM_IDS", "EULER_IDS", "LEHMER"}
    assert s.failed == 0
    assert sum(1 for r in s.records if r.family == "LEHMER") == len(
        sieve_primes(5, 13)
    )


def test_run_identities_checks_every_prime_in_one_instance(monkeypatch):
    # one instance per n, one for the Euler bundle and one Lehmer instance
    # for all 301 primes up to 1999, labelled by the largest
    built = []
    run = sweep._run_instances

    def spy(insts, workers):
        built.extend(insts)
        return run(insts, workers)

    monkeypatch.setattr(sweep, "_run_instances", spy)
    s = run_identities(nmax=200, pmax=1999, mmax=20)
    assert len(built) == 202
    [lehmer] = [i for i in built if i.family == "LEHMER"]
    primes = sieve_primes(5, 1999)
    assert lehmer.p == 1999 and lehmer.args == (primes,)
    assert [r.p for r in s.records if r.family == "LEHMER"] == primes
    assert s.failed == 0


def test_an_error_in_the_lehmer_pass_names_the_largest_prime(monkeypatch):
    def bug(primes):
        raise KeyError("bug")

    monkeypatch.setattr(sweep, "check_lehmer", bug)
    with pytest.raises(InternalError,
                       match=r"^internal error checking LEHMER p=13: KeyError: 'bug'$"):
        run_identities(nmax=1, pmax=13, mmax=1)


def test_run_wz():
    s = run_wz(nmax=4, kmax=4, alpha_samples=3, seed=1)
    assert s.total == 6 and s.failed == 0
    assert {r.family for r in s.records} == {"WZ_PAIR", "WZ_TELESCOPE"}


def test_run_smoke():
    s = run_smoke(terms=50, tol=1e-6)
    assert s.total == 1 and s.passed == 1
    assert s.records[0].family == "RAMANUJAN"
    with pytest.raises(ConfigError):
        run_smoke(terms=0)
    with pytest.raises(ConfigError):
        run_smoke(tol=0.0)


def test_failing_checks_outside_the_families_keep_their_records(monkeypatch):
    # an identity, Lehmer or WZ check that returns False, and a smoke run
    # too short to converge: each gives one failing record with the labels
    # of its instance
    for name in ("check_binomial_identities", "check_pair"):
        monkeypatch.setattr(sweep, name, lambda *args: False)
    # Lehmer fails at 7 only, and the records of 5 and 11 still pass
    monkeypatch.setattr(sweep, "check_lehmer", lambda ps: [p != 7 for p in ps])
    ids = run_identities(nmax=1, pmax=11, mmax=1)
    assert ids.failures == (
        VerificationRecord("BINOM_IDS", "exact", "unequal", "equal", False, n=1),
        VerificationRecord("LEHMER", "7^2", "nonzero", "0", False, p=7),
    )
    assert [r for r in ids.records if r.family == "LEHMER" and r.passed] == [
        VerificationRecord("LEHMER", f"{p}^2", "0", "0", True, p=p) for p in (5, 11)]
    [alpha] = sample_alphas(1, 0)
    wz = run_wz(nmax=2, kmax=2, alpha_samples=1, seed=0)
    assert wz.failures == (VerificationRecord(
        "WZ_PAIR", "exact", "unequal", "equal", False, n=2, alpha=alpha),)
    [smoke] = run_smoke(terms=1).records
    target = 2 / math.pi
    assert smoke == VerificationRecord(
        "RAMANUJAN", "tol=1e-06", "1.0", repr(target), False, n=1,
        reason=f"off by {abs(1.0 - target)!r}")
    assert smoke.passed is False


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_smoke_refuses_a_tolerance_that_is_not_finite(tol, capsys):
    # nan fails every comparison and inf passes every one: neither is a check
    with pytest.raises(ConfigError):
        run_smoke(tol=float(tol))
    assert main(["smoke", f"--tol={tol}"]) == 2
    assert "config error: tol must be finite" in capsys.readouterr().err


# -- CLI


def test_cli_qverify_json(tmp_path):
    out = tmp_path / "r.json"
    code = main(["qverify", "--n", "5", "--format", "json", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"] == {"failed": 0, "passed": 3, "skipped": 0, "total": 3}


def test_cli_flags_before_subcommand(tmp_path):
    out = tmp_path / "r.json"
    code = main(["--format", "json", "-o", str(out), "qverify", "--n", "5"])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["total"] == 3


def test_cli_verify_subset(tmp_path):
    out = tmp_path / "r.csv"
    code = main([
        "verify", "--family", "e2-mod4", "--family", "b2",
        "--pmin", "5", "--pmax", "20", "--trunc", "short",
        "--format", "csv", "-o", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) > 2 and lines[0].startswith("family,")


def test_removed_settings_are_refused(capsys):
    # the mod-p^3 statements are the five mod-p^3 families, not an option
    with pytest.raises(SystemExit) as info:
        main(["verify", "--family", "sun-b2", "--pmax", "13", "--mod-exp", "3"])
    assert info.value.code == 2
    assert "--mod-exp" in capsys.readouterr().err
    with pytest.raises(TypeError):
        SweepConfig(families=("B2",), modulus_exp=3)
    with pytest.raises(TypeError):
        run_identities(euler_nmax=8)
    with pytest.raises(TypeError):
        verify_prime(7, ("E2_MOD4",), ("short",), modulus_exp=3)
    with pytest.raises(TypeError):
        sample_alphas(3, 0, k_max=30)
    with pytest.raises(TypeError):
        check_euler_identities(10, 3, sample_points=[Fraction(1)])


def test_cli_config_error_exit_2(capsys):
    assert main(["verify", "--pmin", "10", "--pmax", "5"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["verify", "--family", "nope"]) == 2
    assert main(["verify", "--alpha", "x/y"]) == 2
    assert main(["verify", "--alpha", "1/0", "--family", "main1"]) == 2
    # a prime-free window must not report success over zero checks
    assert main(["verify", "--pmin", "90", "--pmax", "91"]) == 2
    assert main(["wz", "--alpha-samples", "1000"]) == 2


def test_cli_identities_rejects_mmax_below_one(capsys):
    # below m = 1 the Euler bundle checks no power sum, so a pass means nothing
    for bad in ("0", "-3"):
        assert main(["identities", "--mmax", bad]) == 2
        assert "mmax >= 1" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        run_identities(nmax=1, pmax=5, mmax=0)


def test_cli_identities_and_wz_and_smoke(capsys):
    assert main(["identities", "--nmax", "3", "--pmax", "7", "--mmax", "3"]) == 0
    assert main(["wz", "--nmax", "3", "--kmax", "3", "--alpha-samples", "2"]) == 0
    assert main(["smoke", "--terms", "40"]) == 0
    capsys.readouterr()


def test_cli_workers_env_default(monkeypatch, capsys):
    monkeypatch.setenv("SUPERCONG_WORKERS", "3")
    args = build_parser().parse_args(["qverify"])
    assert args.workers == 3
    for bad in ("junk", "0", "-2"):
        monkeypatch.setenv("SUPERCONG_WORKERS", bad)
        with pytest.raises(SystemExit) as info:
            main(["smoke"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert repr(bad) in err and "SUPERCONG_WORKERS" in err
    # the flag takes precedence over the environment
    assert build_parser().parse_args(["qverify", "--workers", "2"]).workers == 2


@pytest.mark.parametrize("command", ["verify", "qverify", "identities", "wz", "smoke"])
@pytest.mark.parametrize("bad", ["0", "-3", "abc"])
def test_cli_rejects_bad_worker_flag(command, bad, capsys):
    for argv in ([command, "--workers", bad], ["--workers", bad, command]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert repr(bad) in capsys.readouterr().err


def test_cli_unwritable_output_is_refused_before_the_run(
    tmp_path, monkeypatch, capsys
):
    # not exit 1 with a traceback after the whole sweep: exit 1 means a
    # check failed
    monkeypatch.setattr(cli, "_run", lambda args: pytest.fail("the run started"))
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["verify", "--pmax", "13", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: cannot write the report to {out}: "
                       "not a file in an existing directory\n")


def test_cli_missing_witness_dir_is_refused_before_the_run(
    tmp_path, monkeypatch, capsys
):
    # otherwise it would only show once CONJ41 finds a counterexample
    monkeypatch.setattr(cli, "_run", lambda args: pytest.fail("the run started"))
    missing = tmp_path / "missing"
    assert main(["qverify", "--n", "5", "--witness-dir", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"config error: witness directory {missing} is not a directory\n"
    )


def test_cli_witness_file_on_conjecture_failure(tmp_path):
    from supercong.cli import _write_witnesses

    fake = make_record("CONJ41", "[5]*Phi_5^3", "nonzero residue", "0", n=5)
    assert fake.passed is False
    _write_witnesses(summarize([fake]), str(tmp_path))
    written = tmp_path / "conj41_witness_n5.json"
    assert written.exists()
    doc = json.loads(written.read_text())
    assert doc["n"] == 5 and "difference_numerator" in doc


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "supercong.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "qverify" in proc.stdout


def test_record_sort_key_and_equality():
    a = make_record("B2", "5^3", "1", "1", p=5, truncation="short")
    b = make_record("B2", "5^3", "1", "1", p=5, truncation="short")
    assert a == b
    assert a.sort_key() < make_record("B2", "7^3", "1", "1", p=7).sort_key()


def test_record_timings_take_no_part_in_equality():
    # records from two runs differ in their timings only, and compare and
    # hash as equal
    a = make_record("B2", "5^3", ResidueClass(1, 125), ResidueClass(1, 125), p=5,
                    truncation="short")
    b = a._replace(elapsed_ms=1.5, phase_ms=(0.1, 0.2, 0.3, 0.4, 0.5))
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != a._replace(truncation="full")
    assert b._asdict()["elapsed_ms"] == 1.5


def test_a_row_with_residue_sides_survives_pickle():
    import pickle

    [row] = family_rows([("B2", "short")],
                        lambda fam, tr: ("5^3", ResidueClass(1, 125), ResidueClass(2, 125)),
                        p=5)
    back = pickle.loads(pickle.dumps(row))
    assert back == row and type(back[2]) is ResidueClass
    assert VerificationRecord(*back) == VerificationRecord(*row)
    rec = VerificationRecord(*row, elapsed_ms=0.5)
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert pickle.loads(pickle.dumps(rec)).elapsed_ms == 0.5


def test_family_records_skips_on_a_precondition_only():
    def sides(fam, truncation):
        if fam == "X":
            raise PreconditionViolated("r")
        if fam == "BUG":
            raise ZeroDivisionError("a bug")
        return "5^3", "1", "2"

    skip, fail = family_records([("X", "short"), ("Y", None)], sides, p=5)
    assert skip == VerificationRecord("X", "-", "-", "-", None, p=5,
                                      truncation="short", reason="r")
    assert fail == make_record("Y", "5^3", "1", "2", p=5)
    with pytest.raises(InternalError) as info:
        family_records([("BUG", None)], sides)
    assert str(info.value) == "internal error checking BUG: ZeroDivisionError: a bug"
    assert isinstance(info.value.__cause__, ZeroDivisionError)
