"""Sweep orchestration and deterministic report rendering.

Instances are expanded up front as immutable ``Instance`` values, executed
either serially or on a process pool, and the records are sorted afterwards
by (family, p or n, alpha, truncation), so reports are byte-identical for
any worker count.  One instance per prime checks all the requested
classical and 8^(-k) families that p admits (verify_prime), one per
(alpha, p) all the requested alpha families (verify_alpha), and one per
(q-family, n) that family (verify_q); these yield a record per family and
truncation, a skip record with the reason where a family's precondition
fails.  An identity, WZ or smoke instance yields one record.  An
exception that escapes an instance is a bug, whatever its type, and aborts
the sweep with an error that names the instance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple

from .padic import ResidueClass, parse_rational
from .primes import EmptyRange, sieve_primes
from .records import VerificationRecord, make_record, norm_family
from .sequences import check_binomial_identities, check_euler_identities, check_lehmer
from .verifier import (
    ALPHA_FAMILIES,
    PRIME_FAMILIES,
    admits,
    ramanujan_partial,
    verify_alpha,
    verify_prime,
)
from .qseries import Q_FAMILIES as Q_TABLE, verify_q
from .wz import check_pair, check_telescoped, sample_alphas

__all__ = [
    "ConfigError",
    "InternalError",
    "SweepConfig",
    "ReportSummary",
    "RATIONAL_ALPHAS",
    "Q_FAMILIES",
    "VERIFY_FAMILIES",
    "default_alphas",
    "run_sweep",
    "run_identities",
    "run_wz",
    "run_smoke",
    "render",
    "exit_code",
]


class ConfigError(ValueError):
    """Invalid sweep configuration."""


class InternalError(RuntimeError):
    """An instance raised an error that is not a precondition: a bug."""


# rational alpha sample: hits a = 0 branches, a = p-1 branches and the
# generic 1 <= a <= p-2 range of the decomposition case analysis
RATIONAL_ALPHAS: tuple[Fraction, ...] = (
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(-1, 3),
    Fraction(1, 4),
    Fraction(3, 4),
    Fraction(1, 6),
    Fraction(5, 6),
    Fraction(2, 3),
    Fraction(3, 5),
)

Q_FAMILIES: tuple[str, ...] = tuple(Q_TABLE)
VERIFY_FAMILIES: tuple[str, ...] = PRIME_FAMILIES + ALPHA_FAMILIES


def default_alphas(p: int) -> list[Fraction]:
    """Integer residues 1..p-1 for small p, plus the fixed rational sample."""
    out = [Fraction(i) for i in range(1, p)] if p <= 31 else []
    for a in RATIONAL_ALPHAS:
        if a not in out:
            out.append(a)
    return out


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[str, ...]
    p_min: int = 5
    p_max: int = 97
    # rationals or their literals like "-1/3"; None: per-prime default set
    alpha_list: tuple[Fraction | str, ...] | None = None
    n_list: tuple[int, ...] = (5, 9, 13)
    trunc: str = "both"
    workers: int = 1


@dataclass(frozen=True)
class ReportSummary:
    total: int
    passed: int
    failed: int
    skipped: int
    failures: tuple[VerificationRecord, ...]
    records: tuple[VerificationRecord, ...]


class Instance(NamedTuple):
    """One check: run(*args) returns its record, a bool for an exact
    identity, or the list of records of verify_prime, verify_alpha or
    verify_q, which make their own skip records.  family, p, n and alpha
    label the record of a bool and name the instance in an InternalError.
    For verify_prime and verify_alpha, family is the requested families
    joined by commas."""

    family: str
    run: Callable
    args: tuple
    p: int | None = None
    n: int | None = None
    alpha: Fraction | None = None

    def labels(self) -> dict:
        return {"p": self.p, "n": self.n, "alpha": self.alpha}

    def __str__(self) -> str:
        bits = [self.family] + [
            f"{k}={v}" for k, v in self.labels().items() if v is not None
        ]
        return " ".join(bits)


def _validate(cfg: SweepConfig) -> SweepConfig:
    fams = tuple(norm_family(f) for f in cfg.families)
    if not fams:
        raise ConfigError("families must be non-empty")
    for f in fams:
        if f not in VERIFY_FAMILIES and f not in Q_FAMILIES:
            raise ConfigError(f"unknown family: {f}")
    if not 2 <= cfg.p_min <= cfg.p_max:
        raise ConfigError(f"need 2 <= p_min <= p_max, got [{cfg.p_min}, {cfg.p_max}]")
    if any(n < 1 for n in cfg.n_list):
        raise ConfigError("n_list entries must be >= 1")
    if cfg.trunc not in ("short", "full", "both"):
        raise ConfigError(f"trunc must be short|full|both, got {cfg.trunc!r}")
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    alphas = cfg.alpha_list
    if alphas is not None:
        try:
            alphas = tuple(
                a if isinstance(a, Fraction) else parse_rational(str(a))
                for a in alphas
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return replace(cfg, families=fams, alpha_list=alphas)


def _alphas_for(cfg: SweepConfig, p: int) -> list[Fraction]:
    if cfg.alpha_list is not None:
        return list(cfg.alpha_list)
    return default_alphas(p)


# The check functions are looked up as module globals each time instances
# are built, never stored in a table at import, so a wrapped or patched
# module attribute (tracing, tests) is what runs.

def build_instances(cfg: SweepConfig) -> list[Instance]:
    """Per prime: one instance for the classical and 8^(-k) families whose
    residue class admits p, then one per (alpha, p) for the alpha families;
    after all primes, one per n for each q-family."""
    prime_fams = tuple(f for f in cfg.families if f in PRIME_FAMILIES)
    alpha_fams = tuple(f for f in cfg.families if f in ALPHA_FAMILIES)
    truncs = ("short", "full") if cfg.trunc == "both" else (cfg.trunc,)
    out: list[Instance] = []
    try:
        primes = sieve_primes(cfg.p_min, cfg.p_max)
    except EmptyRange as exc:
        raise ConfigError(str(exc)) from exc
    for p in primes:
        # a prime's instances run next to each other, so the tables they
        # share, the Euler residues of (p-3, p) and the factorial and
        # harmonic residues of _prime_tables(p), are built once
        if fams := tuple(f for f in prime_fams if admits(f, p)):
            out.append(Instance(",".join(fams), verify_prime, (p, fams, truncs), p=p))
        if alpha_fams:
            out += [
                Instance(",".join(alpha_fams), verify_alpha, (a, p, alpha_fams),
                         p=p, alpha=a)
                for a in _alphas_for(cfg, p)
            ]
    # one instance per (family, n), so that workers share the q-families out
    out += [Instance(fam, verify_q, (n, (fam,)), n=n)
            for fam in cfg.families if fam in Q_FAMILIES for n in cfg.n_list]
    if not out:
        raise ConfigError(
            f"selection matches no instances: families {', '.join(cfg.families)}"
            f" over primes [{cfg.p_min}, {cfg.p_max}]"
        )
    return out


def _dispatch(inst: Instance) -> list[VerificationRecord]:
    out = inst.run(*inst.args)
    if isinstance(out, bool):
        out = make_record(
            inst.family, "exact", "equal" if out else "unequal", "equal",
            **inst.labels(),
        )
    return out if isinstance(out, list) else [out]


def _lehmer(p: int) -> VerificationRecord:
    ok = check_lehmer(p)
    return make_record("LEHMER", f"{p}^2", "0" if ok else "nonzero", "0", p=p)


def _telescoped(n_max: int, alpha: Fraction) -> bool:
    return all(check_telescoped(N, alpha) for N in range(1, n_max + 1))


def _ramanujan(terms: int, tol: float) -> VerificationRecord:
    val = ramanujan_partial(terms)
    target = 2 / math.pi
    ok = abs(val - target) < tol
    return VerificationRecord(
        family="RAMANUJAN",
        modulus=f"tol={tol:g}",
        lhs=f"{val!r}",
        rhs=f"{target!r}",
        passed=ok,
        n=terms,
        reason=None if ok else f"off by {abs(val - target)!r}",
    )


def _execute(inst: Instance) -> list[VerificationRecord]:
    t0 = time.perf_counter()
    try:
        recs = _dispatch(inst)
    except Exception as exc:
        # a bug, not a verdict: abort the sweep, naming the instance to re-run
        raise InternalError(
            f"internal error checking {inst}: {type(exc).__name__}: {exc}"
        ) from exc
    # each record carries the instance's wall time over its number of records
    ms = (time.perf_counter() - t0) * 1000.0 / len(recs)
    return [replace(r, elapsed_ms=ms) for r in recs]


def _run_instances(insts: list[Instance], workers: int) -> list[VerificationRecord]:
    if workers > 1 and len(insts) > 1:
        # imported here: the pool pulls in multiprocessing, which would add
        # to the start-up of every serial run
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(insts) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            records = [r for recs in ex.map(_execute, insts, chunksize=chunk)
                       for r in recs]
    else:
        records = [r for i in insts for r in _execute(i)]
    records.sort(key=VerificationRecord.sort_key)
    return records


def summarize(records: list[VerificationRecord]) -> ReportSummary:
    passed = sum(1 for r in records if r.passed is True)
    failed = sum(1 for r in records if r.passed is False)
    skipped = sum(1 for r in records if r.passed is None)
    return ReportSummary(
        total=len(records),
        passed=passed,
        failed=failed,
        skipped=skipped,
        failures=tuple(r for r in records if r.passed is False),
        records=tuple(records),
    )


def run_sweep(cfg: SweepConfig) -> ReportSummary:
    cfg = _validate(cfg)
    return summarize(_run_instances(build_instances(cfg), cfg.workers))


EULER_NMAX = 25


def run_identities(
    nmax: int = 50,
    pmax: int = 199,
    mmax: int = 10,
    workers: int = 1,
) -> ReportSummary:
    """Binomial identities for n = 1..nmax, the Euler-polynomial identity
    bundle (E_n for n <= EULER_NMAX, power sums up to exponent mmax), and
    Lehmer's congruences for primes 5..pmax."""
    if nmax < 1 or pmax < 5:
        raise ConfigError(f"need nmax >= 1 and pmax >= 5, got {nmax}, {pmax}")
    if mmax < 1:
        # the power-sum identity starts at m = 1: below that it checks nothing
        raise ConfigError(f"need mmax >= 1, got {mmax}")
    insts = [
        Instance("BINOM_IDS", check_binomial_identities, (n,), n=n)
        for n in range(1, nmax + 1)
    ]
    insts.append(
        Instance("EULER_IDS", check_euler_identities, (EULER_NMAX, mmax), n=EULER_NMAX)
    )
    insts += [Instance("LEHMER", _lehmer, (p,), p=p) for p in sieve_primes(5, pmax)]
    return summarize(_run_instances(insts, workers))


def run_wz(
    nmax: int = 12,
    kmax: int = 12,
    alpha_samples: int = 8,
    seed: int = 0,
    workers: int = 1,
) -> ReportSummary:
    """Pair relation on the (nmax, kmax) grid and the telescoped identity
    for N = 1..nmax, at seeded pole-free rational alphas."""
    if nmax < 1 or kmax < 1 or alpha_samples < 1:
        raise ConfigError("nmax, kmax and alpha-samples must be >= 1")
    try:
        alphas = sample_alphas(alpha_samples, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    insts = [
        Instance("WZ_PAIR", check_pair, (nmax, kmax, (a,)), n=nmax, alpha=a)
        for a in alphas
    ]
    insts += [
        Instance("WZ_TELESCOPE", _telescoped, (nmax, a), n=nmax, alpha=a)
        for a in alphas
    ]
    return summarize(_run_instances(insts, workers))


def run_smoke(terms: int = 50, tol: float = 1e-6) -> ReportSummary:
    if terms < 1:
        raise ConfigError(f"terms must be >= 1, got {terms}")
    if not 0 < tol < math.inf:  # also refuses nan
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    inst = Instance("RAMANUJAN", _ramanujan, (terms, tol), n=terms)
    return summarize(_run_instances([inst], workers=1))


# ---------------------------------------------------------------------------
# rendering

def _side(x) -> int | str:
    return x.value if isinstance(x, ResidueClass) else str(x)


def record_to_dict(r: VerificationRecord, timings: bool = False) -> dict:
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
    d["lhs"] = _side(r.lhs)
    d["rhs"] = _side(r.rhs)
    d["pass"] = r.passed
    if r.reason is not None:
        d["reason"] = r.reason
    if timings and r.elapsed_ms is not None:
        d["elapsed_ms"] = round(r.elapsed_ms, 3)
    return d


def render_json(summary: ReportSummary, timings: bool = False) -> str:
    doc = {
        "records": [record_to_dict(r, timings) for r in summary.records],
        "summary": {
            "total": summary.total,
            "passed": summary.passed,
            "failed": summary.failed,
            "skipped": summary.skipped,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_CSV_COLUMNS = (
    "family", "p", "n", "alpha", "truncation", "modulus",
    "lhs", "rhs", "result", "reason",
)


def render_csv(summary: ReportSummary, timings: bool = False) -> str:
    buf = io.StringIO()
    cols = _CSV_COLUMNS + (("elapsed_ms",) if timings else ())
    w = csv.DictWriter(buf, cols, restval="", lineterminator="\n")
    w.writeheader()
    for r in summary.records:
        row = record_to_dict(r, timings)
        row["result"] = {True: "pass", False: "fail", None: "skip"}[row.pop("pass")]
        w.writerow(row)
    return buf.getvalue()


def render_text(summary: ReportSummary, timings: bool = False) -> str:
    lines = []
    for r in summary.records:
        mark = {True: "PASS", False: "FAIL", None: "SKIP"}[r.passed]
        bits = [f"[{mark}]", r.family]
        if r.p is not None:
            bits.append(f"p={r.p}")
        if r.n is not None:
            bits.append(f"n={r.n}")
        if r.alpha is not None:
            bits.append(f"alpha={r.alpha}")
        if r.truncation is not None:
            bits.append(r.truncation)
        bits.append(f"mod {r.modulus}")
        if r.passed is False:
            bits.append(f"lhs={_side(r.lhs)} rhs={_side(r.rhs)}")
        if r.reason is not None:
            bits.append(f"({r.reason})")
        if timings and r.elapsed_ms is not None:
            bits.append(f"[{r.elapsed_ms:.1f} ms]")
        lines.append(" ".join(str(b) for b in bits))
    lines.append(
        f"total={summary.total} passed={summary.passed} "
        f"failed={summary.failed} skipped={summary.skipped}"
    )
    return "\n".join(lines) + "\n"


def render(summary: ReportSummary, fmt: str, timings: bool = False) -> str:
    if fmt == "json":
        return render_json(summary, timings)
    if fmt == "csv":
        return render_csv(summary, timings)
    if fmt == "text":
        return render_text(summary, timings)
    raise ConfigError(f"format must be json|csv|text, got {fmt!r}")


def exit_code(summary: ReportSummary) -> int:
    """0 all pass, 1 any failure, 3 a mod-cubed q-difference counterexample
    (checked first; it subsumes the plain failure signal)."""
    if any(r.family == "CONJ41" and r.passed is False for r in summary.records):
        return 3
    return 1 if summary.failed else 0
