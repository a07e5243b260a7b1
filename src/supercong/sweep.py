"""Sweep orchestration and deterministic report rendering.

Instances are expanded up front as immutable ``Instance`` values, executed
either serially or by this process and forked children that claim them
from one pipe, each child sending back the rows of all it ran in one
message (forked._run_forked), and the records are sorted afterwards
by (family, p or n, alpha, truncation), so reports are byte-identical for
any worker count.  A run forks only when its estimated serial work (the
sum of Instance.work) reaches _FORK_FLOOR: below it, the fork costs more
than it saves, and a run asked for w workers is exactly the serial run.
The instances depend on the selection alone, never on the worker count.
Every verify family, the five lemma families among them, runs as one
instance over all primes (verifier.verify_primes), which reads every sum
and lemma side off remainder trees shared by all primes, so a verify run
is one instance and never forks; a forked run shares out the others.  One
instance per (q-family, n) checks that family (qseries.verify_at_n).
These yield a record per family, prime, alpha and truncation, a skip
record with the reason where a family's precondition fails.  One Lehmer
instance checks every prime, with one record per prime; an identity, WZ
or smoke instance yields one record.  Each instance builds the state it
reads, so none depends on another having run first: the tree instance
builds its trees from k = 1.  Every instance hands its records back as
rows (records.family_rows: plain tuples, cheap to pickle), and the parent
builds each record once, by position.  A JSON report is written one
formatting step per record, straight from the record's fields.
An exception that escapes an instance is a bug, whatever its type, and
aborts the sweep with an InternalError: family_rows names the family and
labels it was checking, and _execute names the instance of any other.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import re
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

from .padic import ResidueClass, parse_rational
from .primes import EmptyRange, sieve_primes
from .records import (
    ALPHA_FAMILIES,
    LEMMA_FAMILIES,
    PHASES,
    PRIME_FAMILIES,
    Q_FAMILIES as Q_TABLE,
    InternalError,
    VerificationRecord,
    admits,
    describe,
    norm_family,
)

__all__ = [
    "ConfigError",
    "InternalError",
    "P_MAX",
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

# The largest p_max of verify and identities, checked before the sieve
# runs, so that a larger bound is a config error, not a memory error.  A
# remainder tree holds products of about N log N bits for N its largest
# prime: one tree to 10^5 peaks 42 MB above the interpreter, so one to
# 10^6 needs about 0.5 GB.
P_MAX = 10**6

# The work floor of a forked run, in estimated microseconds of serial work
# (the sum of Instance.work): five times the cost of a fork, about 20 ms
# of CPU for the fork, the child's copy-on-write faults and the pickled
# rows on a shared 2-vCPU x86 host (CPython 3.11).  A run of work W saves
# at most W/2 of wall time, and only while the child has a core of its
# own, which a shared host does not promise.  At the floor a fork loses at
# most a fifth of the run's work and can save half.  A verify run without
# q-families is one instance, which never forks whatever its work.
_FORK_FLOOR = 100_000


def default_alphas(p: int) -> list[Fraction]:
    """Integer residues 1..p-1 for small p, then the fixed rational sample,
    which holds no integer."""
    ints = [Fraction(i) for i in range(1, p)] if p <= 31 else []
    return ints + list(RATIONAL_ALPHAS)


class SweepConfig(NamedTuple):
    families: tuple[str, ...]
    p_min: int = 5
    p_max: int = 97
    # rationals or their literals like "-1/3"; None: per-prime default set
    alpha_list: tuple[Fraction | str, ...] | None = None
    n_list: tuple[int, ...] = (5, 9, 13)
    trunc: str = "both"
    workers: int = 1


class ReportSummary(NamedTuple):
    total: int
    passed: int
    failed: int
    skipped: int
    failures: tuple[VerificationRecord, ...]
    records: tuple[VerificationRecord, ...]
    workers: int = 1  # the processes that ran the records' instances


class Instance(NamedTuple):
    """One check: run(*args) returns a bool for an exact identity, or the
    rows of its records, alone or, from verify_primes, with the phase
    seconds; verify_primes and verify_at_n make their own skip rows.
    family, p, n and alpha label the row of a bool and name the instance
    in an InternalError raised outside family_rows.  For verify_primes,
    family is the requested families joined by commas, and p the largest
    prime of its jobs.  work is the instance's share of the serial run's
    work, in microseconds, estimated from its inputs alone; only the
    choice to fork reads it (_pool_size)."""

    family: str
    run: Callable
    args: tuple
    p: int | None = None
    n: int | None = None
    alpha: Fraction | None = None
    work: int = 0

    def __str__(self) -> str:
        return describe(self.family, self.p, self.n, self.alpha)


def _validate(cfg: SweepConfig) -> SweepConfig:
    fams = tuple(norm_family(f) for f in cfg.families)
    if not fams:
        raise ConfigError("families must be non-empty")
    for f in fams:
        if f not in VERIFY_FAMILIES and f not in Q_FAMILIES:
            raise ConfigError(f"unknown family: {f}")
    if not 2 <= cfg.p_min <= cfg.p_max:
        raise ConfigError(f"need 2 <= p_min <= p_max, got [{cfg.p_min}, {cfg.p_max}]")
    if cfg.p_max > P_MAX:
        raise ConfigError(f"p_max must be <= {P_MAX}, got {cfg.p_max}")
    if any(n < 1 for n in cfg.n_list):
        raise ConfigError("n_list entries must be >= 1")
    if cfg.trunc not in ("short", "full", "both"):
        raise ConfigError(f"trunc must be short|full|both, got {cfg.trunc!r}")
    alphas = cfg.alpha_list
    if alphas is not None:
        try:
            alphas = tuple(
                a if isinstance(a, Fraction) else parse_rational(str(a))
                for a in alphas
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return cfg._replace(families=fams, alpha_list=alphas)


def _alphas_for(cfg: SweepConfig, p: int) -> list[Fraction]:
    if cfg.alpha_list is not None:
        return list(cfg.alpha_list)
    return default_alphas(p)


# The check functions live in the modules below, and a command imports
# only those it runs: each expansion first calls _bind for every module its
# instances need, in the parent, before any fork.  _bind imports the module
# and binds each of its check functions listed here as a global of this
# module, never over a name already set; the instances and the helpers
# (_lehmer, _ramanujan) look them up as globals.  So a wrapped or patched
# sweep attribute (tracing, tests) is what runs.  __getattr__ binds a name
# on its first lookup from outside, so a patch made before any run finds
# the real function, and restores it after.
_CHECKS = {
    "verifier": ("verify_primes", "ramanujan_partial"),
    "qseries": ("verify_at_n",),
    "sequences": ("check_binomial_identities", "check_euler_identities",
                  "check_lehmer"),
    "wz": ("check_pair", "check_telescoped", "sample_alphas"),
}
_MODULE_OF = {name: module for module, names in _CHECKS.items() for name in names}


def _bind(module: str) -> None:
    mod = importlib.import_module(f"{__package__}.{module}")
    for name in _CHECKS[module]:
        globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


def build_instances(cfg: SweepConfig) -> list[Instance]:
    """One instance for the jobs of every prime that admits a requested
    prime family or, with alpha families requested, has alphas, labelled by
    its largest prime; then one per n for each q-family.  The list depends
    on the selection alone, never on cfg.workers.  Each instance carries
    its estimated work (Instance.work)."""
    alpha_fams = tuple(f for f in cfg.families if f in ALPHA_FAMILIES)
    if any(f in VERIFY_FAMILIES for f in cfg.families):
        _bind("verifier")
    if any(f in Q_FAMILIES for f in cfg.families):
        _bind("qseries")
    truncs = ("short", "full") if cfg.trunc == "both" else (cfg.trunc,)
    try:
        primes = sieve_primes(cfg.p_min, cfg.p_max)
    except EmptyRange as exc:
        raise ConfigError(str(exc)) from exc
    jobs, work = [], 0
    for p in primes:
        alphas = tuple(_alphas_for(cfg, p)) if alpha_fams else ()
        fams = tuple(f for f in cfg.families
                     if (f in PRIME_FAMILIES and admits(f, p))
                     or (f in ALPHA_FAMILIES and alphas))
        if not fams:
            continue
        # a job extends the trees from the last job's prime to p, about 8 us
        # per prime and tree (6.6, 8.0, 12 at p = 307, 1999, 5000): up to 4
        # for the prime families, per alpha 1 for MAIN1, MAIN1_TRUNC or TAIL
        # and 3 for the lemmas' Pi and W trees (11, 23, 43 us), and 3 harmonic
        lemma = any(f in LEMMA_FAMILIES for f in fams)
        sums = any(f in ALPHA_FAMILIES and f not in LEMMA_FAMILIES for f in fams)
        trees = (len(alphas) * (sums + 3 * lemma) + 3 * lemma
                 + min(4, sum(f in PRIME_FAMILIES for f in fams)))
        work += 8 * (p - (jobs[-1][0] if jobs else 0)) * trees
        jobs.append((p, fams, alphas))
    out = []
    if jobs:
        # the trees grow from k = 1 once for all jobs, as one instance: a
        # split would rebuild them from k = 1 in every part.  It goes first,
        # so that a forked run starts it before it shares out the others
        label = ",".join(f for f in dict.fromkeys(cfg.families)
                         if any(f in fams for _, fams, _ in jobs))
        out.append(Instance(label, verify_primes, (tuple(jobs), truncs),
                            p=jobs[-1][0], work=work))
    # one instance per (family, n), so that workers share the q-families
    # out; the sums and gcds of one take about n^3 us
    out += [Instance(fam, verify_at_n, (n, (fam,)), n=n, work=n**3)
            for fam in cfg.families if fam in Q_FAMILIES for n in cfg.n_list]
    if not out:
        raise ConfigError(
            f"selection matches no instances: families {', '.join(cfg.families)}"
            f" over primes [{cfg.p_min}, {cfg.p_max}]"
        )
    return out


def _dispatch(inst: Instance) -> tuple[list[tuple], dict[str, float] | None]:
    # the instance's rows (family, modulus, lhs, rhs, passed, p, n, alpha,
    # truncation, reason), and its phase seconds if it has phases
    out = inst.run(*inst.args)
    if isinstance(out, bool):
        return [(inst.family, "exact", "equal" if out else "unequal", "equal", out,
                 inst.p, inst.n, inst.alpha, None, None)], None
    return out if isinstance(out, tuple) else (out, None)


def _lehmer(primes: list[int]) -> list[tuple]:
    return [("LEHMER", f"{p}^2", "0" if ok else "nonzero", "0", ok, p, None, None,
             None, None) for p, ok in zip(primes, check_lehmer(primes))]


def _ramanujan(terms: int, tol: float) -> list[tuple]:
    val = ramanujan_partial(terms)
    target = 2 / math.pi
    ok = abs(val - target) < tol
    return [("RAMANUJAN", f"tol={tol:g}", f"{val!r}", f"{target!r}", ok, None,
             terms, None, None, None if ok else f"off by {abs(val - target)!r}")]


def _execute(inst: Instance) -> tuple[list[tuple], float, tuple[float, ...] | None]:
    """The instance's rows, its wall time and its phase times, both in ms
    over its number of rows (None if it has no phases)."""
    t0 = time.perf_counter()
    try:
        rows, phases = _dispatch(inst)
    except InternalError:
        raise  # family_rows named the family it was checking
    except Exception as exc:
        # a bug, not a verdict: abort the sweep, naming the instance to re-run
        raise InternalError(
            f"internal error checking {inst}: {type(exc).__name__}: {exc}"
        ) from exc
    per_row = 1000.0 / len(rows)
    ms = (time.perf_counter() - t0) * per_row
    if phases is not None:
        phases = tuple(x * per_row for x in phases.values())
    return rows, ms, phases


def _pool_size(insts: list[Instance], workers: int) -> int:
    """The processes that share insts when workers are asked for: no more
    than there are instances, and only this one below _FORK_FLOOR (the
    sum of their Instance.work) or without os.fork."""
    if sum(inst.work for inst in insts) < _FORK_FLOOR or not hasattr(os, "fork"):
        workers = 1
    return min(workers, len(insts))


def _run_instances(insts: list[Instance], processes: int) -> list[VerificationRecord]:
    # the sorted records of insts, run by this process and processes - 1
    # forked children
    if processes > 1:
        from .forked import _run_forked  # a serial run never compiles it

        records = _run_forked(insts, processes)
    else:
        records = _records(map(_execute, insts))
    records.sort(key=VerificationRecord.sort_key)
    return records


def _records(results) -> list[VerificationRecord]:
    # each record built once, by position, from its row and its instance's
    # timings
    make = VerificationRecord._make
    return [make(row + (ms, phases)) for rows, ms, phases in results for row in rows]


def summarize(records: list[VerificationRecord], workers: int = 1) -> ReportSummary:
    # one pass: passed is True, False or None (a skip)
    records = tuple(records)
    passed = skipped = 0
    failures = []
    for r in records:
        verdict = r[4]
        if verdict is True:
            passed += 1
        elif verdict is None:
            skipped += 1
        else:
            failures.append(r)
    return ReportSummary(
        total=len(records),
        passed=passed,
        failed=len(failures),
        skipped=skipped,
        failures=tuple(failures),
        records=records,
        workers=workers,
    )


def _summary(insts: list[Instance], workers: int) -> ReportSummary:
    # every runner ends here, so this is where workers is checked
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    processes = _pool_size(insts, workers)
    return summarize(_run_instances(insts, processes), processes)


def run_sweep(cfg: SweepConfig) -> ReportSummary:
    cfg = _validate(cfg)
    return _summary(build_instances(cfg), cfg.workers)


EULER_NMAX = 25


def run_identities(
    *,
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
    if pmax > P_MAX:
        raise ConfigError(f"pmax must be <= {P_MAX}, got {pmax}")
    if mmax < 1:
        # the power-sum identity starts at m = 1: below that it checks nothing
        raise ConfigError(f"need mmax >= 1, got {mmax}")
    _bind("sequences")
    # work in us: a binomial check at n takes about n^2/64, the Euler bundle
    # EULER_NMAX^2 mmax/4, and Lehmer's two harmonic trees pmax^1.5/14 (6,
    # 23 and 233 ms at pmax 1999, 5000 and 20000 on a 2-vCPU x86 host)
    insts = [
        Instance("BINOM_IDS", check_binomial_identities, (n,), n=n, work=n * n // 64)
        for n in range(1, nmax + 1)
    ]
    insts.append(
        Instance("EULER_IDS", check_euler_identities, (EULER_NMAX, mmax), n=EULER_NMAX,
                 work=EULER_NMAX**2 * mmax // 4)
    )
    primes = sieve_primes(5, pmax)  # one pass over all: p labels the largest
    insts.append(Instance("LEHMER", _lehmer, (primes,), p=primes[-1],
                          work=pmax * math.isqrt(pmax) // 14))
    return _summary(insts, workers)


def run_wz(
    *,
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
    _bind("wz")
    try:
        alphas = sample_alphas(alpha_samples, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # work in us, measured in process: about 0.2 per point of the pair's
    # grid, and 0.25 nmax^2 for the telescope's closed forms
    insts = [
        Instance("WZ_PAIR", check_pair, (nmax, kmax, (a,)), n=nmax, alpha=a,
                 work=nmax * kmax // 5)
        for a in alphas
    ]
    insts += [
        Instance("WZ_TELESCOPE", check_telescoped, (nmax, a), n=nmax, alpha=a,
                 work=nmax * nmax // 4)
        for a in alphas
    ]
    return _summary(insts, workers)


def run_smoke(*, terms: int = 50, tol: float = 1e-6) -> ReportSummary:
    if terms < 1:
        raise ConfigError(f"terms must be >= 1, got {terms}")
    if not 0 < tol < math.inf:  # also refuses nan
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    _bind("verifier")
    return _summary([Instance("RAMANUJAN", _ramanujan, (terms, tol), n=terms)], 1)


# ---------------------------------------------------------------------------
# rendering

def _side(x) -> int | str:
    return x.value if isinstance(x, ResidueClass) else str(x)


def timing_summary(summary: ReportSummary) -> dict:
    """The timings of a report: the time per family (the sum of its records'
    elapsed_ms), the time per phase of verifier.PHASES over all verify
    instances, the number of skips per family and reason, with the
    reason's numbers written # but the family's name kept whole, and the
    number of processes that ran the instances (1 for a run below the fork
    floor, whatever --workers asked)."""
    family_ms: dict[str, float] = {}
    phase_ms = [0.0] * len(PHASES)
    skips: Counter[str] = Counter()
    for r in summary.records:
        if r.elapsed_ms is not None:
            family_ms[r.family] = family_ms.get(r.family, 0.0) + r.elapsed_ms
        if r.phase_ms is not None:
            phase_ms = [x + y for x, y in zip(phase_ms, r.phase_ms)]
        if r.passed is None:
            # the family's own name keeps its digits where the reason names it
            why = r.family.join(re.sub(r"[0-9]+", "#", part)
                                for part in r.reason.split(r.family))
            skips[f"{r.family}: {why}"] += 1
    return {
        "family_ms": {f: round(ms, 3) for f, ms in family_ms.items()},
        "phase_ms": {ph: round(ms, 3) for ph, ms in zip(PHASES, phase_ms)},
        "skips": dict(skips),
        "workers": summary.workers,
    }


# json's own string escapes, as json.dumps writes them (ensure_ascii)
_json_str = json.encoder.encode_basestring_ascii
_JSON_VERDICT = {True: "true", False: "false", None: "null"}


def _json_side(x) -> str:
    # _side(x) as json writes it
    return str(x.value) if isinstance(x, ResidueClass) else _json_str(str(x))


def _record_json(r: VerificationRecord, timings: bool) -> str:
    """One record as json.dumps(indent=2, sort_keys=True) writes it as an
    item of the report's records: the items in sorted-key order, read
    straight from the record's fields."""
    family, modulus, lhs, rhs, passed, p, n, alpha, truncation, reason, ms, _ = r
    out = "    {\n      "
    if alpha is not None:
        out += f'"alpha": {_json_str(str(alpha))},\n      '
    if timings and ms is not None:
        out += f'"elapsed_ms": {round(ms, 3)!r},\n      '
    out += (f'"family": {_json_str(family)},\n      "lhs": {_json_side(lhs)},\n'
            f'      "modulus": {_json_str(modulus)}')
    if n is not None:
        out += f',\n      "n": {n}'
    if p is not None:
        out += f',\n      "p": {p}'
    out += f',\n      "pass": {_JSON_VERDICT[passed]}'
    if reason is not None:
        out += f',\n      "reason": {_json_str(reason)}'
    out += f',\n      "rhs": {_json_side(rhs)}'
    if truncation is not None:
        out += f',\n      "truncation": {_json_str(truncation)}'
    return out + "\n    }"


def render_json(summary: ReportSummary, timings: bool = False) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n" of the report doc,
    {"records": [...], "summary": {...}}: the frame from json.dumps, each
    record from _record_json, one formatting step per record."""
    counts = {
        "total": summary.total,
        "passed": summary.passed,
        "failed": summary.failed,
        "skipped": summary.skipped,
    }
    if timings:
        counts["timings"] = timing_summary(summary)
    frame = json.dumps({"records": [], "summary": counts}, indent=2, sort_keys=True)
    if summary.records:
        body = ",\n".join([_record_json(r, timings) for r in summary.records])
        frame = frame.replace('"records": []', '"records": [\n' + body + '\n  ]', 1)
    return frame + "\n"


_CSV_COLUMNS = (
    "family", "p", "n", "alpha", "truncation", "modulus",
    "lhs", "rhs", "result", "reason",
)
_RESULT = {True: "pass", False: "fail", None: "skip"}


def render_csv(summary: ReportSummary, timings: bool = False) -> str:
    """One row per record, read straight from its fields; a field that is
    None is an empty cell."""
    import csv  # only the csv report needs it

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_COLUMNS + (("elapsed_ms",) if timings else ()))
    for r in summary.records:
        family, modulus, lhs, rhs, passed, p, n, alpha, truncation, reason, ms, _ = r
        row = [family, p, n, alpha, truncation, modulus, _side(lhs), _side(rhs),
               _RESULT[passed], reason]
        if timings:
            row.append(None if ms is None else round(ms, 3))
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
    if timings:
        t = timing_summary(summary)
        lines.append(f"workers: {t['workers']}")
        lines.append("phases: " + ", ".join(
            f"{ph} {ms:.1f} ms" for ph, ms in t["phase_ms"].items()))
        lines += [f"family {f}: {ms:.1f} ms" for f, ms in sorted(t["family_ms"].items())]
        lines += [f"skipped {k}x: {why}" for why, k in sorted(t["skips"].items())]
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
    if any(r.family == "CONJ41" for r in summary.failures):
        return 3
    return 1 if summary.failed else 0
