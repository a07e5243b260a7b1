"""Command-line entry point.

Exit codes: 0 every check passed (skips allowed), 1 at least one check
failed, 2 invalid configuration, 3 the mod-cubed q-difference check found
a counterexample (a witness file is written per failing n), 4 any other
error, in an instance or outside every instance (a bug, or a resource such
as memory running out); its traceback, naming the instance if there is
one, goes to stderr.  SIGTERM ends the process as the signal does, after
a forked run has killed and reaped its workers.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from .sweep import (
    ConfigError,
    P_MAX,
    Q_FAMILIES,
    SweepConfig,
    VERIFY_FAMILIES,
    exit_code,
    render,
    run_identities,
    run_smoke,
    run_sweep,
    run_wz,
)


def _worker_count(raw: str) -> int:
    # also converts the $SUPERCONG_WORKERS default, so both sources are
    # checked in one place
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"need an integer >= 1 (from --workers or $SUPERCONG_WORKERS), got {raw!r}"
        )
    return n


def _add_common(p: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the top parser and again on every subparser, so the
    # flags work on either side of the subcommand; the subparser copies
    # default to SUPPRESS so an absent flag can't clobber a present one
    d = argparse.SUPPRESS if suppress else None
    p.add_argument(
        "--format", choices=("json", "csv", "text"),
        default=d if suppress else "text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--workers", type=_worker_count,
        default=d if suppress else os.environ.get("SUPERCONG_WORKERS", "1"),
        help="most processes to use (a run with little work uses one); "
        "reports are identical for any value (default: $SUPERCONG_WORKERS or 1)",
    )
    p.add_argument(
        "--timings", action="store_true",
        default=d if suppress else False,
        help="add record, phase and family times and skip counts to the report",
    )
    p.add_argument(
        "-o", "--output",
        default=d if suppress else None,
        help="write the report to this file",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="supercong",
        description="Verify truncated hypergeometric supercongruences, "
        "their q-analogues, and the identities behind them.",
    )
    _add_common(p, suppress=False)

    sub = p.add_subparsers(dest="command", required=True)

    # every flag default comes from the API's default, its one source: the
    # field defaults of SweepConfig and the keyword-only defaults of
    # run_identities, run_wz and run_smoke
    d = SweepConfig._field_defaults
    v = sub.add_parser("verify", help="prime-indexed congruence sweeps")
    _add_common(v, suppress=True)
    v.add_argument(
        "--family", action="append", dest="families", metavar="NAME",
        help="repeatable; case-insensitive, hyphens allowed "
        f"(default: all of {', '.join(VERIFY_FAMILIES)})",
    )
    v.add_argument("--pmin", type=int, default=d["p_min"])
    v.add_argument("--pmax", type=int, default=d["p_max"],
                   help=f"largest prime, at most {P_MAX} (default: {d['p_max']})")
    v.add_argument(
        "--alpha", action="append", dest="alphas", metavar="R",
        help="repeatable rational like 1/3 or -2; only used by the "
        "alpha-parameterised families (default: built-in sample)",
    )
    v.add_argument(
        "--trunc", choices=("short", "full", "both"), default=d["trunc"],
        help="truncations of the ten classical families; the other families "
        "are not filtered (MAIN1 is full, MAIN1_TRUNC short) (default: both)",
    )

    q = sub.add_parser("qverify", help="polynomial q-congruence checks")
    _add_common(q, suppress=True)
    q.add_argument(
        "--family", action="append", dest="families",
        choices=[f.lower().replace("_", "-") for f in Q_FAMILIES],
        help="repeatable (default: all of them)",
    )
    q.add_argument(
        "--n", action="append", dest="n_list", type=int, metavar="N",
        help="repeatable odd index "
        f"(default: {' '.join(map(str, d['n_list']))})",
    )
    q.add_argument(
        "--witness-dir", default=".",
        help="where counterexample witness files go (default: cwd)",
    )

    i = sub.add_parser("identities", help="exact identity suites")
    _add_common(i, suppress=True)
    d = run_identities.__kwdefaults__
    i.add_argument("--nmax", type=int, default=d["nmax"], help="binomial sums up to n")
    i.add_argument(
        "--mmax", type=int, default=d["mmax"],
        help="Euler power-sum depth: exponents m = 1..mmax, mmax >= 1",
    )
    i.add_argument("--pmax", type=int, default=d["pmax"],
                   help=f"Lehmer prime bound, at most {P_MAX}")

    w = sub.add_parser("wz", help="rational-certificate pair checks")
    _add_common(w, suppress=True)
    d = run_wz.__kwdefaults__
    w.add_argument(
        "--nmax", type=int, default=d["nmax"],
        help="pair relation for n = 0..nmax and telescoped sums for "
        "N = 1..nmax (>= 1)",
    )
    w.add_argument(
        "--kmax", type=int, default=d["kmax"],
        help="pair relation for k = 1..kmax (>= 1)",
    )
    w.add_argument(
        "--alpha-samples", type=int, default=d["alpha_samples"],
        help="distinct alphas drawn from the pool of ±r/d, 1 <= r, d <= 9, "
        "without the nonpositive integers: at most 101",
    )
    w.add_argument(
        "--seed", type=int, default=d["seed"],
        help="seed of the alpha draw; the same seed draws the same alphas",
    )

    s = sub.add_parser("smoke", help="floating-point series sanity check")
    _add_common(s, suppress=True)
    d = run_smoke.__kwdefaults__
    s.add_argument("--terms", type=int, default=d["terms"])
    s.add_argument("--tol", type=float, default=d["tol"])

    return p


def _run(args: argparse.Namespace):
    if args.command == "verify":
        cfg = SweepConfig(
            families=tuple(args.families) if args.families else VERIFY_FAMILIES,
            p_min=args.pmin,
            p_max=args.pmax,
            alpha_list=tuple(args.alphas) if args.alphas else None,
            trunc=args.trunc,
            workers=args.workers,
        )
        return run_sweep(cfg)
    if args.command == "qverify":
        cfg = SweepConfig(
            families=tuple(args.families) if args.families else Q_FAMILIES,
            n_list=tuple(args.n_list or SweepConfig._field_defaults["n_list"]),
            workers=args.workers,
        )
        return run_sweep(cfg)
    if args.command == "identities":
        return run_identities(
            nmax=args.nmax, pmax=args.pmax, mmax=args.mmax, workers=args.workers
        )
    if args.command == "wz":
        return run_wz(
            nmax=args.nmax,
            kmax=args.kmax,
            alpha_samples=args.alpha_samples,
            seed=args.seed,
            workers=args.workers,
        )
    if args.command == "smoke":
        return run_smoke(terms=args.terms, tol=args.tol)
    raise ConfigError(f"unknown command: {args.command!r}")


def _write_witnesses(summary, witness_dir: str) -> None:
    from .qseries import conjecture41_witness

    for r in summary.records:
        if r.family == "CONJ41" and r.passed is False:
            path = Path(witness_dir) / f"conj41_witness_n{r.n}.json"
            path.write_text(
                json.dumps(conjecture41_witness(r.n), indent=2, sort_keys=True)
                + "\n"
            )
            print(f"counterexample witness written to {path}", file=sys.stderr)


def _check_paths(args: argparse.Namespace) -> None:
    # a report or witness that cannot be written is refused before the run
    out = Path(args.output) if args.output else None
    if out is not None and (out.is_dir() or not out.absolute().parent.is_dir()):
        raise ConfigError(
            f"cannot write the report to {out}: not a file in an existing directory")
    witness_dir = getattr(args, "witness_dir", None)
    if witness_dir is not None and not Path(witness_dir).is_dir():
        raise ConfigError(f"witness directory {witness_dir} is not a directory")


class _Terminated(BaseException):
    """SIGTERM as an exception, so that every finally (a forked run's) runs."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    on_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        _check_paths(args)
        summary = _run(args)
        report = render(summary, args.format, args.timings)
        if args.output:
            Path(args.output).write_text(report)
        else:
            sys.stdout.write(report)
        code = exit_code(summary)
        if code == 3:
            _write_witnesses(summary, getattr(args, "witness_dir", "."))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # never 1 or 3, which say a check failed
        import traceback

        traceback.print_exception(exc, file=sys.stderr)
        return 4
    except _Terminated:
        # cleaned up: end by SIGTERM, as without the handler
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        signal.signal(signal.SIGTERM, on_term)
    return code


if __name__ == "__main__":
    sys.exit(main())
