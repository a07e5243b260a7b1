"""One in-process measurement, run by run.py in a fresh interpreter.

    probe.py setup ARGVS_JSON          import, parse and expand every argv,
                                       run no instance; print instance counts
    probe.py plain REPORT ARGV_JSON    run one CLI argv in-process, untraced
    probe.py traced REPORT ARGV_JSON   the same with every layer wrapped

plain and traced write the CLI's report to REPORT and print one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _capture(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout report of main(argv)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def setup(argvs: list[list[str]]) -> dict:
    import supercong
    from supercong import cli, sweep

    counts: list[int] = []

    def expand_only(insts, workers):
        counts.append(len(insts))
        return []

    # _run_instances receives the expanded instances; without it there is no
    # way to stop before running them, so its absence is an error
    if not callable(getattr(sweep, "_run_instances", None)):
        raise SystemExit("supercong.sweep._run_instances not found")
    sweep._run_instances = expand_only
    for argv in argvs:
        before = len(counts)
        code, _ = _capture(cli.main, argv)
        if code != 0 or len(counts) != before + 1:
            raise SystemExit(f"expansion of {argv} failed (exit {code})")
    return {"instances": counts, "package": supercong.__file__}


def plain(report_path: str, argv: list[str]) -> dict:
    from supercong import cli

    captured = {}
    run = getattr(cli, "_run", None)
    if callable(run):
        def capture(args):
            t0 = time.perf_counter()
            captured["summary"] = summary = run(args)
            captured["run_s"] = time.perf_counter() - t0
            return summary

        cli._run = capture
    t0 = time.perf_counter()
    code, report = _capture(cli.main, argv)
    wall = time.perf_counter() - t0
    _write(report_path, report)
    out = {"exit": code, "wall_s": wall}
    if "summary" in captured:
        recs = captured["summary"].records
        out["run_s"] = captured["run_s"]
        out["elapsed_sum_s"] = sum(r.elapsed_ms or 0.0 for r in recs) / 1000.0
    return out


def traced(report_path: str, argv: list[str]) -> dict:
    import supercong
    from supercong import cli
    from tracer import Tracer, aggregate, find_caches

    caches = find_caches(supercong)
    tracer = Tracer()
    absent = tracer.install()
    code, report = _capture(tracer.wrap("cli.main", cli.main), argv)
    _write(report_path, report)
    layers = aggregate(tracer.spans)
    return {
        "exit": code,
        "wall_s": layers["cli.main"]["total_s"],
        "layers": layers,
        "counters": dict(tracer.counters),
        "maxima": tracer.maxima,
        "caches": {
            name: {"hits": c.cache_info().hits, "misses": c.cache_info().misses}
            for name, c in caches.items()
        },
        "absent": absent,
    }


def _write(path: str, report: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(report)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        result = setup(json.loads(sys.argv[2]))
    elif mode in ("plain", "traced"):
        result = {"plain": plain, "traced": traced}[mode](
            sys.argv[2], json.loads(sys.argv[3])
        )
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
