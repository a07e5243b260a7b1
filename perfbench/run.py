"""supercong benchmark: fresh-process end-to-end timings and a traced
breakdown by layer.

    python3 perfbench/run.py                         every workload, both modes
    python3 perfbench/run.py --workload residue --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --write-reference       regenerate reference.json

--trace 0 times fresh ``python -m supercong.cli`` processes for --seconds and
reports the end-to-end metrics of BENCHMARK.json.  A fixed calibration loop
runs between the processes, and the timings are scaled by it to a reference
host speed (see at_reference_speed).  --trace 1 runs the workload
once untraced and once traced in fresh interpreters and reports the per-layer
metrics.  Every report is checked: at the default seed against the committed
digests in reference.json, at any seed for failing records and for agreement
between runs.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload, cli_argvs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 9
# Calibration time that defines the reference speed the timings are scaled to;
# about what calibration_work takes on a quiet 2-core x86-64 host, CPython 3.11.
CAL_REF_S = 0.2
CAL_REACH = 2  # calibrations on each side of a timing that scale it
RUN_BUDGET_S = 170.0  # a run must end within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(values, min_beyond: int = 10):
    """(q, value) for the highest q in TAIL_PERCENTILES whose nearest-rank
    percentile has at least min_beyond samples above its rank; None if even
    the median has fewer."""
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(q * n / 100.0 - 1e-9))
        if n - rank >= min_beyond:
            return q, xs[rank - 1]
    return None


def timing(values) -> dict:
    """Median, sample count and tail percentile of a list of timings."""
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail": None if tail is None else {"pct": tail[0], "value": tail[1]},
    }


def calibration_work() -> int:
    """Fixed pure-Python work of the three kinds the package spends its time
    on: products of integer polynomials (Z[q]), modular powers in a loop
    (Euler residues) and Fraction sums (the lemma pipeline)."""
    p = 1000003
    out = 0
    for _ in range(2):
        a = [(i * 7919) % p for i in range(300)]
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                prod[i + j] += x * y
        s = sum(pow(k, p - 2, p) * k % p for k in range(1, 60000))
        f = sum((Fraction(1, k * k) for k in range(1, 600)), Fraction(0))
        out = (out + prod[-1] + s + f.numerator) % p
    return out


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one calibration_work in this process."""
    t0, c0 = time.perf_counter(), time.process_time()
    calibration_work()
    return time.perf_counter() - t0, time.process_time() - c0


def at_reference_speed(times, cals) -> list[float]:
    """Scale times[i] to the reference speed by the mean of the CAL_REACH
    calibrations on each side of it; times[i] ran between cals[i] and
    cals[i + 1].

    The host's speed drifts by tens of percent over seconds to minutes, and
    the drift slows the calibrations near a sample as well, so the ratio keeps
    the program's own cost and drops most of the host's.  A single 0.2-s
    calibration is itself noisy; averaging up to four keeps most of that out."""
    if len(cals) != len(times) + 1:
        raise ValueError("need one calibration before and after every time")
    near = [cals[max(0, i + 1 - CAL_REACH):i + 1 + CAL_REACH] for i in range(len(times))]
    return [t * CAL_REF_S / statistics.fmean(c) for t, c in zip(times, near)]


# ---------------------------------------------------------------------------
# processes

@dataclass
class Proc:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    stdout: bytes
    stderr: bytes


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUPERCONG_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], timeout: float, tag: str) -> Proc:
    """Run argv to completion in its own process group, killed after timeout.

    Wall time spans spawn to reap; CPU time and peak RSS come from wait4 and
    include the descendants the child waited for (its pool workers)."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    killed = threading.Event()

    def kill_group(pid: int) -> None:
        killed.set()
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, cwd=ROOT, env=_child_env(),
            start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 0.001), kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        exit=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        timed_out=killed.is_set() and proc.returncode == -signal.SIGKILL,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


# ---------------------------------------------------------------------------
# report checks

def record_digest(rec: dict) -> str:
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()[:8]


@dataclass
class Baseline:
    sha256: str
    records: list[str]  # record_digest of each record, in report order


@dataclass
class Check:
    attempted: int
    bad: int
    sha256: str
    baseline: Baseline | None = None  # this report's own digests when parsed
    problems: list[str] = field(default_factory=list)


def _describe(rec: dict, argv: list[str]) -> str:
    keys = ("family", "p", "n", "alpha", "truncation")
    text = " ".join(f"{k}={rec[k]}" for k in keys if k in rec)
    if argv[0] == "verify" and "p" in rec:
        rerun = ["verify", "--family", rec["family"],
                 "--pmin", str(rec["p"]), "--pmax", str(rec["p"])]
        if "alpha" in rec:
            rerun.append(f"--alpha={rec['alpha']}")
        if "truncation" in rec:
            rerun += ["--trunc", rec["truncation"]]
    elif argv[0] == "qverify" and "n" in rec:
        rerun = ["qverify", "--family", rec["family"].lower().replace("_", "-"),
                 "--n", str(rec["n"])]
    else:
        return text
    return f"{text}; re-run alone: supercong {' '.join(rerun)}"


def check_report(
    data: bytes, exit_code: int, argv: list[str], expected: int,
    baseline: Baseline | None,
) -> Check:
    """Count the records of one report that fail or differ from baseline.

    A report that cannot be read, or a run that crashed (exit other than 0,
    1 or 3), makes every expected record bad."""
    sha = hashlib.sha256(data).hexdigest()
    try:
        records = json.loads(data)["records"]
    except (ValueError, KeyError, TypeError):
        records = None
    if records is None or exit_code not in (0, 1, 3):
        return Check(expected, expected, sha,
                     problems=[f"{argv[0]}: exit {exit_code}, no readable report"])
    digests = [record_digest(r) for r in records]
    attempted = max(expected, len(records))
    bad = {i for i, r in enumerate(records) if r.get("pass") is False}
    bad |= set(range(len(records), attempted))
    if baseline is not None:
        ref = baseline.records
        bad |= {i for i, (a, b) in enumerate(zip(digests, ref)) if a != b}
        bad |= set(range(min(len(ref), len(records)), max(len(ref), len(records))))
    check = Check(attempted, min(len(bad), attempted), sha, Baseline(sha, digests))
    if bad:
        first = min(bad)
        where = (_describe(records[first], argv) if first < len(records)
                 else f"record {first} missing")
        check.problems.append(
            f"{argv[0]}: {len(bad)} of {attempted} records bad; first: {where}"
        )
    elif baseline is not None and sha != baseline.sha256:
        check.problems.append(f"{argv[0]}: report bytes differ outside the records")
    return check


def load_reference(w: Workload) -> list[Baseline]:
    ref = json.loads(REFERENCE.read_text())
    entries = ref["workloads"][w.name]
    argvs = cli_argvs(w, ref["seed"])
    if ref["seed"] != DEFAULT_SEED or [e["argv"] for e in entries] != argvs:
        raise SystemExit(f"{REFERENCE.name} is stale for {w.name}; see --write-reference")
    return [Baseline(e["sha256"], [e["records"][i:i + 8]
                                   for i in range(0, len(e["records"]), 8)])
            for e in entries]


def write_reference() -> None:
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS.values():
        entries = []
        for argv in cli_argvs(w, DEFAULT_SEED):
            proc = run_process([sys.executable, "-m", "supercong.cli", *argv],
                               RUN_BUDGET_S, f"{w.name}-reference")
            check = check_report(proc.stdout, proc.exit, argv, 0, None)
            if proc.exit != 0 or check.bad:
                raise SystemExit(f"{w.name}: {argv[0]} failed: {check.problems}")
            entries.append({"argv": argv, "sha256": check.sha256,
                            "records": "".join(check.baseline.records)})
        doc["workloads"][w.name] = entries
        print(f"{w.name}: {[len(e['records']) // 8 for e in entries]} records")
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# measurement

def env_stamp() -> dict:
    stamp = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": None,
        "git_dirty": None,
        "src_sha256": hashlib.sha256(b"".join(
            p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes()
            for p in sorted(SRC.rglob("*.py"))
        )).hexdigest(),
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            stamp["git_sha"] = git("rev-parse", "HEAD")
            stamp["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return stamp


class Run:
    """Bookkeeping shared by both modes: deadline, checks and problems."""

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed = w, seed
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        # without a reference (any seed but the default), the first good report
        # of each command becomes the baseline for the rest of the run
        self.baselines: list[Baseline | None] = (
            load_reference(w) if seed == DEFAULT_SEED else [None] * len(w.commands(seed)))
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.load_before = os.getloadavg()[0]

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def process(self, argv: list[str], tag: str) -> Proc:
        proc = run_process(argv, self.remaining(), f"{self.w.name}-{tag}")
        if proc.timed_out:
            self.problems.append(f"{tag}: timed out")
        return proc

    def check(self, i: int, argv: list[str], data: bytes, exit_code: int,
              expected: int) -> Check:
        """Check one report of the workload's command i."""
        check = check_report(data, exit_code, argv, expected, self.baselines[i])
        if self.baselines[i] is None and not check.bad:
            self.baselines[i] = check.baseline
        self.attempted += check.attempted
        self.failed += check.bad
        self.problems += check.problems
        return check

    def finish(self, kind: str, metrics: dict, extra: dict) -> dict:
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "mode": kind,
            "env": {**env_stamp(), "load1_before": self.load_before,
                    "load1_after": os.getloadavg()[0]},
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "bad_records_frac": self.failed / max(self.attempted, 1),
            "problems": self.problems,
            "metrics": metrics,
            **extra,
        }


def _probe(run: Run, mode: str, *args: str, tag: str) -> tuple[Proc, dict]:
    proc = run.process([sys.executable, str(HERE / "probe.py"), mode, *args], tag)
    try:
        return proc, json.loads(proc.stdout.decode().splitlines()[-1])
    except (ValueError, IndexError):
        raise SystemExit(
            f"probe {mode} failed (exit {proc.exit}):\n{proc.stderr.decode()[-2000:]}"
        ) from None


def measure_end_to_end(w: Workload, seed: int, seconds: float) -> dict:
    run = Run(w, seed)
    argvs = cli_argvs(w, seed)
    spec = json.dumps(argvs)
    # the first probe also compiles bytecode, a once-per-install cost
    _, probe = _probe(run, "setup", spec, tag="setup")
    pkg = Path(probe["package"]).resolve()
    if SRC.resolve() not in pkg.parents:
        raise SystemExit(f"imported supercong from {pkg}, not from {SRC}")
    expected = probe["instances"]
    calibrate()  # warm-up, untimed
    # every set-up probe and every sample sits between two calibrations
    setup_cals = [calibrate()]
    setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(_probe(run, "setup", spec, tag="setup")[0].wall_s)
        setup_cals.append(calibrate())

    samples = []
    cals = [calibrate()]
    t0 = time.perf_counter()
    while True:
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "sha256": []}
        for i, argv in enumerate(argvs):
            proc = run.process([sys.executable, "-m", "supercong.cli", *argv], "cli")
            check = run.check(i, argv, proc.stdout, proc.exit, expected[i])
            sample["wall_s"] += proc.wall_s
            sample["cpu_s"] += proc.cpu_s
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], proc.rss_mb)
            sample["sha256"].append(check.sha256)
        samples.append(sample)
        cals.append(calibrate())
        now = time.perf_counter()
        if now - t0 >= seconds or now + sample["wall_s"] > run.deadline:
            break

    raw = {k: [s[k] for s in samples] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    raw["setup_s"] = setup
    scaled = {
        "wall_s": at_reference_speed(raw["wall_s"], [c[0] for c in cals]),
        "cpu_s": at_reference_speed(raw["cpu_s"], [c[1] for c in cals]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": at_reference_speed(setup, [c[0] for c in setup_cals]),
    }
    timings = {k: timing(v) for k, v in scaled.items()}
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: {"value": t["median"], "unit": units[k]} for k, t in timings.items()}
    return run.finish("end_to_end", metrics, {
        "argvs": argvs, "instances": expected, "timings": timings,
        "raw_timings": {k: timing(v) for k, v in raw.items()},
        "samples": samples, "setup_samples": setup,
        "calibrations": cals, "setup_calibrations": setup_cals,
    })


def _merge_layers(traces: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for t in traces:
        for name, s in t["layers"].items():
            m = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            for k in ("calls", "total_s", "self_s"):
                m[k] += s[k]
            m["max_s"] = max(m["max_s"], s["max_s"])
    return out


def layer_metrics(traces: list[dict], plains: list[dict], pools: list[dict],
                  workers: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced, untraced and pool probes of every
    argv of a workload, and the wrapped sites that were not found."""
    layers = _merge_layers(traces)

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0)

    m: dict[str, tuple[float, str]] = {}
    for name, s in layers.items():
        m[f"{name}.calls"] = (s["calls"], "count")
        m[f"{name}.self_s"] = (s["self_s"], "s")
        m[f"{name}.max_call_ms"] = (s["max_s"] * 1000.0, "ms")
    m["sweep.build_instances_s"] = (get("sweep.build_instances", "total_s"), "s")
    m["sweep.dispatch_self_s"] = (
        get("sweep.execute", "self_s") + get("sweep.dispatch", "self_s"), "s")
    m["sweep.render_s"] = (get("sweep.render", "total_s"), "s")
    for t in traces:
        for name, v in t["counters"].items():
            m[name] = (m.get(name, (0, ""))[0] + v, "count")
        for name, v in t["maxima"].items():  # the only maximum is a degree
            m[name] = (max(m.get(name, (v, ""))[0], v), "degree")
    caches: dict[str, list[int]] = {}
    for t in traces:
        for name, c in t["caches"].items():
            hm = caches.setdefault(name, [0, 0])
            hm[0] += c["hits"]
            hm[1] += c["misses"]
    for name, (hits, misses) in caches.items():
        m[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    if all("run_s" in p for p in pools):
        run_s = sum(p["run_s"] for p in pools)
        busy = sum(p["elapsed_sum_s"] for p in pools)
        m["sweep.pool_efficiency"] = (busy / (workers * run_s), "ratio")
        m["sweep.pool_overhead_s"] = (run_s - busy / workers, "s")
    traced_wall = sum(t["wall_s"] for t in traces)
    named_self = sum(s["self_s"] for n, s in layers.items() if n != "cli.main")
    m["trace.overhead_frac"] = (traced_wall / sum(p["wall_s"] for p in plains) - 1, "ratio")
    m["trace.coverage_frac"] = (named_self / traced_wall, "ratio")
    absent = sorted({a for t in traces for a in t["absent"]})
    m["trace.absent_wrappers"] = (len(absent), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}, absent


def measure_traced(w: Workload, seed: int) -> dict:
    """Untraced, traced and (for pooled workloads) pool runs in fresh
    interpreters; the traced and untraced runs use one worker."""
    run = Run(w, seed)
    results: dict[str, list[dict]] = {"plain": [], "traced": [], "pool": []}
    for i, (argv, argv1) in enumerate(zip(cli_argvs(w, seed), cli_argvs(w, seed, 1))):
        reports = {}
        for mode, args in (("plain", argv1), ("traced", argv1), ("pool", argv)):
            if mode == "pool" and w.workers == 1:
                continue
            path = OUT / f"{w.name}-{mode}.json"
            _, res = _probe(run, "traced" if mode == "traced" else "plain",
                            str(path), json.dumps(args), tag=mode)
            data = path.read_bytes()
            run.check(i, argv, data, res["exit"], 0)
            reports[mode] = hashlib.sha256(data).hexdigest()
            results[mode].append(res)
        if len(set(reports.values())) != 1:
            run.problems.append(f"{argv[0]}: traced, untraced and pool reports differ")
    traces, plains = results["traced"], results["plain"]
    metrics, absent = layer_metrics(traces, plains, results["pool"] or plains, w.workers)
    return run.finish("traced", metrics, {
        "layers": _merge_layers(traces), "absent": absent,
        "walls": {"plain": [p["wall_s"] for p in plains],
                  "traced": [t["wall_s"] for t in traces]},
    })


# ---------------------------------------------------------------------------
# output

def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_human(res: dict, spec: dict) -> None:
    print(f"== {res['workload']} seed={res['seed']} {res['mode']}"
          f"  load1 {res['env']['load1_before']:.2f} -> {res['env']['load1_after']:.2f}")
    if res["mode"] == "end_to_end":
        for name, t in res["timings"].items():
            tail = (f"p{t['tail']['pct']:g} {_fmt(t['tail']['value'])}" if t["tail"]
                    else "no tail percentile (< 20 samples)")
            raw = res["raw_timings"][name]["median"]
            print(f"  {name:<18} {_fmt(t['median']):>12} {res['metrics'][name]['unit']:<3}"
                  f" median of {t['n']}; {tail}; unscaled median {_fmt(raw)}")
    else:
        wall = sum(res["walls"]["traced"])
        print(f"  {'layer':<28}{'calls':>9}{'self_s':>11}{'share':>8}{'max_ms':>10}")
        for name, s in sorted(res["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<28}{s['calls']:>9}{s['self_s']:>11.4f}"
                  f"{s['self_s'] / wall:>8.1%}{s['max_s'] * 1000:>10.2f}")
        listed = {m["name"] for m in spec["per_layer"]}
        for name, m in res["metrics"].items():
            if name in listed or name.startswith("cache."):
                print(f"  {name:<44} {_fmt(m['value']):>12} {m['unit']}")
        for a in res["absent"]:
            print(f"  absent: {a}")
    print(f"  {'bad_records_frac':<18} {_fmt(res['bad_records_frac']):>12} ratio"
          f" ({res['failed']} of {res['attempted']} records)")
    for p in res["problems"]:
        print(f"  PROBLEM {p}")


def driver_line(res: dict, wanted: list[dict]) -> str:
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None and res["mode"] == "end_to_end":
            raise SystemExit(f"metric {m['name']} not measured")
        if got is not None and got["unit"] != m["unit"]:
            raise SystemExit(f"metric {m['name']}: unit {got['unit']} != {m['unit']}")
        # a layer this workload never calls, or one no longer found, did no work
        metrics[m["name"]] = {"value": got["value"] if got else 0.0, "unit": m["unit"]}
    return json.dumps({"correct": res["correct"], "attempted": max(res["attempted"], 1),
                       "failed": res["failed"], "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "supercong" / "__init__.py").is_file():
        print(f"no supercong sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    ok = True
    line = ""
    for name in names:
        for mode in modes:
            w = WORKLOADS[name]
            if mode == 0:
                res = measure_end_to_end(w, args.seed, args.seconds or spec["run_seconds"])
            else:
                res = measure_traced(w, args.seed)
            OUT.mkdir(exist_ok=True)
            (OUT / f"{name}-seed{args.seed}-trace{mode}.json").write_text(
                json.dumps(res, indent=1) + "\n")
            print_human(res, spec)
            line = driver_line(res, spec["end_to_end" if mode == 0 else "per_layer"])
            ok = ok and res["correct"]
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
