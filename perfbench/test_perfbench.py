"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest
from pytest import approx

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402
from workloads import Workload, alpha_sample  # noqa: E402


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 5.0, 6.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())

    def body():
        mid()       # mid 1..5 holds leaf 2..4
        leaf()      # leaf 5..6.5

    tracer.wrap("root", body)()  # root 0..10
    layers = aggregate(tracer.spans)
    assert layers["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.5, "max_s": 10.0}
    assert layers["mid"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0, "max_s": 4.0}
    assert layers["leaf"] == {"calls": 2, "total_s": 3.5, "self_s": 3.5, "max_s": 2.0}
    assert sum(s["self_s"] for s in layers.values()) == layers["root"]["total_s"]


def test_span_closes_when_call_raises():
    ticks = iter([0.0, 1.0, 2.0, 3.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("skip")

    def outer():
        try:
            tracer.wrap("inner", boom)()
        except ValueError:
            pass

    tracer.wrap("outer", outer)()
    layers = aggregate(tracer.spans)
    assert layers["inner"]["self_s"] == 1.0
    assert layers["outer"]["self_s"] == 2.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(19)) is None
    assert run.tail_percentile(range(20)) == (50.0, 9)
    assert run.tail_percentile(range(40)) == (75.0, 29)
    assert run.tail_percentile(range(100)) == (90.0, 89)
    assert run.tail_percentile(range(1000)) == (99.0, 989)
    t = run.timing([3.0, 1.0, 2.0])
    assert t == {"median": 2.0, "n": 3, "tail": None}


def test_timings_scale_by_the_calibrations_around_them():
    ref = run.CAL_REF_S
    # a host at half speed doubles program and calibration times alike
    assert run.at_reference_speed([2.0, 2.0], [2 * ref] * 3) == approx([1.0, 1.0])
    # times[i] ran between cals[i] and cals[i + 1]; up to CAL_REACH == 2
    # calibrations on each side of it count
    scaled = run.at_reference_speed([1.0, 1.0, 1.0], [ref, ref, 3 * ref, 3 * ref])
    assert scaled == approx([3.0 / 5, 1.0 / 2, 3.0 / 7])
    with pytest.raises(ValueError):
        run.at_reference_speed([1.0], [ref])


def test_missing_sites_are_reported_absent():
    mod = types.ModuleType("perfbench_fake_layer")
    mod.present = lambda x: x + 1
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer()
        absent = tracer.install((
            (mod.__name__, "present", "fake.present", None),
            (mod.__name__, "deleted", "fake.deleted", None),
            ("perfbench_no_such_module", "f", "fake.f", None),
        ))
        assert mod.present(1) == 2
    finally:
        del sys.modules[mod.__name__]
    assert absent == [f"{mod.__name__}.deleted", "perfbench_no_such_module.f"]
    assert aggregate(tracer.spans)["fake.present"]["calls"] == 1


def _report(*records) -> bytes:
    return json.dumps({"records": list(records), "summary": {}}).encode()


def test_check_report_names_first_differing_record():
    good = {"family": "MAIN1", "p": 7, "alpha": "1/3", "truncation": "full",
            "pass": True, "lhs": 1, "rhs": 1}
    other = {**good, "p": 11}
    ref = run.check_report(_report(good, other), 0, ["verify"], 2, None)
    assert ref.bad == 0 and ref.problems == []
    changed = {**other, "lhs": 2, "rhs": 2}
    check = run.check_report(_report(good, changed), 0, ["verify"], 2, ref.baseline)
    assert (check.attempted, check.bad) == (2, 1)
    assert "p=11 alpha=1/3 truncation=full" in check.problems[0]
    assert "--pmin 11 --pmax 11 --alpha=1/3 --trunc full" in check.problems[0]
    crashed = run.check_report(b"Traceback", 1, ["verify"], 2, ref.baseline)
    assert (crashed.attempted, crashed.bad) == (2, 2)
    failing = run.check_report(_report(good, {**other, "pass": False}), 1,
                               ["verify"], 2, None)
    assert failing.bad == 1


def test_alpha_sample_is_seeded():
    assert alpha_sample(5) == alpha_sample(5)
    assert alpha_sample(5) != alpha_sample(6)
    sample = alpha_sample(7)
    assert len(set(sample)) == 10 and all(a.denominator > 1 for a in sample)


TINY = Workload("residue-tiny", 1, lambda seed: [
    ["verify", "--family", "E2_MOD4", "--family", "MAIN1", "--family", "TAIL",
     "--pmin", "5", "--pmax", "29",
     *(f"--alpha={a}" for a in alpha_sample(seed))],
])


def test_tiny_end_to_end_and_traced_runs():
    res = run.measure_end_to_end(TINY, seed=1, seconds=0.1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in res["metrics"].values())

    res = run.measure_traced(TINY, seed=1)
    assert res["correct"] and res["absent"] == []
    m = res["metrics"]
    assert m["verifier.main1.calls"]["value"] > 0
    assert m["sequences.euler_mod.calls"]["value"] > 0
    assert m["verifier.series_terms"]["value"] > 0
    assert 0.5 < m["trace.coverage_frac"]["value"] <= 1.0
