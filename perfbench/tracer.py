"""Outside-in span tracing of the supercong layers.

The package is not edited: ``install`` replaces the module attributes that
callers look up (``supercong.sweep.verify_lemma``, ``supercong.verifier.sum_main``,
...) with wrappers that record a span per call.  A span is [name, start, end,
parent index]; spans stay in memory until ``aggregate`` turns them into per-layer
calls, total time, self time (span minus its child spans) and longest call.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter
from types import ModuleType
from typing import Callable


def _arg(args, kwargs, i: int, name: str):
    return kwargs[name] if name in kwargs else args[i]


# Hooks run after a call returns normally and turn its arguments or result
# into exact work counts.
def _sum_terms(i: int, name: str):
    # the sums evaluate the terms k = 0..M
    def hook(tracer, args, kwargs, result):
        tracer.counters["verifier.series_terms"] += _arg(args, kwargs, i, name) + 1
    return hook


def _tail_terms(tracer, args, kwargs, result):
    # verify_tail steps the term recurrence for k = 1..p-1
    tracer.counters["verifier.series_terms"] += _arg(args, kwargs, 1, "p") - 1


def _lhs_degree(tracer, args, kwargs, result):
    tracer.note_max("qseries.lhs_q.num_degree_max", result.num.degree)


# (module, attribute looked up by callers, layer name, hook).  A function
# imported into several modules is wrapped at each lookup site that calls it.
SITES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("supercong.cli", "_run", "cli.run", None),
    ("supercong.cli", "render", "sweep.render", None),
    ("supercong.sweep", "build_instances", "sweep.build_instances", None),
    ("supercong.sweep", "_run_instances", "sweep.run_instances", None),
    ("supercong.sweep", "_execute", "sweep.execute", None),
    ("supercong.sweep", "_dispatch", "sweep.dispatch", None),
    ("supercong.sweep", "verify_theorem", "verifier.theorem", None),
    ("supercong.sweep", "verify_main1", "verifier.main1", None),
    ("supercong.sweep", "verify_tail", "verifier.tail", _tail_terms),
    ("supercong.sweep", "verify_mao_equiv", "verifier.mao", None),
    ("supercong.sweep", "verify_lemma", "verifier.lemma", None),
    ("supercong.verifier", "sum_main", "verifier.sum_main", _sum_terms(1, "M")),
    ("supercong.verifier", "sum_mao", "verifier.sum_mao", _sum_terms(0, "M")),
    ("supercong.verifier", "_poch_prefix", "verifier.poch_prefix", None),
    ("supercong.verifier", "euler_poly_eval_mod", "sequences.euler_mod", None),
    ("supercong.verifier", "euler_number_mod", "sequences.euler_mod", None),
    ("supercong.sequences", "_harmonic_value", "sequences.harmonic", None),
    ("supercong.sequences", "alternating_reciprocal_squares", "sequences.harmonic", None),
    ("supercong.verifier", "alternating_reciprocal_squares", "sequences.harmonic", None),
    ("supercong.sweep", "check_binomial_identities", "sequences.identities", None),
    ("supercong.sweep", "check_euler_identities", "sequences.identities", None),
    ("supercong.sweep", "check_lehmer", "sequences.identities", None),
    ("supercong.padic", "reduce_mod", "padic.reduce_mod", None),
    ("supercong.verifier", "reduce_mod", "padic.reduce_mod", None),
    ("supercong.sequences", "reduce_mod", "padic.reduce_mod", None),
    ("supercong.sweep", "verify_gz", "qseries.verify_gz", None),
    ("supercong.sweep", "verify_conjecture41", "qseries.verify_conj41", None),
    ("supercong.qseries", "_lhs_q", "qseries.lhs_q", _lhs_degree),
    ("supercong.qseries", "congruence_witness", "qseries.congruence_witness", None),
    ("supercong.qseries", "_modulus_part", "qseries.modulus_part", None),
    ("supercong.qseries", "poly_gcd", "qseries.poly_gcd", None),
    ("supercong.qseries", "pseudo_rem", "qseries.pseudo_rem", None),
    ("supercong.qseries", "cyclotomic", "qseries.cyclotomic", None),
    ("supercong.sweep", "check_pair", "wz.check_pair", None),
    ("supercong.sweep", "check_telescoped", "wz.check_telescoped", None),
)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, sites=SITES) -> list[str]:
        """Wrap every site; return the "module.attribute" sites not found."""
        absent = []
        for module, attr, name, hook in sites:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                absent.append(f"{module}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                absent.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self.wrap(name, fn, hook))
        return absent


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per name: calls, total_s, self_s (minus child spans) and max_s."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), inner in zip(spans, child):
        dur = end - start
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += dur - inner
        s["max_s"] = max(s["max_s"], dur)
    return out


def find_caches(package: ModuleType) -> dict[str, Callable]:
    """Every functools cache defined in a module of the package, keyed
    "cache.<module>.<function>"."""
    out = {}
    for info in pkgutil.iter_modules(package.__path__):
        mod = importlib.import_module(f"{package.__name__}.{info.name}")
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and (
                getattr(obj, "__module__", None) == mod.__name__
            ):
                out[f"cache.{info.name}.{attr}"] = obj
    return out
