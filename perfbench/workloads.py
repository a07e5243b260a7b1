"""The benchmark's workloads and the seeded CLI arguments they run.

Each workload is one or more ``supercong`` command lines.  The seed only
chooses inputs (the ``--alpha`` sample and the ``wz --seed``); the program
sees nothing but the generated argv.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from random import Random
from typing import Callable

DEFAULT_SEED = 0

RESIDUE_FAMILIES = (
    "B2", "E2", "F2", "SW_E2", "SW_F2",
    "E2_MOD4", "F2_MOD4", "SW_E2_MOD4", "SW_F2_MOD4", "SUN_B2",
    "MAO_HALF", "SUN_HALF_CONJ", "EQUIV",
    "MAIN1", "MAIN1_TRUNC", "TAIL",
)
LEMMA_FAMILIES = (
    "LEMMA_WZPROD", "LEMMA_ALPHAP3", "LEMMA_SIGMA1", "LEMMA_PROD", "LEMMA_SIGMA",
)

# The classical families ask for Euler residues at 1/2, 1/3 and 1/4 at every
# prime.  Keeping those three in every sample makes the number of distinct
# residues requested, and so the Euler cost, the same for every seed.
FIXED_ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
# Denominators of the drawn alphas follow the package's built-in sample, so the
# size of the lemma pipeline's Fractions, which grows with the denominator,
# does not depend on the seed.
DRAWN_DENOMINATORS = (2, 3, 4, 5, 6, 6, 3)


def alpha_sample(seed: int) -> list[Fraction]:
    """Ten distinct non-integral alphas: FIXED_ALPHAS plus seven seeded draws
    r/d with 0 < |r| < 2d, one per entry of DRAWN_DENOMINATORS."""
    rng = Random(seed)
    out = list(FIXED_ALPHAS)
    for d in DRAWN_DENOMINATORS:
        pool = [
            Fraction(r, d)
            for r in range(1 - 2 * d, 2 * d)
            if gcd(r, d) == 1 and Fraction(r, d) not in out
        ]
        out.append(rng.choice(pool))
    return out


def _families(names) -> list[str]:
    return [arg for f in names for arg in ("--family", f)]


def _alphas(seed: int) -> list[str]:
    # "--alpha=-1/2": a separate "-1/2" would parse as an option
    return [f"--alpha={a}" for a in alpha_sample(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    commands: Callable[[int], list[list[str]]]  # seed -> one argv per process


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Euler residues and residue sums in one process; no Fraction or Z[q] work
        Workload(
            "residue",
            1,
            lambda seed: [
                ["verify", *_families(RESIDUE_FAMILIES),
                 "--pmin", "5", "--pmax", "307", *_alphas(seed)]
            ],
        ),
        # the Fraction lemma pipeline; the only workload on the process pool
        Workload(
            "lemma",
            2,
            lambda seed: [
                ["verify", *_families(LEMMA_FAMILIES),
                 "--pmin", "5", "--pmax", "199", *_alphas(seed)]
            ],
        ),
        # Z[q] sums and gcds; every p-adic layer idle; seed-independent
        Workload(
            "qseries",
            1,
            lambda seed: [
                ["qverify", "--family", "gz-e2", "--family", "gz-f2",
                 "--family", "conj41", "--n", "9", "--n", "13",
                 # a CONJ41 counterexample writes its witness file here
                 "--witness-dir", "perfbench/out"]
            ],
        ),
        # long harmonic prefixes (to p-1 = 1998) and the WZ pair's Pochhammers
        Workload(
            "identities",
            1,
            lambda seed: [
                ["identities", "--nmax", "200", "--pmax", "1999", "--mmax", "20"],
                # 48 of the 101 alphas wz samples from: the cost of an alpha
                # depends on its denominator, and a larger sample keeps the
                # seed's effect on the total small
                ["wz", "--nmax", "20", "--kmax", "20", "--alpha-samples", "48",
                 "--seed", str(seed)],
            ],
        ),
    )
}


def cli_argvs(w: Workload, seed: int, workers: int | None = None) -> list[list[str]]:
    """Full CLI argv per process, JSON report on stdout."""
    n = w.workers if workers is None else workers
    return [
        argv + ["--workers", str(n), "--format", "json"] for argv in w.commands(seed)
    ]
