"""Report bytes pinned by sha256.

The digests were taken from `render_json` (without timings) before the
classical families were rewritten as the general-alpha closed form at
alpha = 1/d, so any change to a record, a skip reason or the rendering
shows up here.  qverify_skips, at n's where each q-family both runs and
skips for its condition on n, was taken before verify_gz and
verify_conjecture41 became verify_q.  The stdout of each demo and the
conjecture-41 witness JSON were pinned before every q-polynomial came to be
built from (1 - q^s) factors.  A deliberate report change must update them
and say why.
"""

import hashlib
import json

import pytest

from supercong.qseries import conjecture41_witness
from supercong.records import LEMMA_FAMILIES, PRIME_FAMILIES
from supercong.sweep import (
    Q_FAMILIES,
    VERIFY_FAMILIES,
    SweepConfig,
    render_json,
    run_identities,
    run_smoke,
    run_sweep,
    run_wz,
)

from test_demos import DEMOS, run_demo

# 1/5 is not 5-integral, 0 and -3 are nonpositive integers: all hit skips
ALPHAS = ("1/5", "0", "-3", "1/2", "-1/3", "3/4")

CASES = {
    "verify_default": (
        lambda: run_sweep(SweepConfig(families=VERIFY_FAMILIES, p_min=2, p_max=97)),
        "9230ac0a6d1840e76162fcc81c32680f80721536789906914d9a185e28670f0d",
    ),
    "verify_alphas": (
        lambda: run_sweep(
            SweepConfig(
                families=VERIFY_FAMILIES, p_min=2, p_max=97, alpha_list=ALPHAS
            )
        ),
        "6cf3fbc77c65df31856bbcae36e4e2eed5585ba450171ef5991665a550667030",
    ),
    # the families the remainder trees compute, to p = 1999 with the default
    # alphas: pinned before the trees replaced the per-prime sums
    "verify_trees_1999": (
        lambda: run_sweep(SweepConfig(
            families=PRIME_FAMILIES + ("MAIN1", "MAIN1_TRUNC", "TAIL"),
            p_min=5, p_max=1999)),
        "15ece8ba11fb83bd1f8af44d32323e0f5fde72430b83eb8a42c5fdb7fc523262",
    ),
    # the lemma families per prime, to p = 499 with the default alphas:
    # pinned before the lemma tables of a prime became one per job
    "verify_lemmas_499": (
        lambda: run_sweep(SweepConfig(families=LEMMA_FAMILIES, p_min=2, p_max=499)),
        "2cea7e91ce28c508632b277d56a47b77c64b5989266c8f7cd93c8d88055b91dc",
    ),
    "qverify": (
        lambda: run_sweep(SweepConfig(families=Q_FAMILIES, n_list=(5, 9, 13))),
        "12524c22f51e9296f9f207e13ecf5c530235c9473335173d52fc7b0e77829f9f",
    ),
    "qverify_skips": (
        lambda: run_sweep(SweepConfig(families=Q_FAMILIES, n_list=(1, 2, 3, 4, 7, 17))),
        "dae290073da09215ee1c267d87c921b678197eef3e6252cf3fc2693c20f65e22",
    ),
    "identities": (
        run_identities,
        "ff72496156c20cba89e6a9738cc1a880888093f7a0c5928806668c0942330f54",
    ),
    "wz": (
        run_wz,
        "50055a3f6a4541a7622579767023d569efe098e50f61188b213265256bc31f14",
    ),
    # the grid of the one-row-denominator pair check's speed claim, pinned
    # before that check replaced cross-multiplying
    "wz_40x40": (
        lambda: run_wz(nmax=40, kmax=40, alpha_samples=101),
        "c5fa9c5718955eba9009f1988957ee46818e4552c221e35016a2cdb8024afe8a",
    ),
    "smoke": (
        run_smoke,
        "4ecad1d429342dfbf391e08b3377bb917289ae66c11318e9c67ec78cccb70365",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_render_json_digest(name):
    run, want = CASES[name]
    got = hashlib.sha256(render_json(run()).encode()).hexdigest()
    assert got == want, f"{name}: report bytes changed"


DEMO_DIGESTS = {
    "classical_supercongruences":
        "c150608afa0b4e26492db7d98f3b032f3da84d669183559f508c4da3929d6600",
    "general_alpha_theorem":
        "6d40e0e03883ba54c1e8ff7f5ab075541062473d78612f05bbe570e8460ac412",
    "lemma_congruences":
        "72bf01c6ba52b26fe7329075994c02a64a2723c4808564a29d8ef7b13c620d3f",
    "q_congruences":
        "9c78ce51e277d923ef53f3084cd20b36212f1824cdc764bc70f9eb5fc7096d88",
    "ramanujan_series":
        "0406d4c56b98c9c179149976a06dbbb95a426edd5d855d8f8767f70d60d3967a",
    "wz_telescoping":
        "98c2dc1d1827905a532f6637883818aecd898a93ad90dd87e32cee0ae72359ea",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_digest(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    got = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert got == DEMO_DIGESTS[demo.stem], f"{demo.stem}: stdout changed"


WITNESS_DIGESTS = {
    5: "ff942a088dab76155ffac411a9cfeeb6d61cf7c69069ddbb1dd8d3c657facd94",
    9: "1f2f9c35a65cf1adda6c13cf22dd435e2fbe912a943e157ff996fb962ac89286",
    13: "d557aa2f6c86f76568ccbf531fe9dbe428d91118f810352368a65d9be4db1f3d",
    29: "77ef85716705ef369a693fe5c17403bb89b9e4bf46bab43fce66c641e385e44d",
}


@pytest.mark.parametrize("n", sorted(WITNESS_DIGESTS))
def test_conjecture41_witness_digest(n):
    # the JSON the CLI writes to conj41_witness_n{n}.json, less its newline
    text = json.dumps(conjecture41_witness(n), indent=2, sort_keys=True)
    got = hashlib.sha256(text.encode()).hexdigest()
    assert got == WITNESS_DIGESTS[n], f"n = {n}: witness bytes changed"
