"""Report bytes pinned by sha256.

The digests were taken from `render_json` (without timings) before the
classical families were rewritten as the general-alpha closed form at
alpha = 1/d, so any change to a record, a skip reason or the rendering
shows up here.  qverify_skips, at n's where each q-family both runs and
skips for its condition on n, was taken before verify_gz and
verify_conjecture41 became verify_q.  A deliberate report change must
update them and say why.
"""

import hashlib

import pytest

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
