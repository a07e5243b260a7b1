"""Mutation check: do the tests notice small breaks of the fast paths?

    python tools/mutants.py

Each mutation replaces one snippet, which must occur exactly once, in one
file of src/supercong, and names the test files that should notice.  Every
run works in a fresh temporary copy of src/ and tests/; the working tree is
never written to.  First each distinct list of test files runs once against
an unmutated copy: if any of these baseline runs fails or hits the time
limit, the script stops with exit 2, because a failure would then say
nothing about the mutation.  Then, for each mutation, the snippet is
replaced in a copy and pytest runs the mutation's test files (stopping at
the first failure, within TIMEOUT_S seconds).  A mutation is caught when
that run fails or times out, and survives when it passes.  The script
prints one line per mutation, then the survivors, and exits 1 if any
survived.

This is a check on the tests, not one of them: it is slow (one pytest
run per mutation) and is not collected by the test suite.

Left out on purpose: mutations known to be equivalent, which no test can
catch.  In qseries._hasse_residues, the weight update (i - j) -> (i - j + 1)
computes the Hasse derivatives of q*N, which vanish at the same orders.  In
qseries._times_q_integer, padding `a` with m zeros instead of m - 1 only
appends a zero coefficient, which _sum_numerator's final _trim drops.  In
wz.check_pair, dropping the break at the first row with P_n = 0 checks that
row and every later one, whose terms all carry P_n^2 and read 0 = 0.

Not equivalent, though check_euler_identities cannot show it: the Horner
shift 2^(n-i) -> 2^(n-i+1) doubles both sides of every reflection check,
so only the test that pins sequences._horner_halves to 2^n P(j/2) sees it.

Not equivalent, though no record shows it: the same p^3 added to both
sides of LEMMA_SIGMA1 passes every lemma record, and only the proof chain
in tests/test_verifier.py, which sums the lemmas' sides into S(alpha, p-1)
and into the closed form, sees it among the verifier tests (the Fraction
oracle in tests/test_properties.py sees it too).

Not equivalent, though no record shows them: the theorem makes
S(alpha, a) ≡ S(alpha, p-1) (mod p^4), so a record that reads the other
truncation of the sums (MAIN1 and MAIN1_TRUNC, a classical family's short
and full, EQUIV's p-1) still passes.  A test that fakes the trees, whose
sum to M is then M, shows which truncation each record read, so these
swaps are in the list.  Likewise a descent that skips a reduction gives
the same values, only from ever larger prefixes: a test that checks each
node's prefix is reduced below its modulus sees it.

Not equivalent, though no verdict of check_lehmer shows them: every
residue Lehmer's congruences read is 0 at a true prime, so reading
H_{p-1} mod p instead of p^2 (Wolstenholme's theorem makes it 0 mod p^2
too), or keeping one prime's modulus at a cut two primes share, passes
every prime.  The tests that spy on check_lehmer's trees see them: one
checks the moduli it asks for, one moves H_{p-1} by a multiple of p.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300.0  # per pytest run

WZ_TESTS = ("tests/test_wz.py", "tests/test_properties.py", "tests/test_acceptance.py")
BINOM_TESTS = ("tests/test_sequences.py", "tests/test_properties.py")
LEHMER_TESTS = ("tests/test_sequences.py", "tests/test_acceptance.py")
EULER_TESTS = ("tests/test_sequences.py", "tests/test_properties.py")
Q_TESTS = ("tests/test_qseries.py", "tests/test_properties.py")
CLOSED_TESTS = ("tests/test_verifier.py", "tests/test_acceptance.py")
VERIFY_TESTS = ("tests/test_verifier.py", "tests/test_properties.py")
TREE_TESTS = ("tests/test_trees.py", "tests/test_verifier.py")
RENDER_TESTS = ("tests/test_sweep_cli.py", "tests/test_report_digests.py")
SWEEP_TESTS = ("tests/test_sweep_cli.py",)
PADIC_TESTS = ("tests/test_padic.py",)


class Mutation(NamedTuple):
    name: str
    file: str  # under src/supercong
    old: str
    new: str
    tests: tuple[str, ...]


MUTATIONS = (
    # the integer certificate pair, less its shared P_n^2, and the telescope
    Mutation("wz pair k <= n+1 bound", "wz.py",
             "min(k_max, n + 1)", "min(k_max, n)", WZ_TESTS),
    Mutation("wz pair multipliers n - k + 1 -> n - k", "wz.py",
             "        m = n - k + 1\n", "        m = n - k\n", WZ_TESTS),
    Mutation("wz pair F(n, *) multiplier 2nd + r -> 2n + r", "wz.py",
             "e, g = 2 * n * d + r,", "e, g = 2 * n + r,", WZ_TESTS),
    Mutation("wz pair G(n, k) multiplier d^3 -> d^2", "wz.py",
             "d**3 * n * n", "d**2 * n * n", WZ_TESTS),
    Mutation("wz pair G(n, k) multiplier n^2 -> n", "wz.py",
             "d**3 * n * n", "d**3 * n", WZ_TESTS),
    Mutation("wz pair G(n, k) multiplier without m", "wz.py",
             "(e * sq[k - 1] - g * m)", "(e * sq[k - 1] - g)", WZ_TESTS),
    Mutation("wz pair F(n, k-1) multiplier (k - 1) -> k", "wz.py",
             "(e * sq[k - 1] - g * m)", "(e * sq[k] - g * m)", WZ_TESTS),
    Mutation("wz pair squares unsquared", "wz.py",
             "sq = [(r + j * d) ** 2 for", "sq = [(r + j * d) for", WZ_TESTS),
    Mutation("wz pair G(n+1, k) multiplier (r + nd)^2 -> (r + (n+1)d)^2", "wz.py",
             "(sq[n] - e * d * m)", "(sq[n + 1] - e * d * m)", WZ_TESTS),
    Mutation("wz pair F(n, k) multiplier without d", "wz.py",
             "(sq[n] - e * d * m)", "(sq[n] - e * m)", WZ_TESTS),
    Mutation("wz pair reads P_{n+k} for P_{n+k-1}", "wz.py",
             "* P[n + k - 1]\n", "* P[n + k]\n", WZ_TESTS),
    Mutation("wz pair P_n = 0 test inverted", "wz.py",
             "            if not P[n]:\n", "            if P[n]:\n", WZ_TESTS),
    Mutation("wz telescope table one entry short", "wz.py",
             "_Table(alpha, 2 * n_max - 1)", "_Table(alpha, 2 * n_max - 2)",
             WZ_TESTS),
    Mutation("wz telescope skips N = 1", "wz.py",
             "for N in range(n_max):", "for N in range(1, n_max):", WZ_TESTS),
    Mutation("wz pair pole test", "wz.py",
             "t.first_pole(k_max)", "t.first_pole(k_max - 1)", WZ_TESTS),
    Mutation("wz telescope pole test", "wz.py",
             "t.first_pole(N - 1)", "t.first_pole(N - 2)", WZ_TESTS),
    Mutation("wz telescope carried factor (d(N-1))^3 -> (d(N-1))^2", "wz.py",
             "S * (d * N) ** 3", "S * (d * N) ** 2", WZ_TESTS),
    Mutation("wz telescope carried factor (d(N-1))^3 -> (dN)^3", "wz.py",
             "S * (d * N) ** 3", "S * (d * (N + 1)) ** 3", WZ_TESTS),
    Mutation("wz telescope partial-sum sign parity", "wz.py",
             "(-term if N % 2 else term)", "(term if N % 2 else -term)", WZ_TESTS),
    Mutation("wz telescope summand P_N^3 -> P_N^2", "wz.py",
             "* P[N] ** 3", "* P[N] ** 2", WZ_TESTS),
    Mutation("wz closed form sign parity", "wz.py",
             "c = 1 if N % 2 else -1", "c = -1 if N % 2 else 1", WZ_TESTS),
    Mutation("wz closed form running product without its sign", "wz.py",
             "c *= -d * (N - k)", "c *= d * (N - k)", WZ_TESTS),
    Mutation("wz closed form running product without d", "wz.py",
             "c *= -d * (N - k)", "c *= -(N - k)", WZ_TESTS),
    Mutation("wz closed form running factorial (N - k) -> (N - k + 1)", "wz.py",
             "c *= -d * (N - k)", "c *= -d * (N - k + 1)", WZ_TESTS),
    Mutation("wz closed form Horner factor (k - 1) -> k", "wz.py",
             "C * (r + (k - 1) * d) ** 2", "C * (r + k * d) ** 2", WZ_TESTS),
    Mutation("wz closed form head exponent of d", "wz.py",
             "u = d ** (N - 1) *", "u = d ** N *", WZ_TESTS),
    Mutation("wz closed form head factorial index", "wz.py",
             "t.fact[N - 1]", "t.fact[N]", WZ_TESTS),
    Mutation("wz closed form correction multiplier (r + (N-1)d)^2 -> (r + Nd)^2",
             "wz.py", "(r + (N - 1) * d) ** 2 * C", "(r + N * d) ** 2 * C",
             WZ_TESTS),
    Mutation("wz closed form denominator without d", "wz.py",
             "d * u**3", "u**3", WZ_TESTS),
    # the integer binomial identities
    Mutation("binomial running product", "sequences.py",
             "c = c * (n - k + 1) // k", "c = c * (n - k + 2) // k", BINOM_TESTS),
    Mutation("binomial running quotient Lc / C(n, k)", "sequences.py",
             "q = q * k // (n - k + 1)", "q = q * (k + 1) // (n - k + 1)", BINOM_TESTS),
    Mutation("binomial lcm of the row over n", "sequences.py",
             "math.lcm(L, n + 1) // (n + 1)", "math.lcm(L, n + 1) // n", BINOM_TESTS),
    # the harmonic trees of check_lehmer
    Mutation("lehmer H_{p-1} read mod p", "sequences.py",
             "h1[p - 1][0] % p**2 == 0", "h1[p - 1][0] % p == 0", LEHMER_TESTS),
    Mutation("lehmer H_{p-1} tree mod p", "sequences.py",
             "{p - 1: p * p for p in cuts}", "{p - 1: p for p in cuts}", LEHMER_TESTS),
    Mutation("lehmer H^(2) leaf (j^2, 1, j^2) -> (j, 1, j)", "sequences.py",
             "(j * j, 1, j * j)", "(j, 1, j)", LEHMER_TESTS),
    Mutation("lehmer half cut (p - 1) // 2 -> (p + 1) // 2", "sequences.py",
             "(p - 1, (p - 1) // 2)", "(p - 1, (p + 1) // 2)", LEHMER_TESTS),
    Mutation("lehmer shared cut keeps one prime's modulus", "sequences.py",
             "points[M] = points.get(M, 1) * p", "points[M] = p", LEHMER_TESTS),
    Mutation("binomial sign parity", "sequences.py",
             "        if k % 2:\n", "        if k % 2 == 0:\n", BINOM_TESTS),
    Mutation("binomial c u sign", "sequences.py",
             "cu, sq = -cu, -sq", "cu, sq = cu, -sq", BINOM_TESTS),
    Mutation("binomial lcm range without its top", "sequences.py",
             "math.lcm(*range(n // 2 + 1, n + 1))", "math.lcm(*range(n // 2 + 1, n))",
             BINOM_TESTS),
    Mutation("binomial lcm range from n/2 + 2", "sequences.py",
             "math.lcm(*range(n // 2 + 1, n + 1))", "math.lcm(*range(n // 2 + 2, n + 1))",
             BINOM_TESTS),
    Mutation("binomial halved sum", "sequences.py",
             "2 * s3 ==", "s3 ==", BINOM_TESTS),
    # the integer Euler-polynomial identities
    Mutation("euler reflection sign", "sequences.py",
             "(-y if flip else y)", "(y if flip else -y)", EULER_TESTS),
    Mutation("euler Horner shift", "sequences.py",
             "(a[i] << (n - i))", "(a[i] << (n - i + 1))", EULER_TESTS),
    Mutation("euler reflection point 1 - j", "sequences.py",
             "_horner_halves(a, 2 - j)", "_horner_halves(a, 1 - j)", EULER_TESTS),
    Mutation("euler power-sum factor D", "sequences.py",
             "2 * D * acc", "D * acc", EULER_TESTS),
    # the root-of-unity congruence test and the sparse q-sums
    Mutation("qseries derivative orders", "qseries.py",
             "range(den_orders[d] + e)", "range(den_orders[d] + e - 1)", Q_TESTS),
    Mutation("qseries v = 0", "qseries.py",
             "range(den_orders[d] + e)", "range(0 * den_orders[d] + e)", Q_TESTS),
    Mutation("qseries v + 1", "qseries.py",
             "range(den_orders[d] + e)", "range(1 + den_orders[d] + e)", Q_TESTS),
    Mutation("qseries f2 step", "qseries.py",
             "_times_cube(f3, 4 * k - 3)", "_times_cube(f3, 4 * k - 1)", Q_TESTS),
    Mutation("qseries window", "qseries.py",
             "[0] * (m - 1) + prefix", "[0] * m + prefix", Q_TESTS),
    Mutation("qseries denominator cube", "qseries.py",
             "{4 * k: 3 for k in range(1, n)}", "{4 * k: 3 for k in range(1, n + 1)}",
             Q_TESTS),
    # the (1 - q^s) products and the monic remainder
    Mutation("qseries binomial multiplies by 1 + q^s", "qseries.py",
             "[x - y for x, y in zip(c + [0] * s", "[x + y for x, y in zip(c + [0] * s",
             Q_TESTS),
    Mutation("qseries binomial division skips a residue class", "qseries.py",
             "for r in range(s):", "for r in range(1, s):", Q_TESTS),
    Mutation("qseries binomial divides before it multiplies", "qseries.py",
             "key=lambda sk: -sk[1]", "key=lambda sk: sk[1]", Q_TESTS),
    Mutation("qseries binomial remainder unchecked", "qseries.py",
             "if any(c[-s:]):", "if not c:", Q_TESTS),
    Mutation("qseries Moebius exponent without e", "qseries.py",
             "{d: e * mu for d", "{d: mu for d", Q_TESTS),
    Mutation("qseries witness modulus without [n]", "qseries.py",
             "modulus.update({n: 1, 1: -1})", "modulus.update({n: 0, 1: 0})", Q_TESTS),
    Mutation("qseries monic remainder stops a step early", "qseries.py",
             "range(len(c) - 1, k - 1, -1)", "range(len(c) - 1, k, -1)", Q_TESTS),
    Mutation("qseries monic remainder adds", "qseries.py",
             "[x - t * y for x, y", "[x + t * y for x, y", Q_TESTS),
    Mutation("qseries monic remainder untrimmed: a zero residue is nonempty",
             "qseries.py", "return _trim(c[:k])", "return tuple(c[:k])", Q_TESTS),
    Mutation("qseries sum numerator untrimmed", "qseries.py",
             "return _trim(acc)", "return tuple(acc)", Q_TESTS),
    Mutation("qseries trim keeps one trailing zero", "qseries.py",
             "return tuple(c[:end])", "return tuple(c[:end + 1])", Q_TESTS),
    Mutation("qseries zero polynomial written as an empty string", "qseries.py",
             'or "0"', 'or ""', Q_TESTS),
    Mutation("qseries certificate shift", "qseries.py",
             "shift = j % d", "shift = 0", Q_TESTS),
    Mutation("qseries accumulator start +rhs", "qseries.py",
             "[-c for c in rhs]", "[c for c in rhs]", Q_TESTS),
    Mutation("qseries GZ right side sign flipped", "qseries.py",
             "(-1 if e % 2 else 1,) * n", "(1 if e % 2 else -1,) * n", Q_TESTS),
    Mutation("qseries CONJ41 weight sign", "records.py",
             '"CONJ41": QFamily((1, -1),', '"CONJ41": QFamily((1, 1),', Q_TESTS),
    Mutation("qseries Phi_n exponent e", "qseries.py",
             "(d, 1 + f.phi_exp if d == n else 1)", "(d, f.phi_exp if d == n else 1)",
             Q_TESTS),
    Mutation("qseries family condition on n mod n_mod", "qseries.py",
             "n % f.n_mod != 1", "n % f.n_mod > 1", Q_TESTS),
    Mutation("qseries rows labelled with the wrong n", "qseries.py",
             "sides, n=n)", "sides, n=n + 1)", Q_TESTS),
    Mutation("qseries den order n - 1 -> n", "qseries.py",
             "3 * ((n - 1) // (d", "3 * (n // (d", Q_TESTS),
    Mutation("qseries den order gcd(d, 2)", "qseries.py",
             "d // math.gcd(d, 4)", "d // math.gcd(d, 2)", Q_TESTS),
    Mutation("qseries den order factor 2", "qseries.py",
             "3 * ((n - 1) // (d", "2 * ((n - 1) // (d", Q_TESTS),
    # the general-alpha closed form
    Mutation("closed form parity", "verifier.py",
             "rhs = _parity_sign(a) * pt", "rhs = _parity_sign(a + 1) * pt",
             CLOSED_TESTS),
    Mutation("closed form e == 4", "verifier.py", "if e == 4:", "if e != 4:",
             CLOSED_TESTS),
    # the lemmas' trees, the values read off them, and a and t
    Mutation("lemma W leaf sign", "verifier.py",
             "_Trunc((s * g * k, s * (s - r), -s * s))",
             "_Trunc((-s * g * k, -s * (s - r), s * s))", TREE_TESTS),
    Mutation("lemma W leaf P coefficient s(s - r) -> s(s + r)", "verifier.py",
             "s * (s - r), -s * s", "s * (s + r), -s * s", TREE_TESTS),
    Mutation("truncated polynomial read at P = p without its P^2 term", "verifier.py",
             "(c2 * p + c1) * p % m", "c1 * p % m", TREE_TESTS),
    Mutation("lemma W cuts mod p^4 where p^(4 + 2 v0) is needed", "verifier.py",
             "{a}, p ** (4 + 2 * v0))", "{a}, p**4)", TREE_TESTS),
    Mutation("lemma sides read v0 one too large", "verifier.py",
             "v0s.setdefault(i, {})[p] = v0", "v0s.setdefault(i, {})[p] = v0 + 1",
             TREE_TESTS),
    Mutation("lemma alternating harmonic leaf sign", "verifier.py",
             "(j * j, (-1) ** j, j * j)", "(j * j, (-1) ** (j + 1), j * j)", TREE_TESTS),
    Mutation("lemma Pi leaf r + (j-1)s -> r + js", "verifier.py",
             "(1, 0, r + (j - 1) * s)", "(1, 0, r + j * s)", TREE_TESTS),
    Mutation("lemma zero test reads alpha - a", "verifier.py",
             "zero = r + a * s == 0", "zero = r - a * s == 0", VERIFY_TESTS),
    Mutation("lemma U_{a+1} from the W row without the factor (r+as)^2", "verifier.py",
             "ua2 = w[a][2] * ((r + a * s) // pv) ** 2 % m", "ua2 = w[a][2] % m",
             TREE_TESTS),
    Mutation("lemma shared inverse cube used as a square", "verifier.py",
             "lhs = pi[2 * p - 1][1] * s * sf * isf3", "lhs = pi[2 * p - 1][1] * s * isf3",
             VERIFY_TESTS),
    Mutation("lemma 1/2 mod p^4 one off", "verifier.py",
             "half = (m + 1) // 2  # 1/2 mod p^4", "half = (m - 1) // 2", VERIFY_TESTS),
    Mutation("t from alpha + a reduced mod p^4", "verifier.py",
             "(num + a * den) // p * inv % m", "(num + a * den) % m // p * inv % m",
             VERIFY_TESTS),
    # the leaves of the sums trees and of the Euler tree
    Mutation("sums leaf sign (-1)^k", "verifier.py",
             "(-w if k & 1 else w)", "(w if k & 1 else -w)", TREE_TESTS),
    Mutation("sums leaf weight 2ks + r -> 2ks - r", "verifier.py",
             "w = b * k + c", "w = b * k - c", TREE_TESTS),
    Mutation("sums leaf factor (r+ks)^3 -> (r+(k-1)s)^3", "verifier.py",
             "(r + s * k) ** 3", "(r + s * (k - 1)) ** 3", TREE_TESTS),
    Mutation("sums leaf D multiplied by z", "primes.py",
             "P * z % m, D * x % m)", "P * z % m, D * z % m)", TREE_TESTS),
    Mutation("leaf product y1 x2 + z1 y2 -> y1 z2 + z1 y2", "primes.py",
             "return x1 * x2, y1 * x2 + z1 * y2, z1 * z2",
             "return x1 * x2, y1 * z2 + z1 * y2, z1 * z2", TREE_TESTS),
    Mutation("Euler leaf sign (-1)^j", "verifier.py",
             "(j * j, -1 if j & 1 else 1, j * j)", "(j * j, 1 if j & 1 else -1, j * j)",
             TREE_TESTS),
    Mutation("Euler A_p read as A_(p-1)", "verifier.py",
             "full = alt(p, p)", "full = alt(p, p - 1)", TREE_TESTS),
    Mutation("Euler residue sign (-1)^r", "verifier.py",
             "_parity_sign(r) * (full", "_parity_sign(r + 1) * (full", TREE_TESTS),
    # the breakpoints and the descent
    Mutation("tree without points descends into nothing", "primes.py",
             "    if not points:\n        return {}\n", "", TREE_TESTS),
    Mutation("breakpoint a -> a + 1", "verifier.py",
             "cut = -num * pow(den, -1, p) % p", "cut = -num * pow(den, -1, p) % p + 1",
             TREE_TESTS),
    Mutation("breakpoint (p - 1)/2 -> (p + 1)/2", "verifier.py",
             "cut = (p - 1) // 2", "cut = (p + 1) // 2", TREE_TESTS),
    Mutation("descent feeds the right child the unreduced prefix", "primes.py",
             "_descend(right, ((A * x + P * y) % mr, P * z % mr, D * x % mr), out)",
             "_descend(right, (A * x + P * y, P * z, D * x), out)", TREE_TESTS),
    Mutation("descent feeds the left child the unreduced prefix", "primes.py",
             "_descend(left, (A % ml, P % ml, D % ml), out)",
             "_descend(left, row, out)", TREE_TESTS),
    Mutation("descent feeds the right child a prefix without the left product",
             "primes.py",
             "_descend(right, ((A * x + P * y) % mr, P * z % mr, D * x % mr), out)",
             "_descend(right, (A % mr, P % mr, D % mr), out)", TREE_TESTS),
    # the old split: one contiguous block of tree jobs per worker
    Mutation("tree jobs split by cfg.workers again", "sweep.py",
             "out.append(Instance(label, verify_primes, (tuple(jobs), truncs),\n"
             "                            p=jobs[-1][0], work=work))",
             "k = min(cfg.workers, len(jobs))\n"
             "        out += [Instance(label, verify_primes, (tuple(\n"
             "            jobs[i * len(jobs) // k:(i + 1) * len(jobs) // k]), truncs),\n"
             "            p=jobs[-1][0], work=work) for i in range(k)]",
             SWEEP_TESTS),
    # the work floor of a forked run, and the estimates it is compared with
    Mutation("fork floor compared the wrong way", "sweep.py",
             ") < _FORK_FLOOR or", ") >= _FORK_FLOOR or", SWEEP_TESTS),
    Mutation("fork floor ignored", "sweep.py",
             "if sum(inst.work for inst in insts) < _FORK_FLOOR or not", "if not",
             SWEEP_TESTS),
    Mutation("tree work estimate without the lemma trees", "sweep.py",
             "(sums + 3 * lemma)", "sums", SWEEP_TESTS),
    Mutation("tree work estimate from each job's prime, not its gap", "sweep.py",
             "8 * (p - (jobs[-1][0] if jobs else 0)) * trees", "8 * p * trees",
             SWEEP_TESTS),
    # the values the rows of one prime read
    Mutation("prime EQUIV reads the short checkpoint", "verifier.py",
             "4 * sums[_QUARTER][p][1]", "4 * sums[_QUARTER][p][0]", VERIFY_TESTS),
    Mutation("prime classical weight d reads the sums of 1/2", "verifier.py",
             "s = sums[d - 2][p]", "s = sums[_HALF][p]", VERIFY_TESTS),
    Mutation("prime MAO_HALF reads the half sum", "verifier.py",
             '(full if fam == "MAO_HALF" else half)', '(half if fam == "MAO_HALF" else half)',
             VERIFY_TESTS),
    Mutation("lemma trees built without a lemma family", "verifier.py",
             "if any(f in LEMMA_FAMILIES for _, fams, _ in normed for f in fams):",
             "if True:", VERIFY_TESTS),
    Mutation("prime p^3 family not reduced mod p^3", "verifier.py",
             "d * s % p**e", "d * s % m", VERIFY_TESTS),
    Mutation("prime short and full checkpoints swapped", "verifier.py",
             '[0 if truncation == "short" else 1]', '[1 if truncation == "short" else 0]',
             VERIFY_TESTS),
    Mutation("prime EQUIV residue class", "records.py",
             '"EQUIV": (4, 1)', '"EQUIV": (4, 3)', VERIFY_TESTS),
    # the values of one alpha and the lemma preconditions
    Mutation("alpha MAIN1 and MAIN1_TRUNC checkpoints swapped", "verifier.py",
             '[1 if fam == "MAIN1" else 0]', '[0 if fam == "MAIN1" else 1]',
             VERIFY_TESTS),
    Mutation("alpha TAIL empty test", "verifier.py",
             "if a == p - 1:  # TAIL\n            raise PreconditionViolated",
             "if a == p - 2:  # TAIL\n            raise PreconditionViolated",
             VERIFY_TESTS),
    Mutation("alpha TAIL lower checkpoint", "verifier.py",
             "(full - short) % m", "(full - full) % m", VERIFY_TESTS),
    Mutation("alpha lemma a = 0 test", "verifier.py",
             "if a == 0 and fam in", "if a == 1 and fam in", VERIFY_TESTS),
    Mutation("alpha lemma a = 0 skip applied to LEMMA_PROD", "verifier.py",
             '("LEMMA_WZPROD", "LEMMA_SIGMA1")',
             '("LEMMA_WZPROD", "LEMMA_SIGMA1", "LEMMA_PROD")', VERIFY_TESTS),
    Mutation("alpha lemma zero factor tested mod p^4", "verifier.py",
             "zero = r + a * s == 0", "zero = t == 0",
             VERIFY_TESTS),
    Mutation("alpha LEMMA_SIGMA1 sides both shifted by p^3", "verifier.py",
             "        return 4, lhs % m, rhs % m\n",
             "        shift = p**3 if fam == \"LEMMA_SIGMA1\" else 0\n"
             "        return 4, (lhs + shift) % m, (rhs + shift) % m\n",
             ("tests/test_verifier.py",)),
    Mutation("alpha LEMMA_PROD without the 1/2", "verifier.py",
             "p * p * half * ((t + 1) ** 2", "p * p * ((t + 1) ** 2", VERIFY_TESTS),
    Mutation("alpha LEMMA_PROD right side without its p^2 term", "verifier.py",
             "                + p * p * half * ((t + 1) ** 2 * ha * ha"
             " + (t * t + 4 * t + 1) * ha2)\n", "", VERIFY_TESTS),
    # the skips: only a tested hypothesis makes one, and a bug is named
    Mutation("alpha LEMMA_PROD zero factor untested", "verifier.py",
             'if fam == "LEMMA_PROD" and zero:', "if False:", VERIFY_TESTS),
    Mutation("alpha a and t without their integrality test", "verifier.py",
             "if not is_p_integral(alpha, p):", "if False:", SWEEP_TESTS),
    Mutation("rows skip on any error", "records.py",
             "except PreconditionViolated as exc:", "except Exception as exc:",
             SWEEP_TESTS),
    Mutation("rows name a bug without its alpha", "records.py",
             '"alpha": alpha, ', "", SWEEP_TESTS),
    # the record and residue types, and the check functions sweep binds
    Mutation("record equality compares the timings too", "records.py",
             "return self[:10] == other[:10]", "return tuple(self) == tuple(other)",
             SWEEP_TESTS),
    Mutation("least_nonneg_residue without its integrality check", "padic.py",
             "    if not is_p_integral(x, p):\n"
             "        raise NotPAdicIntegral(f\"{x} has no residue mod {p}^1\")\n",
             "", PADIC_TESTS),
    Mutation("residue class without its range check", "padic.py",
             "        if modulus < 1:\n"
             "            raise ValueError(f\"modulus must be positive, got {modulus}\")\n"
             "        if not 0 <= value < modulus:\n"
             "            raise ValueError(f\"value {value} outside [0, {modulus})\")\n",
             "", PADIC_TESTS),
    Mutation("sweep binds a check function over a patched one", "sweep.py",
             "globals().setdefault(name, getattr(mod, name))",
             "globals()[name] = getattr(mod, name)", SWEEP_TESTS),
    # the rows of the instances outside the families
    Mutation("sweep Lehmer row passes whatever its check says", "sweep.py",
             '"0", ok, p, None', '"0", True, p, None', SWEEP_TESTS),
    Mutation("sweep row of an exact identity swaps equal and unequal", "sweep.py",
             '"equal" if out else "unequal"', '"unequal" if out else "equal"',
             SWEEP_TESTS),
    Mutation("sweep smoke row drops its reason", "sweep.py",
             'None if ok else f"off by {abs(val - target)!r}"', "None", SWEEP_TESTS),
    # the forked run: claims, each child's one message and the clean-up of
    # the children
    Mutation("forked run reads a dead worker's EOF as its end", "forked.py",
             "            else:\n                how = (",
             "            elif message:\n                how = (", SWEEP_TESTS),
    Mutation("forked run reads an exit 0 without a message as success", "forked.py",
             "if message and code == 0:", "if code == 0:", SWEEP_TESTS),
    Mutation("forked run reads an exit-1 message as results", "forked.py",
             "if message and code == 0:", "if message and code in (0, 1):",
             SWEEP_TESTS),
    Mutation("forked run reads one chunk of a message", "forked.py",
             'b"".join(iter(lambda: os.read(fd, 1 << 16), b""))',
             "os.read(fd, 1 << 16)", SWEEP_TESTS),
    Mutation("forked run collects no child between the parent's instances",
             "forked.py", "            collect(0)\n", "", SWEEP_TESTS),
    Mutation("forked run reads a claim token one byte short", "forked.py",
             "os.read(claims, _TOKEN)", "os.read(claims, _TOKEN - 1)", SWEEP_TESTS),
    Mutation("forked run ends a claimed chunk one instance early", "forked.py",
             "min(start + chunk, n)", "min(start + chunk - 1, n)", SWEEP_TESTS),
    Mutation("forked run leaves its children alive on an error", "forked.py",
             "        for fd, (_, pid) in live.items():\n"
             "            os.close(fd)\n"
             "            if pid is not None:  # not yet reaped, so the pid is ours\n"
             "                os.kill(pid, signal.SIGKILL)\n"
             "                os.waitpid(pid, 0)\n",
             "", SWEEP_TESTS),
    Mutation("forked run child claims on after its parent died", "forked.py",
             "if parent is not None and os.getppid() != parent:", "if False:",
             SWEEP_TESTS),
    Mutation("forked run drops a worker's error", "forked.py",
             "raise InternalError(msg) from _WorkerTraceback(tb)", "continue",
             SWEEP_TESTS),
    # the JSON report, one formatting step per record, and the summary counts
    Mutation("render record item indent", "sweep.py",
             r"""f',\n      "pass": {""", r"""f',\n     "pass": {""", RENDER_TESTS),
    Mutation("render record closing brace", "sweep.py",
             r'return out + "\n    }"', r'return out + "\n  }"', RENDER_TESTS),
    Mutation("render drops the last record", "sweep.py",
             "for r in summary.records])", "for r in summary.records[:-1]])",
             RENDER_TESTS),
    Mutation("render writes a reason without escaping it", "sweep.py",
             """"reason": {_json_str(reason)}'""", """"reason": "{reason}"'""",
             RENDER_TESTS),
    Mutation("render writes a False pass as true", "sweep.py",
             'False: "false", None', 'False: "true", None', RENDER_TESTS),
    Mutation("render csv writes a skip as a pass", "sweep.py",
             'None: "skip"}', 'None: "pass"}', RENDER_TESTS),
    Mutation("render csv swaps the lhs and rhs columns", "sweep.py",
             "_side(lhs), _side(rhs),", "_side(rhs), _side(lhs),", RENDER_TESTS),
    Mutation("render csv rounds elapsed_ms to 2 places", "sweep.py",
             "None if ms is None else round(ms, 3)", "None if ms is None else round(ms, 2)",
             SWEEP_TESTS),
    Mutation("summary counts a failed record as passed", "sweep.py",
             "if verdict is True:", "if verdict is not None:", SWEEP_TESTS),
)


def run_tests(tests: tuple[str, ...], m: Mutation | None = None) -> str:
    """Run `tests` on a copy of src/, with `m` applied if given.

    Returns 'failed', 'timeout' or 'passed'.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src")
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if m is not None:
            target = work / "src" / "supercong" / m.file
            text = target.read_text()
            if text.count(m.old) != 1:
                raise SystemExit(
                    f"{m.name}: {m.old!r} occurs {text.count(m.old)} times in {m.file}"
                )
            target.write_text(text.replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(work / "src")}
        # an installed supercong would shadow the copy and hide every mutation
        where = subprocess.run(
            [sys.executable, "-c", "import supercong; print(supercong.__file__)"],
            cwd=work, env=env, capture_output=True, text=True, check=True,
        ).stdout
        if not Path(where.strip()).is_relative_to(work):
            raise SystemExit(f"supercong imports from {where.strip()}, not the copy")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--rootdir", str(work), *tests]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stdout.decode()[-2000:])
            sys.stderr.write(proc.stderr.decode()[-2000:])
            label = m.name if m is not None else "baseline"
            raise SystemExit(f"{label}: pytest exited {proc.returncode}")
        return "failed" if proc.returncode else "passed"


def main() -> int:
    for tests in dict.fromkeys(m.tests for m in MUTATIONS):
        outcome = run_tests(tests)
        print(f"baseline {outcome:<8} {' '.join(tests)}", flush=True)
        if outcome != "passed":
            print("the unmutated tests do not pass; no mutation can be judged")
            return 2
    survivors = []
    for m in MUTATIONS:
        outcome = run_tests(m.tests, m)
        verdict = {"failed": "caught", "timeout": "caught (timeout)",
                   "passed": "survived"}[outcome]
        print(f"{verdict:<17} {m.name}: {m.old!r} -> {m.new!r}", flush=True)
        if verdict == "survived":
            survivors.append(m.name)
    print(f"\n{len(MUTATIONS) - len(survivors)} of {len(MUTATIONS)} mutations caught")
    for name in survivors:
        print(f"survived: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
