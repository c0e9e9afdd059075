"""The four benchmark workloads: set-up, one timed run, and output checks.

Every call into malle_lab goes through a module (or class) attribute looked
up at call time, so that a traced run sees it.  `ml` is a namespace holding
the imported malle_lab modules.

Why these four:
  s3c3-interval  the paper's pipeline end to end (enumerate, JSONL round
                 trip, interval-mode pair count with a Y ladder); `counting`
                 does most of the work.
  s3c3-exact     exact-mode pair count with a seeded wild table; compose_disc
                 runs twice per pair and the abelian list is far longer than
                 its window.
  cubic-enum     cubic enumeration on two workers; `counting` does no work.
  analytic       `sieve` and `convolve`, which the other three never call.

BENCHMARK.json lists s3c3-interval and analytic, which between them call
every layer.  On a shared 2-core host, CPU speed drifts by up to 30% over tens
of seconds.  s3c3-exact (three set-ups of about ten seconds in each process)
and cubic-enum (two workers) spread the most from process to process.  The
time limit on a full set of runs leaves too little room to repeat them
until they are steady.  Run them by name, or with the all-workload mode of
run.py.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import random
from math import gcd

X_INTERVAL = 10**15
X_EXACT = 10**14
Y_LADDER = (10, 100, 1000)
DEFAULT_SEED = 0

# Pinned outputs of the parent commit.
INTERVAL_PINS = {"cubics": 21794, "cyclics": 51, "n_lo": 1524, "n_hi": 2739,
                 "n_y": {10: 1194, 100: 1515, 1000: 1524}}
# Interval-mode bracket at X_EXACT; the exact count lies inside it for any
# wild table drawn from the marginal range.
EXACT_PINS = {
    "cubics": 21794, "cyclics": 1592,
    "n_lo": (8, 9, 14, 25, 30, 41, 55, 70, 86, 123, 154, 213, 280, 360, 473, 615),
    "n_hi": (20, 24, 34, 50, 66, 87, 111, 143, 183, 240, 307, 410, 539, 681, 899, 1161),
    "by_seed": {0: {"n": 670, "n_y": {10: 549, 100: 669, 1000: 670}}},
}
CUBIC_PINS = {"fields": 44912,
              "sha256": "f7dfb45c9b50eeaa3902c6df4a34b31ebf7e0e20c7c82731b083ded1e69e3ed0"}
ANALYTIC_PINS = {"count": 1166750, "q_exponent": (-1.3, -0.8), "euler": 68.002974}


class CheckFailed(Exception):
    """An output differs from what the benchmark expects."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n."""
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def label_exponent(label: str) -> int:
    """v_p(disc) carried by a local label, as the wild table needs it."""
    if label == "tame-2,1":
        return 1
    if label == "tame-3":
        return 2
    if "-cond-" in label:  # "<l>-C<l>-cond-<l^2>": conductor l^2, exponent 2(l-1)
        return 2 * (int(label.split("-", 1)[0]) - 1)
    return int(label.rsplit("-v", 1)[1])


def local_labels(field_list) -> list[str]:
    labels = set()
    for rec in field_list:
        for loc in rec.ramification:
            labels.add(loc.wild_label if loc.kind == "wild"
                       else "tame-" + ",".join(map(str, loc.tame_cycle_type.parts)))
    return sorted(labels)


def wild_table(ml, k_list, l_list, seed: int):
    """Exponent for every (K label, L label), uniform on the marginal range."""
    rng = random.Random(seed)
    entries = {}
    for kl, ll in itertools.product(local_labels(k_list), local_labels(l_list)):
        vk, vl = label_exponent(kl), label_exponent(ll)
        entries[(kl, ll)] = rng.randint(max(3 * vk, 3 * vl), 3 * vk + 3 * vl)
    return ml.counting.WildTable(entries)


def record_key(rec):
    """A record up to the order of its ramification entries."""
    return (rec.degree, rec.group_label, rec.disc_sign, rec.abs_disc,
            tuple(sorted(rec.ramification, key=lambda loc: loc.p)))


def same_records(a, b) -> bool:
    return a.x_max == b.x_max and list(map(record_key, a)) == list(map(record_key, b))


def jsonl_roundtrip(ml, field_list):
    buf = io.StringIO()
    field_list.write_jsonl(buf)
    buf.seek(0)
    return ml.records.parse_field_file(buf, x_max=field_list.x_max)


def pair_stats(k_list, l_list, x: int, report) -> dict:
    """Windowed pairs, those whose |disc| share a prime, and pairs counted at x."""
    ks = k_list.upto(iroot(x, l_list.records[0].degree))
    ls = l_list.upto(iroot(x, k_list.records[0].degree))
    l_discs = [rec.abs_disc for rec in ls]
    shared = sum(1 for k in ks for d in l_discs if gcd(k.abs_disc, d) > 1)
    return {"windowed": len(ks) * len(ls), "shared_prime": shared, "counted": report.n_hi[-1]}


NO_PAIRS = {"windowed": 0, "shared_prime": 0, "counted": 0}


class Workload:
    """`setup` is untimed; `run` is the timed part; `verify` checks its output."""

    name = ""
    why = ""
    max_workers = 1

    def __init__(self, ml, seed: int = DEFAULT_SEED, workers: int = 1, pins=None):
        self.ml = ml
        self.seed = seed
        self.workers = workers
        self.pins = pins if pins is not None else self.PINS

    def setup(self):
        pass

    def pairs(self, out) -> dict:
        return NO_PAIRS


class S3C3Interval(Workload):
    name = "s3c3-interval"
    why = ("the paper's pipeline end to end: cubic and cyclic enumeration, JSONL "
           "round trip, interval-mode pair count at X=1e15 with a Y ladder")
    PINS = INTERVAL_PINS

    def run(self):
        ml = self.ml
        cubics = ml.cubic.enumerate_cubic(10**5, workers=1)
        cyclics = ml.cyclic.enumerate_cyclic(3, 10**5)
        k_list, l_list = jsonl_roundtrip(ml, cubics), jsonl_roundtrip(ml, cyclics)
        report = ml.counting.count_pairs(
            k_list, l_list, X_INTERVAL, mode="interval",
            grid=ml.counting.default_grid(X_INTERVAL, 16), y_ladder=Y_LADDER,
        )
        return cubics, cyclics, k_list, l_list, report

    def verify(self, out):
        cubics, cyclics, k_list, l_list, report = out
        pins = self.pins
        check(len(cubics) == pins["cubics"], f"{len(cubics)} cubic fields")
        check(len(cyclics) == pins["cyclics"], f"{len(cyclics)} cyclic fields")
        check(same_records(k_list, cubics), "cubic JSONL round trip changed records")
        check(same_records(l_list, cyclics), "cyclic JSONL round trip changed records")
        check(report.n_lo[-1] == pins["n_lo"], f"n_lo[-1] = {report.n_lo[-1]}")
        check(report.n_hi[-1] == pins["n_hi"], f"n_hi[-1] = {report.n_hi[-1]}")
        n_y = {y: report.n_y[y][-1] for y in Y_LADDER}
        check(n_y == pins["n_y"], f"n_y at X = {n_y}")

    def pairs(self, out):
        return pair_stats(out[2], out[3], X_INTERVAL, out[4])


class S3C3Exact(Workload):
    name = "s3c3-exact"
    why = ("exact-mode pair count at X=1e14 with a seeded wild table: two "
           "compose_disc calls per pair and an abelian list far longer than its window")
    PINS = EXACT_PINS

    def setup(self):
        ml = self.ml
        self.cubics = ml.cubic.enumerate_cubic(10**5)
        self.cyclics = ml.cyclic.enumerate_cyclic(3, 10**8)
        self.table = wild_table(ml, self.cubics, self.cyclics, self.seed)

    def run(self):
        counting = self.ml.counting
        return counting.count_pairs(
            self.cubics, self.cyclics, X_EXACT, wild=self.table, mode="exact",
            grid=counting.default_grid(X_EXACT, 16), y_ladder=Y_LADDER,
        )

    def verify(self, report):
        pins = self.pins
        check(len(self.cubics) == pins["cubics"], f"{len(self.cubics)} cubic fields")
        check(len(self.cyclics) == pins["cyclics"], f"{len(self.cyclics)} cyclic fields")
        n = report.n_exact
        check(len(n) == len(pins["n_lo"]), f"{len(n)} grid points")
        check(all(lo <= v <= hi for lo, v, hi in zip(pins["n_lo"], n, pins["n_hi"])),
              f"N = {n} outside the interval-mode bracket")
        check(all(a <= b for a, b in zip(n, n[1:])), "N not monotone in X")
        rungs = [report.n_y[y] for y in Y_LADDER] + [n]
        for lower, upper in zip(rungs, rungs[1:]):
            check(all(a <= b for a, b in zip(lower, upper)), "N_Y decreases in Y or exceeds N")
        pinned = pins["by_seed"].get(self.seed)
        if pinned:
            got = {"n": n[-1], "n_y": {y: report.n_y[y][-1] for y in Y_LADDER}}
            check(got == pinned, f"seed {self.seed}: {got} != pinned {pinned}")

    def pairs(self, report):
        return pair_stats(self.cubics, self.cyclics, X_EXACT, report)


class CubicEnum(Workload):
    name = "cubic-enum"
    why = ("cubic enumeration to 2e5 on the parallel path and JSONL output; "
           "counting does no work")
    PINS = CUBIC_PINS
    max_workers = 2

    def run(self):
        fields = self.ml.cubic.enumerate_cubic(2 * 10**5, workers=self.workers)
        buf = io.StringIO()
        fields.write_jsonl(buf)
        return fields, buf.getvalue()

    def verify(self, out):
        fields, text = out
        check(len(fields) == self.pins["fields"], f"{len(fields)} cubic fields")
        digest = hashlib.sha256(text.encode()).hexdigest()
        check(digest == self.pins["sha256"], f"JSONL digest {digest}")


class Analytic(Workload):
    name = "analytic"
    why = ("lattice sieve scaling experiment, explicit-sequence hyperbola count "
           "and Euler product: the sieve and convolve layers")
    PINS = ANALYTIC_PINS

    def run(self):
        ml = self.ml
        sieve, convolve = ml.sieve, ml.convolve
        report = sieve.scaling_experiment(
            sieve.binary_cubic_disc_scheme(),
            r_grid=[50, 100, 200, 400, 800],
            q_grid=[3, 5, 7, 11, 13, 17, 23, 31, 37],
        )
        seq = convolve.CountingSequence(entries=[(v, 1) for v in range(1, 2 * 10**5 + 1)])
        count = convolve.product_count_exact(seq, seq, 1, 1, 10**5)
        euler = ml.counting.euler_constant(10**6)
        return report, count, euler

    def verify(self, out):
        report, count, euler = out
        pins = self.pins
        ints = self.ml.convolve.CountingSequence.integers()
        rule = self.ml.convolve.product_count_exact(ints, ints, 1, 1, 10**5)
        check(count == rule == pins["count"], f"explicit {count}, rule-backed {rule}")
        check(report.crt_residuals and all(d == p for _, _, d, p in report.crt_residuals),
              f"CRT residuals {report.crt_residuals}")
        lo, hi = pins["q_exponent"]
        check(lo <= report.fitted_q_exponent <= hi, f"q-exponent {report.fitted_q_exponent}")
        check(abs(euler.value - pins["euler"]) < 5e-7, f"Euler constant {euler.value}")


WORKLOADS = {w.name: w for w in (S3C3Interval, S3C3Exact, CubicEnum, Analytic)}
