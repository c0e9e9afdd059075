"""Self-tests of the benchmark: its checks against the repo's oracles at small
sizes, the tracer's wrapping and restoring, and failure counting.

Run with `python3 -m pytest perfbench`.
"""

import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

import run
import workloads as wl
from tracing import LAYERS, Tracer

ML = run.import_malle_lab()
X_SMALL = 10**12

from malle_lab.fields.cyclic import cyclic_count_oracle  # noqa: E402
from malle_lab.fields.polysearch import cubic_fields_by_polynomials  # noqa: E402


@pytest.fixture(scope="module")
def small_lists():
    return ML.cubic.enumerate_cubic(10**4), ML.cyclic.enumerate_cyclic(3, 10**4)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert all(w["why"] == wl.WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in LAYERS
    ]
    traced = set(Tracer().metrics(wl.NO_PAIRS)) | {"trace.overhead_s"}
    assert traced == {row[0] for row in LAYERS}


def test_wild_table_draws_within_the_marginal_range(small_lists):
    cubics, cyclics = small_lists
    for seed in range(5):
        table = wl.wild_table(ML, cubics, cyclics, seed)
        assert len(table.entries) == len(wl.local_labels(cubics)) * len(wl.local_labels(cyclics))
        for (kl, ll), e in table.entries.items():
            vk, vl = wl.label_exponent(kl), wl.label_exponent(ll)
            assert max(3 * vk, 3 * vl) <= e <= 3 * vk + 3 * vl
    assert wl.wild_table(ML, cubics, cyclics, 7) == wl.wild_table(ML, cubics, cyclics, 7)
    assert wl.label_exponent("3-C3-cond-9") == 4
    assert wl.label_exponent("2-e2-v3") == 3


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_checks_agree_with_count_pairs_brute(small_lists, seed):
    """The exact-mode properties the benchmark checks, against the brute oracle."""
    cubics, cyclics = small_lists
    counting = ML.counting
    table = wl.wild_table(ML, cubics, cyclics, seed)
    grid = counting.default_grid(X_SMALL, 16)
    exact = counting.count_pairs(cubics, cyclics, X_SMALL, wild=table, mode="exact",
                                 grid=grid, y_ladder=wl.Y_LADDER)
    interval = counting.count_pairs(cubics, cyclics, X_SMALL, mode="interval", grid=grid)
    n = exact.n_exact
    assert n[-1] == counting.count_pairs_brute(cubics, cyclics, X_SMALL, wild=table)
    assert all(lo <= v <= hi for lo, v, hi in zip(interval.n_lo, n, interval.n_hi))
    rungs = [exact.n_y[y] for y in wl.Y_LADDER] + [n]
    for lower, upper in zip(rungs, rungs[1:]):
        assert all(a <= b for a, b in zip(lower, upper))
    pairs = wl.pair_stats(cubics, cyclics, X_SMALL, exact)
    window_k, window_l = wl.iroot(X_SMALL, 3), wl.iroot(X_SMALL, 3)
    windowed = [(k, l) for k in cubics for l in cyclics
                if k.abs_disc <= window_k and l.abs_disc <= window_l]
    assert pairs["windowed"] == len(windowed)
    assert pairs["shared_prime"] == sum(
        1 for k, l in windowed if set(k.ramified_primes) & set(l.ramified_primes))
    assert pairs["counted"] == n[-1]


def test_interval_round_trip_and_brute_count(small_lists):
    cubics, cyclics = small_lists
    k_list, l_list = wl.jsonl_roundtrip(ML, cubics), wl.jsonl_roundtrip(ML, cyclics)
    assert wl.same_records(k_list, cubics) and wl.same_records(l_list, cyclics)
    assert not wl.same_records(k_list, ML.records.FieldList(cubics.records[1:], "x", cubics.x_max))
    report = ML.counting.count_pairs(k_list, l_list, X_SMALL, mode="interval")
    assert report.n_lo[-1] == ML.counting.count_pairs_brute(cubics, cyclics, X_SMALL, mode="interval")


def test_cubic_checks_agree_with_polynomial_search(small_lists):
    cubics, _ = small_lists
    oracle = Counter(cubic_fields_by_polynomials(10**4))
    assert Counter(r.disc_sign * r.abs_disc for r in cubics) == oracle

    def digest(fields):
        buf = io.StringIO()
        fields.write_jsonl(buf)
        return hashlib.sha256(buf.getvalue().encode()).hexdigest()

    assert digest(ML.cubic.enumerate_cubic(10**4, workers=2)) == digest(cubics)


def test_cyclic_pins_agree_with_the_oracle():
    assert cyclic_count_oracle(3, 10**5) == wl.INTERVAL_PINS["cyclics"]
    assert cyclic_count_oracle(3, 10**8) == wl.EXACT_PINS["cyclics"]


def test_analytic_count_agrees_with_product_count_brute():
    convolve = ML.convolve
    seq = convolve.CountingSequence(entries=[(v, 1) for v in range(1, 2001)])
    ints = convolve.CountingSequence.integers()
    exact = convolve.product_count_exact(seq, seq, 1, 1, 1000)
    assert exact == convolve.product_count_brute(seq, seq, 1, 1, 1000)
    assert exact == convolve.product_count_exact(ints, ints, 1, 1, 1000)


def _patched_attributes():
    return {
        (owner, attr): getattr(owner, attr)
        for owner, attr in [
            (ML.cubic, "enumerate_cubic"), (ML.cubic, "pmap"), (ML.cubic, "is_irreducible"),
            (ML.cubic, "is_maximal"), (ML.cubic, "canonical_form"),
            (ML.cyclic, "enumerate_cyclic"), (ML.records.FieldList, "write_jsonl"),
            (ML.records, "parse_field_file"), (ML.counting, "count_pairs"),
            (ML.counting, "compose_disc"), (ML.counting, "disc_truncated"),
            (ML.counting, "euler_constant"), (ML.convolve, "product_count_exact"),
            (ML.convolve.CountingSequence, "count_upto"), (ML.sieve, "scaling_experiment"),
            (ML.sieve, "count_points_mod_q"), (ML.sieve, "solutions_mod_q"),
        ]
    }


def _small_pipeline():
    cubics = ML.cubic.enumerate_cubic(10**4)
    cyclics = wl.jsonl_roundtrip(ML, ML.cyclic.enumerate_cyclic(3, 10**4))
    report = ML.counting.count_pairs(cubics, cyclics, X_SMALL, mode="interval",
                                     y_ladder=wl.Y_LADDER)
    sieve = ML.sieve
    exp = sieve.scaling_experiment(sieve.binary_cubic_disc_scheme(),
                                   r_grid=[5, 10, 50], q_grid=[3, 5, 7, 31])
    seq = ML.convolve.CountingSequence(entries=[(v, 1) for v in range(1, 501)])
    count = ML.convolve.product_count_exact(seq, seq, 1, 1, 300)
    euler = ML.counting.euler_constant(10**4).value
    return [r.to_json() for r in cubics], report, exp.entries, count, euler


def test_traced_run_restores_attributes_and_keeps_outputs():
    before = _patched_attributes()
    untraced = _small_pipeline()
    tracer = Tracer()
    tracer.install(ML)
    try:
        assert all(getattr(o, a) is not f for (o, a), f in before.items())
        traced = _small_pipeline()
    finally:
        tracer.restore()
    assert all(getattr(o, a) is f for (o, a), f in before.items())
    assert traced == untraced
    m = tracer.metrics(wl.NO_PAIRS)
    assert m["fields.cubic.fields"] == 1886
    assert m["util.pmap.tasks"] > 1
    assert m["fields.records.parse_field_file.lines"] == m["fields.cyclic.enumerate_cyclic.fields"]
    assert m["counting.count_pairs.s"] >= m["counting.compose_disc.s"] > 0
    assert m["sieve.solutions_mod_q.calls"] == 12
    assert m["sieve.solve_repeat_ratio"] == 3.0


class _SmallCubic(wl.CubicEnum):
    def run(self):
        fields = self.ml.cubic.enumerate_cubic(10**3, workers=self.workers)
        buf = io.StringIO()
        fields.write_jsonl(buf)
        return fields, buf.getvalue()


def test_wrong_pin_and_errors_count_as_failures():
    fields, text = _SmallCubic(ML).run()
    good = {"fields": len(fields), "sha256": hashlib.sha256(text.encode()).hexdigest()}
    rep = run.repeat_for(_SmallCubic(ML, pins=good), 0, 1)
    assert (rep["attempted"], rep["failed"]) == (1, 0)
    rep = run.repeat_for(_SmallCubic(ML, pins=dict(good, fields=len(fields) + 1)), 0, 1)
    assert (rep["attempted"], rep["failed"]) == (1, 1)

    class Raises(_SmallCubic):
        def run(self):
            raise ValueError("boom")

    rep = run.repeat_for(Raises(ML, pins=good), 0, 1)
    assert (rep["attempted"], rep["failed"]) == (1, 1)


def test_bare_directory_exits_nonzero(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0 and done.stdout == ""
