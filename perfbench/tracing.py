"""Spans and counts around calls into malle_lab, taken from outside the program.

A traced run reassigns public module (or class) attributes to timing
wrappers, so that every call made through that name, including calls the
library makes to itself through its module globals, is counted and timed.
`Tracer.restore` puts every original back.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.  Traced runs use one worker, so every call happens in this
process.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# name, unit, better, the end-to-end metric it should move, on which workloads
LAYERS = [
    ("fields.cubic.enumerate_cubic.s", "s", "lower", "wall_s cpu_s setup_s", "cubic-enum s3c3-interval s3c3-exact"),
    ("fields.cubic.pmap.s", "s", "lower", "wall_s cpu_s", "cubic-enum"),
    ("fields.cubic.serial.s", "s", "lower", "wall_s", "cubic-enum"),
    ("fields.cubic.candidates.s", "s", "lower", "wall_s", "cubic-enum"),
    ("fields.cubic.is_irreducible.calls", "count", "lower", "wall_s", "cubic-enum"),
    ("fields.cubic.is_irreducible.s", "s", "lower", "wall_s", "cubic-enum"),
    ("fields.cubic.is_irreducible.pass_ratio", "ratio", "higher", "wall_s", "cubic-enum"),
    ("fields.cubic.is_maximal.calls", "count", "lower", "wall_s", "cubic-enum"),
    ("fields.cubic.is_maximal.s", "s", "lower", "wall_s", "cubic-enum"),
    ("fields.cubic.is_maximal.pass_ratio", "ratio", "higher", "wall_s", "cubic-enum"),
    ("fields.cubic.canonical_form.calls", "count", "lower", "wall_s", "cubic-enum"),
    ("fields.cubic.canonical_form.s", "s", "lower", "wall_s", "cubic-enum"),
    ("fields.cubic.fields", "count", "higher", "none", "cubic-enum"),
    ("fields.cubic.dedup_ratio", "ratio", "higher", "none", "cubic-enum"),
    ("util.pmap.tasks", "count", "higher", "wall_s", "cubic-enum"),
    ("util.pmap.max_task_share", "ratio", "lower", "wall_s", "cubic-enum"),
    ("fields.cyclic.enumerate_cyclic.s", "s", "lower", "setup_s", "s3c3-exact"),
    ("fields.cyclic.enumerate_cyclic.fields", "count", "higher", "none", "s3c3-exact"),
    ("fields.records.write_jsonl.s", "s", "lower", "wall_s", "s3c3-interval"),
    ("fields.records.parse_field_file.s", "s", "lower", "wall_s", "s3c3-interval"),
    ("fields.records.parse_field_file.lines", "count", "higher", "none", "s3c3-interval"),
    ("counting.count_pairs.s", "s", "lower", "wall_s", "s3c3-interval s3c3-exact"),
    ("counting.count_pairs.self_s", "s", "lower", "wall_s peak_rss_mb", "s3c3-interval"),
    ("counting.compose_disc.calls", "count", "lower", "wall_s", "s3c3-interval s3c3-exact"),
    ("counting.compose_disc.s", "s", "lower", "wall_s", "s3c3-interval s3c3-exact"),
    ("counting.disc_truncated.calls", "count", "lower", "wall_s", "s3c3-interval s3c3-exact"),
    ("counting.disc_truncated.s", "s", "lower", "wall_s", "s3c3-interval s3c3-exact"),
    ("counting.pairs_windowed", "count", "lower", "wall_s", "s3c3-interval s3c3-exact"),
    ("counting.pairs_shared_prime", "count", "lower", "wall_s", "s3c3-interval s3c3-exact"),
    ("counting.pairs_counted", "count", "higher", "none", "s3c3-interval s3c3-exact"),
    ("counting.useful_ratio", "ratio", "higher", "wall_s", "s3c3-interval s3c3-exact"),
    ("counting.euler_constant.s", "s", "lower", "wall_s", "analytic"),
    ("convolve.product_count_exact.s", "s", "lower", "wall_s", "analytic"),
    ("convolve.count_upto.calls", "count", "lower", "wall_s", "analytic"),
    ("convolve.count_upto.s", "s", "lower", "wall_s", "analytic"),
    ("sieve.scaling_experiment.s", "s", "lower", "wall_s", "analytic"),
    ("sieve.scaling_experiment.self_s", "s", "lower", "wall_s", "analytic"),
    ("sieve.count_points_mod_q.self_s", "s", "lower", "wall_s", "analytic"),
    ("sieve.solutions_mod_q.calls", "count", "lower", "wall_s", "analytic"),
    ("sieve.solutions_mod_q.s", "s", "lower", "wall_s peak_rss_mb", "analytic"),
    ("sieve.solution_rows", "count", "lower", "wall_s peak_rss_mb", "analytic"),
    ("sieve.solve_repeat_ratio", "ratio", "lower", "wall_s", "analytic"),
    ("trace.overhead_s", "s", "lower", "none", "all"),
]
LAYER_UNITS = {name: unit for name, unit, *_ in LAYERS}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.span_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.passed = defaultdict(int)  # truthy results of predicates
        self.sizes = defaultdict(int)  # summed sizes of results
        self.solved_q: set[int] = set()
        self.task_s: list[float] = []  # one entry per pmap task
        self._stack: list[float] = []  # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn, *, predicate=False, size=None):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                self.calls[name] += 1
                self.span_s[name] += dt
                self.self_s[name] += dt - inner
                if stack:
                    stack[-1] += dt
            if predicate and result:
                self.passed[name] += 1
            if size is not None:
                self.sizes[name] += size(result)
            return result

        return traced

    def _timed_tasks(self, pmap):
        """util.pmap that also times each task it runs, on one worker."""
        tasks = self.task_s

        def traced_pmap(fn, items, workers=1):
            def task(item):
                t0 = perf_counter()
                try:
                    return fn(item)
                finally:
                    tasks.append(perf_counter() - t0)

            return pmap(task, items, 1)

        return traced_pmap

    def _solve(self, fn):
        solved = self.solved_q

        def solve(scheme, q, *args, **kwargs):
            solved.add(q)
            return fn(scheme, q, *args, **kwargs)

        return solve

    def _swap(self, owner, attr, make):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, ml):
        """Wrap the traced entry points of the malle_lab modules in `ml`."""
        span = self._span
        for owner, attr, name, kw in [
            (ml.cubic, "enumerate_cubic", "fields.cubic.enumerate_cubic", {"size": len}),
            (ml.cubic, "is_irreducible", "fields.cubic.is_irreducible", {"predicate": True}),
            (ml.cubic, "is_maximal", "fields.cubic.is_maximal", {"predicate": True}),
            (ml.cubic, "canonical_form", "fields.cubic.canonical_form", {}),
            (ml.cyclic, "enumerate_cyclic", "fields.cyclic.enumerate_cyclic", {"size": len}),
            (ml.records.FieldList, "write_jsonl", "fields.records.write_jsonl", {}),
            (ml.records, "parse_field_file", "fields.records.parse_field_file", {"size": len}),
            (ml.counting, "count_pairs", "counting.count_pairs", {}),
            (ml.counting, "compose_disc", "counting.compose_disc", {}),
            (ml.counting, "disc_truncated", "counting.disc_truncated", {}),
            (ml.counting, "euler_constant", "counting.euler_constant", {}),
            (ml.convolve, "product_count_exact", "convolve.product_count_exact", {}),
            (ml.convolve.CountingSequence, "count_upto", "convolve.count_upto", {}),
            (ml.sieve, "scaling_experiment", "sieve.scaling_experiment", {}),
            (ml.sieve, "count_points_mod_q", "sieve.count_points_mod_q", {}),
        ]:
            self._swap(owner, attr, lambda fn, name=name, kw=kw: span(name, fn, **kw))
        self._swap(ml.cubic, "pmap", lambda fn: span("fields.cubic.pmap", self._timed_tasks(fn)))
        self._swap(ml.sieve, "solutions_mod_q", lambda fn: span(
            "sieve.solutions_mod_q", self._solve(fn), size=lambda sols: int(sols.shape[0])))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, pairs: dict) -> dict[str, float]:
        """Per-layer metrics; `pairs` holds the pair counts the workload saw."""
        c, s, own, size = self.calls, self.span_s, self.self_s, self.sizes

        def ratio(num, den):
            return num / den if den else 0.0

        cubic, solve = "fields.cubic.", "sieve.solutions_mod_q"
        irr, mx, canon = cubic + "is_irreducible", cubic + "is_maximal", cubic + "canonical_form"
        out = {
            cubic + "enumerate_cubic.s": s[cubic + "enumerate_cubic"],
            cubic + "pmap.s": s[cubic + "pmap"],
            cubic + "serial.s": s[cubic + "enumerate_cubic"] - s[cubic + "pmap"],
            cubic + "candidates.s": own[cubic + "pmap"],
            irr + ".calls": c[irr],
            irr + ".s": s[irr],
            irr + ".pass_ratio": ratio(self.passed[irr], c[irr]),
            mx + ".calls": c[mx],
            mx + ".s": s[mx],
            mx + ".pass_ratio": ratio(self.passed[mx], c[mx]),
            canon + ".calls": c[canon],
            canon + ".s": s[canon],
            cubic + "fields": size[cubic + "enumerate_cubic"],
            cubic + "dedup_ratio": ratio(size[cubic + "enumerate_cubic"], c[canon]),
            "util.pmap.tasks": len(self.task_s),
            "util.pmap.max_task_share": ratio(max(self.task_s, default=0.0), sum(self.task_s)),
            "fields.cyclic.enumerate_cyclic.s": s["fields.cyclic.enumerate_cyclic"],
            "fields.cyclic.enumerate_cyclic.fields": size["fields.cyclic.enumerate_cyclic"],
            "fields.records.write_jsonl.s": s["fields.records.write_jsonl"],
            "fields.records.parse_field_file.s": s["fields.records.parse_field_file"],
            "fields.records.parse_field_file.lines": size["fields.records.parse_field_file"],
            "counting.count_pairs.s": s["counting.count_pairs"],
            "counting.count_pairs.self_s": own["counting.count_pairs"],
            "counting.compose_disc.calls": c["counting.compose_disc"],
            "counting.compose_disc.s": s["counting.compose_disc"],
            "counting.disc_truncated.calls": c["counting.disc_truncated"],
            "counting.disc_truncated.s": s["counting.disc_truncated"],
            "counting.pairs_windowed": pairs["windowed"],
            "counting.pairs_shared_prime": pairs["shared_prime"],
            "counting.pairs_counted": pairs["counted"],
            "counting.useful_ratio": ratio(pairs["counted"], pairs["windowed"]),
            "counting.euler_constant.s": s["counting.euler_constant"],
            "convolve.product_count_exact.s": s["convolve.product_count_exact"],
            "convolve.count_upto.calls": c["convolve.count_upto"],
            "convolve.count_upto.s": s["convolve.count_upto"],
            "sieve.scaling_experiment.s": s["sieve.scaling_experiment"],
            "sieve.scaling_experiment.self_s": own["sieve.scaling_experiment"],
            "sieve.count_points_mod_q.self_s": own["sieve.count_points_mod_q"],
            solve + ".calls": c[solve],
            solve + ".s": s[solve],
            "sieve.solution_rows": size[solve],
            "sieve.solve_repeat_ratio": ratio(c[solve], len(self.solved_q)),
        }
        return {k: float(v) for k, v in out.items()}
