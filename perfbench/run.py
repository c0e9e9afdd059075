"""malle-lab benchmark.

One workload, as the harness calls it:

    python3 perfbench/run.py --workload s3c3-interval --seed 0 --seconds 35 --trace 0

With `--trace 0` the workload repeats for `--seconds` seconds (three times at
least) and the last line of output is a JSON object with the end-to-end
metrics: wall and CPU time as means over the repeats, set-up time as a
median.  With `--trace 1` it times untraced one-worker runs for `--seconds`
seconds, then makes one traced run and reports the per-layer metrics, with
`trace.overhead_s` the traced wall time minus the untraced mean.  Every
run's output is checked; a run that raises or fails a check counts in
`failed`.

Every workload, untraced and then traced, each in a fresh process:

    python3 perfbench/run.py [--seed 0] [--seconds 35]

Run from the repository root; the program is imported from `src/`.
Self-tests: `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import LAYER_UNITS, Tracer
from workloads import DEFAULT_SEED, NO_PAIRS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MODULES = {
    "cubic": "malle_lab.fields.cubic",
    "cyclic": "malle_lab.fields.cyclic",
    "records": "malle_lab.fields.records",
    "counting": "malle_lab.counting",
    "convolve": "malle_lab.convolve",
    "sieve": "malle_lab.sieve",
    "util": "malle_lab.util",
}
IMPORT_SAMPLES = 4  # fresh interpreters timed before and again after the timed runs
DATA_SETUP_SAMPLES = 3  # in-process repeats of a workload's own set-up
MIN_RUNS = 3  # timed runs per process at least
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_malle_lab() -> SimpleNamespace:
    """The malle_lab modules of this checkout; ImportError if src/ lacks them."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ml = SimpleNamespace(**{k: importlib.import_module(m) for k, m in MODULES.items()})
    if not Path(ml.counting.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"malle_lab imported from outside {SRC}: {ml.counting.__file__}")
    return ml


def import_seconds() -> float:
    """Time to import the benchmarked malle_lab modules in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + ", ".join(MODULES.values())
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_once(workload):
    """One timed run: (wall s, cpu s, output or None, error text or None)."""
    gc.collect()
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        out = workload.run()
    except Exception as exc:  # a failed run is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    else:
        error = None
    return time.perf_counter() - t0, cpu_seconds() - c0, out, error


def verify(workload, out, error):
    if error is None:
        try:
            workload.verify(out)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        print(f"# {workload.name}: run failed: {error}", file=sys.stderr)
    return error is None


def repeat_for(workload, seconds: float, min_runs: int = MIN_RUNS) -> dict:
    """Repeat the timed run until `seconds` have passed and `min_runs` are done."""
    walls, cpus, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(walls) < min_runs or time.perf_counter() < deadline:
        wall, cpu, out, error = run_once(workload)
        failed += not verify(workload, out, error)
        del out
        walls.append(wall)
        cpus.append(cpu)
    return {"walls": walls, "cpus": cpus, "attempted": len(walls), "failed": failed}


def set_up(cls, ml, seed: int, workers: int, samples: int):
    """Set the workload up `samples` times; return the last one and the times."""
    times, workload = [], None
    for _ in range(samples if cls.setup is not Workload.setup else 1):
        workload = None
        gc.collect()
        workload = cls(ml, seed=seed, workers=workers)
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, times


def untraced(cls, ml, seed: int, seconds: float, workers: int):
    # import samples on both sides of the timed runs span the whole run
    imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    workload, data = set_up(cls, ml, seed, workers, DATA_SETUP_SAMPLES)
    rep = repeat_for(workload, seconds)
    imports += [import_seconds() for _ in range(IMPORT_SAMPLES)]
    # Means, not medians, of the repeats: on a shared 2-core host the CPU speed
    # drifts by up to 30% in phases of tens of seconds; with three to six
    # repeats the mean mixes those phases where a median picks one of them,
    # and its spread across processes came out smaller.
    metrics = {
        "wall_s": statistics.fmean(rep["walls"]),
        "cpu_s": statistics.fmean(rep["cpus"]),
        "setup_s": statistics.median(imports) + statistics.median(data),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"wall_s_runs": rep["walls"], "cpu_s_runs": rep["cpus"],
              "import_s_runs": imports, "data_setup_s_runs": data}
    return metrics, rep, detail


def traced(cls, ml, seed: int, seconds: float):
    """Untraced one-worker runs, then one traced run (set-up included)."""
    workload, _ = set_up(cls, ml, seed, 1, 1)
    rep = repeat_for(workload, seconds)
    reference = statistics.fmean(rep["walls"])
    workload = None
    gc.collect()
    tracer = Tracer()
    tracer.install(ml)
    try:
        workload = cls(ml, seed=seed, workers=1)
        workload.setup()
        wall, _, out, error = run_once(workload)
    finally:
        tracer.restore()
    ok = verify(workload, out, error)
    pairs = workload.pairs(out) if ok else None
    metrics = tracer.metrics(pairs or NO_PAIRS)
    metrics["trace.overhead_s"] = wall - reference
    rep["attempted"] += 1
    rep["failed"] += not ok
    detail = {"untraced_wall_s_runs": rep["walls"], "traced_wall_s": wall}
    return metrics, rep, detail


def commit_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS[name]


def run_workload(args) -> int:
    try:
        ml = import_malle_lab()
    except ImportError as exc:
        print(f"cannot import malle_lab from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy

    cls = WORKLOADS[args.workload]
    workers = min(cls.max_workers, os.cpu_count() or 1)
    load_start = os.getloadavg()[0]
    if args.trace:
        metrics, rep, detail = traced(cls, ml, args.seed, args.seconds)
    else:
        metrics, rep, detail = untraced(cls, ml, args.seed, args.seconds, workers)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": 1 if args.trace else workers,
        "commit": commit_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        **detail,
    }
    fail_share = rep["failed"] / rep["attempted"]
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {unit_of(name)}")
    print(f"{args.workload} fail_share {fail_share!r} share")
    print("# meta " + json.dumps(meta))
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload untraced, then each traced, in fresh processes."""
    worst = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{name} trace={trace}: FAILED (exit {done.returncode})", flush=True)
                worst = 1
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; omit to run all of them, untraced then traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="draws the s3c3-exact wild table; the others ignore it")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the timed runs repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
