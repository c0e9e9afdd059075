"""Unified command line: one binary, one subcommand per module.

Reports embed the resolved configuration and the package version; identical
configurations produce byte-identical reports regardless of worker count.
Every report goes to stdout, or to the file named by `--out`.

Exit codes: 0 success, 1 verification failure, 2 input or usage error: a bad
flag value, a file that cannot be opened, read or written (missing, a
directory, no permission), a malformed input file (JSONL field list, wild
table, r_k table or scheme) or an input too large for memory, reported as
one `error:` line on stderr.  `_exact_int` reads every integer in a flag.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import __version__
from .errors import MalleLabError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _output(args):
    """The `--out` file, or stdout when there is none, as a context manager."""
    return open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)


def _emit(args, payload: dict, config: dict):
    report = {"version": __version__, "config": config, "report": payload}
    with _output(args) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _emit_csv(args, header, rows, config: dict):
    with _output(args) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["# version", __version__])
        writer.writerow(["# config", json.dumps(config, sort_keys=True)])
        writer.writerow(header)
        writer.writerows(rows)


def _read_json(path: str, from_json):
    """What `from_json` builds from the JSON file at `path`; a file of the wrong
    shape (a missing key, a value of the wrong type, a zero denominator) raises
    ValueError (EXIT_INPUT)."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return from_json(obj)
    except (AttributeError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {path}: {exc!r}") from None


def _exact_int(text: str) -> int:
    """An integer written in decimal or scientific notation, without rounding.

    "1e15" and "9007199254740993" are accepted as written; "1.5" and "1e-3"
    are not integers and raise ValueError (exit code EXIT_INPUT).
    """
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"not a number: {text!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise ValueError(f"not an exact integer: {text!r}")
    return int(value)


def _positive_fraction(text: str) -> Fraction:
    """A positive rational as written, without rounding: "1.15" is 23/20, not the
    float nearest it; nan, inf and values <= 0 raise ValueError (EXIT_INPUT)."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {text!r}") from None
    if value <= 0:
        raise ValueError(f"not positive: {text!r}")
    return value


def _finite(value: float | None, flag: str) -> float | None:
    """A float flag's value unless it is nan or +-inf, which raise ValueError
    (EXIT_INPUT): neither has a JSON number, and no ratio compares with nan."""
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value}")
    return value


def _parse_generators(text: str, degree: int | None) -> list:
    """A ';'-separated generator list, each lifted to the largest degree among them."""
    from .permgroup import Permutation

    tokens = text.split(";")
    top = max(Permutation.parse(tok, degree=degree).degree for tok in tokens)
    return [Permutation.parse(tok, degree=top) for tok in tokens]


def _cmd_invariants(args) -> int:
    from .invariants import a_invariant, b_invariant_Q, close_group, minimal_index_classes
    from .permgroup import Permutation, cycle_type, embed_product

    gens = _parse_generators(args.generators, args.degree)
    if args.product:
        gens2 = _parse_generators(args.product, args.product_degree)
        e1, e2 = Permutation.identity(gens[0].degree), Permutation.identity(gens2[0].degree)
        gens = [embed_product(g, e2) for g in gens] + [embed_product(e1, g) for g in gens2]
    group = close_group(gens, order_cap=args.order_cap)
    payload = {
        "degree": group.degree,
        "order": group.order,
        "a": a_invariant(group),
        "b": b_invariant_Q(group),
        "minimal_classes": [
            {"cycle_type": list(cycle_type(c.representative).parts), "size": c.size}
            for c in minimal_index_classes(group)
        ],
    }
    _emit(args, payload, _config(args))
    return EXIT_OK


def _cmd_tame_table(args) -> int:
    from .tamecomp import disc_table

    rows = [
        (r.sn_label, r.r, r.a_element_index, r.compositum_exponent)
        for r in disc_table(args.l, args.k)
    ]
    _emit_csv(args, ["sn_class", "r", "a_index", "compositum_exponent"], rows, _config(args))
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    from .tamecomp import DEFAULT_RK, AbelianGroupSpec, RkTable, verify_delta, verify_unin

    a = AbelianGroupSpec.parse(args.group)
    delta = verify_delta(args.n, a)
    rk = DEFAULT_RK[args.n] if args.rk == "default" else _read_json(args.rk, RkTable.from_json)
    unin = verify_unin(args.n, a, rk)
    payload = {
        "delta": {
            "passed": delta.passed,
            "classes": [
                {
                    "cycle_type": list(c.ct.parts),
                    "min_ratio": str(c.min_ratio),
                    "identity_ratio": c.identity_ratio,
                    "threshold": str(c.threshold),
                    "passed": c.passed,
                }
                for c in delta.classes
            ],
        },
        "uniformity": {
            "passed": unin.passed,
            "witness": list(unin.witness) if unin.witness else None,
            "classes": [
                {
                    "cycle_type": list(c.ct.parts),
                    "r_k": str(c.rk),
                    "min_margin": str(c.min_margin),
                    "identity_margin": str(c.identity_margin),
                    "identity_ok": c.identity_ok,
                    "passed": c.passed,
                }
                for c in unin.classes
            ],
        },
    }
    _emit(args, payload, _config(args))
    return EXIT_OK if (delta.passed and unin.passed) else EXIT_VERIFICATION


def _parse_sequence(text: str):
    from .convolve import CountingSequence

    if text == "integers":
        return CountingSequence.integers()
    if text == "squares":
        return CountingSequence.squares()
    entries = []
    with open(text) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    value, count = map(int, line.split())
                except ValueError:
                    raise ValueError(f"{text} line {lineno}: expected two integers "
                                     f"'value multiplicity', got {line.strip()!r}") from None
                entries.append((value, count))
    return CountingSequence(entries=entries)


def _cmd_convolve(args) -> int:
    from .convolve import product_count_exact

    predicted = _finite(args.predicted, "--predicted")
    s1 = _parse_sequence(args.s1)
    s2 = _parse_sequence(args.s2)
    a, b = _positive_fraction(args.a), _positive_fraction(args.b)
    x = _exact_int(args.x)
    count = product_count_exact(s1, s2, a, b, x)
    payload = {"count": count, "x": x, "a": str(a), "b": str(b)}
    if predicted is not None:
        payload["predicted"] = predicted
        payload["ratio"] = count / predicted if predicted else None
    _emit(args, payload, _config(args))
    return EXIT_OK


def _cmd_enumerate_cyclic(args) -> int:
    from .fields.cyclic import enumerate_cyclic

    fl = enumerate_cyclic(args.l, _exact_int(args.x))
    with _output(args) as fh:
        fl.write_jsonl(fh)
    return EXIT_OK


def _cmd_enumerate_cubic(args) -> int:
    from .fields.cubic import enumerate_cubic

    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    fl = enumerate_cubic(_exact_int(args.x), workers=args.workers)
    with _output(args) as fh:
        fl.write_jsonl(fh)
    return EXIT_OK


def _cmd_abelian_uniformity(args) -> int:
    from .fields.uniformity import abelian_uniformity_check

    bound = _finite(args.bound, "--bound")
    qs = [_exact_int(t) for t in args.q.split(",")]
    rep = abelian_uniformity_check(args.l, qs, _exact_int(args.x))
    payload = {
        "a": rep.a,
        "b": rep.b,
        "per_q": [
            {"q": r.q, "count": r.count, "shape": r.shape, "ratio": r.ratio}
            for r in rep.per_q
        ],
        "max_ratio": rep.max_ratio,
    }
    _emit(args, payload, _config(args))
    if bound is not None and rep.max_ratio > bound:
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_count_pairs(args) -> int:
    from .counting import WildTable, count_pairs, default_grid
    from .fields.records import parse_field_file

    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be at least 1, got {args.grid_points}")
    with open(args.sn_fields) as fh:
        sn_list = parse_field_file(fh, x_max=args.sn_xmax)
    with open(args.abelians) as fh:
        ab_list = parse_field_file(fh, x_max=args.ab_xmax)
    wild = _read_json(args.wild, WildTable.from_json) if args.wild else WildTable()
    x = _exact_int(args.x)
    y_ladder = tuple(_exact_int(t) for t in args.y_ladder.split(",")) if args.y_ladder else ()
    rep = count_pairs(
        sn_list,
        ab_list,
        x,
        wild=wild,
        mode=args.mode,
        y_ladder=y_ladder,
        grid=default_grid(x, args.grid_points),
    )
    payload = {
        "grid": list(rep.grid),
        "n_lo": list(rep.n_lo),
        "n_hi": list(rep.n_hi),
        "n_y": {str(y): list(v) for y, v in rep.n_y.items()},
        "mode": rep.mode,
        "fit_exponent": str(rep.fit_exponent),
        "fit": None
        if rep.fit is None
        else {"coefficient": rep.fit.coefficient, "residual": rep.fit.residual},
    }
    _emit(args, payload, _config(args))
    return EXIT_OK


def _cmd_euler_constant(args) -> int:
    from .counting import euler_constant

    rep = euler_constant(_exact_int(args.pmax))
    payload = {
        "p_max": rep.p_max,
        "value": rep.value,
        "c3": rep.c3,
        "log_tail_last_decade": rep.log_tail_last_decade,
    }
    _emit(args, payload, _config(args))
    return EXIT_OK


def _cmd_sieve_exp(args) -> int:
    from .sieve import AffineScheme, scaling_experiment

    scheme = _read_json(args.scheme, AffineScheme.from_json)
    r_grid = [_exact_int(t) for t in args.r.split(",")]
    q_grid = [_exact_int(t) for t in args.q.split(",")]
    rep = scaling_experiment(scheme, r_grid, q_grid)
    rows = [(r, q, c) for r, q, c in rep.entries]
    rows.append(("# fitted_q_exponent", rep.fitted_q_exponent, ""))
    rows.append(("# fitted_r_exponent", rep.fitted_r_exponent, ""))
    _emit_csv(args, ["r", "q", "count"], rows, _config(args))
    return EXIT_OK


def _config(args) -> dict:
    # the output path is not part of the computation, so reports written to
    # different files from the same run configuration stay byte-identical
    return {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and v is not None
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malle-lab",
        description="Compositum discriminant calculus and counting experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="a and b invariants of a permutation group")
    p.add_argument("--generators", required=True, help="cycles, ';'-separated: '(12);(123)'")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--product", default=None, help="generators of a second factor")
    p.add_argument("--product-degree", type=int, default=None)
    p.add_argument("--order-cap", type=int, default=10**6)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("tame-table", help="compositum exponent table for S_3 x C_{l^k}")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_tame_table)

    p = sub.add_parser("verify-lemmas", help="ratio and uniformity inequalities for S_n x A")
    p.add_argument("--n", type=int, required=True, choices=(3, 4, 5))
    p.add_argument("--group", required=True, help="abelian spec, e.g. '5' or '3x3'")
    p.add_argument("--rk", default="default", help="'default' or a JSON path")
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("convolve", help="exact product-distribution count")
    p.add_argument("--s1", required=True, help="'integers', 'squares', or a file")
    p.add_argument("--s2", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--predicted", type=float, default=None)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("enumerate-cyclic", help="cyclic degree-l fields by conductor")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(func=_cmd_enumerate_cyclic)

    p = sub.add_parser("enumerate-cubic", help="S_3 cubic fields by reduced forms")
    p.add_argument("--x", required=True)
    p.add_argument("--workers", type=int, default=1, help="worker processes, at least 1")
    p.set_defaults(func=_cmd_enumerate_cubic)

    p = sub.add_parser("abelian-uniformity", help="forced-ramification count ratios")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--q", required=True, help="comma-separated squarefree q grid")
    p.add_argument("--x", required=True)
    p.add_argument("--bound", type=float, default=None, help="fail (exit 1) above this ratio")
    p.set_defaults(func=_cmd_abelian_uniformity)

    p = sub.add_parser("count-pairs", help="pair counting with truncations")
    p.add_argument("--sn-fields", required=True, help="JSONL for the S_n side")
    p.add_argument("--abelians", required=True, help="JSONL for the abelian side")
    p.add_argument("--x", required=True)
    p.add_argument("--mode", choices=("exact", "interval"), default="interval")
    p.add_argument("--wild", default=None, help="wild table JSON (exact mode)")
    p.add_argument("--y-ladder", default=None, help="comma-separated Y cutoffs")
    p.add_argument("--grid-points", type=int, default=16, help="at least 1")
    p.add_argument("--sn-xmax", type=_exact_int, default=None)
    p.add_argument("--ab-xmax", type=_exact_int, default=None)
    p.set_defaults(func=_cmd_count_pairs)

    p = sub.add_parser("euler-constant", help="partial Euler product of the pair constant")
    p.add_argument("--pmax", required=True)
    p.set_defaults(func=_cmd_euler_constant)

    p = sub.add_parser("sieve-exp", help="lattice-point scaling experiment")
    p.add_argument("--scheme", required=True, help="scheme JSON path")
    p.add_argument("--r", required=True, help="comma-separated r grid")
    p.add_argument("--q", required=True, help="comma-separated squarefree q grid")
    p.set_defaults(func=_cmd_sieve_exp)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write the report here, not to stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, MalleLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
