import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import malle_lab
from malle_lab.cli import build_parser, main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_tame_table_csv(capsys):
    code, out = run(["tame-table", "--l", "5", "--k", "1"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "sn_class,r,a_index,compositum_exponent"
    body = {tuple(l.split(",")[:2]): l.split(",")[3] for l in lines[1:]}
    assert body[("(12)", "0")] == "13"
    assert body[("(123)", "0")] == "14"


def test_verify_lemmas_exit_codes(capsys, tmp_path):
    code, out = run(["verify-lemmas", "--n", "3", "--group", "5", "--rk", "default"], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["uniformity"]["passed"] is True

    zero = {
        "n": 3,
        "rk": [{"cycle_type": [2, 1], "r": 0}, {"cycle_type": [3], "r": 0}],
    }
    path = tmp_path / "rk.json"
    path.write_text(json.dumps(zero))
    code, out = run(["verify-lemmas", "--n", "3", "--group", "5", "--rk", str(path)], capsys)
    assert code == 1
    rep = json.loads(out)["report"]
    assert rep["uniformity"]["witness"] == [[3], 5]


def test_missing_file_exit_2(capsys):
    code, _ = run(
        ["count-pairs", "--sn-fields", "/nonexistent.jsonl", "--abelians", "/n2.jsonl", "--x", "1e6"],
        capsys,
    )
    assert code == 2


def test_invariants_product(capsys):
    code, out = run(
        [
            "invariants",
            "--generators", "(12);(123)",
            "--degree", "3",
            "--product", "(123)",
            "--product-degree", "3",
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["order"] == 18 and rep["a"] == 3 and rep["b"] == 1


C3_WR_C2 = {
    # S_3 x C_3 on 9 points, the product representation
    "S9": (["--generators", "(12);(123)", "--product", "(123)"], {
        "a": 3, "b": 1, "degree": 9, "order": 18,
        "minimal_classes": [{"cycle_type": [2, 2, 2, 1, 1, 1], "size": 3}],
    }),
    # C_3 x C_3 with the swap on 6 points: the two classes of 3-cycles are
    # fused by the cyclotomic action, so b = 1 and Malle predicts (a, b) =
    # (2, 1), the prediction Kluners' counterexample breaks
    "S6": (["--generators", "(123);(14)(25)(36)"], {
        "a": 2, "b": 1, "degree": 6, "order": 18,
        "minimal_classes": [{"cycle_type": [3, 1, 1, 1], "size": 2}] * 2,
    }),
}


@pytest.mark.parametrize("rep", sorted(C3_WR_C2))
def test_invariants_of_c3_wr_c2_in_both_representations(rep, capsys):
    argv, report = C3_WR_C2[rep]
    code, out = run(["invariants"] + argv, capsys)
    assert code == 0
    assert json.loads(out)["report"] == report


# the full reports of three larger groups
LARGER_GROUPS = {
    "S7": (["--generators", "(12);(1234567)"], {
        "a": 1, "b": 1, "degree": 7, "order": 5040,
        "minimal_classes": [{"cycle_type": [2, 1, 1, 1, 1, 1], "size": 21}],
    }),
    # S_5 x C_7 on 35 points: slope 1/5 < 6/7, so the minimal elements are
    # (transposition, e), whose seven 2-cycles fix the other 21 points
    "S5xC7": (["--generators", "(12);(12345)", "--product", "(1234567)"], {
        "a": 7, "b": 1, "degree": 35, "order": 840,
        "minimal_classes": [{"cycle_type": [2] * 7 + [1] * 21, "size": 10}],
    }),
    # the regular C_61: 60 classes of 61-cycles, one cyclotomic orbit
    "C61": (["--generators", "(" + ",".join(map(str, range(1, 62))) + ")"], {
        "a": 60, "b": 1, "degree": 61, "order": 61,
        "minimal_classes": [{"cycle_type": [61], "size": 1}] * 60,
    }),
}


@pytest.mark.parametrize("group", sorted(LARGER_GROUPS))
def test_invariants_reports_of_larger_groups(group, capsys):
    argv, report = LARGER_GROUPS[group]
    code, out = run(["invariants"] + argv, capsys)
    assert code == 0
    assert json.loads(out)["report"] == report


def test_invariants_bad_input_exit_2(capsys):
    code, _ = run(["invariants", "--generators", "garbage"], capsys)
    assert code == 2


def test_euler_constant_cli(capsys):
    code, out = run(["euler-constant", "--pmax", "5"], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["value"] == pytest.approx(2 * rep["c3"] * (31 / 25) * (4 / 5))


def test_euler_constant_cli_report_bytes(capsys):
    # the report of the loop over the primes in Python floats, byte for byte
    code, out = run(["euler-constant", "--pmax", "1e6"], capsys)
    assert code == 0
    assert (
        '  "report": {\n'
        '    "c3": 29.89135698360659,\n'
        '    "log_tail_last_decade": 1.4781997724730553e-06,\n'
        '    "p_max": 1000000,\n'
        '    "value": 68.00297378791338\n'
        "  },\n"
    ) in out


def test_convolve_cli(capsys):
    code, out = run(["convolve", "--s1", "integers", "--s2", "integers",
                     "--a", "1", "--b", "1", "--x", "10"], capsys)
    assert code == 0
    assert json.loads(out)["report"]["count"] == 27


def test_abelian_uniformity_cli(capsys):
    code, out = run(
        ["abelian-uniformity", "--l", "3", "--q", "7,13", "--x", "1e6", "--bound", "3.0"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["max_ratio"] <= 3.0


def test_determinism_and_version_embed(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify-lemmas", "--n", "4", "--group", "7", "--out", str(f1)])
    main(["verify-lemmas", "--n", "4", "--group", "7", "--out", str(f2)])
    capsys.readouterr()
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    assert json.loads(b1)["version"]


def test_count_pairs_cli_roundtrip(capsys, tmp_path):
    from malle_lab.fields.cubic import enumerate_cubic
    from malle_lab.fields.cyclic import enumerate_cyclic

    sn = tmp_path / "cubics.jsonl"
    ab = tmp_path / "c3.jsonl"
    with open(sn, "w") as fh:
        enumerate_cubic(1000).write_jsonl(fh)
    with open(ab, "w") as fh:
        enumerate_cyclic(3, 1000).write_jsonl(fh)
    code, out = run(
        [
            "count-pairs",
            "--sn-fields", str(sn),
            "--abelians", str(ab),
            "--x", "1e9",
            "--mode", "interval",
            "--y-ladder", "10,100",
            "--sn-xmax", "1000",
            "--ab-xmax", "1000",
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["mode"] == "interval"
    assert all(a <= b for a, b in zip(rep["n_lo"], rep["n_hi"]))


def test_sieve_exp_cli(capsys, tmp_path):
    scheme = {"n_vars": 2, "codim": 1, "polys": [[[1, [1, 0]]]]}
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme))
    code, out = run(
        ["sieve-exp", "--scheme", str(path), "--r", "20,50,100,200", "--q", "3,5,7,11,31"],
        capsys,
    )
    assert code == 0
    assert "fitted_q_exponent" in out


def test_sieve_exp_cli_large_prime_exit_2(capsys, tmp_path):
    # 100003^4 residues exceed the grid cap, which is checked before any
    # array is allocated
    from malle_lab.sieve import binary_cubic_disc_scheme

    path = tmp_path / "disc.json"
    path.write_text(json.dumps(binary_cubic_disc_scheme().to_json()))
    code, _ = run(
        ["sieve-exp", "--scheme", str(path), "--r", "2,5,20", "--q", "3,5,7,100003"],
        capsys,
    )
    assert code == 2


def test_enumerate_cyclic_cli(capsys):
    code, out = run(["enumerate-cyclic", "--l", "3", "--x", "100"], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    assert [rec["disc"] for rec in lines] == [49, 81]


def test_count_pairs_cli_parses_x_exactly(capsys, tmp_path, monkeypatch):
    import malle_lab.counting as counting

    seen = []
    real = counting.count_pairs

    def spy(sn_list, ab_list, x, **kwargs):
        seen.append(x)
        return real(sn_list, ab_list, x, **kwargs)

    monkeypatch.setattr(counting, "count_pairs", spy)
    sn, ab = tmp_path / "k.jsonl", tmp_path / "l.jsonl"
    sn.write_text(json.dumps(
        {"degree": 3, "group": "S3", "disc": -23,
         "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1]}]}) + "\n")
    ab.write_text(json.dumps(
        {"degree": 3, "group": "C3", "disc": 49,
         "ram": [{"p": 7, "kind": "tame", "cycle_type": [3]}]}) + "\n")
    files = ["--sn-fields", str(sn), "--abelians", str(ab),
             "--sn-xmax", str(10**6), "--ab-xmax", str(10**6)]
    # 2^53 + 1 has no float; 1e15 is an exact integer in scientific notation
    for text, value in [("9007199254740993", 2**53 + 1), ("1e15", 10**15)]:
        code, out = run(["count-pairs", "--x", text] + files, capsys)
        assert code == 0
        assert seen[-1] == value
        assert json.loads(out)["report"]["grid"][-1] == value
    for text in ["1.5", "1e-3", "nan", "ten"]:
        code, _ = run(["count-pairs", "--x", text] + files, capsys)
        assert code == 2
    assert len(seen) == 2
    code, _ = run(["euler-constant", "--pmax", "1e2.5"], capsys)
    assert code == 2


def test_count_pairs_cli_input_errors_exit_2(capsys, tmp_path):
    sn, ab = tmp_path / "k.jsonl", tmp_path / "l.jsonl"
    sn.write_text(json.dumps(
        {"degree": 3, "group": "S3", "disc": -23,
         "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1]}]}) + "\n")
    ab.write_text(json.dumps(
        {"degree": 3, "group": "C3", "disc": 49,
         "ram": [{"p": 7, "kind": "tame", "cycle_type": [3]}]}) + "\n")
    files = ["--sn-fields", str(sn), "--abelians", str(ab)]
    code, out = run(["count-pairs", "--x", "1e6", "--sn-xmax", "1e3", "--ab-xmax", "1000"]
                    + files, capsys)
    assert code == 0
    assert json.loads(out)["config"]["sn_xmax"] == 1000
    # X = 1e400 needs the lists to 1e133 (its cube root has no float)
    assert run(["count-pairs", "--x", "1e400"] + files, capsys)[0] == 2
    # x_max must be an exact integer, and no smaller than the last |disc|
    for flag, text in [("--sn-xmax", "1.5"), ("--ab-xmax", "1e-3"), ("--ab-xmax", "48")]:
        assert run(["count-pairs", "--x", "1e6", flag, text] + files, capsys)[0] == 2


def test_count_pairs_cli_names_the_line_of_an_oversized_integer(capsys, tmp_path):
    # a disc of 5,001 digits was a bare ValueError from int(), with no line
    sn, ab = tmp_path / "k.jsonl", tmp_path / "l.jsonl"
    sn.write_text('{"degree": 3, "disc": -1%s1, "group": "S3", '
                  '"ram": [{"cycle_type": [2, 1], "kind": "tame", "p": 23}]}\n' % ("0" * 4999))
    ab.write_text(json.dumps(
        {"degree": 3, "group": "C3", "disc": 49,
         "ram": [{"p": 7, "kind": "tame", "cycle_type": [3]}]}) + "\n")
    code = main(["count-pairs", "--x", "1e6", "--sn-fields", str(sn), "--abelians", str(ab)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "line 1: " in line


@pytest.mark.parametrize("exp, reason", [
    (5000, "|disc| 23 != product of local parts >= 2^63"),
    (2**70, "bad ramification entry: exp 1180591620717411303424 is outside int64"),
], ids=["exp-5000", "exp-2^70"])
def test_count_pairs_cli_refuses_an_exponent_past_the_product_bound_in_time(tmp_path, exp, reason):
    # exp 5000 once exited 2 with int()'s digit-limit error and no line number,
    # and exp 2^70 never returned; a child process holds the time limit
    sn, ab = tmp_path / "k.jsonl", tmp_path / "l.jsonl"
    sn.write_text(json.dumps({"degree": 3, "disc": -23, "group": "S3", "ram": [
        {"exp": exp, "kind": "wild", "label": "w", "p": 23}]}, sort_keys=True) + "\n")
    ab.write_text(json.dumps(
        {"degree": 3, "group": "C3", "disc": 49,
         "ram": [{"p": 7, "kind": "tame", "cycle_type": [3]}]}) + "\n")
    code = ("import sys; from malle_lab.cli import main; "
            f"sys.exit(main(['count-pairs', '--x', '1e12', '--sn-fields', {str(sn)!r}, "
            f"'--abelians', {str(ab)!r}]))")
    src = str(Path(malle_lab.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines() == [f"error: line 1: {reason}"]


def test_count_pairs_cli_refuses_a_degree_zero_field(capsys, tmp_path):
    # this file once parsed, and count-pairs reported all zeros with exit 0
    sn, ab = tmp_path / "k.jsonl", tmp_path / "l.jsonl"
    sn.write_text('{"degree": 0, "disc": 1, "group": "S3", "ram": []}\n')
    ab.write_text(json.dumps(
        {"degree": 3, "group": "C3", "disc": 49,
         "ram": [{"p": 7, "kind": "tame", "cycle_type": [3]}]}) + "\n")
    code = main(["count-pairs", "--x", "1e6", "--sn-xmax", "1000",
                 "--sn-fields", str(sn), "--abelians", str(ab)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: line 1: degree must be >= 1, got 0\n"


def test_count_pairs_cli_refuses_a_file_of_two_kinds(capsys, tmp_path):
    # with a C3 line among the S3 lines this file once parsed, and count-pairs
    # refused the pair of kinds only when the C3 line fell in its window
    from malle_lab.fields.cubic import enumerate_cubic
    from malle_lab.fields.cyclic import enumerate_cyclic

    sn, ab = tmp_path / "k.jsonl", tmp_path / "l.jsonl"
    for path, field_list in ((sn, enumerate_cubic(10**3)), (ab, enumerate_cyclic(3, 10**4))):
        with path.open("w") as fh:
            field_list.write_jsonl(fh)
    sn.write_text(sn.read_text().splitlines(keepends=True)[0] + ab.read_text().splitlines()[0])
    code = main(["count-pairs", "--x", "1e6", "--sn-fields", str(sn), "--abelians", str(ab)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: line 2: a degree-3 C3 record in a list of degree-3 S3 records\n"


FLOAT_FLAGS = {
    "--predicted": ["convolve", "--s1", "integers", "--s2", "integers",
                    "--a", "1", "--b", "1", "--x", "10"],
    "--bound": ["abelian-uniformity", "--l", "3", "--q", "7", "--x", "1e3"],
}


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", sorted(FLOAT_FLAGS))
def test_float_flags_refuse_nan_and_inf(flag, text, capsys):
    # --predicted nan wrote NaN, which is not JSON, and exited 0;
    # --bound nan failed every check and exited 1
    assert main(FLOAT_FLAGS[flag] + [f"{flag}={text}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "must be finite" in line


def test_convolve_cli_predicted_ratio(capsys):
    code, out = run(FLOAT_FLAGS["--predicted"] + ["--predicted", "13.5"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["predicted"] == 13.5 and report["ratio"] == 2.0


def test_count_pairs_cli_refuses_grid_points_below_1(input_files, capsys):
    # --grid-points 0 wrote a report with an empty grid and exited 0
    for points in ("0", "-3"):
        code = main(["count-pairs", "--sn-fields", str(input_files / "k.jsonl"),
                     "--abelians", str(input_files / "l.jsonl"), "--x", "1e6",
                     "--grid-points", points])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --grid-points must be at least 1, got {points}\n"


def test_count_pairs_cli_takes_a_billion_grid_points(input_files, capsys):
    # default_grid once built all the points before it kept the <= 20 that
    # are >= 1 at X = 1e6: a billion-entry list
    argv = ["count-pairs", "--sn-fields", str(input_files / "k.jsonl"),
            "--abelians", str(input_files / "l.jsonl"), "--x", "1e6", "--grid-points"]
    code, out = run(argv + ["1000000000"], capsys)
    assert code == 0
    code, out_20 = run(argv + [str((10**6).bit_length())], capsys)
    assert code == 0
    assert json.loads(out)["report"] == json.loads(out_20)["report"]


def test_convolve_cli_parses_a_exactly(capsys):
    def argv(a):
        return ["convolve", "--s1", "integers", "--s2", "integers",
                "--a", a, "--b", "1", "--x", "100"]

    # "0.7" is the rational 7/10, not the binary float nearest it
    code, out = run(argv("0.7"), capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["a"] == "7/10"
    code, out = run(argv("7/10"), capsys)
    assert code == 0 and json.loads(out)["report"] == report
    for text in ["nan", "inf", "0", "-0.5", "1/0", "ten"]:
        assert main(argv(text)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1


def test_count_pairs_cli_refuses_a_wild_entry_below_the_tower_bound(input_files, capsys):
    from malle_lab.fields.records import parse_field_file

    labels = {}
    for side in ("k", "l"):
        with open(input_files / f"{side}.jsonl") as fh:
            records = parse_field_file(fh).records
        labels[side] = {loc.wild_label for r in records for loc in r.ramification
                        if loc.kind == "wild"}
    labels["k"].add("tame-2,1")
    # exponent 1 at p = 3, where every pair sharing 3 has at least 3 * v_3(L) = 12
    table = {"pairs": [{"k_label": kl, "l_label": ll, "exp": 1}
                       for kl in sorted(labels["k"]) for ll in sorted(labels["l"])]}
    (input_files / "low.json").write_text(json.dumps(table))
    code = main(["count-pairs", "--sn-fields", str(input_files / "k.jsonl"),
                 "--abelians", str(input_files / "l.jsonl"), "--x", "1e8",
                 "--mode", "exact", "--wild", str(input_files / "low.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: wild exponent 1 at p=3 outside [")


@pytest.fixture
def input_files(tmp_path):
    from malle_lab.fields.cubic import enumerate_cubic
    from malle_lab.fields.cyclic import enumerate_cyclic
    from malle_lab.sieve import binary_cubic_disc_scheme

    with open(tmp_path / "k.jsonl", "w") as fh:
        enumerate_cubic(1000).write_jsonl(fh)
    with open(tmp_path / "l.jsonl", "w") as fh:
        enumerate_cyclic(3, 1000).write_jsonl(fh)
    (tmp_path / "scheme.json").write_text(json.dumps(binary_cubic_disc_scheme().to_json()))
    return tmp_path


EVERY_SUBCOMMAND = {
    "invariants": ["--generators", "(12);(123)", "--product", "(123)"],
    "tame-table": ["--l", "5", "--k", "2"],
    "verify-lemmas": ["--n", "4", "--group", "5"],
    "convolve": ["--s1", "integers", "--s2", "squares", "--a", "1", "--b", "1/2", "--x", "1e4"],
    "enumerate-cyclic": ["--l", "3", "--x", "1e4"],
    "enumerate-cubic": ["--x", "1e3"],
    "abelian-uniformity": ["--l", "3", "--q", "7,13", "--x", "1e5"],
    "count-pairs": ["--sn-fields", "{dir}/k.jsonl", "--abelians", "{dir}/l.jsonl",
                    "--x", "1e6", "--y-ladder", "10,100"],
    "euler-constant": ["--pmax", "1e3"],
    "sieve-exp": ["--scheme", "{dir}/scheme.json", "--r", "5,10,50", "--q", "3,5,7,31"],
}


def test_every_subcommand_is_checked_for_out():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(EVERY_SUBCOMMAND)


@pytest.mark.parametrize("command", sorted(EVERY_SUBCOMMAND))
def test_out_file_equals_stdout(command, input_files, capsys):
    argv = [command] + [a.format(dir=input_files) for a in EVERY_SUBCOMMAND[command]]
    code, out = run(argv, capsys)
    assert code == 0 and out
    path = input_files / "report.out"
    assert run(argv + ["--out", str(path)], capsys) == (0, "")
    assert path.read_text() == out


def _bad_inputs(tmp_path):
    files = {
        "wild.json": {"pairs": [{"k_label": "a"}]},
        "wild_exp.json": {"pairs": [{"k_label": "a", "l_label": "b", "exp": 14.7}]},
        "wild_list.json": [1],
        "rk.json": {"n": 3},
        "rk_zero.json": {"n": 3, "rk": [{"cycle_type": [2, 1], "r": "1/0"}]},
        "scheme.json": {"n_vars": 2},
        "line.json": {"n_vars": 2, "codim": 1, "polys": [[[1, [1, 0]]]]},
        # a row given twice: once the last one silently won
        "wild_twice.json": {"pairs": [{"k_label": "a", "l_label": "b", "exp": e} for e in (9, 12)]},
        "rk_twice.json": {"n": 3, "rk": [{"cycle_type": [2, 1], "r": r} for r in ("1", "5")]
                          + [{"cycle_type": [3], "r": "2"}]},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    (tmp_path / "float_part.jsonl").write_text(json.dumps(
        {"degree": 3, "group": "S3", "disc": -23,
         "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1.0]}]}) + "\n")
    # a disc of 5,001 digits, past int()'s limit: once a bare ValueError
    (tmp_path / "big_disc.jsonl").write_text(
        '{"degree": 3, "disc": -1%s1, "group": "S3", '
        '"ram": [{"cycle_type": [2, 1], "kind": "tame", "p": 23}]}\n' % ("0" * 4999))
    pairs = ["count-pairs", "--sn-fields", "{dir}/k.jsonl", "--abelians", "{dir}/l.jsonl",
             "--x", "1e6", "--mode", "exact"]
    return [
        pairs + ["--wild", "{dir}/wild.json"],
        pairs + ["--wild", "{dir}/wild_exp.json"],
        pairs + ["--wild", "{dir}/wild_list.json"],
        pairs + ["--wild", "{dir}/wild_twice.json"],
        ["verify-lemmas", "--n", "3", "--group", "5", "--rk", "{dir}/rk.json"],
        ["verify-lemmas", "--n", "3", "--group", "5", "--rk", "{dir}/rk_zero.json"],
        ["verify-lemmas", "--n", "3", "--group", "5", "--rk", "{dir}/rk_twice.json"],
        ["sieve-exp", "--scheme", "{dir}/scheme.json", "--r", "5,10,50", "--q", "3,5"],
        # a grid value of 0: once a ZeroDivisionError traceback with exit 1
        ["sieve-exp", "--scheme", "{dir}/line.json", "--r", "5,10,0", "--q", "3,5,7,31"],
        ["sieve-exp", "--scheme", "{dir}/line.json", "--r", "5,10,50", "--q", "3,5,0,31"],
        ["count-pairs", "--sn-fields", "{dir}/float_part.jsonl", "--abelians", "{dir}/l.jsonl",
         "--x", "1e6"],
        ["count-pairs", "--sn-fields", "{dir}/big_disc.jsonl", "--abelians", "{dir}/l.jsonl",
         "--x", "1e6"],
        ["enumerate-cubic", "--x", "100", "--workers", "0"],
        ["convolve", "--s1", "integers", "--s2", "integers", "--a", "1/0", "--b", "1",
         "--x", "10"],
        # a directory where a file belongs: IsADirectoryError, an OSError
        ["verify-lemmas", "--n", "3", "--group", "5", "--rk", "{dir}"],
        ["count-pairs", "--sn-fields", "{dir}", "--abelians", "{dir}/l.jsonl", "--x", "1e6"],
    ]


def test_malformed_inputs_exit_2_with_one_error_line(input_files, capsys):
    for argv in _bad_inputs(input_files):
        code = main([a.format(dir=input_files) for a in argv])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, captured.err)


def test_sieve_exp_names_a_negative_exponent(tmp_path, capsys):
    # once "error: base is not invertible for the given modulus"
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"n_vars": 2, "codim": 1, "polys": [[[1, [-1, 0]]]]}))
    code = main(["sieve-exp", "--scheme", str(path), "--r", "5,10,50", "--q", "3,5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: negative exponent -1 in [-1, 0]"]


def test_count_pairs_repeated_y_rung_counts_once(input_files, capsys):
    argv = ["count-pairs", "--sn-fields", str(input_files / "k.jsonl"),
            "--abelians", str(input_files / "l.jsonl"), "--x", "1e9", "--mode", "interval",
            "--sn-xmax", "1000", "--ab-xmax", "1000", "--y-ladder"]
    reports = [json.loads(run(argv + [ladder], capsys)[1])["report"]
               for ladder in ("10,100", "100,10,100")]
    assert reports[0]["n_y"]["100"] == reports[0]["n_lo"]
    assert reports[1]["n_y"] == {"100": reports[0]["n_y"]["100"], "10": reports[0]["n_y"]["10"]}


@pytest.mark.parametrize("command, obj, path, value", [
    (["verify-lemmas", "--n", "3", "--group", "5", "--rk"],
     {"n": 3, "rk": [{"cycle_type": [2, 1], "r": "1"}, {"cycle_type": [3], "r": "2"}]},
     ("n",), 3.7),
    (["verify-lemmas", "--n", "3", "--group", "5", "--rk"],
     {"n": 3, "rk": [{"cycle_type": [2, 1], "r": "1"}, {"cycle_type": [3], "r": "2"}]},
     ("rk", 1, "cycle_type", 0), 3.0),
    (["sieve-exp", "--r", "20,50,100,200", "--q", "3,5,7,11,31", "--scheme"],
     {"n_vars": 2, "codim": 1, "polys": [[[1, [1, 0]]]]}, ("polys", 0, 0, 0), 1.5),
    (["sieve-exp", "--r", "20,50,100,200", "--q", "3,5,7,11,31", "--scheme"],
     {"n_vars": 2, "codim": 1, "polys": [[[1, [1, 0]]]]}, ("n_vars",), True),
], ids=["rk-n", "rk-part", "scheme-coefficient", "scheme-n-vars"])
def test_rk_and_scheme_numbers_must_be_json_integers(command, obj, path, value, tmp_path, capsys):
    # 3.7 was read as n = 3 and 1.5 as the coefficient 1
    file = tmp_path / "input.json"
    file.write_text(json.dumps(obj))
    assert run(command + [str(file)], capsys)[0] == 0
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file.write_text(json.dumps(obj))
    assert main(command + [str(file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "JSON integer" in captured.err


def package_sources():
    """(path, syntax tree) of every module of the package."""
    for path in sorted(Path(malle_lab.__file__).parent.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_module_reads_the_environment():
    # every setting, the worker count included, comes from a flag
    names = {"environ", "environb", "getenv"}
    offenders = []
    for path, tree in package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in names:
                offenders.append(f"{path.name}:{node.lineno} reads {node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                              for alias in node.names if alias.name in names]
    assert offenders == []


def test_no_module_has_an_unused_import():
    # a name an import binds must be read in its module or listed in __all__
    offenders = []
    for path, tree in package_sources():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        offenders += [f"{path.name}:{line} imports {name}"
                      for name, line in sorted(imported.items()) if name not in used]
    assert offenders == []


def test_every_name_in_all_is_bound_in_its_module():
    # a name __all__ lists must be defined, assigned or imported at top level
    offenders = []
    for path, tree in package_sources():
        bound, listed = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = {t.id for t in (node.targets if isinstance(node, ast.Assign)
                                          else [node.target]) if isinstance(t, ast.Name)}
                bound |= targets
                if "__all__" in targets:
                    listed = ast.literal_eval(node.value)
        offenders += [f"{path.name}: __all__ lists {name}" for name in listed
                      if name not in bound]
    assert offenders == []


@pytest.mark.parametrize("argv", [
    ["euler-constant", "--pmax", "1e12"],
    ["enumerate-cyclic", "--l", "3", "--x", "1e40"],
    ["abelian-uniformity", "--l", "3", "--q", "7", "--x", "1e30"],
], ids=["euler-constant", "enumerate-cyclic", "abelian-uniformity"])
def test_a_sieve_past_its_limit_exits_2_before_it_allocates(argv, capsys):
    # each once raised MemoryError out of main, which exits 1
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: a sieve to %d is past its limit 2147483647 (2^31 - 1)"
        % {"euler-constant": 10**12, "enumerate-cyclic": 10**20, "abelian-uniformity": 10**15}[
            argv[0]]
    ]


def test_memory_error_exits_2_with_one_error_line(monkeypatch, capsys):
    # an input too large for memory is an input error, not a verification failure
    import malle_lab.tamecomp as tamecomp

    def too_large(*args):
        raise MemoryError

    monkeypatch.setattr(tamecomp, "disc_table", too_large)
    assert main(["tame-table", "--l", "3", "--k", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: out of memory: the input is too large"]


def _report_rows(out):
    """A report without its configuration: JSON's "report", or CSV's rows."""
    if out.startswith("{"):
        return json.loads(out)["report"]
    return [line for line in out.splitlines() if not line.startswith("# config")]


@pytest.mark.parametrize("command, flag, exact, written", [
    (["abelian-uniformity", "--l", "3", "--x", "1e5"], "--q", "7,10", "7,1e1"),
    (["sieve-exp", "--scheme", "{dir}/scheme.json", "--q", "3,5,7,31"], "--r", "5,10,50",
     "5,1e1,50"),
    (["sieve-exp", "--scheme", "{dir}/scheme.json", "--r", "5,10,50"], "--q", "3,5,7,31",
     "3,5e0,7,31"),
    (["count-pairs", "--sn-fields", "{dir}/k.jsonl", "--abelians", "{dir}/l.jsonl",
      "--x", "1e6"], "--y-ladder", "10,100", "1e1,1e2"),
], ids=["abelian-uniformity-q", "sieve-exp-r", "sieve-exp-q", "count-pairs-y-ladder"])
def test_list_flags_read_each_item_as_an_exact_integer(command, flag, exact, written,
                                                       input_files, capsys):
    # "7,1e1" once exited 2 with "invalid literal for int()", while --x 1e1 was accepted
    argv = [a.format(dir=input_files) for a in command] + [flag]
    code, out = run(argv + [exact], capsys)
    assert code == 0
    code, same = run(argv + [written], capsys)
    assert code == 0 and _report_rows(same) == _report_rows(out)
    for bad in (exact + ",1.5", "nan," + exact, exact + ",1e-3"):
        assert main(argv + [bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: not ")


def test_count_pairs_past_the_float_range_reports_no_fit(input_files, capsys):
    # at X = 1e310 every grid point is past the float range: the counts are
    # exact, the fit is only an estimate, so there is none (once an
    # OverflowError traceback with exit code 1)
    argv = ["count-pairs", "--sn-fields", str(input_files / "k.jsonl"),
            "--abelians", str(input_files / "l.jsonl"), "--sn-xmax", "1e104",
            "--ab-xmax", "1e104", "--x"]
    code, out = run(argv + ["1e310"], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["fit"] is None and rep["grid"][-1] == 10**310
    assert rep["n_lo"][-1] == rep["n_hi"][-1] == 149 * 5  # every pair of the two lists
    code, out = run(argv + ["1e300"], capsys)
    assert code == 0 and json.loads(out)["report"]["fit"] is not None


MALFORMED_SPECS = [
    (["invariants", "--generators", "(12)(3"], "cannot parse permutation '(12)(3'"),
    (["invariants", "--generators", "(12)x"], "cannot parse permutation '(12)x'"),
    (["invariants", "--generators", "(1,2),(3,4)"], "cannot parse permutation '(1,2),(3,4)'"),
    (["invariants", "--generators", "(123);(12)("], "cannot parse permutation '(12)('"),
    (["invariants", "--generators", "(12)", "--product", "(0)"], "cycle points must be >= 1"),
] + [(["verify-lemmas", "--n", "3", "--group", spec], f"cannot parse abelian group {spec!r}")
     for spec in ("3c5", "3x", "x3", "3xx5", "cc7", "1_000")] + [
    (["verify-lemmas", "--n", "3", "--group", spec], "cyclic factors must be >= 2")
    for spec in ("1", "3x0")]


@pytest.mark.parametrize("argv, error", MALFORMED_SPECS,
                         ids=[argv[-1] for argv, _ in MALFORMED_SPECS])
def test_a_malformed_group_spec_exits_2_with_one_error_line(argv, error, capsys):
    # each once read a group from the text's valid parts: "(12)(3" exited 0
    # on the group of (12), "3c5" on C35 and "1_000" as C1000 (refused for
    # its order); "(0)" exited 1 with an IndexError traceback; "1" once
    # pointed at a "()" that no spec parses to
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("q", [4, 0])
def test_a_non_squarefree_q_is_refused_as_the_sieve_refuses_it(q, capsys):
    from malle_lab.errors import NotSquarefree
    from malle_lab.fields.uniformity import abelian_uniformity_check
    from malle_lab.sieve import binary_cubic_disc_scheme, solutions_mod_q

    message = f"q must be squarefree positive, got {q}"
    for refuse in (lambda: abelian_uniformity_check(3, [7, q], 10**4),
                   lambda: solutions_mod_q(binary_cubic_disc_scheme(), q)):
        with pytest.raises(NotSquarefree) as exc:
            refuse()
        assert str(exc.value) == message
    assert main(["abelian-uniformity", "--l", "3", "--q", f"7,{q}", "--x", "1e4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_sieve_exp_refuses_a_non_squarefree_q_in_the_words_of_abelian_uniformity(capsys, tmp_path):
    # once "error: q = 4"
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"n_vars": 1, "codim": 1, "polys": [[[1, [1]]]]}))
    code = main(["sieve-exp", "--scheme", str(path), "--r", "5,10,50", "--q", "3,4,5,30"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: q must be squarefree positive, got 4\n"


@pytest.mark.parametrize("entry, message", [
    ({"p": 3, "kind": "tame", "cycle_type": [3]}, "p=3 divides the tame ramification index 3"),
    ({"p": 3, "kind": "wild", "label": "", "exp": 3}, "wild entry needs a label"),
    ({"p": 3, "kind": "wild", "label": "3-e3-v3", "exp": 0}, "wild exponent must be >= 1"),
], ids=["tame-p-divides-e", "wild-without-label", "wild-exp-0"])
def test_count_pairs_refuses_an_entry_its_type_refuses(entry, message, input_files, capsys):
    bad = input_files / "bad.jsonl"
    bad.write_text(json.dumps({"degree": 3, "disc": -27, "group": "S3", "ram": [entry]},
                              sort_keys=True) + "\n")
    code = main(["count-pairs", "--sn-fields", str(bad), "--abelians",
                 str(input_files / "l.jsonl"), "--x", "1e6"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: line 1: {message}\n"


def test_convolve_cli_reads_a_sequence_file(tmp_path, capsys):
    from malle_lab.convolve import CountingSequence, product_count_exact

    path = tmp_path / "s1.txt"
    path.write_text("1 1\n2 3\n\n5 2\n9 1\n")
    argv = ["convolve", "--s1", str(path), "--s2", "integers", "--a", "1", "--b", "2"]
    seq = CountingSequence(entries=[(1, 1), (2, 3), (5, 2), (9, 1)])
    for x in (1, 4, 8, 9):  # the file's list is complete to its last value, 9
        code, out = run(argv + ["--x", str(x)], capsys)
        assert code == 0
        count = product_count_exact(seq, CountingSequence.integers(), 1, 2, x)
        assert json.loads(out)["report"]["count"] == count
    assert count == 12
    # a line of one column or of a non-integer is refused input, by file and line
    for text, lineno, bad in (("1 1\n2\n", 2, "2"), ("1.5 2\n", 1, "1.5 2"),
                              ("1 1\n\n2 1 1\n", 3, "2 1 1")):
        path.write_text(text)
        assert main(argv + ["--x", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path} line {lineno}: expected two integers "
                                f"'value multiplicity', got {bad!r}\n")


def test_abelian_uniformity_bound_below_the_largest_ratio_exits_1(capsys):
    argv = ["abelian-uniformity", "--l", "3", "--q", "7,13", "--x", "1e6", "--bound"]
    code, out = run(argv + ["0.001"], capsys)
    assert code == 1
    rep = json.loads(out)["report"]
    assert rep["max_ratio"] > 0.001
    code, _ = run(argv + [str(rep["max_ratio"])], capsys)  # the bound is inclusive
    assert code == 0
