import hashlib
import io
import itertools
import json
import random
import warnings
from collections import Counter
from functools import partial

import pytest

from malle_lab.errors import IncompleteList, InvariantViolation, MalformedLine
from malle_lab.fields.cubic import (
    canonical_form,
    disc_form,
    enumerate_cubic,
    is_irreducible,
    is_maximal,
    transform,
)
from malle_lab.fields.cyclic import cyclic_count_oracle, enumerate_cyclic
from malle_lab.fields.polysearch import (
    cubic_fields_by_polynomials,
    field_disc_of_cubic,
)
from malle_lab.fields.records import (
    _line_frame,
    _offsets,
    FieldList,
    FieldRecord,
    LocalRamification,
    parse_field_file,
)
from malle_lab.fields.uniformity import abelian_uniformity_check
from malle_lab.permgroup import CycleType

GOOD_LINE = (
    '{"degree":3,"group":"S3","disc":-23,'
    '"ram":[{"p":23,"kind":"tame","cycle_type":[2,1]}]}'
)
# json.dumps(obj) keeps a test's key order, which is not the writer's frame,
# and sorted keys give the frame: the error cases run on both parse paths
RENDERINGS = (json.dumps, partial(json.dumps, sort_keys=True))
# the writer's frame of an S3 line, which the block pass reads
S3_FRAME = _line_frame((3, "S3"))


def test_parse_good_record():
    fl = parse_field_file(io.StringIO(GOOD_LINE))
    assert len(fl) == 1
    rec = fl.records[0]
    assert rec.abs_disc == 23 and rec.disc_sign == -1
    assert rec.ramification[0].tame_cycle_type.parts == (2, 1)


def test_parse_empty_stream():
    fl = parse_field_file(io.StringIO(""))
    assert len(fl) == 0 and fl.x_max == 0


def test_parse_malformed_line_number():
    with pytest.raises(MalformedLine) as exc:
        parse_field_file(io.StringIO(GOOD_LINE + "\nnot json\n"))
    assert exc.value.lineno == 2


@pytest.mark.parametrize("tail", [" 5", " {}", "]", ", 1"])
def test_parse_refuses_a_line_with_more_than_one_value(tail):
    for good in (GOOD_LINE, json.dumps(json.loads(GOOD_LINE), sort_keys=True)):
        with pytest.raises(MalformedLine, match="Extra data") as exc:
            parse_field_file(io.StringIO(good + "\n" + good + tail + "\n"))
        assert exc.value.lineno == 2


@pytest.mark.parametrize("frame", [False, True], ids=["whole-line", "frame"])
@pytest.mark.parametrize("key", ["disc", "p"])
def test_parse_refuses_an_integer_past_the_digit_limit(frame, key):
    # int() refuses more than 4,300 digits; that escaped as a bare ValueError
    big = "1" + "0" * 4998 + "1"  # json.dumps cannot write it either
    disc, p = ("-" + big, "23") if key == "disc" else ("-23", big)
    if frame:
        line = ('{"degree": 3, "disc": %s, "group": "S3", '
                '"ram": [{"cycle_type": [2, 1], "kind": "tame", "p": %s}]}' % (disc, p))
    else:
        line = ('{"degree":3,"group":"S3","disc":%s,'
                '"ram":[{"p":%s,"kind":"tame","cycle_type":[2,1]}]}' % (disc, p))
    # the frame reads a disc of at most 19 digits, so a longer one is decoded whole
    assert bool(S3_FRAME.fullmatch(line)) == (frame and key == "p")
    with pytest.raises(MalformedLine) as exc:
        parse_field_file(io.StringIO(GOOD_LINE + "\n" + line + "\n"))
    assert exc.value.lineno == 2


def test_parse_invariant_violation():
    bad = {
        "degree": 3,
        "group": "S3",
        "disc": -46,  # 2 * 23: local parts give only 23
        "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1]}],
    }
    for render in RENDERINGS:
        with pytest.raises(InvariantViolation):
            parse_field_file(io.StringIO(render(bad)))


def test_parse_tame_exponent_must_match_index():
    bad = {
        "degree": 3,
        "group": "S3",
        "disc": -529,
        "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1], "exp": 2}],
    }
    for render in RENDERINGS:
        with pytest.raises(InvariantViolation):
            parse_field_file(io.StringIO(render(bad)))


def test_parse_rejects_composite_ramified_prime():
    # 9^ind(2,1) = 9 matches the disc, but 9 is not a prime
    bad = {"degree": 3, "group": "S3", "disc": -9,
           "ram": [{"p": 9, "kind": "tame", "cycle_type": [2, 1]}]}
    for render in RENDERINGS:
        with pytest.raises(InvariantViolation, match="not prime") as exc:
            parse_field_file(io.StringIO(GOOD_LINE + "\n" + render(bad)))
        assert str(exc.value) == "line 2: ramified p = 9 is not prime"


def test_parse_rejects_cycle_type_of_another_degree():
    # ind(2,1,1) = 1 matches the disc, but (2,1,1) is a cycle type in S_4
    bad = {"degree": 3, "group": "S3", "disc": -23,
           "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1, 1]}]}
    for render in RENDERINGS:
        with pytest.raises(InvariantViolation, match="degree-3") as exc:
            parse_field_file(io.StringIO(GOOD_LINE + "\n\n" + render(bad)))
        assert str(exc.value) == "line 3: cycle type [2, 1, 1] on a degree-3 record"


@pytest.mark.parametrize("entry, message", [
    ({"p": 3, "kind": "tame", "cycle_type": [3]}, "p=3 divides the tame ramification index 3"),
    ({"p": 3, "kind": "wild", "label": "", "exp": 3}, "wild entry needs a label"),
    ({"p": 3, "kind": "wild", "label": "3-e3-v3", "exp": 0}, "wild exponent must be >= 1"),
], ids=["tame-p-divides-e", "wild-without-label", "wild-exp-0"])
def test_parse_refuses_an_entry_its_type_refuses(entry, message):
    bad = {"degree": 3, "group": "S3", "disc": -27, "ram": [entry]}
    for render in RENDERINGS:
        with pytest.raises(InvariantViolation) as exc:
            parse_field_file(io.StringIO(render(bad) + "\n"))
        assert str(exc.value) == "line 1: " + message


def test_an_entry_needs_a_known_kind_and_a_tame_one_a_cycle_type():
    with pytest.raises(InvariantViolation) as exc:
        LocalRamification(5, "x", 1)
    assert str(exc.value) == "kind must be tame or wild, got 'x'"
    with pytest.raises(InvariantViolation) as exc:
        LocalRamification(5, "tame", 1)
    assert str(exc.value) == "tame entry needs a cycle type"


@pytest.mark.parametrize("disc, message", [
    (0, "disc must be nonzero"),
    (2**63, "|disc| 9223372036854775808 is not below 2^63"),
    (-(2**63), "|disc| 9223372036854775808 is not below 2^63"),
])
def test_frame_path_checks_the_disc_of_a_line_whose_entries_are_known(disc, message):
    # the second line repeats the first one's entry text, so no entry is decoded
    good = json.loads(GOOD_LINE)
    lines = [json.dumps(good, sort_keys=True), json.dumps({**good, "disc": disc}, sort_keys=True)]
    assert all(map(S3_FRAME.fullmatch, lines))
    with pytest.raises(MalformedLine) as exc:
        parse_field_file(io.StringIO("\n".join(lines) + "\n"))
    assert exc.value.lineno == 2 and str(exc.value) == "line 2: " + message


def test_parse_refuses_a_zero_disc_before_its_entries():
    bad = {"degree": 3, "group": "S3", "disc": 0,
           "ram": [{"p": 9, "kind": "tame", "cycle_type": [2, 1]}]}
    for render in RENDERINGS:
        with pytest.raises(MalformedLine, match="disc must be nonzero") as exc:
            parse_field_file(io.StringIO(GOOD_LINE + "\n" + render(bad)))
        assert exc.value.lineno == 2


WILD_LINE = (
    '{"degree":3,"group":"S3","disc":81,'
    '"ram":[{"p":3,"kind":"wild","label":"3-e3-v4","exp":4}]}'
)


@pytest.mark.parametrize("kind, key, value", [
    ("tame", "degree", 3.5),
    ("tame", "disc", "-23"),
    ("tame", "group", 3),
    ("tame", "p", 23.9),
    ("tame", "kind", ["tame"]),
    ("tame", "exp", 1.7),
    ("tame", "cycle_type", [2, True]),
    ("tame", "cycle_type", [2, 1.0]),
    ("tame", "cycle_type", 21),
    ("tame", "cycle_type", [3, 0]),
    ("wild", "exp", 4.0),
    ("wild", "label", 5),
])
def test_parse_refuses_values_of_another_json_type(kind, key, value):
    # outside values are never coerced: 23.9 is not read as 23, nor True as 1
    line = {"tame": GOOD_LINE, "wild": WILD_LINE}[kind]
    obj = json.loads(line)
    assert len(parse_field_file(io.StringIO(line))) == 1
    target = obj if key in ("degree", "disc", "group") else obj["ram"][0]
    target[key] = value
    for render in RENDERINGS:
        with pytest.raises(MalformedLine) as exc:
            parse_field_file(io.StringIO(GOOD_LINE + "\n" + render(obj)))
        assert exc.value.lineno == 2


def test_parse_rejects_x_max_below_last_record():
    assert parse_field_file(io.StringIO(GOOD_LINE), x_max=23).x_max == 23
    with pytest.raises(InvariantViolation, match="x_max 22"):
        parse_field_file(io.StringIO(GOOD_LINE), x_max=22)


def test_parse_unsorted_warns_and_sorts():
    two = (
        '{"degree":3,"group":"S3","disc":-31,"ram":[{"p":31,"kind":"tame","cycle_type":[2,1]}]}\n'
        + GOOD_LINE
    )
    with pytest.warns(UserWarning):
        fl = parse_field_file(io.StringIO(two))
    assert [r.abs_disc for r in fl] == [23, 31]


def test_roundtrip_jsonl():
    fl = enumerate_cubic(200)
    buf = io.StringIO()
    fl.write_jsonl(buf)
    buf.seek(0)
    again = parse_field_file(buf)
    assert [r.abs_disc for r in again] == [r.abs_disc for r in fl]
    # one shared CycleType per parts tuple: (2, 1) and (3,)
    shared = {id(loc.tame_cycle_type) for r in again for loc in r.ramification if loc.kind == "tame"}
    assert len(shared) == 2


def _hand_built_record():
    # entries out of order of p, a wild 2-adic entry, and a label that JSON escapes
    return FieldRecord(
        degree=3,
        group_label='S3 "\\é',
        abs_disc=40,
        ramification=(
            LocalRamification(p=5, kind="tame", disc_exponent=1,
                              tame_cycle_type=CycleType.from_parts((2, 1))),
            LocalRamification(p=2, kind="wild", disc_exponent=3, wild_label="2-e2-v3"),
        ),
        disc_sign=-1,
    )


def test_field_list_repr_names_its_size_provenance_and_x_max():
    assert repr(FieldList((), "ingested", 5)) == \
        "FieldList(<0 records>, provenance='ingested', x_max=5)"
    fl = FieldList((_hand_built_record(),), "enumerated", 40)
    assert repr(fl) == "FieldList(<1 records>, provenance='enumerated', x_max=40)"


@pytest.mark.parametrize("make, out_of_order", [
    (lambda: enumerate_cubic(10**4), False),
    (lambda: enumerate_cyclic(3, 10**8), False),  # the wild 3 comes first
    (lambda: FieldList((_hand_built_record(),), "enumerated", 40), True),
], ids=["cubic-1e4", "c3-1e8", "hand-built"])
def test_write_jsonl_lines_equal_json_dumps_of_to_json(make, out_of_order):
    fl = make()
    want = [json.dumps(r.to_json(), sort_keys=True) + "\n" for r in fl]
    assert io.StringIO(_jsonl(fl)).readlines() == want
    assert out_of_order == any(
        [loc.p for loc in r.ramification] != list(r.ramified_primes) for r in fl
    )


@pytest.mark.parametrize("make", [
    lambda: enumerate_cubic(10**4, workers=1),
    lambda: enumerate_cubic(10**4, workers=2),
    lambda: enumerate_cyclic(3, 10**8),
    lambda: enumerate_cyclic(5, 10**12),
    lambda: enumerate_cyclic(7, 10**14),
], ids=["cubic-1e4-w1", "cubic-1e4-w2", "c3-1e8", "c5-1e12", "c7-1e14"])
def test_enumerated_rows_list_their_primes_in_ascending_p(make):
    # the writer writes each row as held, so a written row is in ascending p
    fl = make()
    slot_p = fl.entry_p[fl.entry_ids]
    same_row = fl.slot_rows()[1:] == fl.slot_rows()[:-1]
    assert (slot_p[1:][same_row] > slot_p[:-1][same_row]).all()


def test_a_parsed_file_is_written_back_in_its_entry_order():
    rec = _hand_built_record()  # p = 5, then p = 2
    lines = [json.dumps(rec.to_json(), sort_keys=True) + "\n"] * 2
    assert [loc["p"] for loc in json.loads(lines[0])["ram"]] == [5, 2]
    assert _jsonl(parse_field_file(io.StringIO("".join(lines)))) == "".join(lines)


SHARED_TAME = {"degree": 3, "group": "S3", "disc": -7,
               "ram": [{"p": 7, "kind": "tame", "cycle_type": [2, 1], "exp": 1}]}
SHARED_WILD = {"degree": 3, "group": "S3", "disc": 8,
               "ram": [{"p": 2, "kind": "wild", "label": "2-e2-v3", "exp": 3}]}


@pytest.mark.parametrize("line, key, value", [
    (SHARED_TAME, "exp", True),
    (SHARED_TAME, "p", 7.0),
    (SHARED_TAME, "p", "7"),
    (SHARED_WILD, "exp", 3.0),
], ids=["tame-exp-true", "tame-p-float", "tame-p-string", "wild-exp-float"])
def test_parse_checks_every_occurrence_of_a_shared_entry(line, key, value):
    # True == 1 and 7.0 == 7 hash alike: the entry built on line 1 must not
    # admit a mistyped copy on line 3
    bad = json.loads(json.dumps(line))
    bad["ram"][0][key] = value
    for render in RENDERINGS:
        assert len(parse_field_file(io.StringIO("\n".join([render(line)] * 3)))) == 3
        with pytest.raises(MalformedLine) as exc:
            parse_field_file(io.StringIO("\n".join([render(line)] * 2 + [render(bad)])))
        assert exc.value.lineno == 3


def test_parse_checks_a_shared_tame_entry_against_each_record_degree():
    quartic = {"degree": 4, "group": "S4", "disc": -23,
               "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1]}]}
    for render in RENDERINGS:
        for first in (GOOD_LINE, render(json.loads(GOOD_LINE))):
            with pytest.raises(InvariantViolation, match="degree-4") as exc:
                parse_field_file(io.StringIO(first + "\n" + render(quartic)))
            assert str(exc.value).startswith("line 2: ")


def test_cubic_entries_are_built_once_and_parsed_once():
    fl = enumerate_cubic(10**5)
    buf = io.StringIO(_jsonl(fl))
    again = parse_field_file(buf)
    # the parent builds each entry once from its code, for any worker count
    for field_list in (fl, again, enumerate_cubic(10**5, workers=2)):
        entries = [loc for r in field_list for loc in r.ramification]
        assert len(entries) == 55341
        assert len({id(loc) for loc in entries}) == len(set(entries)) == 4367


@pytest.mark.parametrize("make", [
    lambda: enumerate_cubic(10**4),
    lambda: enumerate_cyclic(3, 10**8),
], ids=["cubic-1e4", "c3-1e8"])
def test_every_written_line_is_in_the_parse_frame(make):
    # a writer line outside the frame would still parse, only slower
    fl = make()
    frame = _line_frame((fl.degree, fl.group_label))
    lines = _jsonl(fl).splitlines()
    assert lines and all(frame.fullmatch(line) for line in lines)


def test_a_written_line_with_an_escaped_label_round_trips():
    # the frame holds the group as the writer escapes it, so these lines are in it
    rec = _hand_built_record()
    text = _jsonl(FieldList((rec,) * 3, "enumerated", 40))
    assert all(map(_line_frame((3, 'S3 "\\é')).fullmatch, text.splitlines()))
    again = parse_field_file(io.StringIO(text)).records
    assert [r.to_json() for r in again] == [rec.to_json()] * 3
    assert again[0].group_label == 'S3 "\\é'


@pytest.mark.parametrize("label", ["3%d", "50%", '3"e"', "3\\e\\", "3\u2028e", '%s"\\\u2028%%'])
def test_written_entry_texts_equal_json_dumps_for_labels_json_escapes(label):
    # each entry text comes from a %-template per local type; a % in a label is escaped
    wild2 = LocalRamification(p=2, kind="wild", disc_exponent=3, wild_label=label)
    tame5 = LocalRamification(p=5, kind="tame", disc_exponent=1,
                              tame_cycle_type=CycleType.from_parts((2, 1)))
    recs = (FieldRecord(3, label, 8, (wild2,), 1), FieldRecord(3, label, 40, (tame5, wild2), -1))
    fl = FieldList(recs, "enumerated", 40)
    want = "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in recs)
    assert _jsonl(fl) == want
    assert [r.to_json() for r in parse_field_file(io.StringIO(want))] == [r.to_json() for r in recs]


def test_frame_and_hand_formatted_lines_share_their_entries():
    tame7 = {"p": 7, "kind": "tame", "cycle_type": [2, 1]}
    wild2 = {"p": 2, "kind": "wild", "label": "2-e2-v3", "exp": 3}
    objs = [
        {"degree": 3, "group": "S3", "disc": -7, "ram": [tame7]},
        {"degree": 3, "group": "S3", "disc": -56, "ram": [wild2, tame7]},
        {"degree": 3, "group": "S3", "disc": 56, "ram": [tame7, wild2]},
    ]
    lines = [text for obj in objs
             for text in (json.dumps(obj, sort_keys=True), json.dumps(obj, separators=(",", ":")))]
    assert [bool(S3_FRAME.fullmatch(line)) for line in lines] == [True, False] * 3
    fl = parse_field_file(io.StringIO("\n".join(lines)))
    entries = [loc for r in fl for loc in r.ramification]
    assert len(entries) == 10
    assert len({id(loc) for loc in entries}) == len(set(entries)) == 2


def test_parse_warns_only_on_a_descent():
    # 91^2 carries two cyclic cubic fields: equal |disc| is no descent
    fl = enumerate_cyclic(3, 91**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = parse_field_file(io.StringIO(_jsonl(fl)))
    assert [r.to_json() for r in again] == [r.to_json() for r in fl]
    lines = _jsonl(fl).splitlines()
    lines.append(lines.pop(0))  # the one descent is at the last line
    with pytest.warns(UserWarning, match="unsorted"):
        again = parse_field_file(io.StringIO("\n".join(lines)))
    assert [r.abs_disc for r in again] == [r.abs_disc for r in fl]
    assert len(fl) > 2 and fl.records[-1].abs_disc == fl.records[-2].abs_disc == 91**2


@pytest.mark.parametrize("degree", [0, -3])
def test_parse_refuses_a_degree_below_one(degree):
    # degree 0 once parsed and counted to zero; -3 failed only in iroot
    line = {"degree": degree, "group": "S3", "disc": 1, "ram": []}
    for render in RENDERINGS:
        with pytest.raises(InvariantViolation) as exc:
            parse_field_file(io.StringIO(render(line)))
        assert str(exc.value) == f"line 1: degree must be >= 1, got {degree}"


C3_LINE = {"degree": 3, "group": "C3", "disc": 49,
           "ram": [{"p": 7, "kind": "tame", "cycle_type": [3]}]}
MIXED = "a degree-3 C3 record in a list of degree-3 S3 records"


def _parse_error(lines) -> tuple:
    with pytest.raises((InvariantViolation, MalformedLine)) as exc:
        parse_field_file(io.StringIO("\n".join(lines)))
    return type(exc.value), str(exc.value)


def test_parse_refuses_a_record_of_another_kind_at_its_line():
    """After the line's typed-field checks, before its disc and entry checks."""
    good = json.loads(GOOD_LINE)
    p9 = [{"p": 9, "kind": "tame", "cycle_type": [3]}]
    others = [C3_LINE, dict(C3_LINE, disc=0), dict(C3_LINE, disc=2**63), dict(C3_LINE, ram=p9)]
    for render in RENDERINGS:
        for other in others:
            lines = [render(good), render(good), render(other)]
            assert _parse_error(lines) == (InvariantViolation, "line 3: " + MIXED)
        s4 = dict(good, degree=4, group="S4")
        assert _parse_error([render(good), render(s4)]) == (
            InvariantViolation, "line 2: a degree-4 S4 record in a list of degree-3 S3 records")
        error, message = _parse_error([render(good), render(dict(C3_LINE, degree=3.0))])
        assert error is MalformedLine and message.startswith("line 2: bad record fields")


def test_parse_names_the_first_bad_line_when_a_kind_is_mixed():
    off_product = dict(json.loads(GOOD_LINE), disc=-46)
    for render in RENDERINGS:
        # a row rule broken on an earlier line wins
        assert _parse_error([render(off_product), render(C3_LINE)]) == (
            InvariantViolation, "line 1: |disc| 46 != product of local parts 23")
        # and a kind mismatch wins over a malformed line after it
        assert _parse_error([GOOD_LINE, render(C3_LINE), "{not json"]) == (
            InvariantViolation, "line 2: " + MIXED)


@pytest.mark.parametrize("sign", [0, 2, -2, 2**70])
def test_record_refuses_a_disc_sign_other_than_one_or_minus_one(sign):
    # disc_sign 0 was written as "disc": 0, which the parser refuses; the
    # list refuses the record, and 2**70, past the int8 column, the same way
    rec = _hand_built_record()
    bad = FieldRecord(rec.degree, rec.group_label, rec.abs_disc, rec.ramification, sign)
    with pytest.raises(InvariantViolation, match=f"disc sign must be 1 or -1, got {sign}"):
        FieldList(records=(bad,), provenance="x", x_max=99)


# -- cyclic ------------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: enumerate_cyclic(2, 100), "l must be an odd prime"),
    (lambda: enumerate_cyclic(9, 100), "l must be an odd prime"),
    (lambda: enumerate_cyclic(3, 0), "x must be >= 1"),
], ids=["l-two", "l-nine", "x-zero"])
def test_cyclic_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_enumerate_cyclic_spec_examples():
    assert [r.abs_disc for r in enumerate_cyclic(3, 49)] == [49]
    assert [r.abs_disc for r in enumerate_cyclic(3, 80)] == [49]
    assert len(enumerate_cyclic(5, 1)) == 0
    assert [r.abs_disc for r in enumerate_cyclic(5, 11**4)] == [11**4]


def test_enumerate_cyclic_refuses_a_disc_past_int64_from_its_conductors():
    # once refused only after every row of the list was built
    with pytest.raises(InvariantViolation, match=r"^\|disc\| 99964004859708406561 is not below 2\^63$"):
        enumerate_cyclic(5, 10**20)
    # no conductor f <= 2^(63/6) has f^6 >= 2^63
    fl = enumerate_cyclic(7, 2**63)
    assert len(fl) and int(fl.abs_discs.max()) < 2**63


def test_enumerate_cyclic_disc_is_conductor_power():
    for rec in enumerate_cyclic(3, 10**5):
        # disc = f^2 for cyclic cubics
        f = 1
        for loc in rec.ramification:
            f *= loc.p ** (loc.disc_exponent // (rec.degree - 1))
        assert f * f == rec.abs_disc


def test_enumerate_cyclic_vs_oracle_small():
    for x in (10, 100, 5000, 10**6):
        assert len(enumerate_cyclic(3, x)) == cyclic_count_oracle(3, x)
    for x in (10**4, 10**8):
        assert len(enumerate_cyclic(5, x)) == cyclic_count_oracle(5, x)
    assert len(enumerate_cyclic(7, 10**10)) == cyclic_count_oracle(7, 10**10)


def test_cyclic_multiplicity_two_prime_conductor():
    # conductor 7*13 = 91 carries exactly (3-1)^(2-1) = 2 fields
    fl = enumerate_cyclic(3, 91**2)
    by_disc = Counter(r.abs_disc for r in fl)
    assert by_disc[91**2] == 2


# -- cubic -------------------------------------------------------------------

def test_enumerate_cubic_spec_examples():
    assert len(enumerate_cubic(22)) == 0
    fl = enumerate_cubic(23)
    assert len(fl) == 1 and fl.records[0].disc_sign == -1


def test_cubic_known_small_discs():
    fl = enumerate_cubic(120)
    assert [r.disc_sign * r.abs_disc for r in fl] == [
        -23, -31, -44, -59, -76, -83, -87, -104, -107, -108, -116,
    ]


def test_cubic_excludes_cyclic():
    # 49 and 81 are cyclic cubic discs, never S_3
    assert all(r.abs_disc not in (49, 81) for r in enumerate_cubic(100))


def test_cubic_reconstruction_identity():
    for rec in enumerate_cubic(2000):
        prod = 1
        for loc in rec.ramification:
            prod *= loc.p**loc.disc_exponent
        assert prod == rec.abs_disc


def test_cubic_nonmonogenic_dedekind_field():
    # |disc| = 503: ring of integers is not Z[alpha] for any alpha, so the
    # maximal form has leading coefficient > 1
    fl = enumerate_cubic(510)
    assert any(r.abs_disc == 503 and r.disc_sign == -1 for r in fl)


def test_canonical_form_agrees_on_the_reduced_forms_of_a_class():
    """Every reduced image of a reduced form, and its negative, has the form's canonical form."""
    from malle_lab.fields import cubic

    x = 2 * 10**4
    forms = [f for f, _ in _search(cubic._pos_candidates, x, cubic._amax_pos(x))]
    assert len(forms) > 1000
    images = 0
    for f in forms:
        canon = canonical_form(f)
        for m in cubic._SMALL_MATS:
            g = transform(f, m)
            if cubic._hessian_reduced(g):
                images += 1
                assert canonical_form(g) == canonical_form(tuple(-x for x in g)) == canon
    assert images > 4 * len(forms)


def test_canonical_form_refuses_forms_that_are_not_reduced():
    # x^3 - 3xy^2 + y^3, Hessian (9, -9, 9), under x -> x + 2y: disc 81 > 0,
    # Hessian (9, 27, 27) with |Q| > P
    shifted = transform((1, 0, -3, 1), (1, 0, 2, 1))
    assert shifted == (1, 6, 9, 3) and disc_form(shifted) == 81
    for f in (shifted, (1, 1, 2, 3)):  # disc 81 and -175
        with pytest.raises(ValueError, match="Hessian-reduced"):
            canonical_form(f)


def test_cubic_vs_polynomial_oracle_exact_small():
    for x in (600, 2500):
        enum = Counter(r.disc_sign * r.abs_disc for r in enumerate_cubic(x))
        oracle = Counter(cubic_fields_by_polynomials(x))
        assert enum == oracle


def test_polynomial_oracle_known_field_discs():
    assert field_disc_of_cubic((0, -1, -1)) == -23
    assert field_disc_of_cubic((-1, -2, -8)) == -503  # 2 splits, index always even
    assert field_disc_of_cubic((0, -4, 8)) == -23  # index 8 generator
    assert field_disc_of_cubic((0, 0, -2)) == -108
    assert field_disc_of_cubic((-1, -2, 1)) == 49  # cyclic
    assert field_disc_of_cubic((0, -4, -1)) == 229


@pytest.mark.parametrize("call, message", [
    (lambda: transform((1, 0, -1, 1), (1, 1, 1, 1)), "matrix must be unimodular"),
    (lambda: transform((1, 0, -1, 1), (2, 0, 0, 1)), "matrix must be unimodular"),
    (lambda: enumerate_cubic(0), "x must be >= 1"),
], ids=["det-zero", "det-two", "x-zero"])
def test_cubic_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_is_maximal_is_false_for_a_form_with_content():
    # the ring of a form with content g > 1 is not maximal at the primes of g
    assert is_maximal((1, 0, -1, 1)) and not is_maximal((2, 0, -2, 2))
    assert not is_maximal((3, 6, -3, 9))


def test_maximality_rejects_index_forms():
    # (1, 0, -4, 8) ~ x^3 - 4x + 8 has index 8 in the -23 field
    assert not is_maximal((1, 0, -4, 8))
    assert is_maximal((1, 0, -1, -1))


def test_is_maximal_decides_forms_past_int64():
    # equivalent forms with coefficients past 2^63: same disc, same verdict
    m = (10**6 + 1, 10**6, 10**6 + 2, 10**6 + 1)  # det 1
    for f, maximal in (((1, 0, -4, 8), False), ((1, 0, -1, -1), True)):
        g = transform(transform(transform(f, m), m), m)
        assert max(map(abs, g)) > 2**63 and disc_form(g) == disc_form(f)
        assert is_maximal(g) is maximal


def _multiple_roots_by_scan(f, p):
    """Every multiple root of F mod p in P^1(F_p) as (x0, y0, triple), by residues."""
    a, b, c, d = f
    roots = []
    for r in range(p):
        # F(x + r y, y) = a x^3 + (3ar + b) x^2 y + F_x(r, 1) x y^2 + F(r, 1) y^3
        if (((a * r + b) * r + c) * r + d) % p == 0 and ((3 * a * r + 2 * b) * r + c) % p == 0:
            roots.append((r, 1, (3 * a * r + b) % p == 0))
    if a % p == 0 and b % p == 0:
        roots.append((1, 0, c % p == 0))
    return roots


def test_multiple_root_matches_residue_scan():
    import numpy as np

    from malle_lab.fields.cubic import _multiple_roots

    def roots(forms, primes, dtype=np.int64):
        """The points _multiple_roots finds, one row per (form, p), written as [r:1] or [1:0]."""
        cols = tuple(np.array(col, dtype=dtype) for col in zip(*forms))
        found = _multiple_roots(cols, np.array(primes, dtype=dtype))
        out = []
        for p, x0, y0, triple in zip(primes, *(col.tolist() for col in found)):
            if y0 % p == 0:
                assert x0 % p
                out.append((1, 0, triple))
            else:
                out.append((x0 * pow(y0, -1, p) % p, 1, triple))
        return out

    # every p in one call, so that the p = 2, 3 rows sit among the others
    rows = [(f, p) for p in (2, 3, 5, 7, 11, 13)
            for f in itertools.product(range(p), repeat=4) if any(f) and disc_form(f) % p == 0]
    for (f, p), root in zip(rows, roots(*zip(*rows))):
        assert [root] == _multiple_roots_by_scan(f, p), (f, p)
    # integer forms congruent mod p^2 to one with a double or triple root at
    # [r:1] or [1:0], so that p^2 | disc, at the primes from 53 to 101
    rng = random.Random(8)
    rows = []
    for p in (53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101):
        for _ in range(60):
            r, u, w = (rng.randrange(-p * p, p * p) for _ in range(3))
            u = u if u % p else u + 1
            shapes = (
                (u, w - 2 * r * u, r * r * u - 2 * r * w, r * r * w),  # (x - ry)^2 (ux + wy)
                (u, -3 * r * u, 3 * r * r * u, -(r**3) * u),  # u (x - ry)^3
                (0, 0, u, w),  # y^2 (ux + wy)
                (0, 0, 0, u),  # u y^3
            )
            for g in shapes:
                f = tuple(gi + p * p * rng.randrange(-5, 6) for gi in g)
                assert disc_form(f) % (p * p) == 0
                rows.append((f, p))
    # the Hessian of these forms passes 2^63: object rows, as is_maximal runs them
    for (f, p), root in zip(rows, roots(*zip(*rows), dtype=object)):
        assert [root] == _multiple_roots_by_scan(f, p), (f, p)


def _search(candidates, x: int, amax: int) -> list:
    """((a, b, c, d), disc) for every row the array search `candidates` returns, a = 1..amax."""
    return [
        ((a, b, c, d), dsc)
        for a in range(1, amax + 1)
        for b, c, d, dsc in zip(*(col.tolist() for col in candidates(x, a)))
    ]


def test_search_bounds_cover_a_brute_force_box():
    """The array search finds every reduced irreducible form with |disc| <= 400.

    At X = 400 the module docstring bounds give a <= 1 for disc > 0 and a <= 3
    for disc < 0, b <= 7 and |c| <= 15; |d| <= 6 for disc > 0 (from |Q| <= P)
    and |d| <= 19 for disc < 0 (from |d| = a |theta| |phi|^2 with |theta| <=
    1/2 + w and |phi|^2 <= 1/4 + v^2).  The box is at least twice each bound.
    """
    from malle_lab.fields import cubic

    x = 400
    box = {1: set(), -1: set()}
    for a in range(1, 9):
        for b in range(17):
            for c in range(-32, 33):
                for d in range(1 if b == 0 else -40, 41):
                    f = (a, b, c, d)
                    dsc = disc_form(f)
                    if dsc == 0 or abs(dsc) > x or not is_irreducible(f):
                        continue
                    if cubic._hessian_reduced(f) if dsc > 0 else cubic._neg_reduced(f):
                        box[1 if dsc > 0 else -1].add((f, dsc))
    pos = _search(cubic._pos_candidates, x, cubic._amax_pos(x))
    neg = _search(cubic._neg_candidates, x, cubic._amax_neg(x))
    assert box[1] == {(f, dsc) for f, dsc in pos if is_irreducible(f)}
    assert box[-1] == {(f, dsc) for f, dsc in neg if is_irreducible(f)}
    assert len(box[1]) > 10 and len(box[-1]) > 40


def test_re_phi_window_drops_no_reduced_form():
    """_neg_candidates, with d cut to the |Re phi| <= 1/2 window, loses no reduced form.

    The scan below takes the same a, b and c but every d with -x <= disc < 0,
    and keeps what _neg_reduced accepts; at X = 2e4 that is a <= 10.
    """
    from math import isqrt

    from malle_lab.arith import iroot
    from malle_lab.fields import cubic

    x = 2 * 10**4
    m, s = isqrt(16 * x // 3), iroot(16 * x // 3, 4)
    scan = []
    for a in range(1, cubic._amax_neg(x) + 1):
        cmax = (3 * a * a + 2 * a * (s + 1) + m) // (4 * a)
        for b in range((3 * a + s) // 2 + 1):
            for c in range(-cmax, cmax + 1):
                # disc = -a2 d^2 + a1 d + a0 >= -x between the roots of a quadratic
                a2, a1, a0 = 27 * a * a, 18 * a * b * c - 4 * b**3, b * b * c * c - 4 * a * c**3
                q = a1 * a1 + 4 * a2 * (a0 + x)
                if q < 0:
                    continue
                r = isqrt(q)
                for d in range((a1 - r) // (2 * a2), (a1 + r) // (2 * a2) + 2):
                    f = (a, b, c, d)
                    if (b or d > 0) and -x <= disc_form(f) < 0 and cubic._neg_reduced(f):
                        scan.append((f, disc_form(f)))
    found = _search(cubic._neg_candidates, x, cubic._amax_neg(x))
    assert sorted(found) == sorted(scan)
    assert len(scan) > 5000


def _jsonl(field_list) -> str:
    buf = io.StringIO()
    field_list.write_jsonl(buf)
    return buf.getvalue()


def test_enumerate_cubic_workers_deterministic():
    assert _jsonl(enumerate_cubic(3000, workers=1)) == _jsonl(enumerate_cubic(3000, workers=2))


def test_enumerate_cubic_bytes_pinned():
    text = _jsonl(enumerate_cubic(10**4))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a83c319ca4accbd75819ee3db5d77dbe5ae66a960ab20b39af80d4f20dd822e2"
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_enumerate_cubic_bytes_pinned_at_1e5(workers):
    text = _jsonl(enumerate_cubic(10**5, workers=workers))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7137eac1bbcf235c65dcc0f0095a3e1673b9abdb024c5ce9226b2b3dcd571e3d"
    )


@pytest.mark.parametrize("l, x, digest", [
    (3, 10**8, "8209effb5497fe34676ef06a326eb4bab91dcd6d9d1405a6a6a6437833160fd8"),
    (5, 10**12, "bd820864b1ba01dacef025fb248152cfcc1b642d8c9fe5ad84255e9a8092cda1"),
    (7, 10**15, "643330321c371c2d4581eb5980dbae62cbef41887b21f930742095cf11b9beb1"),
])
def test_enumerate_cyclic_bytes_pinned(l, x, digest):
    assert hashlib.sha256(_jsonl(enumerate_cyclic(l, x)).encode()).hexdigest() == digest


def test_enumerate_cubic_refuses_x_past_the_int64_bound(monkeypatch):
    from malle_lab.fields import cubic

    def no_table(n):
        raise AssertionError(f"spf_table({n}) built")

    monkeypatch.setattr(cubic, "spf_table", no_table)
    assert cubic.X_LIMIT == 2**31 - 1
    for x in (2**31, 10**40):
        with pytest.raises(ValueError, match="2\\^31"):
            enumerate_cubic(x)


def test_isqrt_rows_match_math_isqrt():
    """The float root of _isqrt, corrected by one each way, is exact below 2^62."""
    from math import isqrt

    import numpy as np

    from malle_lab.fields import cubic

    rng = random.Random(3)
    roots = [0, 1, 2, 3, 2**26, 2**31 - 1, 2**31] + [rng.randrange(2**31) for _ in range(300)]
    n = sorted({max(k * k + e, 0) for k in roots for e in (-1, 0, 1)} | {2**62 - 1})
    assert cubic._isqrt(np.array(n, dtype=np.int64)).tolist() == [isqrt(m) for m in n]


def test_int64_bounds_of_the_module_docstring():
    """The docstring's bounds on the array intermediates, at X = X_LIMIT, over every a."""
    from math import isqrt

    from malle_lab.arith import iroot
    from malle_lab.fields import cubic

    x = cubic.X_LIMIT
    s, m, pmax, x4 = iroot(16 * x // 3, 4), isqrt(16 * x // 3), isqrt(x), iroot(16 * x, 4)
    assert (s, m, pmax, x4) == (327, 107019, 46340, 430)
    assert (cubic._amax_neg(x), cubic._amax_pos(x)) == (188, 82)
    worst = Counter()
    for a in range(1, cubic._amax_neg(x) + 1):
        b, c = (3 * a + s) // 2, (3 * a * a + 2 * a * (s + 1) + m) // (4 * a)
        d = (a + b) * (a + b + c) // a  # the window ends
        a1, a0, a2 = 18 * a * b * c + 4 * b**3, b * b * c * c + 4 * a * c**3, 27 * a * a
        for name, value in [("d", d), ("a1", a1), ("a0", a0), ("quadratic", a1 * a1 + 4 * a2 * (a0 + x)),
                            ("disc terms", a0 + d * (a1 + a2 * d)), ("k", a * a + a * c + b * d + d * d),
                            ("P", b * b + 3 * a * c), ("Q", b * c + 9 * a * d), ("R", c * c + 3 * b * d)]:
            worst[name] = max(worst[name], value)
    for a in range(1, cubic._amax_pos(x) + 1):
        b = (3 * a + x4) // 2
        c = max(b * b, pmax) // (3 * a)
        d = (b * c + pmax) // (9 * a)
        worst["pos disc terms"] = max(worst["pos disc terms"], 18 * a * b * c * d + b * b * c * c
                                      + 4 * a * c**3 + 4 * b**3 * d + 27 * a * a * d * d)
        worst["R"] = max(worst["R"], c * c + 3 * b * d)  # P and |Q| are at most pmax
        a1, a0 = 18 * a * b * c + 4 * b**3, b * b * c * c + 4 * a * c**3
        for name, value in [("pos a1", a1), ("pos a0", a0), ("pos c^2 - P", c * c + pmax),
                            ("pos quadratic", a1 * a1 + 4 * 27 * a * a * (a0 + x))]:
            worst[name] = max(worst[name], value)
    assert worst["d"] <= 4.5e6 and worst["a1"] <= 1.03e9 and worst["a0"] <= 9.8e13
    assert worst["quadratic"] <= 1.47e18 < 2**61
    assert worst["disc terms"] < 1.1e15 and worst["k"] <= 2.1e13
    assert worst["P"] <= 4.6e5 and worst["Q"] <= 4.5e7 and worst["R"] <= 3e9
    assert worst["pos disc terms"] < 6.9e13
    assert worst["pos a1"] <= 3.9e8 and worst["pos a0"] <= 2.7e13
    assert worst["pos c^2 - P"] <= 2.5e8 and worst["pos quadratic"] <= 2e17
    # F(x0, y0) mod p^2: sums of two products of residues mod p^2 <= x
    assert 2 * (x - 1) ** 2 < 2**63
    assert cubic._entry_code(x, 31, 1) < 2**38


def test_local_data_matches_sympy(monkeypatch):
    """Field discriminant and ramification indices against sympy's round two.

    A ramified p has one prime of degree 1 above it with index e, so the
    p-radical of Z_K / p Z_K has dimension e - 1.  (sympy's prime_decomp
    would give e too, but its two-element search runs for minutes on
    x^3 - 10x^2 - 2x - 48 at p = 2.)
    """
    sympy = pytest.importorskip("sympy")
    import numpy as np
    from sympy.polys.numberfields.basis import nilradical_mod_p, round_two

    from malle_lab import arith
    from malle_lab.fields import cubic

    # drops the table _collect_chunk leaves
    monkeypatch.setattr(cubic, "_spf", None)
    x = 10**5
    spf = arith.spf_table(x)
    found = {}
    for sign, a in ((1, 1), (-1, 1), (-1, 2)):
        forms, discs, codes, counts = cubic._collect_chunk((x, sign, a))
        offsets = _offsets(counts)
        # the entries of the canonical form are those of the form the search met
        f = tuple(forms.T)
        assert (np.gcd(np.gcd(f[0], f[1]), np.gcd(f[2], f[3])) == 1).all()
        i, p, v = cubic._factor_rows(np.abs(discs), spf)
        bad, triple = cubic._local_rows(tuple(col[i] for col in f), p, v)
        assert not bad.any()
        assert cubic._entry_code(p, v, triple).tolist() == codes.tolist()
        p_col, v_col, type_ids, types = cubic._code_columns(codes)
        views = [LocalRamification(q, "tame", v, tame_cycle_type=t) if isinstance(t, CycleType)
                 else LocalRamification(q, "wild", v, wild_label=t)
                 for q, v, t in zip(p_col.tolist(), v_col.tolist(), map(types.__getitem__, type_ids))]
        for k, form in enumerate(forms.tolist()):
            found[tuple(form)] = int(discs[k]), tuple(views[offsets[k]:offsets[k + 1]])
    kinds = {"e3 at p >= 5": [], "wild": [], "tame at 2 or 3": [], "tame e2 only": []}
    for f, (dsc, ram) in sorted(found.items()):
        if any(loc.kind == "tame" and loc.p >= 5 and loc.disc_exponent == 2 for loc in ram):
            kinds["e3 at p >= 5"].append((f, dsc, ram))
        if any(loc.kind == "wild" for loc in ram):
            kinds["wild"].append((f, dsc, ram))
        if any(loc.kind == "tame" and loc.p <= 3 for loc in ram):
            kinds["tame at 2 or 3"].append((f, dsc, ram))
        if all(loc.kind == "tame" and loc.disc_exponent == 1 for loc in ram):
            kinds["tame e2 only"].append((f, dsc, ram))
    rng = random.Random(5)
    t = sympy.Symbol("t")
    for kind, forms in kinds.items():
        for f, dsc, ram in rng.sample(forms, 12):
            a, b, c, d = f
            # F(t, a) = a * T(t): T generates the field of F
            poly = sympy.Poly(t**3 + b * t**2 + a * c * t + a * a * d, t)
            zk, dk = round_two(poly)
            assert dk == dsc, (kind, f)
            assert {loc.p: loc.disc_exponent for loc in ram} == sympy.factorint(abs(dk)), f
            for loc in ram:
                if loc.kind == "tame":
                    e = loc.tame_cycle_type.ramification_index
                else:
                    e = int(loc.wild_label.split("-")[1][1:])
                assert e == 1 + nilradical_mod_p(zk, loc.p).n, (kind, f, loc)


# -- uniformity ----------------------------------------------------------------

def test_abelian_uniformity_shape():
    x = 10**6
    fl = enumerate_cyclic(3, x)
    rep = abelian_uniformity_check(3, [1, 7, 13], x, field_list=fl)
    assert rep.a == 2 and rep.b == 1
    by_q = {r.q: r for r in rep.per_q}
    assert by_q[1].count == len(fl)
    # every field with 7 | disc has 7 | conductor; direct cross count
    direct = sum(1 for r in fl if 7 in r.ramified_primes)
    assert by_q[7].count == direct


def test_abelian_uniformity_zero_when_no_admissible_prime():
    # q = 5: 5 is not 1 mod 3 and is not 3, so no cyclic cubic has 5 | disc
    rep = abelian_uniformity_check(3, [5], 10**6)
    assert rep.per_q[0].count == 0


def test_abelian_uniformity_incomplete_list():
    fl = enumerate_cyclic(3, 100)
    with pytest.raises(IncompleteList):
        abelian_uniformity_check(3, [7], 10**4, field_list=fl)


def test_abelian_uniformity_refuses_a_list_of_another_kind():
    # these were once counted against the C3 shape; the C5 list gave 21 and 9
    for fl, kind in ((enumerate_cyclic(5, 10**12), "degree-5 C5"),
                     (enumerate_cubic(10**4), "degree-3 S3")):
        with pytest.raises(ValueError) as exc:
            abelian_uniformity_check(3, [11, 31], fl.x_max, field_list=fl)
        assert str(exc.value) == f"a list of {kind} records, not of degree-3 C3 records"
    # a list with no rows has no kind, and counts nothing
    rep = abelian_uniformity_check(3, [1], 10, field_list=enumerate_cyclic(5, 10))
    assert rep.per_q[0].count == 0
