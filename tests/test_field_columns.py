"""Field lists as columns: views, producers, checks and the consumers that read the columns.

A FieldList keeps one kind, and |disc|, sign and entry indices as arrays, and builds
FieldRecord views on demand.  Every producer must give the list that the
checked constructor gives for the same records, and every consumer must give
what the record-by-record computation gives.
"""

import io
import json
import math
from dataclasses import replace
from functools import partial
from itertools import product

import numpy as np
import pytest

from malle_lab import counting
from malle_lab.arith import factor
from malle_lab.counting import WildTable, compose_disc, count_pairs
from malle_lab.errors import InvariantViolation, MalformedLine, MissingWildEntry
from malle_lab.fields import records
from malle_lab.fields.cubic import enumerate_cubic
from malle_lab.fields.cyclic import enumerate_cyclic
from malle_lab.fields.records import FieldList, FieldRecord, LocalRamification, parse_field_file
from malle_lab.fields.uniformity import abelian_uniformity_check
from malle_lab.permgroup import CycleType


def _jsonl(field_list) -> str:
    buf = io.StringIO()
    field_list.write_jsonl(buf)
    return buf.getvalue()


def _checked(field_list) -> FieldList:
    """The list the constructor makes of hand-built FieldRecords equal to the views."""
    recs = [FieldRecord(r.degree, r.group_label, r.abs_disc, r.ramification, r.disc_sign)
            for r in field_list]
    return FieldList(records=recs, provenance=field_list.provenance, x_max=field_list.x_max)


def _same_columns(a: FieldList, b: FieldList):
    assert (len(a), a.x_max, a.degree, a.group_label) == (len(b), b.x_max, b.degree, b.group_label)
    for name in ("abs_discs", "disc_signs", "offsets"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name
    assert [a.entries[k] for k in a.entry_ids.tolist()] == [b.entries[k] for k in b.entry_ids.tolist()]
    # each list holds each distinct entry once
    assert len(a.entries) == len(set(a.entries)) and len(b.entries) == len(set(b.entries))


def _local_type(loc: LocalRamification):
    return loc.tame_cycle_type if loc.kind == "tame" else loc.wild_label


def _entry_columns(entries) -> tuple:
    """The entry columns `FieldList.from_columns` takes for these distinct entries."""
    types = list(dict.fromkeys(map(_local_type, entries)))
    return (np.array([loc.p for loc in entries], np.int64),
            np.array([loc.disc_exponent for loc in entries], np.int64),
            np.array([types.index(_local_type(loc)) for loc in entries], np.int32), tuple(types))


@pytest.mark.parametrize("x, workers", [(10**4, 1), (10**5, 1), (10**5, 2)])
def test_enumerated_and_parsed_columns_match_the_constructor(x, workers):
    fl = enumerate_cubic(x, workers=workers)
    parsed = parse_field_file(io.StringIO(_jsonl(fl)), x_max=x)
    for field_list in (fl, parsed):
        checked = _checked(field_list)
        _same_columns(field_list, checked)
        assert list(field_list) == list(checked) == list(fl)


def test_constructor_keeps_the_entry_objects_and_their_order():
    fl = enumerate_cyclic(3, 10**8)  # the wild 3 follows the tame primes
    recs = [FieldRecord(r.degree, r.group_label, r.abs_disc, r.ramification, r.disc_sign)
            for r in fl]
    again = FieldList(records=recs, provenance="enumerated", x_max=fl.x_max)
    _same_columns(fl, again)  # the enumerator's own columns are the constructor's
    for rec, view in zip(recs, again):
        assert view == rec and view is not rec
    # slots are keyed by value: equal entries given as other objects share them
    copies = [replace(r, ramification=tuple(map(replace, r.ramification))) for r in recs]
    assert not any(a is b for r, c in zip(recs, copies) for a, b in zip(r.ramification, c.ramification))
    both = [r for pair in zip(recs, copies) for r in pair]
    twice = FieldList(records=both, provenance="enumerated", x_max=fl.x_max)
    assert len(twice.entries) == len(again.entries) == len(fl.entries)
    assert list(twice) == [r for r in recs for _ in (0, 1)] and twice.entry_ids.size == 2 * fl.entry_ids.size


def test_views_index_slice_iterate_and_window():
    fl = enumerate_cubic(10**4)
    recs = list(fl)
    n = len(fl)
    assert n == len(fl.records) == len(recs) == 1886
    assert tuple(fl) == tuple(recs) and tuple(fl) != tuple(recs[1:]) and fl.records is fl
    assert fl.records[0] == recs[0] and fl.records[-1] == recs[-1] == fl.records[n - 1]
    for cut in (slice(5, 17), slice(None, 3), slice(-3, None), slice(10, 5), slice(None, None, 7),
                slice(n - 2, n + 5), slice(None, None, -300)):
        assert fl.records[cut] == tuple(recs[cut])
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            fl.records[bad]
    for x in (0, 22, 23, 500, 10**4, 10**30):
        assert fl.upto(x) == [r for r in recs if r.abs_disc <= x]
        assert fl.count_upto(x) == len(fl.upto(x))
    # views are equal records, not the same objects, and share the list's entries
    assert fl.records[3] == fl.records[3] and fl.records[3] is not fl.records[3]
    entries = {id(loc) for loc in fl.entries}
    assert all(id(loc) in entries for r in recs for loc in r.ramification)
    assert all(FieldRecord(r.degree, r.group_label, r.abs_disc, r.ramification, r.disc_sign) == r
               for r in recs)


def test_columns_are_read_only():
    fl = enumerate_cubic(10**3)
    with pytest.raises(ValueError):
        fl.abs_discs[0] = 1


def _wild(p: int, exp: int) -> LocalRamification:
    return LocalRamification(p=p, kind="wild", disc_exponent=exp, wild_label=f"{p}-w{exp}")


# 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657
_BELOW = ((7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1))


def test_a_disc_past_int64_is_refused_where_it_enters_a_list():
    top = FieldRecord(3, "S3", 2**63 - 1, tuple(_wild(p, e) for p, e in _BELOW), -1)
    fl = FieldList(records=(top,), provenance="ingested", x_max=2**63)
    assert fl.records[0] == top and fl.count_upto(2**70) == 1
    good = _jsonl(fl)
    assert parse_field_file(io.StringIO(good)).records[0] == top
    for sign in (1, -1):
        past = FieldRecord(3, "S3", 2**63, (_wild(2, 63),), sign)
        with pytest.raises(InvariantViolation, match=r"\|disc\| 9223372036854775808 is not below 2\^63"):
            FieldList(records=(top, past), provenance="ingested", x_max=2**63)
        # on both parse paths, a MalformedLine with its line number
        obj = past.to_json()
        for line, framed in ((json.dumps(obj, sort_keys=True), True), (json.dumps(obj), False)):
            assert bool(records._line_frame((3, "S3")).fullmatch(line)) == framed
            with pytest.raises(MalformedLine, match=r"9223372036854775808 is not below 2\^63") as exc:
                parse_field_file(io.StringIO(good + "\n" + line))
            assert exc.value.lineno == 3
    # an "absolute" disc below -2^63 is refused as any other below 1
    low = FieldRecord(3, "S3", -(2**70), (), 1)
    with pytest.raises(InvariantViolation, match="^absolute discriminant must be positive$"):
        FieldList(records=(low,), provenance="ingested", x_max=2**63)


def test_parse_raises_the_first_bad_line_whatever_its_kind():
    good = ('{"degree": 3, "disc": -23, "group": "S3", '
            '"ram": [{"cycle_type": [2, 1], "kind": "tame", "p": 23}]}')
    product_bad = good.replace("-23,", "-46,")
    twice = ('{"degree": 3, "disc": -529, "group": "S3", "ram": [{"cycle_type": [2, 1], '
             '"kind": "tame", "p": 23}, {"cycle_type": [2, 1], "kind": "tame", "p": 23}]}')
    cases = [
        ([good, product_bad, good, "not json"], InvariantViolation,
         "line 2: |disc| 46 != product of local parts 23"),
        ([good, "not json", product_bad], MalformedLine, None),
        ([good, "", twice, product_bad], InvariantViolation, "line 3: duplicate prime 23"),
        ([good, good, product_bad], InvariantViolation, "line 3: |disc| 46"),
    ]
    for lines, error, message in cases:
        with pytest.raises(error) as exc:
            parse_field_file(io.StringIO("\n".join(lines)))
        if message is None:
            assert exc.value.lineno == 2
        else:
            assert str(exc.value).startswith(message)


def _tame(p: int) -> LocalRamification:
    return LocalRamification(p, "tame", 1, tame_cycle_type=CycleType.from_parts((2, 1)))


def test_a_line_is_refused_for_an_unreadable_entry_after_one_that_breaks_a_rule():
    """One refusal order on every route: a rule broken by an earlier row, then
    the stopping row's own error, even when an entry before the one that
    stops it breaks an entry rule."""
    good = ('{"degree": 3, "disc": -23, "group": "S3", '
            '"ram": [{"cycle_type": [2, 1], "kind": "tame", "p": 23}]}')
    composite = {"cycle_type": [2, 1], "kind": "tame", "p": 9}  # p = 9 is not prime
    for unreadable, message in (({"kind": "tame", "p": 7}, "'cycle_type'"),
                                (dict(composite, p=2**70),
                                 "p 1180591620717411303424 is outside int64")):
        message = "bad ramification entry: " + message
        obj = {"degree": 3, "group": "S3", "disc": -63, "ram": [composite, unreadable]}
        for line, framed in ((json.dumps(obj, sort_keys=True), True), (json.dumps(obj), False)):
            assert bool(records._line_frame((3, "S3")).fullmatch(line)) == framed
            with pytest.raises(MalformedLine) as exc:
                parse_field_file(io.StringIO(good + "\n" + line + "\n" + good))
            assert str(exc.value) == "line 2: " + message
            # a rule broken on an earlier line still comes first
            with pytest.raises(InvariantViolation) as exc:
                parse_field_file(io.StringIO(good + "\n" + good.replace("-23,", "-46,") + "\n"
                                             + line))
            assert str(exc.value) == "line 2: |disc| 46 != product of local parts 23"
    # the constructor refuses the same way
    k23 = FieldRecord(3, "S3", 23, (_tame(23),), -1)
    bad = FieldRecord(3, "S3", 63, (_tame(9), _tame(2**70)), -1)
    with pytest.raises(InvariantViolation) as exc:
        FieldList(records=(k23, bad), provenance="x", x_max=99)
    assert str(exc.value) == "p 1180591620717411303424 is outside int64"
    with pytest.raises(InvariantViolation) as exc:
        FieldList(records=(replace(k23, disc_sign=2), bad), provenance="x", x_max=99)
    assert str(exc.value) == "disc sign must be 1 or -1, got 2"
    # with nothing unreadable after it, the entry rule is the line's refusal
    with pytest.raises(InvariantViolation) as exc:
        FieldList(records=(k23, replace(bad, ramification=bad.ramification[:1])),
                  provenance="x", x_max=99)
    assert str(exc.value) == "ramified p = 9 is not prime"


def test_constructor_and_from_columns_refuse_what_the_record_refuses():
    k23 = FieldRecord(3, "S3", 23, (LocalRamification(23, "wild", 1, wild_label="w"),), -1)
    with pytest.raises(InvariantViolation, match="sorted"):
        FieldList(records=(k23, FieldRecord(3, "S3", 8, (_wild(2, 3),), 1)), provenance="x", x_max=99)
    fl = FieldList(records=(k23,), provenance="x", x_max=99)
    forged = [np.array([46]), np.array([-1], np.int8), (fl.degree, fl.group_label),
              fl.offsets.copy(), fl.entry_ids.copy(), fl.entry_p, fl.entry_exp, fl.entry_type,
              fl.local_types]
    with pytest.raises(InvariantViolation, match="46 != product of local parts 23"):
        FieldList.from_columns("x", 99, *forged)


_COLUMNS = ("abs_discs", "disc_signs", "offsets", "entry_ids", "entry_p", "entry_exp",
            "entry_type")


def _columns_of(fl) -> dict:
    """Writeable copies of the list's columns, by name, and its local types."""
    return {**{name: getattr(fl, name).copy() for name in _COLUMNS},
            "local_types": fl.local_types}


def _from_columns(fl, columns) -> FieldList:
    return FieldList.from_columns("x", fl.x_max, columns["abs_discs"], columns["disc_signs"],
                                  (fl.degree, fl.group_label),
                                  *(columns[name] for name in _COLUMNS[2:]),
                                  columns["local_types"])


# the 1e3 cubic list has 149 rows, 294 entry ids, 86 distinct entries and 7 local types
@pytest.mark.parametrize("change, message", [
    (lambda c: c["entry_ids"].put(0, -1), "column entry_ids holds -1, outside [0, 86)"),
    (lambda c: c["entry_ids"].put(0, 86), "column entry_ids holds 86, outside [0, 86)"),
    (lambda c: c["entry_type"].put(0, 7), "column entry_type holds 7, outside [0, 7)"),
    (lambda c: c.update(offsets=np.append(c["offsets"], c["offsets"][-1])),
     "column offsets must have 150 entries, one more than the rows, got 151"),
    (lambda c: c.update(offsets=c["offsets"][:-1]),
     "column offsets must have 150 entries, one more than the rows, got 149"),
    (lambda c: c["offsets"].put(0, 1), "column offsets must start at 0, got 1"),
    (lambda c: c["offsets"].put(1, c["offsets"][2] + 1), "column offsets must not decrease"),
    (lambda c: c["offsets"].put(-1, 293),
     "column offsets must end at the size of entry_ids, 294, got 293"),
    (lambda c: c.update(abs_discs=c["abs_discs"].astype(np.float64)),
     "column abs_discs must be 1-D int64, got 1-D float64"),
    (lambda c: c.update(entry_p=c["entry_p"].reshape(1, -1)),
     "column entry_p must be 1-D int64, got 2-D int64"),
    (lambda c: c.update(disc_signs=c["disc_signs"][:-1]),
     "column disc_signs must have 149 entries, one per row, got 148"),
    (lambda c: c.update(entry_exp=c["entry_exp"][:-1]),
     "columns entry_p, entry_exp and entry_type must have one length, got 86, 85 and 86"),
    (lambda c: c.update(local_types=(*c["local_types"][:-1], 5)),
     "local_types must hold cycle types and labels, got 5"),
], ids=["id-minus-one", "id-past-the-end", "type-past-local-types", "offsets-one-too-long",
        "offsets-one-too-short", "offsets-from-one", "offsets-decreasing", "offsets-end-short",
        "float-abs-discs", "two-d-entry-p", "signs-one-short", "entry-exp-one-short",
        "local-type-not-a-type"])
def test_from_columns_refuses_a_column_of_the_wrong_structure_by_name(change, message):
    fl = enumerate_cubic(10**3)
    columns = _columns_of(fl)
    change(columns)
    with pytest.raises(InvariantViolation) as exc:
        _from_columns(fl, columns)
    assert str(exc.value) == message


@pytest.mark.parametrize("change, message", [
    (lambda c: c.update(abs_discs=c["abs_discs"].tolist()),
     "column abs_discs must be a numpy array, got list"),
    (lambda c: c["entry_ids"].put(0, -1), "column entry_ids holds -1, outside [0, 86)"),
], ids=["list-abs-discs", "id-minus-one"])
def test_from_columns_freezes_its_arguments_only_once_they_pass(change, message):
    fl = enumerate_cubic(10**3)
    columns = _columns_of(fl)
    change(columns)
    with pytest.raises(InvariantViolation) as exc:
        _from_columns(fl, columns)
    assert str(exc.value) == message
    arrays = [columns[name] for name in _COLUMNS if isinstance(columns[name], np.ndarray)]
    assert len(arrays) >= 6 and all(col.flags.writeable for col in arrays)
    columns = _columns_of(fl)
    made = _from_columns(fl, columns)
    for name in _COLUMNS:  # the list shares the caller's arrays, made read-only
        assert getattr(made, name) is columns[name] and not columns[name].flags.writeable


def test_the_constructor_refuses_a_record_of_another_kind_as_the_parser_does():
    k23 = FieldRecord(3, "S3", 23, (_wild(23, 1),), -1)
    l49 = FieldRecord(3, "C3", 49, (_wild(7, 2),), 1)
    lines = [json.dumps(rec.to_json()) for rec in (k23, l49)]
    with pytest.raises(InvariantViolation) as parsed:
        parse_field_file(io.StringIO("\n".join(lines)))
    with pytest.raises(InvariantViolation) as made:
        FieldList(records=(k23, l49), provenance="x", x_max=99)
    assert str(parsed.value) == "line 2: " + str(made.value)
    assert str(made.value) == "a degree-3 C3 record in a list of degree-3 S3 records"
    # a row rule broken by an earlier record comes first, as in the parser
    with pytest.raises(InvariantViolation, match="^disc sign must be 1 or -1, got 2$"):
        FieldList(records=(replace(k23, disc_sign=2), l49), provenance="x", x_max=99)


def test_every_way_of_making_a_list_refuses_what_the_parser_refuses():
    """A composite p and a tame cycle type of another degree than its record's
    are refused by the constructor and `from_columns`, with the parser's
    message text."""

    def columns(entry, disc):
        return (np.array([disc]), np.array([-1], np.int8), (3, "S3"), np.array([0, 1]),
                np.zeros(1, np.int32), *_entry_columns([entry]))

    def parser_message(obj) -> str:
        with pytest.raises(InvariantViolation) as exc:
            parse_field_file(io.StringIO(json.dumps(obj)))
        message = str(exc.value)
        assert message.startswith("line 1: ")
        return message[len("line 1: "):]

    # ind(2,1,1) = 1 matches |disc| 23, but (2,1,1) is a cycle type in S_4
    quartic = LocalRamification(23, "tame", 1, tame_cycle_type=CycleType.from_parts([2, 1, 1]))
    message = parser_message({"degree": 3, "group": "S3", "disc": -23,
                              "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1, 1]}]})
    assert message == "cycle type [2, 1, 1] on a degree-3 record"
    for make in (
        lambda: FieldList(records=(FieldRecord(3, "S3", 23, (quartic,), -1),),
                          provenance="x", x_max=99),
        lambda: FieldList.from_columns("x", 99, *columns(quartic, 23)),
    ):
        with pytest.raises(InvariantViolation) as exc:
            make()
        assert str(exc.value) == message
    # 9^ind(2,1) = 9 and 4^1 = 4 match the disc, but neither p is prime; the
    # view of either is made, and refused where it enters a list
    for obj, entry in (
        ({"p": 9, "kind": "tame", "cycle_type": [2, 1]},
         lambda: LocalRamification(9, "tame", 1, tame_cycle_type=CycleType.from_parts([2, 1]))),
        ({"p": 4, "kind": "wild", "label": "2-w", "exp": 1},
         lambda: LocalRamification(4, "wild", 1, wild_label="2-w")),
    ):
        message = parser_message({"degree": 3, "group": "S3", "disc": -obj["p"], "ram": [obj]})
        assert message == f"ramified p = {obj['p']} is not prime"
        for make in (
            lambda: FieldList(records=(FieldRecord(3, "S3", obj["p"], (entry(),), -1),),
                              provenance="x", x_max=99),
            lambda: FieldList.from_columns("x", 99, *columns(entry(), obj["p"])),
        ):
            with pytest.raises(InvariantViolation) as exc:
                make()
            assert str(exc.value) == message


def test_pipeline_builds_no_view_but_for_the_composed_pairs(monkeypatch):
    made = []
    real = FieldList._view

    def counted(self, i):
        made.append(i)
        return real(self, i)

    monkeypatch.setattr(FieldList, "_view", counted)
    cubics = parse_field_file(io.StringIO(_jsonl(enumerate_cubic(10**4))), x_max=10**4)
    cyclics = parse_field_file(io.StringIO(_jsonl(enumerate_cyclic(3, 10**4))), x_max=10**4)
    assert made == []
    x = 10**12  # both windows reach the ends of both lists
    count_pairs(cubics, cyclics, x, mode="interval", y_ladder=(10, 100))
    pairs = counting._sharing_pairs(cubics, len(cubics), cyclics, len(cyclics), 3, 3, x)
    # one view per composing K and per composed L; admissibility reads the lists' kinds
    assert len(pairs) > 100
    assert len(made) == len({i for i, _, _ in pairs}) + len({j for _, j, _ in pairs})


def test_count_pairs_forms_the_product_bound_only_to_compose(monkeypatch):
    # a kept sharing pair's bound comes from _sharing_pairs: the only product
    # bounds formed are the ones each composition starts from
    calls = {"disc_product_bound": 0, "compose_disc": 0, "disc_truncated": 0}
    for name in calls:
        def counted(*args, real=getattr(counting, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(counting, name, counted)
    cubics, cyclics = enumerate_cubic(10**4), enumerate_cyclic(3, 10**4)
    count_pairs(cubics, cyclics, 10**12, mode="interval", y_ladder=(10, 100, 1000))
    assert calls["compose_disc"] > 100 and calls["disc_truncated"] > 100
    assert calls["disc_product_bound"] == calls["compose_disc"] + calls["disc_truncated"]


def test_the_makers_build_no_entry_and_count_pairs_one_per_distinct_entry(monkeypatch):
    made = []
    real = LocalRamification.__post_init__

    def counted(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(LocalRamification, "__post_init__", counted)
    cubics, cyclics = enumerate_cubic(10**4), enumerate_cyclic(3, 10**4)
    parsed = [parse_field_file(io.StringIO(_jsonl(fl)), x_max=10**4) for fl in (cubics, cyclics)]
    assert made == []
    count_pairs(*parsed, 10**12, mode="interval", y_ladder=(10, 100))
    # the views of the composed pairs share their lists' entries, made once each
    assert 0 < len(made) <= sum(fl.entry_p.size for fl in parsed)


def test_a_row_past_its_columns_is_refused_after_the_rows_before_it():
    """A sign past int8, a |disc| past 2^63, or a p or an exp outside int64 is
    refused as its row enters the list, after the rules of the rows before
    it, as the parser refuses its line."""
    k23 = FieldRecord(3, "S3", 23, (_wild(23, 1),), -1)
    signed = replace(k23, disc_sign=2)
    past = FieldRecord(3, "S3", 2**63, (_wild(2, 63),), 1)
    with pytest.raises(InvariantViolation) as exc:
        FieldList(records=(signed, past), provenance="x", x_max=2**63)
    assert str(exc.value) == "disc sign must be 1 or -1, got 2"
    for loc, message in ((_wild(2**64 + 13, 1), "p 18446744073709551629 is outside int64"),
                         (_wild(-(2**64), 1), "p -18446744073709551616 is outside int64"),
                         (_wild(2, 2**70), "exp 1180591620717411303424 is outside int64")):
        bad = FieldRecord(3, "S3", 8, (loc,), 1)
        for first, want in ((k23, message), (signed, "disc sign must be 1 or -1, got 2")):
            with pytest.raises(InvariantViolation) as exc:
                FieldList(records=(first, bad), provenance="x", x_max=99)
            assert str(exc.value) == want
        for render in (json.dumps, partial(json.dumps, sort_keys=True)):
            with pytest.raises(MalformedLine) as exc:
                parse_field_file(io.StringIO(render(k23.to_json()) + "\n" + render(bad.to_json())))
            assert str(exc.value) == "line 2: bad ramification entry: " + message


def test_the_product_in_an_off_product_message_stops_at_2_to_the_63():
    # the message once held 23^5000, past int()'s 4,300 digits for str
    line = {"degree": 3, "disc": -23, "group": "S3",
            "ram": [{"exp": 5000, "kind": "wild", "label": "w", "p": 23}]}
    with pytest.raises(InvariantViolation) as exc:
        parse_field_file(io.StringIO(json.dumps(line)))
    assert str(exc.value) == "line 1: |disc| 23 != product of local parts >= 2^63"
    below = FieldRecord(3, "S3", 2**62, (_wild(2, 61),), 1)
    with pytest.raises(InvariantViolation) as exc:
        FieldList(records=(below,), provenance="x", x_max=2**62)
    assert str(exc.value) == f"|disc| {2**62} != product of local parts {2**61}"


def test_capped_powers_match_python_integers():
    p, e = zip(*[(p, e) for p in (1, 2, 3, 23, 2**31 - 1, 3037000493, 2**62 + 135, 2**63 - 25)
                 for e in (0, 1, 2, 3, 39, 40, 61, 62, 63, 64, 65, 127, 5000)])
    got = records._capped_powers(np.array(p, np.int64), np.array(e, np.int64)).tolist()
    assert got == [min(q**k, 2**63) if k < 64 or q < 2 else 2**63 for q, k in zip(p, e)]


def test_every_empty_list_has_no_degree_and_windows_nothing():
    """An empty list, however it is made, fixes no window on the other side.

    No K lies in the window below, so the count is zeros whatever the
    C3 list's reach; the cubic list to 10 once kept the degree its
    enumerator gave it and asked the C3 list to reach 10.
    """
    empties = [enumerate_cubic(1), enumerate_cubic(10), enumerate_cyclic(3, 5),
               parse_field_file(io.StringIO(""), x_max=10),
               FieldList(records=(), provenance="x", x_max=10),
               enumerate_cubic(10**3)._take(np.arange(0))]
    assert all(len(fl) == 0 and fl.degree is fl.group_label is None for fl in empties)
    for k_list in (enumerate_cubic(1), enumerate_cubic(10)):
        rep = count_pairs(k_list, enumerate_cyclic(3, 5), 1000)
        assert set(rep.n_lo) == set(rep.n_hi) == {0}


def _label(loc) -> str:
    if loc.kind == "tame":
        return "tame-" + ",".join(map(str, loc.tame_cycle_type.parts))
    return loc.wild_label


def test_missing_wild_entry_is_the_first_in_k_major_order():
    ks, ls = enumerate_cubic(10**4), enumerate_cyclic(3, 10**4)
    x = 10**12

    def exponents(fl):
        return {_label(loc): loc.disc_exponent for r in fl for loc in r.ramification}

    table = WildTable({
        (kl, ll): max(3 * vk, 3 * vl)
        for (kl, vk), (ll, vl) in product(exponents(ks).items(), exponents(ls).items())
        if kl not in ("3-e3-v3", "3-e3-v4", "3-e3-v5", "tame-2,1")
    })
    with pytest.raises(MissingWildEntry) as exc:
        count_pairs(ks, ls, x, wild=table, mode="exact")
    assert str(exc.value) == "no wild entry for (tame-2,1, 3-C3-cond-9) at p=3"
    # the oracle: the sharing pairs within the lcm bound, K-major
    first = None
    for k in ks:
        for l in ls:
            shared = set(k.ramified_primes) & set(l.ramified_primes)
            if shared and math.lcm(k.abs_disc**3, l.abs_disc**3) <= x:
                try:
                    compose_disc(k, l, table, "exact")
                except MissingWildEntry as err:
                    first = str(err)
                    break
        if first:
            break
    assert first == str(exc.value)


def test_abelian_uniformity_counts_match_the_record_loop():
    x = 10**8
    fl = enumerate_cyclic(3, x)
    qs = [1, 3, 7, 3 * 13, 7 * 13, 3 * 7 * 13, 19 * 31, 5, 2, 97]
    rep = abelian_uniformity_check(3, qs, x, field_list=fl)
    for q, row in zip(qs, rep.per_q):
        want = sum(1 for r in fl.upto(x)
                   if all(p in set(r.ramified_primes) for p in factor(q)))
        assert row.count == want, q
    assert rep.per_q[0].count == len(fl) == 1592
    assert rep.per_q[5].count > 0
