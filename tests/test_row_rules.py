"""Every way of making a list decides the entry and row rules as the record-by-record oracle does.

`row_rules_oracle` is a test oracle: the scalar check of one record, rule by
rule in the order of the `fields.records` docstring, with primality by trial
division and the product of the local parts taken in Python integers.  The
package decides the same rules only by columns, in one pass per list.  Each
example is one row that breaks none, one or two rules: an entry with a
composite p, a tame entry with p dividing its ramification index or with an
exponent other than ind, a wild entry with exponent 0 or an empty label; a
degree of 0 or below, or a degree past int64 (which breaks the cycle-type
rule of a tame entry only); a sign of 0, 2 or -2; |disc| 0; a prime given
twice; a cycle type (2, 1, 1) on the cubic row; a |disc| off the product by
a factor.  `FieldList(records=...)`, `FieldList.from_columns` and
`parse_field_file` must each refuse it with the oracle's message or each
accept it.  A JSONL line carries a sign only as the sign of a nonzero disc,
so the parser is asked only about rows with sign 1 or -1 and |disc| >= 1.
"""

import io
import json
from math import gcd, isqrt

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from malle_lab.errors import InvariantViolation  # noqa: E402
from malle_lab.fields.records import (  # noqa: E402
    FieldList,
    FieldRecord,
    LocalRamification,
    parse_field_file,
)
from malle_lab.permgroup import CycleType  # noqa: E402


def _entry_rules_oracle(loc: LocalRamification) -> str | None:
    p, exp = loc.p, loc.disc_exponent
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        return f"ramified p = {p} is not prime"
    if loc.kind == "tame":
        ct = loc.tame_cycle_type
        if exp != ct.degree - len(ct.parts):
            return f"tame exponent {exp} != ind{ct.parts} at p={p}"
        if gcd(p, ct.ramification_index) != 1:
            return f"p={p} divides the tame ramification index {ct.ramification_index}"
    elif not loc.wild_label:
        return "wild entry needs a label"
    elif exp < 1:
        return "wild exponent must be >= 1"
    return None


def row_rules_oracle(rec: FieldRecord) -> str | None:
    """The message of the first entry or row rule that `rec` breaks, or None (a test oracle)."""
    for loc in rec.ramification:
        message = _entry_rules_oracle(loc)
        if message is not None:
            return message
    if rec.degree < 1:
        return f"degree must be >= 1, got {rec.degree}"
    if rec.disc_sign not in (1, -1):
        return f"disc sign must be 1 or -1, got {rec.disc_sign}"
    if rec.abs_disc < 1:
        return "absolute discriminant must be positive"
    product, seen = 1, set()
    for loc in rec.ramification:
        if loc.p in seen:
            return f"duplicate prime {loc.p}"
        seen.add(loc.p)
        ct = loc.tame_cycle_type
        if loc.kind == "tame" and ct.degree != rec.degree:
            return f"cycle type {list(ct.parts)} on a degree-{rec.degree} record"
        product *= loc.p**loc.disc_exponent
    if product != rec.abs_disc:
        if product >= 2**63:
            return f"|disc| {rec.abs_disc} != product of local parts >= 2^63"
        return f"|disc| {rec.abs_disc} != product of local parts {product}"
    return None


def _tame(p: int, parts) -> LocalRamification:
    ct = CycleType.from_parts(parts)
    return LocalRamification(p, "tame", sum(parts) - len(parts), tame_cycle_type=ct)


def _entry(p: int):
    """A valid entry of a cubic row at p: wild, or tame of type (2, 1) or (3,) prime to p."""
    options = [st.integers(1, 4).map(
        lambda e: LocalRamification(p, "wild", e, wild_label=f"{p}-w{e}"))]
    options += [st.just(_tame(p, parts)) for parts in ((2, 1), (3,)) if p != parts[0]]
    return st.one_of(options)


def _bad_entry(what: str):
    """Entries that break the entry rule `what`."""
    if what == "composite p":
        return st.sampled_from((1, 4, 9, 15)).map(lambda p: _tame(p, (2, 1)))
    if what == "p divides e":  # 2 | e(2, 1) = 2 and 3 | e(3) = 3
        return st.sampled_from((_tame(2, (2, 1)), _tame(3, (3,))))
    p = st.sampled_from((29, 31))
    if what == "tame exp":  # ind(2, 1) = 1
        return p.map(lambda p: LocalRamification(
            p, "tame", 2, tame_cycle_type=CycleType.from_parts((2, 1))))
    if what == "wild exp 0":
        return p.map(lambda p: LocalRamification(p, "wild", 0, wild_label=f"{p}-w0"))
    return p.map(lambda p: LocalRamification(p, "wild", 1, wild_label=""))


ENTRY_BREAKS = ("composite p", "p divides e", "tame exp", "wild exp 0", "empty label")
BREAKS = ("degree", "sign", "disc", "duplicate", "cycle type", "product") + ENTRY_BREAKS


@st.composite
def rows(draw) -> FieldRecord:
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), unique=True, max_size=4))
    ram = [draw(_entry(p)) for p in primes]
    breaks = draw(st.lists(st.sampled_from(BREAKS), unique=True, max_size=2))
    for what in breaks:
        event(f"breaks {what}")
    degree = draw(st.sampled_from((0, -2, 2**64 + 3))) if "degree" in breaks else 3
    sign = draw(st.sampled_from((0, 2, -2) if "sign" in breaks else (1, -1)))
    for what in breaks:
        if what in ENTRY_BREAKS:
            ram.insert(draw(st.integers(0, len(ram))), draw(_bad_entry(what)))
    if "cycle type" in breaks:
        quartic = _tame(draw(st.sampled_from((17, 19))), (2, 1, 1))
        ram.insert(draw(st.integers(0, len(ram))), quartic)
    if "duplicate" in breaks:
        if not ram:
            ram.append(draw(_entry(7)))
        # the same object or another entry at its p; a copy of the (2, 1, 1)
        # entry breaks two rules at one entry
        loc = draw(st.sampled_from(ram))
        twin = draw(st.sampled_from([loc, draw(_entry(loc.p))]))
        ram.insert(draw(st.integers(0, len(ram))), twin)
    abs_disc = 1
    for loc in ram:
        abs_disc *= loc.p**loc.disc_exponent
    if "disc" in breaks:
        abs_disc = 0
    if "product" in breaks:
        abs_disc *= draw(st.sampled_from((2, 3, 23)))
    return FieldRecord(degree, "S3", abs_disc, tuple(ram), sign)


def _refusal(make, rec: FieldRecord, prefix: str = "") -> str | None:
    """The message `make()` is refused with, less `prefix`, or None once its one row is `rec`."""
    try:
        fl = make()
    except InvariantViolation as exc:
        message = str(exc)
        assert message.startswith(prefix), message
        return message[len(prefix):]
    assert list(fl) == [rec]
    return None


def _local_type(loc: LocalRamification):
    return loc.tame_cycle_type if loc.kind == "tame" else loc.wild_label


def _columns(rec: FieldRecord) -> tuple:
    entries = list(dict.fromkeys(rec.ramification))
    types = list(dict.fromkeys(map(_local_type, entries)))
    return (np.array([rec.abs_disc], np.int64), np.array([rec.disc_sign], np.int8),
            (rec.degree, rec.group_label), np.array([0, len(rec.ramification)], np.int64),
            np.array(list(map(entries.index, rec.ramification)), np.int32),
            np.array([loc.p for loc in entries], np.int64),
            np.array([loc.disc_exponent for loc in entries], np.int64),
            np.array([types.index(_local_type(loc)) for loc in entries], np.int32), tuple(types))


def _line(rec: FieldRecord) -> str:
    """The JSONL line of `rec`, with the exp of every tame entry too, which the parser checks."""
    ram = [dict(loc.to_json(), exp=loc.disc_exponent) for loc in rec.ramification]
    return json.dumps({"degree": rec.degree, "group": rec.group_label,
                       "disc": rec.disc_sign * rec.abs_disc, "ram": ram})


@settings(max_examples=400)
@given(rows())
def test_every_maker_refuses_a_row_as_the_oracle_does(rec):
    want = row_rules_oracle(rec)
    event("accepted" if want is None else "refused: " + want.split(" ")[0])
    got = {
        "constructor": _refusal(lambda: FieldList(records=(rec,), provenance="x", x_max=0), rec),
        "from_columns": _refusal(lambda: FieldList.from_columns("x", 0, *_columns(rec)), rec),
    }
    if rec.disc_sign in (1, -1) and rec.abs_disc >= 1:
        line = _line(rec)
        got["parser"] = _refusal(lambda: parse_field_file(io.StringIO(line)), rec, "line 1: ")
    assert got == dict.fromkeys(got, want)


def test_a_duplicate_prime_and_a_wrong_cycle_type_are_named_in_entry_order():
    quartic = _tame(17, (2, 1, 1))
    a, b = _tame(5, (2, 1)), _tame(5, (3,))
    for ram, want in (((quartic, a, b), "cycle type [2, 1, 1] on a degree-3 record"),
                      ((a, b, quartic), "duplicate prime 5")):
        rec = FieldRecord(3, "S3", 17 * 5**3, ram, -1)
        assert row_rules_oracle(rec) == want
        with pytest.raises(InvariantViolation) as exc:
            FieldList(records=(rec,), provenance="x", x_max=0)
        assert str(exc.value) == want


def test_cycle_types_past_int64_keep_their_entry_rules():
    """ind or the ramification index past int64 is compared exactly, not wrapped."""
    big = CycleType.from_parts((2**64, 1))  # ind 2^64 - 1
    wide = CycleType.from_parts((3 * 2**40, 2**40 + 1))  # ind below 2^63, lcm past it
    ind = wide.degree - 2
    cases = [
        (FieldRecord(big.degree, "S3", 5**5, (LocalRamification(5, "tame", 5, big),)),
         f"tame exponent 5 != ind{big.parts} at p=5"),
        (FieldRecord(wide.degree, "S3", 7, (LocalRamification(3, "tame", ind, wide),)),
         f"p=3 divides the tame ramification index {wide.ramification_index}"),
        (FieldRecord(wide.degree, "S3", 7, (LocalRamification(5, "tame", ind, wide),)),
         "|disc| 7 != product of local parts >= 2^63"),
    ]
    for rec, want in cases[:2]:  # on the last, the oracle would form 5^ind
        assert row_rules_oracle(rec) == want
    for rec, want in cases:
        assert _refusal(lambda: FieldList(records=(rec,), provenance="x", x_max=0), rec) == want
        assert _refusal(lambda: FieldList.from_columns("x", 0, *_columns(rec)), rec) == want
        line = _line(rec)
        assert _refusal(lambda: parse_field_file(io.StringIO(line)), rec, "line 1: ") == want
