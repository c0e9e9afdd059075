"""Field records, lists, and JSONL ingestion.

One JSONL line per field:

    {"degree": 3, "group": "S3", "disc": -23,
     "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1]}]}

Wild entries carry {"p": 3, "kind": "wild", "label": "3-e3-v4", "exp": 4}.
The disc sign (1 or -1) is preserved on the record; counting uses the
absolute value.  Every record must have degree >= 1 and satisfy
|disc| = prod p^e over its ramification entries, every p must be prime, and
tame entries must have a cycle type of the record's degree and exponent =
ind(cycle_type) with p coprime to the ramification index.  Nothing is
coerced: degree, disc, p, exp and every cycle-type part must be JSON
integers, and group, kind and label JSON strings.

`FieldList.write_jsonl` writes each record as
json.dumps(record.to_json(), sort_keys=True) + "\n", serialising each
distinct entry and group label once per call.  Every such line has the
frame `_FRAME`,

    {"degree": INT, "disc": INT, "group": "STR", "ram": [ENTRY, ..., ENTRY]}

with INT a JSON integer -?(0|[1-9][0-9]*), which JSON decodes as int() does,
and STR a string with no quote, backslash or control character, which JSON
decodes to its own text.

Records share their entries: `parse_field_file` builds and validates each
distinct entry (p, kind, cycle type or label, exp, record degree) once per
call, and the enumerators build each distinct entry once per call too; every
record is still checked on its own.  A stripped line that matches the frame
(`_LINE_FRAME`) is split into entry texts at "}, {", and each distinct text
is decoded and type-checked once per record degree, at its first sight.
That is exact.  When every piece decodes as a JSON object, the bracketed
text is the JSON array of those objects, as JSON's grammar gives each text
one parse; so the whole line decodes to what the pieces give, and equal
texts give equal objects that pass the same checks.  A line outside the
frame, or with a piece that is not one JSON object, is decoded whole, and
that path decides its record or its error.  Both paths run the same
typed-key checks (`_entry`) and share the entry of each key.
"""

from __future__ import annotations

import bisect
import json
import re
import warnings
from dataclasses import dataclass
from math import gcd
from operator import attrgetter

from ..arith import is_prime
from ..errors import InvariantViolation, MalformedLine
from ..permgroup import CycleType, index_of
from ..util import json_typed, json_typed_items

__all__ = ["LocalRamification", "FieldRecord", "FieldList", "parse_field_file"]


@dataclass(frozen=True)
class LocalRamification:
    p: int
    kind: str  # "tame" | "wild"
    disc_exponent: int
    tame_cycle_type: CycleType | None = None
    wild_label: str | None = None

    def __post_init__(self):
        if self.kind not in ("tame", "wild"):
            raise InvariantViolation(f"kind must be tame or wild, got {self.kind!r}")
        if self.p < 2:
            raise InvariantViolation("p must be a prime >= 2")
        if self.kind == "tame":
            ct = self.tame_cycle_type
            if ct is None:
                raise InvariantViolation("tame entry needs a cycle type")
            if self.disc_exponent != index_of(ct):
                raise InvariantViolation(
                    f"tame exponent {self.disc_exponent} != ind{ct.parts} at p={self.p}"
                )
            if gcd(self.p, ct.ramification_index) != 1:
                raise InvariantViolation(
                    f"p={self.p} divides the tame ramification index {ct.ramification_index}"
                )
        else:
            if not self.wild_label:
                raise InvariantViolation("wild entry needs a label")
            if self.disc_exponent < 1:
                raise InvariantViolation("wild exponent must be >= 1")

    def to_json(self) -> dict:
        if self.kind == "tame":
            return {"p": self.p, "kind": "tame", "cycle_type": list(self.tame_cycle_type.parts)}
        return {"p": self.p, "kind": "wild", "label": self.wild_label, "exp": self.disc_exponent}


_by_p = attrgetter("p")

# json.dumps(record.to_json(), sort_keys=True): the keys in sorted order, with
# ", " and ": " as separators, around the degree, disc, group and entry texts
_FRAME = '{"degree": %s, "disc": %s, "group": %s, "ram": [%s]}'
_LINE = _FRAME % ("%d", "%d", "%s", "%s") + "\n"
_INT = r"(-?(?:0|[1-9][0-9]*))"
_LINE_FRAME = re.compile(
    re.escape(_FRAME) % (_INT, _INT, r'"([^"\\\x00-\x1f]*)"', r"((?:\{.*\})?)")
)
# json.dumps(obj, sort_keys=True) less its encoder construction per call
_encode = json.JSONEncoder(sort_keys=True).encode
# json.loads less its whitespace scans, which a stripped line does not need
_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class FieldRecord:
    degree: int
    group_label: str
    abs_disc: int
    ramification: tuple[LocalRamification, ...]
    disc_sign: int = 1

    def __post_init__(self):
        if self.degree < 1:
            raise InvariantViolation(f"degree must be >= 1, got {self.degree}")
        if self.disc_sign not in (1, -1):
            raise InvariantViolation(f"disc sign must be 1 or -1, got {self.disc_sign}")
        if self.abs_disc < 1:
            raise InvariantViolation("absolute discriminant must be positive")
        prod = 1
        seen = set()
        for loc in self.ramification:
            if loc.p in seen:
                raise InvariantViolation(f"duplicate prime {loc.p}")
            seen.add(loc.p)
            prod *= loc.p**loc.disc_exponent
        if prod != self.abs_disc:
            raise InvariantViolation(
                f"|disc| {self.abs_disc} != product of local parts {prod}"
            )

    def local_at(self, p: int) -> LocalRamification | None:
        for loc in self.ramification:
            if loc.p == p:
                return loc
        return None

    @property
    def ramified_primes(self) -> tuple[int, ...]:
        return tuple(sorted(loc.p for loc in self.ramification))

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "group": self.group_label,
            "disc": self.disc_sign * self.abs_disc,
            "ram": [loc.to_json() for loc in sorted(self.ramification, key=_by_p)],
        }


@dataclass(frozen=True)
class FieldList:
    """Records sorted by |disc|, complete up to x_max under the provenance contract."""

    records: tuple[FieldRecord, ...]
    provenance: str  # "enumerated" | "ingested"
    x_max: int

    def __post_init__(self):
        discs = [r.abs_disc for r in self.records]
        if discs != sorted(discs):
            raise InvariantViolation("records must be sorted by |disc|")
        object.__setattr__(self, "_discs", discs)  # bisected by upto / count_upto

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def upto(self, x: int) -> list[FieldRecord]:
        return list(self.records[: self.count_upto(x)])

    def count_upto(self, x: int) -> int:
        return bisect.bisect_right(self._discs, x)

    def write_jsonl(self, stream):
        """One line per record, json.dumps(record.to_json(), sort_keys=True) + "\n".

        Each distinct entry object and group label is serialised once per
        call.  Entry texts are keyed by id(): the records hold every entry for
        the whole call.
        """
        texts: dict[int, str] = {}
        groups: dict[str, str] = {}

        def entry_text(loc: LocalRamification) -> str:
            text = texts.get(id(loc))
            if text is None:
                text = texts[id(loc)] = _encode(loc.to_json())
            return text

        for r in self.records:
            ram = r.ramification
            if len(ram) > 1:
                ram = sorted(ram, key=_by_p)
            group = groups.get(r.group_label)
            if group is None:
                group = groups[r.group_label] = _encode(r.group_label)
            stream.write(_LINE % (
                r.degree, r.disc_sign * r.abs_disc, group, ", ".join(map(entry_text, ram))
            ))


def _new_entry(key: tuple, lineno: int, cycle_types: dict) -> LocalRamification:
    """The validated entry of a key first met on line `lineno`.

    `cycle_types` holds one shared CycleType per parts tuple.
    """
    p, kind, data, exp, degree = key
    if not is_prime(p):
        raise MalformedLine(lineno, f"ramified p = {p} is not prime")
    if kind == "wild":
        return LocalRamification(p=p, kind="wild", disc_exponent=exp, wild_label=data)
    ct = cycle_types.get(data)
    if ct is None:
        ct = cycle_types[data] = CycleType.from_parts(data)
    if ct.degree != degree:
        raise MalformedLine(lineno, f"cycle type {list(ct.parts)} on a degree-{degree} record")
    return LocalRamification(
        p=p, kind="tame", disc_exponent=index_of(ct) if exp is None else exp, tame_cycle_type=ct
    )


def _entry(r, degree: int, lineno: int, entries: dict, cycle_types: dict) -> LocalRamification:
    """The shared, validated entry of the decoded ramification entry `r`.

    `entries` maps the key (p, kind, parts or label, exp or None, degree) of
    each entry met so far in the file to its validated entry.
    """
    try:
        # the key is formed after the exact type checks, as True == 1 and
        # 3.0 == 3 hash alike: a mistyped entry must not find a valid one
        p = json_typed(r["p"], int, "p")
        kind = json_typed(r["kind"], str, "kind")
        if kind == "tame":
            parts = json_typed_items(r["cycle_type"], int, "cycle type part")
            exp = json_typed(r["exp"], int, "exp") if "exp" in r else None
            key = p, kind, parts, exp, degree
        elif kind == "wild":
            exp = json_typed(r["exp"], int, "exp")
            key = p, kind, json_typed(r["label"], str, "label"), exp, degree
        else:
            raise MalformedLine(lineno, f"unknown ramification kind {kind!r}")
        loc = entries.get(key)
        if loc is None:
            loc = entries[key] = _new_entry(key, lineno, cycle_types)
        return loc
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedLine(lineno, f"bad ramification entry: {exc}")


def _decoded(line: str, lineno: int):
    """json.loads(line), with its error, or an integer past int()'s digit limit, as MalformedLine."""
    try:
        obj, end = _decode(line)
        if end < len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    except ValueError as exc:  # JSONDecodeError is one
        raise MalformedLine(lineno, f"invalid JSON: {exc}")
    return obj


def _record_from_obj(obj, lineno: int, entries: dict, cycle_types: dict) -> FieldRecord:
    """The validated record of a line decoded whole."""
    try:
        degree = json_typed(obj["degree"], int, "degree")
        group = json_typed(obj["group"], str, "group")
        disc = json_typed(obj["disc"], int, "disc")
        ram_objs = obj.get("ram", [])
    except (KeyError, TypeError) as exc:
        raise MalformedLine(lineno, f"bad record fields: {exc}")
    if disc == 0:
        raise MalformedLine(lineno, "disc must be nonzero")
    try:
        ram = [_entry(r, degree, lineno, entries, cycle_types) for r in ram_objs]
    except TypeError as exc:  # "ram" is not iterable
        raise MalformedLine(lineno, f"bad ramification entry: {exc}")
    return FieldRecord(
        degree=degree,
        group_label=group,
        abs_disc=abs(disc),
        ramification=tuple(ram),
        disc_sign=1 if disc > 0 else -1,
    )


def _frame_record(
    match: re.Match, lineno: int, texts: dict, entries: dict, cycle_types: dict
) -> FieldRecord | None:
    """The validated record of a line in `_LINE_FRAME`, or None to decode it whole.

    `texts` maps each degree to the entry of each entry text met so far at
    that degree.  None means a piece between "}, {" is not one JSON object.
    """
    degree, disc, group, ram_text = match.groups()
    try:
        degree, disc = int(degree), int(disc)
    except ValueError as exc:  # past int()'s digit limit
        raise MalformedLine(lineno, f"bad record fields: {exc}")
    known = texts.get(degree)
    if known is None:
        known = texts[degree] = {}
    pieces = ram_text[1:-1].split("}, {") if ram_text else ()
    fresh = {}
    for piece in pieces:
        if piece not in known and piece not in fresh:
            text = "{" + piece + "}"
            try:
                obj, end = _decode(text)
            except ValueError:  # JSONDecodeError, or past int()'s digit limit
                return None
            if end < len(text):
                return None
            fresh[piece] = obj
    if disc == 0:
        raise MalformedLine(lineno, "disc must be nonzero")
    for piece, obj in fresh.items():
        known[piece] = _entry(obj, degree, lineno, entries, cycle_types)
    ram = tuple(map(known.__getitem__, pieces))
    return FieldRecord(degree, group, abs(disc), ram, 1 if disc > 0 else -1)


def parse_field_file(stream, x_max: int | None = None) -> FieldList:
    """Parse a JSONL stream into a validated, sorted FieldList.

    Unsorted input is auto-sorted with a warning; malformed lines and
    invariant violations raise with the 1-based line number.  An x_max below
    the largest |disc| in the file raises InvariantViolation.
    """
    records = []
    unsorted = False
    entries: dict[tuple, LocalRamification] = {}
    cycle_types: dict[tuple[int, ...], CycleType] = {}
    texts: dict[int, dict[str, LocalRamification]] = {}
    frame = _LINE_FRAME.fullmatch
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            match = frame(line)
            rec = _frame_record(match, lineno, texts, entries, cycle_types) if match else None
            if rec is None:
                rec = _record_from_obj(_decoded(line, lineno), lineno, entries, cycle_types)
        except InvariantViolation as exc:
            raise InvariantViolation(f"line {lineno}: {exc}")
        if records and rec.abs_disc < records[-1].abs_disc:
            unsorted = True
        records.append(rec)
    if unsorted:
        warnings.warn("unsorted field file; auto-sorting by |disc|", stacklevel=2)
        records.sort(key=lambda r: r.abs_disc)
    if x_max is None:
        x_max = records[-1].abs_disc if records else 0
    elif records and x_max < records[-1].abs_disc:
        raise InvariantViolation(
            f"x_max {x_max} is below the largest |disc| {records[-1].abs_disc} in the file"
        )
    return FieldList(records=tuple(records), provenance="ingested", x_max=x_max)
