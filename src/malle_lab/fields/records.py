"""Field records, lists, and JSONL ingestion.

One JSONL line per field:

    {"degree": 3, "group": "S3", "disc": -23,
     "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1]}]}

Wild entries carry {"p": 3, "kind": "wild", "label": "3-e3-v4", "exp": 4}.
The disc sign is preserved on the record; counting uses the absolute value.
Every record must satisfy |disc| = prod p^e over its ramification entries,
every p must be prime, and tame entries must have a cycle type of the
record's degree and exponent = ind(cycle_type) with p coprime to the
ramification index.  Nothing is coerced: degree, disc, p, exp and every
cycle-type part must be JSON integers, and group, kind and label JSON strings.

Records share their entries.  `parse_field_file` builds and validates each
distinct entry (p, kind, cycle type or label, exp, record degree) once per
call, after the JSON type checks of every occurrence, and the enumerators
build each distinct entry once per call too; every record is still checked
on its own.  `FieldList.write_jsonl` writes each record as
json.dumps(record.to_json(), sort_keys=True) + "\n", serialising each
distinct entry once per call.
"""

from __future__ import annotations

import bisect
import json
import warnings
from dataclasses import dataclass
from math import gcd
from operator import attrgetter

from ..arith import is_prime
from ..errors import InvariantViolation, MalformedLine
from ..permgroup import CycleType, index_of
from ..util import json_typed, json_typed_items

__all__ = ["LocalRamification", "FieldRecord", "FieldList", "json_typed", "parse_field_file"]


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


@dataclass(frozen=True)
class FieldRecord:
    degree: int
    group_label: str
    abs_disc: int
    ramification: tuple[LocalRamification, ...]
    disc_sign: int = 1

    def __post_init__(self):
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

    def _jsonl_line(self, entry_text) -> str:
        """json.dumps(self.to_json(), sort_keys=True) + "\n".

        `entry_text(loc)` is json.dumps(loc.to_json(), sort_keys=True); the
        frame around the entries is json.dumps' own: keys in sorted order,
        ", " and ": " as separators.
        """
        ram = ", ".join(map(entry_text, sorted(self.ramification, key=_by_p)))
        return '{"degree": %d, "disc": %d, "group": %s, "ram": [%s]}\n' % (
            self.degree, self.disc_sign * self.abs_disc, json.dumps(self.group_label), ram
        )


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

        Each distinct entry object is serialised once per call.  The texts are
        keyed by id(): the records hold every entry for the whole call.
        """
        texts: dict[int, str] = {}

        def entry_text(loc: LocalRamification) -> str:
            text = texts.get(id(loc))
            if text is None:
                text = texts[id(loc)] = json.dumps(loc.to_json(), sort_keys=True)
            return text

        for r in self.records:
            stream.write(r._jsonl_line(entry_text))


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


def _record_from_obj(obj: dict, lineno: int, entries: dict, cycle_types: dict) -> FieldRecord:
    """One validated record.

    `entries` maps the key (p, kind, parts or label, exp or None, degree) of
    each entry met so far in the file to its validated entry.
    """
    try:
        degree = json_typed(obj["degree"], int, "degree")
        group = json_typed(obj["group"], str, "group")
        disc = json_typed(obj["disc"], int, "disc")
        ram_objs = obj.get("ram", [])
    except (KeyError, TypeError) as exc:
        raise MalformedLine(lineno, f"bad record fields: {exc}")
    if disc == 0:
        raise MalformedLine(lineno, "disc must be nonzero")
    ram = []
    try:
        for r in ram_objs:
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
            ram.append(loc)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedLine(lineno, f"bad ramification entry: {exc}")
    return FieldRecord(
        degree=degree,
        group_label=group,
        abs_disc=abs(disc),
        ramification=tuple(ram),
        disc_sign=1 if disc > 0 else -1,
    )


def parse_field_file(stream, x_max: int | None = None) -> FieldList:
    """Parse a JSONL stream into a validated, sorted FieldList.

    Unsorted input is auto-sorted with a warning; malformed lines and
    invariant violations raise with the 1-based line number.  An x_max below
    the largest |disc| in the file raises InvariantViolation.
    """
    records = []
    entries: dict[tuple, LocalRamification] = {}
    cycle_types: dict[tuple[int, ...], CycleType] = {}
    # json.loads less its whitespace scans, which a stripped line does not need
    decode = json.JSONDecoder().raw_decode
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = decode(line)
            if end < len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except json.JSONDecodeError as exc:
            raise MalformedLine(lineno, f"invalid JSON: {exc}")
        try:
            records.append(_record_from_obj(obj, lineno, entries, cycle_types))
        except InvariantViolation as exc:
            raise InvariantViolation(f"line {lineno}: {exc}")
    discs = [r.abs_disc for r in records]
    if discs != sorted(discs):
        warnings.warn("unsorted field file; auto-sorting by |disc|", stacklevel=2)
        records.sort(key=lambda r: r.abs_disc)
    if x_max is None:
        x_max = records[-1].abs_disc if records else 0
    elif records and x_max < records[-1].abs_disc:
        raise InvariantViolation(
            f"x_max {x_max} is below the largest |disc| {records[-1].abs_disc} in the file"
        )
    return FieldList(records=tuple(records), provenance="ingested", x_max=x_max)
