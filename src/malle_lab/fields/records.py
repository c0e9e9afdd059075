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
"""

from __future__ import annotations

import bisect
import json
import warnings
from dataclasses import dataclass
from math import gcd

from ..arith import is_prime
from ..errors import InvariantViolation, MalformedLine
from ..permgroup import CycleType, index_of

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
        ram = []
        for loc in sorted(self.ramification, key=lambda l: l.p):
            if loc.kind == "tame":
                ram.append(
                    {"p": loc.p, "kind": "tame", "cycle_type": list(loc.tame_cycle_type.parts)}
                )
            else:
                ram.append(
                    {"p": loc.p, "kind": "wild", "label": loc.wild_label, "exp": loc.disc_exponent}
                )
        return {
            "degree": self.degree,
            "group": self.group_label,
            "disc": self.disc_sign * self.abs_disc,
            "ram": ram,
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
        for r in self.records:
            stream.write(json.dumps(r.to_json(), sort_keys=True) + "\n")


def json_typed(value, kind: type, what: str):
    """`value` if its type is exactly `kind`, else TypeError.

    Outside values are never coerced: int admits neither 1.0 nor True (both
    compare equal to 1), and str admits no number.
    """
    if type(value) is not kind:
        name = "integer" if kind is int else "string"
        raise TypeError(f"{what} must be a JSON {name}, got {value!r}")
    return value


def _record_from_obj(obj: dict, lineno: int, cycle_types: dict, primes: set) -> FieldRecord:
    """One validated record.

    `cycle_types` holds one shared CycleType per parts tuple and `primes` the
    ramified p already found prime, so each is checked once per file.
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
            p = json_typed(r["p"], int, "p")
            kind = json_typed(r["kind"], str, "kind")
            if p not in primes:
                if not is_prime(p):
                    raise MalformedLine(lineno, f"ramified p = {p} is not prime")
                primes.add(p)
            if kind == "tame":
                parts = tuple(json_typed(k, int, "cycle type part") for k in r["cycle_type"])
                ct = cycle_types.get(parts)
                if ct is None:
                    ct = cycle_types[parts] = CycleType.from_parts(parts)
                if ct.degree != degree:
                    raise MalformedLine(
                        lineno, f"cycle type {list(ct.parts)} on a degree-{degree} record"
                    )
                exp = json_typed(r.get("exp", index_of(ct)), int, "exp")
                ram.append(
                    LocalRamification(p=p, kind="tame", disc_exponent=exp, tame_cycle_type=ct)
                )
            elif kind == "wild":
                exp = json_typed(r["exp"], int, "exp")
                label = json_typed(r["label"], str, "label")
                ram.append(LocalRamification(p=p, kind="wild", disc_exponent=exp, wild_label=label))
            else:
                raise MalformedLine(lineno, f"unknown ramification kind {kind!r}")
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
    cycle_types: dict[tuple[int, ...], CycleType] = {}
    primes: set[int] = set()
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(lineno, f"invalid JSON: {exc}")
        try:
            records.append(_record_from_obj(obj, lineno, cycle_types, primes))
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
