"""Field records, lists, and JSONL ingestion.

One JSONL line per field:

    {"degree": 3, "group": "S3", "disc": -23,
     "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1]}]}

Wild entries carry {"p": 3, "kind": "wild", "label": "3-e3-v4", "exp": 4}.
The disc sign (1 or -1) is preserved on the record; counting uses the
absolute value.  Nothing is coerced: degree, disc, p, exp and every
cycle-type part must be JSON integers, and group, kind and label JSON
strings.

Two rule sets check every list, however it is made.  The entry rules run
in `LocalRamification.__post_init__`, once per entry object: p is prime,
and a tame entry has exponent ind(cycle_type) with p coprime to the
ramification index.  The row rules run in one column pass over the list
when it is made (`FieldList._bad_row`), in this order: degree >= 1, disc
sign 1 or -1, |disc| >= 1; then, entry by entry, no prime given twice and a
tame cycle type of the list's degree; then |disc| = prod p^e over the row's
entries.  The first failing row is refused with the message of its first
failing rule, as an InvariantViolation; in a parsed file, with its line
number.  A FieldRecord is a plain row, checked when it enters a list.

Columns.  A FieldList holds one kind of field, its `degree` and
`group_label`, kept once (None for a list with no rows).  A record of
another kind is refused where the list is made, as an InvariantViolation
naming both kinds: by the constructor, and by the parser with its line
number, after the line's typed-field checks and before its disc and entry
checks (`from_columns` takes the one kind).  The records are columns, row i
for the i-th record in order of |disc|:

- `abs_discs`, int64, and `disc_signs`, int8 (1 or -1);
- `offsets`, int64 with one more entry than there are rows, and
  `entry_ids`, int32 indices into `entries`, the list's tuple of distinct
  LocalRamification objects: row i has the entries
  entries[entry_ids[k]] for offsets[i] <= k < offsets[i + 1], in the order
  its record gave them.

Every |disc| must be below 2^63 (`DISC_LIMIT`), so that int64 holds it, as
`cubic.X_LIMIT` bounds what the int64 search can reach: a parsed line past it
is a MalformedLine with its line number, a hand-built record or an
enumerated disc an InvariantViolation (`disc_column`).  For S_3 x C_3 such
a field enters a count window only at X >= 2^189.  numpy is imported inside
the functions, so importing this module does not load it.

Views.  A FieldList is the sequence of its records: `fl[i]`, slices (tuples
of views), iteration and `upto` build FieldRecord objects from the columns
on demand, one row at a time (`_view`).  A view shares its entry objects
with every other view of the list; two views of one row are equal, not the
same object.  `records` is the list itself.

The enumerators hand their columns to `FieldList.from_columns`;
`parse_field_file` and `FieldList(records, provenance, x_max)` build theirs
with `_Ingest`, the constructor with one entry slot per distinct entry
object.  Each list is checked once, by columns.  p^e is computed once per
distinct entry; each |disc| is divided by its entries' p^e in turn, and
every remainder must be 0 and the last quotient 1, so no value exceeds
|disc| and int64 is exact; a stable sort of the entry slots on (row, p)
finds a prime given twice, at its later slot.  Only the first failing row's
message is made in Python.

`FieldList.write_jsonl` writes each record as
json.dumps(record.to_json(), sort_keys=True) + "\n", serialising each
distinct entry and the group label once per call.  Every such line has the
frame `_FRAME`,

    {"degree": INT, "disc": INT, "group": "STR", "ram": [ENTRY, ..., ENTRY]}

with INT a JSON integer -?(0|[1-9][0-9]*), which JSON decodes as int() does,
and STR a string with no quote, backslash or control character, which JSON
decodes to its own text.

Parsed records share their entries: `parse_field_file` builds and checks
each distinct entry (p, kind, cycle type or label, exp) once per call and
appends every line to the columns.  A stripped line that matches the frame
(`_LINE_FRAME`) is split into entry texts at "}, {", and each distinct text
is decoded and type-checked once per call, at its first sight; the entry
rules do not depend on the record, so one text has one entry.  That is
exact.  When every piece decodes as a JSON object, the bracketed text is
the JSON array of those objects, as JSON's grammar gives each text one
parse; so the whole line decodes to what the pieces give, and equal texts
give equal objects that pass the same checks.  A line outside the frame, or
with a piece that is not one JSON object, is decoded whole, and that path
decides its record or its error.  Both paths run the same typed-key checks
(`_Ingest.entry`) and share the entry of each key.  A line's own errors are
raised as it is read, but a row check of an earlier line comes first, as
the columns of the lines before are checked before any error leaves the
parser.
"""

from __future__ import annotations

import json
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd, prod
from operator import attrgetter

from ..arith import is_prime
from ..errors import InvariantViolation, MalformedLine
from ..permgroup import CycleType, index_of
from ..util import json_typed, json_typed_items

__all__ = ["LocalRamification", "FieldRecord", "FieldList", "parse_field_file"]

# every |disc| is below this, so that the int64 column holds it
DISC_LIMIT = 2**63


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
        if not is_prime(self.p):
            raise InvariantViolation(f"ramified p = {self.p} is not prime")
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
# rows per block when lines are made from the columns
_BLOCK = 1 << 14


@dataclass(frozen=True)
class FieldRecord:
    """A row of a list; checked when it enters one (see the module docstring)."""

    degree: int
    group_label: str
    abs_disc: int
    ramification: tuple[LocalRamification, ...]
    disc_sign: int = 1

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


_SIGN_RULE = "disc sign must be 1 or -1, got {}"


def disc_column(abs_discs):
    """The int64 column of these |disc|s; InvariantViolation for one not below 2^63.

    One below -2^63 is held as 0, which the row rules refuse as they would it.
    """
    import numpy as np

    top = max(abs_discs, default=0)
    if top >= DISC_LIMIT:
        raise InvariantViolation(f"|disc| {top} is not below 2^63")
    if min(abs_discs, default=0) < -DISC_LIMIT:
        abs_discs = [max(disc, 0) for disc in abs_discs]
    return np.array(abs_discs, np.int64)


class FieldList(Sequence):
    """Records sorted by |disc|, complete up to x_max under the provenance contract.

    The records are columns (see the module docstring), read-only once the
    list is made.  The list is the sequence of its FieldRecord views:
    `fl[i]`, slices (tuples), iteration and `upto` give views.
    """

    __slots__ = ("provenance", "x_max", "degree", "group_label", "abs_discs", "disc_signs",
                 "offsets", "entries", "entry_ids")

    def __init__(self, records, provenance: str, x_max: int):
        """The list of these FieldRecords, which must be of one kind and sorted by |disc|."""
        ingest = _Ingest()
        try:
            for rec in records:
                ingest.same_kind(rec.degree, rec.group_label)
                ingest.append(None, rec.abs_disc, rec.disc_sign,
                              list(map(ingest.slot_of, rec.ramification)))
        except InvariantViolation:  # a row check of an earlier record comes first
            ingest.field_list(x_max)._refuse_bad_row()
            raise
        self._fill(provenance, x_max, *ingest.columns())
        self._check()

    @classmethod
    def from_columns(cls, provenance, x_max, abs_discs, disc_signs, kind, offsets, entries,
                     entry_ids) -> FieldList:
        """The list of these columns (see the module docstring), checked and sorted by |disc|.

        `kind` is the (degree, group label) of every row.
        """
        fl = cls._of_columns(provenance, x_max, abs_discs, disc_signs, kind, offsets, entries,
                             entry_ids)
        fl._check()
        return fl

    @classmethod
    def _of_columns(cls, provenance, x_max, abs_discs, disc_signs, kind, offsets, entries,
                    entry_ids) -> FieldList:
        """The list of these columns, unchecked."""
        fl = object.__new__(cls)
        fl._fill(provenance, x_max, abs_discs, disc_signs, kind, offsets, entries, entry_ids)
        return fl

    def _fill(self, provenance, x_max, abs_discs, disc_signs, kind, offsets, entries, entry_ids):
        for col in (abs_discs, disc_signs, offsets, entry_ids):
            col.flags.writeable = False
        self.provenance, self.x_max = provenance, x_max
        self.degree, self.group_label = kind if abs_discs.size else (None, None)
        self.abs_discs, self.disc_signs = abs_discs, disc_signs
        self.offsets, self.entries, self.entry_ids = offsets, entries, entry_ids

    def __repr__(self):
        return (f"FieldList(<{len(self)} records>, provenance={self.provenance!r}, "
                f"x_max={self.x_max!r})")

    def __len__(self):
        return self.abs_discs.size

    def __iter__(self):
        return map(self._view, range(len(self)))

    def __getitem__(self, i):
        """The view of row i, or a tuple of the views of a slice of rows."""
        n = len(self)
        if isinstance(i, slice):
            return tuple(map(self._view, range(*i.indices(n))))
        k = i + n if i < 0 else i
        if not 0 <= k < n:
            raise IndexError("record index out of range")
        return self._view(k)

    @property
    def records(self) -> FieldList:
        """The list itself, the read-only sequence of its views."""
        return self

    def upto(self, x: int) -> list[FieldRecord]:
        return list(map(self._view, range(self.count_upto(x))))

    def count_upto(self, x: int) -> int:
        """The number of records with |disc| <= x."""
        if x < 1:
            return 0
        return int(self.abs_discs.searchsorted(min(x, DISC_LIMIT - 1), side="right"))

    def slot_rows(self, stop: int | None = None):
        """The row of each entry slot of the first `stop` rows (all by default)."""
        import numpy as np

        counts = np.diff(self.offsets[: None if stop is None else stop + 1])
        return np.repeat(np.arange(counts.size), counts)

    def _view(self, i: int) -> FieldRecord:
        """The view of row i, 0 <= i < len(self)."""
        ids = self.entry_ids[self.offsets.item(i): self.offsets.item(i + 1)].tolist()
        ram = tuple(map(self.entries.__getitem__, ids))
        return FieldRecord(self.degree, self.group_label, self.abs_discs.item(i), ram,
                           self.disc_signs.item(i))

    def _take(self, rows) -> FieldList:
        """The list of these rows, in this order."""
        import numpy as np

        counts = np.diff(self.offsets)[rows]
        offsets = _offsets(counts)
        slots = np.arange(offsets[-1]) + np.repeat(self.offsets[:-1][rows] - offsets[:-1], counts)
        return FieldList._of_columns(
            self.provenance, self.x_max, self.abs_discs[rows], self.disc_signs[rows],
            (self.degree, self.group_label), offsets, self.entries, self.entry_ids[slots],
        )

    def _bad_row(self) -> tuple[int, str] | None:
        """The first row that breaks a row rule, and the message of its first broken rule.

        The rules are the module docstring's, in its order; None when every
        row keeps them (|disc| < 2^63).
        """
        import numpy as np

        if not len(self):
            return None
        degree = self.degree
        if degree < 1:  # the list's one degree, so its first row breaks it
            return 0, f"degree must be >= 1, got {degree}"
        ids, offsets, signs = self.entry_ids, self.offsets, self.disc_signs
        slot_row = self.slot_rows()
        bad_sign = (signs != 1) & (signs != -1)
        # per slot: a prime met before in its row, a tame cycle type of another degree
        p_ids: dict[int, int] = {}
        p = np.array([p_ids.setdefault(loc.p, len(p_ids)) for loc in self.entries], np.int64)
        keys = slot_row * max(len(p_ids), 1) + p[ids]
        order = keys.argsort(kind="stable")  # by (row, p), then slot
        repeat = np.zeros(ids.size, bool)
        repeat[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
        wrong_type = np.array([loc.kind == "tame" and loc.tame_cycle_type.degree != degree
                               for loc in self.entries], bool)[ids]
        # p^e once per entry; one past int64 divides no |disc| < 2^63
        powers = [loc.p**loc.disc_exponent if loc.disc_exponent < 64 else DISC_LIMIT
                  for loc in self.entries]
        off_product = np.zeros(len(self), bool)
        off_product[slot_row[np.array([q >= DISC_LIMIT for q in powers], bool)[ids]]] = True
        powers = np.array([q if q < DISC_LIMIT else 1 for q in powers], np.int64)[ids]
        # the k-th entry of every row divides its quotient in round k
        counts = np.diff(offsets)
        quotient = self.abs_discs.copy()
        for k in range(int(counts.max(initial=0))):
            rows = np.flatnonzero(counts > k)
            q = powers[offsets[rows] + k]
            off_product[rows] |= quotient[rows] % q != 0
            quotient[rows] //= q
        off_product |= quotient != 1
        bad = bad_sign | (self.abs_discs < 1) | off_product
        bad[slot_row[repeat | wrong_type]] = True
        failing = np.flatnonzero(bad)
        if not failing.size:
            return None
        i = int(failing[0])
        rec = self._view(i)
        if bad_sign[i]:
            return i, _SIGN_RULE.format(rec.disc_sign)
        if rec.abs_disc < 1:
            return i, "absolute discriminant must be positive"
        lo, hi = offsets.item(i), offsets.item(i + 1)
        for loc, dup, wrong in zip(rec.ramification, repeat[lo:hi], wrong_type[lo:hi]):
            if dup:
                return i, f"duplicate prime {loc.p}"
            if wrong:
                parts = list(loc.tame_cycle_type.parts)
                return i, f"cycle type {parts} on a degree-{degree} record"
        local = prod(loc.p**loc.disc_exponent for loc in rec.ramification)
        return i, f"|disc| {rec.abs_disc} != product of local parts {local}"

    def _refuse_bad_row(self, lines=None):
        """Raise the refusal of the first failing row, with its line if `lines` is given."""
        bad = self._bad_row()
        if bad is not None:
            i, message = bad
            raise InvariantViolation(message if lines is None else f"line {lines[i]}: {message}")

    def _check(self):
        """Refuse a row that breaks a row rule, then rows out of order of |disc|."""
        self._refuse_bad_row()
        if (self.abs_discs[1:] < self.abs_discs[:-1]).any():
            raise InvariantViolation("records must be sorted by |disc|")

    def write_jsonl(self, stream):
        """One line per record, json.dumps(record.to_json(), sort_keys=True) + "\n".

        Each distinct entry and the group label are serialised once per call, and
        the lines are made from the columns, with each row's entries in
        ascending p.
        """
        import numpy as np

        texts = [_encode(loc.to_json()) for loc in self.entries]
        degree, group = self.degree, _encode(self.group_label)
        rank = {p: i for i, p in enumerate(sorted({loc.p for loc in self.entries}))}
        p = np.array([rank[loc.p] for loc in self.entries], np.int64)[self.entry_ids]
        ids = self.entry_ids[np.lexsort((p, self.slot_rows()))]
        discs = self.abs_discs * self.disc_signs
        for lo in range(0, len(self), _BLOCK):
            hi = min(lo + _BLOCK, len(self))
            offs = self.offsets[lo: hi + 1].tolist()
            ram = list(map(texts.__getitem__, ids[offs[0]: offs[-1]].tolist()))
            base = offs[0]
            stream.write("".join([
                _LINE % (degree, d, group, ", ".join(ram[a - base: b - base]))
                for d, a, b in zip(discs[lo:hi].tolist(), offs, offs[1:])
            ]))


def _offsets(counts):
    """Row offsets of these entry counts: 0, then their running sums."""
    import numpy as np

    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _new_entry(key: tuple, cycle_types: dict) -> LocalRamification:
    """The entry of a key (p, kind, parts or label, exp or None), checked as it is built.

    `cycle_types` holds one shared CycleType per parts tuple.
    """
    p, kind, data, exp = key
    if kind == "wild":
        return LocalRamification(p=p, kind="wild", disc_exponent=exp, wild_label=data)
    ct = cycle_types.get(data)
    if ct is None:
        ct = cycle_types[data] = CycleType.from_parts(data)
    return LocalRamification(
        p=p, kind="tame", disc_exponent=index_of(ct) if exp is None else exp, tame_cycle_type=ct
    )


class _Ingest:
    """The columns of the rows met so far, and the entries met so far.

    `slots` maps the key (p, kind, parts or label, exp or None) of each
    parsed entry to its slot in `entries`, and `ids` the id of each entry
    object given whole to its slot.  `kind` is the (degree, group) of the
    first row, None before it.  On frame lines, `texts` maps each entry text
    met to its slot, and `head` is the last (degree text, group) found to be
    of that kind.
    """

    def __init__(self):
        self.entries: list[LocalRamification] = []
        self.slots: dict[tuple, int] = {}
        self.ids: dict[int, int] = {}
        self.cycle_types: dict[tuple[int, ...], CycleType] = {}
        self.texts: dict[str, int] = {}
        self.kind: tuple[int, str] | None = None
        self.head: tuple[str, str] | None = None
        self.discs, self.signs, self.counts, self.entry_ids, self.lines = [], [], [], [], []

    def same_kind(self, degree: int, group: str):
        """Take the kind of the first row; InvariantViolation for a row of another kind."""
        if self.kind is None:
            self.kind = degree, group
        elif (degree, group) != self.kind:
            raise InvariantViolation(f"a degree-{degree} {group} record in a list of "
                                     f"degree-{self.kind[0]} {self.kind[1]} records")

    def slot_of(self, loc: LocalRamification) -> int:
        """The slot of this entry object, which every row that gives it shares."""
        slot = self.ids.get(id(loc))
        if slot is None:  # `entries` keeps loc, so its id is not reused
            slot = self.ids[id(loc)] = len(self.entries)
            self.entries.append(loc)
        return slot

    def append(self, lineno: int | None, abs_disc: int, sign: int, slots: list[int]):
        self.discs.append(abs_disc)
        self.signs.append(sign)
        self.counts.append(len(slots))
        self.entry_ids += slots
        self.lines.append(lineno)

    def columns(self) -> tuple:
        """The columns of the rows so far, in order, as `FieldList.from_columns` takes them."""
        import numpy as np

        for sign in (min(self.signs, default=0), max(self.signs, default=0)):
            if not -128 <= sign < 128:  # past int8; the row rules refuse 0, 2 and the like
                raise InvariantViolation(_SIGN_RULE.format(sign))
        return (disc_column(self.discs), np.array(self.signs, np.int8), self.kind,
                _offsets(self.counts), tuple(self.entries), np.array(self.entry_ids, np.int32))

    def field_list(self, x_max) -> FieldList:
        """The rows parsed so far, in line order."""
        return FieldList._of_columns("ingested", x_max, *self.columns())

    def entry(self, r, lineno: int) -> int:
        """The slot of the shared, validated entry of the decoded ramification entry `r`."""
        try:
            # the key is formed after the exact type checks, as True == 1 and
            # 3.0 == 3 hash alike: a mistyped entry must not find a valid one
            p = json_typed(r["p"], int, "p")
            kind = json_typed(r["kind"], str, "kind")
            if kind == "tame":
                parts = json_typed_items(r["cycle_type"], int, "cycle type part")
                exp = json_typed(r["exp"], int, "exp") if "exp" in r else None
                key = p, kind, parts, exp
            elif kind == "wild":
                exp = json_typed(r["exp"], int, "exp")
                key = p, kind, json_typed(r["label"], str, "label"), exp
            else:
                raise MalformedLine(lineno, f"unknown ramification kind {kind!r}")
            slot = self.slots.get(key)
            if slot is None:
                loc = _new_entry(key, self.cycle_types)
                slot = self.slots[key] = len(self.entries)
                self.entries.append(loc)
            return slot
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedLine(lineno, f"bad ramification entry: {exc}")

    def whole_line(self, obj, lineno: int) -> None:
        """Append the record of a line decoded whole."""
        try:
            degree = json_typed(obj["degree"], int, "degree")
            group = json_typed(obj["group"], str, "group")
            disc = json_typed(obj["disc"], int, "disc")
            ram_objs = obj.get("ram", [])
        except (KeyError, TypeError) as exc:
            raise MalformedLine(lineno, f"bad record fields: {exc}")
        self.same_kind(degree, group)
        _check_disc(disc, lineno)
        try:
            slots = [self.entry(r, lineno) for r in ram_objs]
        except TypeError as exc:  # "ram" is not iterable
            raise MalformedLine(lineno, f"bad ramification entry: {exc}")
        self.append(lineno, abs(disc), -1 if disc < 0 else 1, slots)

    def frame_line(self, match: re.Match, lineno: int) -> bool:
        """Append the record of a line in `_LINE_FRAME`; False to decode it whole.

        False means a piece between "}, {" is not one JSON object.
        """
        degree, disc, group, ram_text = match.groups()
        head = degree, group
        try:
            if head != self.head:  # a head text first met here
                degree = int(degree)
            disc = int(disc)
        except ValueError as exc:  # past int()'s digit limit
            raise MalformedLine(lineno, f"bad record fields: {exc}")
        known = self.texts
        pieces = ram_text[1:-1].split("}, {") if ram_text else ()
        try:
            slots = [known[piece] for piece in pieces]
        except KeyError:  # a text first met here
            slots, fresh = None, {}
            for piece in pieces:
                if piece not in known and piece not in fresh:
                    text = "{" + piece + "}"
                    try:
                        obj, end = _decode(text)
                    except ValueError:  # JSONDecodeError, or past int()'s digit limit
                        return False
                    if end < len(text):
                        return False
                    fresh[piece] = obj
        if head != self.head:
            self.same_kind(degree, group)
            self.head = head
        if not 0 < abs(disc) < DISC_LIMIT:
            _check_disc(disc, lineno)
        if slots is None:
            for piece, obj in fresh.items():
                known[piece] = self.entry(obj, lineno)
            slots = [known[piece] for piece in pieces]
        self.append(lineno, abs(disc), -1 if disc < 0 else 1, slots)
        return True


def _check_disc(disc: int, lineno: int):
    """MalformedLine unless 0 < |disc| < 2^63."""
    if disc == 0:
        raise MalformedLine(lineno, "disc must be nonzero")
    if abs(disc) >= DISC_LIMIT:
        raise MalformedLine(lineno, f"|disc| {abs(disc)} is not below 2^63")


def _decoded(line: str, lineno: int):
    """json.loads(line), with its error, or an integer past int()'s digit limit, as MalformedLine."""
    try:
        obj, end = _decode(line)
        if end < len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    except ValueError as exc:  # JSONDecodeError is one
        raise MalformedLine(lineno, f"invalid JSON: {exc}")
    return obj


def parse_field_file(stream, x_max: int | None = None) -> FieldList:
    """Parse a JSONL stream into a validated, sorted FieldList.

    Unsorted input is auto-sorted with a warning; malformed lines and
    invariant violations raise with the 1-based line number.  An x_max below
    the largest |disc| in the file raises InvariantViolation.
    """
    ingest = _Ingest()
    frame, frame_line = _LINE_FRAME.fullmatch, ingest.frame_line
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                match = frame(line)
                if not (match and frame_line(match, lineno)):
                    ingest.whole_line(_decoded(line, lineno), lineno)
            except InvariantViolation as exc:
                raise InvariantViolation(f"line {lineno}: {exc}")
    except Exception:
        # whatever stopped the parse, a record check that fails on an
        # earlier line comes first, as when each record was checked as read
        ingest.field_list(x_max)._refuse_bad_row(ingest.lines)
        raise
    fl = ingest.field_list(x_max)
    fl._refuse_bad_row(ingest.lines)
    discs = fl.abs_discs
    largest = int(discs.max()) if discs.size else 0
    if (discs[1:] < discs[:-1]).any():
        warnings.warn("unsorted field file; auto-sorting by |disc|", stacklevel=2)
        fl = fl._take(discs.argsort(kind="stable"))
    if x_max is None:
        fl.x_max = largest
    elif x_max < largest:
        raise InvariantViolation(
            f"x_max {x_max} is below the largest |disc| {largest} in the file"
        )
    return fl
