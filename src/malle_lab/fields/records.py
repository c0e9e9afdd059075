"""Field records, lists, and JSONL ingestion.

One JSONL line per field:

    {"degree": 3, "group": "S3", "disc": -23,
     "ram": [{"p": 23, "kind": "tame", "cycle_type": [2, 1]}]}

Wild entries carry {"p": 3, "kind": "wild", "label": "3-e3-v4", "exp": 4}.
The disc sign (1 or -1) is preserved on the record; counting uses the
absolute value.  Nothing is coerced: degree, disc, p, exp and every
cycle-type part must be JSON integers, and group, kind and label JSON
strings.

Two rule sets check every list, however it is made, in one column pass
when it is made (`FieldList._bad_row`).  First the entry rules, entry by
entry: p is prime (once per distinct p); a tame entry has exponent
ind(cycle_type) with p coprime to the ramification index; a wild entry has a
non-empty label and exponent >= 1.  Then the row rules: degree >= 1, disc
sign 1 or -1, |disc| >= 1; then, entry by entry, no prime given twice and a
tame cycle type of the list's degree; then |disc| = prod p^e over the row's
entries.  The first failing row is refused with the message of its first
failing rule, as an InvariantViolation; in a parsed file, with its line
number.  FieldRecord and LocalRamification are plain views; a
LocalRamification checks only that it is tame or wild, with a cycle type
when tame.

Columns.  A FieldList holds one kind of field, its `degree` and
`group_label`, kept once (None for a list with no rows).  A record of
another kind is refused where the list is made, as an InvariantViolation
naming both kinds: by the constructor, and by the parser with its line
number, after the line's typed-field checks and before its disc and entry
checks (`from_columns` takes the one kind).  The records are columns, row i
for the i-th record in order of |disc|:

- `abs_discs`, int64, and `disc_signs`, int8 (1 or -1);
- `offsets`, int64 with one more entry than there are rows, and
  `entry_ids`, int32: row i has the distinct entries entry_ids[k] for
  offsets[i] <= k < offsets[i + 1], in the order its record gave them;
- per distinct entry, `entry_p` and `entry_exp` (v_p(disc)), int64, and
  `entry_type`, int32, its index into the tuple `local_types`: a CycleType
  for a tame entry, the label for a wild one.

`from_columns` checks that structure before any rule (`FieldList._check`),
as numpy would wrap a negative index and broadcast or cast a column of
another length or dtype: every column a 1-D numpy array of its dtype, one
sign per row, offsets from 0 to entry_ids.size and never decreasing, the
three entry columns of one length, every id and type index in range, and
`local_types` of CycleTypes and labels.  A column that breaks it is
refused, by name, as an InvariantViolation.  The columns are made
read-only, in place, only once the list passes.

Every |disc| must be below 2^63 (`DISC_LIMIT`), as `cubic.X_LIMIT` bounds
what the int64 search can reach, and every p and exp an int64: a row past
them is refused as it enters, after the rows before it are checked (in a
file, as a MalformedLine).  For S_3 x C_3 such a field enters a count window
only at X >= 2^189.  numpy is imported inside the functions, so importing
this module does not load it.

Views.  `fl[i]`, slices (tuples), iteration and `upto` build FieldRecord
views from the columns, one row at a time (`_view`), all sharing `entries`,
the distinct entries as LocalRamification views, made at its first use; two
views of one row are equal, not the same object.  `records` is the list.

The enumerators hand their columns to `FieldList.from_columns`;
`parse_field_file` and `FieldList(records, provenance, x_max)` build theirs
with `_Ingest`, whose one slot table keys each entry by value (p, kind,
cycle-type parts or label, exp).  Each list is checked once, by columns.
Primality of the distinct p is read off one numpy sieve to the largest p
below 2^24 (`arith.are_prime`; is_prime decides a p at or above it).  The
tame and wild rules are decided from per-type columns indexed by
`entry_type` (tame or wild, ind and the ramification index, int64 or, for a
cycle type past int64, exact objects; a non-empty label), and p^e once per
distinct entry, by binary powering in uint64, each product capped at 2^63
(`_capped_powers`).  Each |disc| is divided by its entries' p^e in turn, and
every remainder must be 0 and the last quotient 1, so no value exceeds
|disc| and int64 is exact; a stable sort of the entry slots on (row, p) finds
a prime given twice, at its later slot.  Only the first failing row's
message is made in Python, `_entry_fault` on its entries among them.

`FieldList.write_jsonl` writes each record as
json.dumps(record.to_json(), sort_keys=True) + "\n", each distinct entry's
text from one %-template per local type, each row as held, its entries in
`entry_ids` order, unsorted: an enumerated row in ascending p (a C_l row
lists its wild l first, below every tame p = 1 mod l), a parsed row in its
line's order.  So every line of a list has the frame `_line_frame(kind)`,

    {"degree": D, "disc": INT, "group": G, "ram": [ENTRY, ..., ENTRY]}

with D and G the kind as written, and INT a JSON integer of at most 19
digits, as every |disc| < 2^63 is, which JSON decodes as int() does.

`parse_field_file` decodes lines whole until one sets the kind, then takes
`_BLOCK` lines at a time (split at "\n" only) by one split on the frame,
the discs and entry counts by C-level maps, if every line less its trailing
whitespace is in the frame with |disc| in [1, 2^63) (checked first) and
every text between "}, {" first met decodes as one JSON object that
`_Ingest.entry` takes.
Each distinct text is decoded once per call: an entry does not depend on
its record.  That is exact: when every piece decodes as a JSON object, the
bracketed text is the JSON array of those objects, as JSON's grammar gives
each text one parse, and equal texts give equal objects.  A refused block
goes through the pass again a stripped line at a time, and each line it
refuses is decoded whole by json.loads, which decides its record or its
error: the pass raises nothing.  Both paths share the slot of each key, so
the columns are those of a line-by-line read; a slot made for a refused
block that no row reads is in no record and breaks no rule.

The parser and `FieldList(records)` refuse in one order: a rule broken by
an earlier row first, as the rows before are checked before any error
leaves, then the stopping row's own error, the first its reading meets (an
unreadable entry, even after one that breaks an entry rule).
"""

from __future__ import annotations

import json
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import filterfalse, islice, repeat
from math import gcd, prod
from operator import add, mod

from ..arith import are_prime
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
        if self.kind == "tame" and self.tame_cycle_type is None:
            raise InvariantViolation("tame entry needs a cycle type")

    def to_json(self) -> dict:
        if self.kind == "tame":
            return {"p": self.p, "kind": "tame", "cycle_type": list(self.tame_cycle_type.parts)}
        return {"p": self.p, "kind": "wild", "label": self.wild_label, "exp": self.disc_exponent}


def _entry_fault(p: int, exp: int, local_type, prime: bool) -> str | None:
    """The first entry rule that the entry (p, exp, local type) breaks, p prime or not, or None."""
    if not prime:
        return f"ramified p = {p} is not prime"
    if isinstance(local_type, CycleType):
        if exp != index_of(local_type):
            return f"tame exponent {exp} != ind{local_type.parts} at p={p}"
        if gcd(p, local_type.ramification_index) != 1:
            return f"p={p} divides the tame ramification index {local_type.ramification_index}"
    elif not local_type:
        return "wild entry needs a label"
    elif exp < 1:
        return "wild exponent must be >= 1"
    return None


# json.dumps(record.to_json(), sort_keys=True): the keys in sorted order, with
# ", " and ": " as separators, around the degree, disc, group and entry texts
_FRAME = '{"degree": %s, "disc": %s, "group": %s, "ram": [%s]}'
_INT = r"(-?(?:0|[1-9][0-9]{0,18}))"  # 19 digits hold every |disc| < 2^63
# json.dumps(obj, sort_keys=True) less its encoder construction per call
_encode = json.JSONEncoder(sort_keys=True).encode
# rows per block when lines are made from the columns, and lines per block read;
# a block read holds its lines, texts and pieces, about 2.5 MB for cubic lines
_BLOCK = 1 << 12


def _line_frame(kind: tuple[int, str]) -> re.Pattern:
    """The writer's lines of this (degree, group), each through its "\n" or the
    text's end, with the disc and the bracketed entry texts as its groups; the
    whitespace that str.strip takes may close a line."""
    degree, group = kind
    return re.compile(re.escape(_FRAME) % (re.escape("%d" % degree), _INT,
                                           re.escape(_encode(group)), r"(\{.*\}|)")
                      + r"[^\S\n]*(?:\n|\Z)")


def _entry_template(local_type) -> str:
    """`template % (exp, p)` is the writer's text of the entry (p, exp, local_type)."""
    if isinstance(local_type, CycleType):  # no exp is written: %.0s takes it
        return '%%.0s{"cycle_type": %s, "kind": "tame", "p": %%d}' % _encode(list(local_type.parts))
    label = _encode(local_type).replace("%", "%%")
    return '{"exp": %%d, "kind": "wild", "label": %s, "p": %%d}' % label


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
            "ram": [loc.to_json() for loc in self.ramification],
        }


_SIGN_RULE = "disc sign must be 1 or -1, got {}"
# the dtype of each column (see the module docstring), which `FieldList._check` enforces
_COLUMN_DTYPES = (("abs_discs", "int64"), ("disc_signs", "int8"), ("offsets", "int64"),
                  ("entry_ids", "int32"), ("entry_p", "int64"), ("entry_exp", "int64"),
                  ("entry_type", "int32"))


class FieldList(Sequence):
    """Records sorted by |disc|, complete up to x_max under the provenance contract,
    as read-only columns and the sequence of their views (see the module docstring)."""

    __slots__ = ("provenance", "x_max", "degree", "group_label", "abs_discs", "disc_signs",
                 "offsets", "entry_ids", "entry_p", "entry_exp", "entry_type", "local_types",
                 "_entries")

    def __init__(self, records, provenance: str, x_max: int):
        """The list of these FieldRecords, which must be of one kind and sorted by |disc|."""
        ingest = _Ingest()
        try:
            for rec in records:
                ingest.same_kind(rec.degree, rec.group_label)
                slots = [ingest.slot((loc.p, loc.kind, loc.tame_cycle_type.parts
                                      if loc.kind == "tame" else loc.wild_label, loc.disc_exponent))
                         for loc in rec.ramification]
                ingest.append(None, rec.abs_disc, rec.disc_sign, slots)
        except InvariantViolation:  # a rule broken by an earlier record comes first
            ingest.field_list(x_max)._refuse_bad_row()
            raise
        self._fill(provenance, x_max, *ingest.columns())
        self._check()
        self._freeze()

    @classmethod
    def from_columns(cls, provenance, x_max, abs_discs, disc_signs, kind, offsets, entry_ids,
                     entry_p, entry_exp, entry_type, local_types) -> FieldList:
        """The checked list of these columns (see the module docstring), which refuses
        columns of the wrong structure and rows out of order of |disc|; `kind` is the
        (degree, group label) of every row.  The list holds the given arrays, made
        read-only only once they pass: a refused call leaves them as they were."""
        fl = object.__new__(cls)
        fl._fill(provenance, x_max, abs_discs, disc_signs, kind, offsets, entry_ids, entry_p,
                 entry_exp, entry_type, local_types)
        fl._check()
        fl._freeze()
        return fl

    @classmethod
    def _of_columns(cls, *columns) -> FieldList:
        """The list of the columns that `from_columns` takes, unchecked and read-only."""
        fl = object.__new__(cls)
        fl._fill(*columns)
        fl._freeze()
        return fl

    def _fill(self, provenance, x_max, abs_discs, disc_signs, kind, offsets, entry_ids, entry_p,
              entry_exp, entry_type, local_types):
        self.provenance, self.x_max = provenance, x_max
        # a column that is not an array has no size, and `_check` refuses it
        self.degree, self.group_label = kind if getattr(abs_discs, "size", 0) else (None, None)
        self.abs_discs, self.disc_signs, self.offsets = abs_discs, disc_signs, offsets
        self.entry_ids, self.entry_p, self.entry_exp = entry_ids, entry_p, entry_exp
        self.entry_type, self.local_types, self._entries = entry_type, tuple(local_types), None

    def _freeze(self):
        """Make the columns read-only, in place."""
        for name, _ in _COLUMN_DTYPES:
            getattr(self, name).flags.writeable = False

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

    @property
    def entries(self) -> tuple[LocalRamification, ...]:
        """The distinct entries as views, made at the first use and shared by every view."""
        if self._entries is None:
            types = map(self.local_types.__getitem__, self.entry_type.tolist())
            self._entries = tuple(
                LocalRamification(q, "tame", e, tame_cycle_type=t) if isinstance(t, CycleType)
                else LocalRamification(q, "wild", e, wild_label=t)
                for q, e, t in zip(self.entry_p.tolist(), self.entry_exp.tolist(), types))
        return self._entries

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
            (self.degree, self.group_label), offsets, self.entry_ids[slots], self.entry_p,
            self.entry_exp, self.entry_type, self.local_types,
        )

    def _bad_row(self) -> tuple[int, str] | None:
        """The first row that breaks a rule, and the message of its first broken rule.

        The rules are the module docstring's, in its order; None when every
        row keeps them (|disc| < 2^63).
        """
        import numpy as np

        if not len(self):
            return None
        degree, types = self.degree, self.local_types
        ids, offsets, signs = self.entry_ids, self.offsets, self.disc_signs
        p, exp, type_ids = self.entry_p, self.entry_exp, self.entry_type
        slot_row = self.slot_rows()
        # per entry, whether it keeps the entry rules: primality once per distinct p,
        # from one sieve, and the tame and wild rules from per-type columns
        primes, p_rank = np.unique(p, return_inverse=True)
        prime = are_prime(primes)[p_rank]
        tame = np.array([isinstance(t, CycleType) for t in types], bool)[type_ids]
        ind = _exact_column(index_of(t) if isinstance(t, CycleType) else 0 for t in types)
        ram = _exact_column(t.ramification_index if isinstance(t, CycleType) else 1
                            for t in types)
        labelled = np.array([bool(t) for t in types], bool)[type_ids]
        kept = prime & np.where(tame, (exp == ind[type_ids]) & (np.gcd(p, ram[type_ids]) == 1),
                                labelled & (exp >= 1))
        # per slot: a prime met before in its row, a tame cycle type of another degree
        keys = slot_row * max(primes.size, 1) + p_rank[ids]
        order = keys.argsort(kind="stable")  # by (row, p), then slot
        repeat = np.zeros(ids.size, bool)
        repeat[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
        wrong_type = np.array([isinstance(t, CycleType) and t.degree != degree for t in types],
                              bool)[type_ids][ids]
        # p^e per kept entry (1 for the others), 2^63 once past it, which divides
        # no |disc| < 2^63
        local = _capped_powers(np.where(kept, p, 1), np.where(kept, exp, 0))
        capped = local == DISC_LIMIT
        off_product = np.zeros(len(self), bool)
        off_product[slot_row[capped[ids]]] = True
        powers = np.where(capped, 1, local).astype(np.int64)[ids]
        # the k-th entry of every row divides its quotient in round k
        counts = np.diff(offsets)
        quotient = self.abs_discs.copy()
        for k in range(int(counts.max(initial=0))):
            rows = np.flatnonzero(counts > k)
            q = powers[offsets[rows] + k]
            off_product[rows] |= quotient[rows] % q != 0
            quotient[rows] //= q
        off_product |= quotient != 1
        bad_sign = (signs != 1) & (signs != -1)
        bad = bad_sign | (self.abs_discs < 1) | off_product
        bad[0] |= degree < 1  # the list's one degree, so its first row breaks it
        bad[slot_row[repeat | wrong_type | ~kept[ids]]] = True
        failing = np.flatnonzero(bad)
        if not failing.size:
            return None
        i = int(failing[0])
        lo, hi = offsets.item(i), offsets.item(i + 1)
        row = ids[lo:hi].tolist()
        for e in row:
            fault = _entry_fault(p.item(e), exp.item(e), types[type_ids.item(e)],
                                 bool(prime[e]))
            if fault:
                return i, fault
        if degree < 1:
            return i, f"degree must be >= 1, got {degree}"
        if bad_sign[i]:
            return i, _SIGN_RULE.format(signs.item(i))
        abs_disc = self.abs_discs.item(i)
        if abs_disc < 1:
            return i, "absolute discriminant must be positive"
        for e, dup, wrong in zip(row, repeat[lo:hi], wrong_type[lo:hi]):
            if dup:
                return i, f"duplicate prime {p.item(e)}"
            if wrong:
                parts = list(types[type_ids.item(e)].parts)
                return i, f"cycle type {parts} on a degree-{degree} record"
        product = prod(local[row].tolist())  # of factors each at most 2^63
        shown = product if product < DISC_LIMIT else ">= 2^63"
        return i, f"|disc| {abs_disc} != product of local parts {shown}"

    def _refuse_bad_row(self, lines=None):
        """Raise the refusal of the first failing row, with its line if `lines` is given."""
        bad = self._bad_row()
        if bad is not None:
            i, message = bad
            raise InvariantViolation(message if lines is None else f"line {lines[i]}: {message}")

    def _check(self):
        """Refuse columns of the wrong structure, naming the column, then a row that
        breaks a rule, then rows out of order of |disc|."""
        import numpy as np

        for name, dtype in _COLUMN_DTYPES:
            col = getattr(self, name)
            if not isinstance(col, np.ndarray):
                raise InvariantViolation(
                    f"column {name} must be a numpy array, got {type(col).__name__}")
            if col.dtype != dtype or col.ndim != 1:
                raise InvariantViolation(
                    f"column {name} must be 1-D {dtype}, got {col.ndim}-D {col.dtype}")
        rows, signs, offsets, ids = len(self), self.disc_signs, self.offsets, self.entry_ids
        if signs.size != rows:
            raise InvariantViolation(
                f"column disc_signs must have {rows} entries, one per row, got {signs.size}")
        if offsets.size != rows + 1:
            raise InvariantViolation(f"column offsets must have {rows + 1} entries, one more "
                                     f"than the rows, got {offsets.size}")
        if offsets.item(0) != 0:
            raise InvariantViolation(f"column offsets must start at 0, got {offsets.item(0)}")
        if (offsets[1:] < offsets[:-1]).any():
            raise InvariantViolation("column offsets must not decrease")
        if offsets.item(-1) != ids.size:
            raise InvariantViolation(f"column offsets must end at the size of entry_ids, "
                                     f"{ids.size}, got {offsets.item(-1)}")
        sizes = (self.entry_p.size, self.entry_exp.size, self.entry_type.size)
        if len(set(sizes)) > 1:
            raise InvariantViolation("columns entry_p, entry_exp and entry_type must have one "
                                     "length, got %d, %d and %d" % sizes)
        for name, col, count in (("entry_ids", ids, sizes[0]),
                                 ("entry_type", self.entry_type, len(self.local_types))):
            out = (col < 0) | (col >= count)
            if out.any():
                raise InvariantViolation(
                    f"column {name} holds {col[out].item(0)}, outside [0, {count})")
        for t in self.local_types:
            if not isinstance(t, (CycleType, str)):
                raise InvariantViolation(f"local_types must hold cycle types and labels, got {t!r}")
        self._refuse_bad_row()
        if (self.abs_discs[1:] < self.abs_discs[:-1]).any():
            raise InvariantViolation("records must be sorted by |disc|")

    def write_jsonl(self, stream):
        """One line per record, json.dumps(record.to_json(), sort_keys=True) + "\n".

        Each distinct entry and the group label are serialised once per call, and
        the lines are made from the columns, each row's entries in the order it
        holds them (`entry_ids`).
        """
        templates = list(map(_entry_template, self.local_types))
        texts = list(map(mod, map(templates.__getitem__, self.entry_type.tolist()),
                         zip(self.entry_exp.tolist(), self.entry_p.tolist())))
        # `line % (disc, entry texts)` is a row's line
        group = _encode(self.group_label).replace("%", "%%")
        line = _FRAME % (self.degree, "%d", group, "%s") + "\n"
        ids, offsets, discs = self.entry_ids, self.offsets, self.abs_discs * self.disc_signs
        for lo in range(0, len(self), _BLOCK):
            hi = min(lo + _BLOCK, len(self))
            offs = (offsets[lo: hi + 1] - offsets[lo]).tolist()
            ram = list(map(texts.__getitem__, ids[offsets[lo]: offsets[hi]].tolist()))
            rows = map(", ".join, map(ram.__getitem__, map(slice, offs, offs[1:])))
            stream.write("".join(map(mod, repeat(line), zip(discs[lo:hi].tolist(), rows))))


def _exact_column(values):
    """The array of these ints: int64 when every one fits, else object, which stays exact."""
    import numpy as np

    values = list(values)
    fits = all(-DISC_LIMIT <= v < DISC_LIMIT for v in values)
    return np.array(values, np.int64 if fits else object)


def _capped_powers(p, e):
    """min(p^e, 2^63) per entry of the int64 arrays p >= 1 and e >= 0, as uint64.

    By binary powering, each product capped at 2^63 before it can leave uint64;
    an e past 63 is cut to 64, which keeps every capped power capped.
    """
    import numpy as np

    cap = np.uint64(DISC_LIMIT)
    out, base, e = np.ones(p.size, np.uint64), p.astype(np.uint64), np.minimum(e, 64)
    while e.any():
        odd = (e & 1) == 1
        out[odd] = _capped_product(out[odd], base[odd], cap)
        e = e >> 1
        live = e > 0
        base[live] = _capped_product(base[live], base[live], cap)
    return out


def _capped_product(x, y, cap):
    """min(x y, cap) per entry of uint64 arrays with 1 <= x, y <= cap."""
    import numpy as np

    return np.where(x <= cap // y, x * y, cap)


def _offsets(counts):
    """Row offsets of these entry counts: 0, then their running sums."""
    import numpy as np

    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class _Ingest:
    """The columns of the rows and of the entries met so far.

    `slots` maps each entry's key (p, kind, parts or label, exp) to its
    slot, and `types` each (kind, parts or label) to its index in
    `local_types`, both in the order first met; `entry_p`, `entry_exp` and
    `entry_type` hold one value per slot.  `kind` is the (degree, group) of
    the first row, None before it.  In block passes, `texts` maps each entry
    text met to its slot.
    """

    def __init__(self):
        self.slots: dict[tuple, int] = {}
        self.types: dict[tuple, int] = {}
        self.texts: dict[str, int] = {}
        self.kind: tuple[int, str] | None = None
        self.discs, self.signs, self.counts, self.entry_ids, self.lines = [], [], [], [], []
        self.entry_p, self.entry_exp, self.entry_type, self.local_types = [], [], [], []

    def same_kind(self, degree: int, group: str):
        """Take the kind of the first row; InvariantViolation for a row of another kind."""
        if self.kind is None:
            self.kind = degree, group
        elif (degree, group) != self.kind:
            raise InvariantViolation(f"a degree-{degree} {group} record in a list of "
                                     f"degree-{self.kind[0]} {self.kind[1]} records")

    def slot(self, key: tuple) -> int:
        """The slot of the entry (p, kind, parts or label, exp), made at its first sight;
        InvariantViolation for a p or exp outside int64, ValueError for parts of no cycle type."""
        slot = self.slots.get(key)
        if slot is None:
            p, kind, data, exp = key
            if (kind, data) not in self.types:
                self.local_types.append(CycleType.from_parts(data) if kind == "tame" else data)
                self.types[kind, data] = len(self.types)
            for name, value in ("p", p), ("exp", exp):
                if not -DISC_LIMIT <= value < DISC_LIMIT:
                    raise InvariantViolation(f"{name} {value} is outside int64")
            slot = self.slots[key] = len(self.slots)
            self.entry_p.append(p)
            self.entry_exp.append(exp)
            self.entry_type.append(self.types[kind, data])
        return slot

    def append(self, lineno: int | None, abs_disc: int, sign: int, slots: list[int]):
        """Append a row; InvariantViolation for a |disc| or a sign its column cannot hold."""
        if abs_disc >= DISC_LIMIT:
            raise InvariantViolation(f"|disc| {abs_disc} is not below 2^63")
        if not -128 <= sign < 128:  # past int8; the row rules refuse 0, 2 and the like
            raise InvariantViolation(_SIGN_RULE.format(sign))
        self.discs.append(abs_disc if abs_disc > 0 else 0)  # the row rules refuse all below 1
        self.signs.append(sign)
        self.counts.append(len(slots))
        self.entry_ids += slots
        self.lines.append(lineno)

    def columns(self) -> tuple:
        """The columns of the rows so far, in order, as `FieldList.from_columns` takes them."""
        import numpy as np

        return (np.array(self.discs, np.int64), np.array(self.signs, np.int8), self.kind,
                _offsets(self.counts), np.array(self.entry_ids, np.int32),
                np.array(self.entry_p, np.int64), np.array(self.entry_exp, np.int64),
                np.array(self.entry_type, np.int32), tuple(self.local_types))

    def field_list(self, x_max) -> FieldList:
        """The rows parsed so far, in line order."""
        return FieldList._of_columns("ingested", x_max, *self.columns())

    def entry(self, r, lineno: int) -> int:
        """The slot of the decoded ramification entry `r`, after its typed-key checks."""
        try:
            # the key is formed after the exact type checks, as True == 1 and
            # 3.0 == 3 hash alike: a mistyped entry must not find a valid one
            p = json_typed(r["p"], int, "p")
            kind = json_typed(r["kind"], str, "kind")
            if kind == "tame":
                parts = json_typed_items(r["cycle_type"], int, "cycle type part")
                exp = json_typed(r["exp"], int, "exp") if "exp" in r else sum(parts) - len(parts)
                key = p, kind, parts, exp  # with no exp given, ind(parts)
            elif kind == "wild":
                exp = json_typed(r["exp"], int, "exp")
                key = p, kind, json_typed(r["label"], str, "label"), exp
            else:
                raise MalformedLine(lineno, f"unknown ramification kind {kind!r}")
            return self.slot(key)
        except (KeyError, TypeError, ValueError, InvariantViolation) as exc:
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
        if disc == 0:
            raise MalformedLine(lineno, "disc must be nonzero")
        if abs(disc) >= DISC_LIMIT:
            raise MalformedLine(lineno, f"|disc| {abs(disc)} is not below 2^63")
        try:
            slots = [self.entry(r, lineno) for r in ram_objs]
        except TypeError as exc:  # "ram" is not iterable
            raise MalformedLine(lineno, f"bad ramification entry: {exc}")
        self.append(lineno, abs(disc), -1 if disc < 0 else 1, slots)

    def frame_block(self, frame: re.Pattern, lines: list[str], first: int) -> bool:
        """Append the rows of `lines`, lines `first` on, or return False with no row
        appended (see the module docstring); nothing is raised here.  The pieces
        first met here are decoded in that order, after the frame and disc checks;
        one of more than one JSON object fails as "Extra data"."""
        import numpy as np

        parts = frame.split("".join(lines))  # the texts between matches, disc and ram texts
        if len(parts) != 3 * len(lines) + 1 or any(parts[::3]):
            return False
        try:
            discs = np.fromiter(map(int, parts[1::3]), np.int64, len(lines))
        except OverflowError:  # 19 digits past int64
            return False
        if not (np.abs(discs) > 0).all():  # 0, and -2^63, which np.abs leaves negative
            return False
        rams = parts[2::3]
        joined = ", ".join(filter(None, rams))
        pieces = joined[1:-1].split("}, {") if joined else []
        try:  # ValueError: JSONDecodeError, or past int()'s digit limit
            for piece in filterfalse(self.texts.__contains__, dict.fromkeys(pieces)):
                self.texts[piece] = self.entry(json.loads("{" + piece + "}"), first)
        except (ValueError, MalformedLine):
            return False
        self.discs += np.abs(discs).tolist()
        self.signs += np.sign(discs).tolist()
        self.counts += map(add, map(str.count, rams, repeat("}, {")), map(bool, rams))
        self.entry_ids += map(self.texts.__getitem__, pieces)
        self.lines += range(first, first + len(lines))
        return True


def _decoded(line: str, lineno: int):
    """json.loads(line), its error (past int()'s digit limit too) as MalformedLine."""
    try:
        return json.loads(line)
    except ValueError as exc:  # JSONDecodeError is one
        raise MalformedLine(lineno, f"invalid JSON: {exc}")


def parse_field_file(stream, x_max: int | None = None) -> FieldList:
    """Parse a JSONL stream into a validated, sorted FieldList.

    Unsorted input is auto-sorted with a warning; malformed lines and
    invariant violations raise with the 1-based line number.  An x_max below
    the largest |disc| in the file raises InvariantViolation.
    """
    ingest, frame, read = _Ingest(), None, 0
    try:
        # a line at a time until one sets the list's kind, then _BLOCK lines at a time
        while block := list(islice(stream, _BLOCK if frame else 1)):
            if not (frame and ingest.frame_block(frame, block, read + 1)):
                for lineno, line in enumerate(block, read + 1):
                    line = line.strip()
                    if line and not (frame and ingest.frame_block(frame, [line], lineno)):
                        try:
                            ingest.whole_line(_decoded(line, lineno), lineno)
                        except InvariantViolation as exc:
                            raise InvariantViolation(f"line {lineno}: {exc}")
                if frame is None and ingest.kind is not None:
                    frame = _line_frame(ingest.kind)
            read += len(block)
    except Exception:  # a rule broken on an earlier line comes first, then the stop
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
