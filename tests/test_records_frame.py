"""parse_field_file decides a line the same on its block pass and on its general path.

After the first line, which sets the list's kind and is decoded whole, lines are
read `_BLOCK` at a time.  A block of writer lines of the list's kind is taken by
one regex split and its entry texts are decoded once per call; a block that the
pass does not take goes through the pass again a line at a time, and each line
it does not take is decoded whole: only that path refuses a line.  Each example
is a short file of the writer lines of one list, which holds one kind of field,
with one or two mutated lines of that list in it, read in blocks of 1, 2, 3 or
`_BLOCK` lines.  The file is parsed as is, and again with the frame swapped for
one that matches nothing, which sends every line down the general path.  The
two parses must give equal records with the same sharing, columns and
warnings, or the same error: its type, line number and message.
"""

import io
import itertools
import json
import re
import sys
import warnings
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from malle_lab.errors import MalformedLine  # noqa: E402
from malle_lab.fields import records  # noqa: E402
from malle_lab.fields.cubic import enumerate_cubic  # noqa: E402
from malle_lab.fields.cyclic import enumerate_cyclic  # noqa: E402


def _lines(field_list) -> list[str]:
    buf = io.StringIO()
    field_list.write_jsonl(buf)
    return buf.getvalue().splitlines()


# tame entries at degree 3, wild ones at 3 and 5, and records of one to four
# entries; a list of one kind each, so that only a mutation breaks the kind
WRITER_LISTS = (
    _lines(enumerate_cubic(2000)),
    _lines(enumerate_cyclic(3, 2 * 10**4)),
    _lines(enumerate_cyclic(5, 10**9)),
)
_NEVER = re.compile(r"(?!)")


_COLUMNS = ("abs_discs", "disc_signs", "offsets", "entry_ids", "entry_p", "entry_exp",
            "entry_type")


def _outcome(text: str, block: int = records._BLOCK):
    """The records, x_max, entry count, distinct entry objects, columns, local types and
    warnings, or the error, of `text` read `block` lines at a time."""
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(records, "_BLOCK", block):
        warnings.simplefilter("always")
        try:
            fl = records.parse_field_file(io.StringIO(text))
        except Exception as exc:
            return "error", type(exc), getattr(exc, "lineno", None), str(exc)
    entries = [loc for r in fl for loc in r.ramification]
    shared = len({id(loc) for loc in entries})
    columns = tuple(getattr(fl, name).tolist() for name in _COLUMNS)
    return ("ok", tuple(fl), fl.x_max, len(entries), shared, columns, fl.local_types,
            [str(w.message) for w in caught])


def _general_outcome(text: str):
    with mock.patch.object(records, "_line_frame", lambda kind: _NEVER):
        return _outcome(text)


def _kind(line: str) -> tuple:
    obj = json.loads(line)
    return obj["degree"], obj["group"]


# -- mutations of the decoded object ---------------------------------------------

_GROUPS = ['S"3', "S\\3", "a}, {b", "S3}, {", "é", "", " ", "x\ty", "C3\n"]
_KEYS = ["degree", "disc", "group", "ram"]
_ENTRY_KEYS = ["p", "kind", "cycle_type", "label", "exp"]


def _entry(draw, obj):
    ram = obj.get("ram")
    if not isinstance(ram, list) or not ram:
        return None
    return ram[draw(st.integers(0, len(ram) - 1))]


def _drop_key(draw, obj):
    entry = _entry(draw, obj)
    if entry is not None and draw(st.booleans()):
        entry.pop(draw(st.sampled_from(sorted(entry))), None)
    else:
        obj.pop(draw(st.sampled_from(_KEYS)), None)


def _rename_key(draw, obj):
    entry = _entry(draw, obj)
    target = entry if entry is not None and draw(st.booleans()) else obj
    key = draw(st.sampled_from(sorted(target)))
    target[draw(st.sampled_from([key.upper(), key + " ", "x" + key]))] = target.pop(key)


def _set_group(draw, obj):
    obj["group"] = draw(st.one_of(st.sampled_from(_GROUPS), st.text(max_size=4)))


def _set_label(draw, obj):
    entry = _entry(draw, obj)
    if entry is not None:
        entry[draw(st.sampled_from(["label", "kind"]))] = draw(
            st.sampled_from(["3-e3}, {v4", "w}, {", 'tame"', "wild", "tame"])
        )


def _nest(draw, obj):
    entry = _entry(draw, obj)
    if entry is None:
        obj["ram"] = [{"p": {"p": 7}}]
        return
    value = draw(st.sampled_from([{"p": 3}, [{"a": 1}, {"b": 2}], {}, [], None, "}, {"]))
    entry[draw(st.sampled_from(_ENTRY_KEYS + ["extra"]))] = value


def _empty_ram(draw, obj):
    obj["ram"] = draw(st.sampled_from([[], {}, 0, "", None]))


def _set_number(draw, obj):
    key = draw(st.sampled_from(["degree", "disc"]))
    obj[key] = draw(st.sampled_from([0, 1, -1, 2, 4, 5, -3, 10**30]))


def _repeat_entry(draw, obj):
    entry = _entry(draw, obj)
    if entry is not None:
        obj["ram"].insert(draw(st.integers(0, len(obj["ram"]))), dict(entry))


OBJECT_MUTATIONS = [
    None, _drop_key, _rename_key, _set_group, _set_label, _nest, _empty_ram, _set_number,
    _repeat_entry,
]

# -- mutations of the text ---------------------------------------------------------

# integer literals outside strings in a writer line: after "[", ": " or ", "
_INT_TOKEN = re.compile(r"(?<=[\[ ])-?[0-9]+(?=[,\]}])")


def _number_text(draw, text):
    tokens = list(_INT_TOKEN.finditer(text))
    if not tokens:
        return text
    # half the time the degree or the disc, which the frame itself reads
    last = draw(st.sampled_from([min(1, len(tokens) - 1), len(tokens) - 1]))
    m = tokens[draw(st.integers(0, last))]
    n = m.group()
    new = draw(st.sampled_from([f"{n}.0", "true", f'"{n}"', f"0{n.lstrip('-')}", "-0", "1e3",
                                "-" + n.lstrip("-"), n + "0"]))
    return text[: m.start()] + new + text[m.end():]


def _repeat_key_text(draw, text):
    # a repeated key: JSON keeps the last value, which both paths must see
    starts = [m.start() for m in re.finditer(r"\{", text)]
    if not starts:  # a spacing mutation took out the one brace
        return text
    at = starts[draw(st.integers(0, len(starts) - 1))] + 1
    key = draw(st.sampled_from(['"p": 5, ', '"degree": 3, ', '"kind": "wild", ', '"exp": 1, ']))
    return text[:at] + key + text[at:]


def _spacing_text(draw, text):
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from([" ", "", "\t", "  "])) + text[at + draw(st.integers(0, 1)):]


def _separator_text(draw, text):
    old, new = draw(st.sampled_from([(", ", ","), (": ", ":"), ("}, {", "},{"), ("}, {", "} , {")]))
    count = text.count(old)
    if not count:
        return text
    k = draw(st.integers(0, count - 1))
    at = -1
    for _ in range(k + 1):
        at = text.index(old, at + 1)
    return text[:at] + new + text[at + len(old):]


def _raw_char_text(draw, text):
    # JSON refuses a raw control character in a string, and takes any other
    at = text.find('"group": "')
    if at < 0:
        return text
    at += len('"group": "') + draw(st.integers(0, 2))
    return text[:at] + draw(st.sampled_from(["\t", "\x01", "\x1f", "\x7f", "\u2028"])) + text[at:]


def _long_number_text(draw, text):
    # an integer past int()'s 4300-digit limit, which json.dumps cannot write
    key = draw(st.sampled_from(["degree", "disc"]))
    digits = draw(st.sampled_from(["", "-"])) + "1" * draw(st.sampled_from([4301, 5000]))
    return re.sub(r'(?<="%s": )-?[0-9]+' % key, digits, text, count=1)


TEXT_MUTATIONS = [
    None, _number_text, _repeat_key_text, _spacing_text, _separator_text, _raw_char_text,
    _long_number_text,
]


@st.composite
def mutated_lines(draw, writer_lines):
    obj = json.loads(draw(st.sampled_from(writer_lines)))
    for mutate in draw(st.lists(st.sampled_from(OBJECT_MUTATIONS), max_size=2)):
        if mutate is not None:
            mutate(draw, obj)
    text = json.dumps(obj, sort_keys=True, ensure_ascii=draw(st.booleans()))
    for mutate in draw(st.lists(st.sampled_from(TEXT_MUTATIONS), max_size=2)):
        if mutate is not None:
            text = mutate(draw, text)
    return text


@st.composite
def files(draw):
    """A file of one list's writer lines with one or two mutated lines of it, the
    mutated lines and the list's kind."""
    writer_lines = draw(st.sampled_from(WRITER_LISTS))
    lines = draw(st.lists(st.sampled_from(writer_lines), max_size=4))
    mutated = draw(st.lists(mutated_lines(writer_lines), min_size=1, max_size=2))
    for line in mutated:
        lines.insert(draw(st.integers(0, len(lines))), line)
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    return text, mutated, _kind(writer_lines[0])


@settings(max_examples=400, deadline=None)
@given(files(), st.sampled_from([1, 2, 3, records._BLOCK]))
def test_frame_path_agrees_with_the_general_path(case, block):
    text, mutated, kind = case
    for line in mutated:
        event("mutated line in the frame" if records._line_frame(kind).fullmatch(line.strip())
              else "mutated line out of the frame")
    outcome = _outcome(text, block)
    event(outcome[0])
    assert outcome == _general_outcome(text)


@pytest.mark.parametrize("degree, disc", [
    ("03", "-23"), ("3", "-023"), ("3", "-0"), ("-0", "-23"), ("3", "1e3"), ("3.0", "-23"),
    ("true", "-23"), ('"3"', "-23"), ("3", "- 23"), ("3", "+23"),
])
def test_numbers_outside_the_json_integer_grammar(degree, disc):
    # each is refused on both paths; the frame must not read 03 or -023 as int() would
    line = ('{"degree": %s, "disc": %s, "group": "S3", '
            '"ram": [{"cycle_type": [2, 1], "kind": "tame", "p": 23}]}' % (degree, disc))
    assert _outcome(line)[0] == "error"
    assert _outcome(line) == _general_outcome(line)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int() digit limit")
@pytest.mark.parametrize("degree, disc", [("3", "-" + "1" * 5000), ("1" * 5000, "-23")])
def test_an_integer_past_the_digit_limit_is_invalid_json_on_both_paths(degree, disc):
    line = '{"degree": %s, "disc": %s, "group": "S3", "ram": []}' % (degree, disc)
    outcome = _outcome(line)
    assert outcome[:3] == ("error", MalformedLine, 1)
    assert outcome[3].startswith("line 1: invalid JSON: Exceeds the limit")
    assert outcome == _general_outcome(line)


def _spied_parse(text: str, block: int = records._BLOCK):
    """The lines sent to `whole_line` and the (first line, line count) of each block
    pass, as `text` is parsed `block` lines at a time."""
    whole_line, frame_block, wholes, passes = records._Ingest.whole_line, \
        records._Ingest.frame_block, [], []

    def whole_spy(ingest, obj, lineno):
        wholes.append(lineno)
        return whole_line(ingest, obj, lineno)

    def block_spy(ingest, frame, lines, first):
        passes.append((first, len(lines)))
        return frame_block(ingest, frame, lines, first)

    with mock.patch.object(records._Ingest, "whole_line", whole_spy), \
            mock.patch.object(records._Ingest, "frame_block", block_spy), \
            mock.patch.object(records, "_BLOCK", block):
        records.parse_field_file(io.StringIO(text))
    return wholes, passes


def test_a_writer_file_sends_only_its_first_line_down_the_general_path():
    # the first line sets the list's kind; every later writer line, with or
    # without whitespace that strip takes at its end, is taken by a block pass
    # of `block` lines, with no line passed alone again
    for block, lines, end in itertools.product([1, 3, records._BLOCK], WRITER_LISTS,
                                               ["\n", "\r\n", " \x85\t\n"]):
        n = len(lines)
        wholes, passes = _spied_parse("".join(line + end for line in lines), block)
        assert wholes == [1]
        assert passes == [(first, min(block, n + 1 - first)) for first in range(2, n + 1, block)]
        assert len(passes) == -(-(n - 1) // block)


def test_the_switched_off_frame_sends_every_line_down_the_general_path():
    lines = WRITER_LISTS[2]
    with mock.patch.object(records, "_line_frame", lambda kind: _NEVER):
        wholes, passes = _spied_parse("\n".join(lines), 3)
    assert wholes == list(range(1, len(lines) + 1))
    # each refused block is passed again a line at a time
    assert {first for first, length in passes if length == 1} == set(range(2, len(lines) + 1))


def _with_label(line: str, label: str) -> str:
    """The C5 writer line with every wild label set to `label`, non-ASCII written raw."""
    obj = json.loads(line)
    for entry in obj["ram"]:
        if entry["kind"] == "wild":
            entry["label"] = label
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def _c5_cases():
    """Files of C5 writer lines, each with a line that the block pass refuses or a
    line end or label that it must read as the general path does."""
    lines = WRITER_LISTS[2][:8]
    bad = lines[5].replace('"disc": ', '"disc": 0')  # a leading zero: out of the frame
    wrong = lines[4][:-2] + ", {}]}"  # a piece that `entry` refuses: no "p" in it
    cases = {
        # with blocks of 3, lines 2-4 and 5-7 are the blocks
        "refused-first-in-block": lines[:4] + [bad] + lines[5:],
        "refused-last-in-block": lines[:3] + [bad] + lines[4:],
        "refused-entry-last-in-block": lines[:6] + [wrong] + lines[7:],
        "refused-first-and-last": lines[:4] + [bad] + lines[5:6] + [wrong] + lines[7:],
        "two-records-one-line": lines[:3] + [lines[3] + lines[4]] + lines[5:],
        "refused-text-before-a-record": lines[:3] + ["x" + lines[3]] + lines[4:],
        "blank-line": lines[:3] + [""] + lines[3:],
        "whitespace-lines": lines[:2] + ["  \t "] + lines[2:5] + [f" {lines[5]}  "] + lines[6:],
        "crlf": [line + "\r" for line in lines],
        "crlf-unsorted": [line + "\r" for line in lines[1:4] + lines[:1] + lines[4:]],
    }
    # a label or a group with a character that str.splitlines breaks at: line
    # numbers count "\n" only
    for char in "\u2028", "\x85", "\r", "\x0b":
        labelled = [_with_label(line, "5" + char + "w") for line in lines]
        cases[f"label-{ord(char):x}"] = labelled[:5] + [bad] + labelled[5:]
        grouped = [line.replace('"C5"', json.dumps("C5" + char, ensure_ascii=False))
                   for line in lines]
        cases[f"group-{ord(char):x}"] = grouped[:5] + [bad] + grouped[5:]
    return cases


_C5_CASES = _c5_cases()


@pytest.mark.parametrize("name, lines", list(_C5_CASES.items()), ids=list(_C5_CASES))
@pytest.mark.parametrize("end", ["", "\n"], ids=["no-last-newline", "last-newline"])
def test_block_boundaries_agree_with_the_general_path(name, lines, end):
    text = "\n".join(lines) + end
    outcome = _outcome(text, 3)
    assert outcome == _general_outcome(text) == _outcome(text)
    if name == "two-records-one-line":
        assert outcome[:3] == ("error", MalformedLine, 4) and "Extra data" in outcome[3]
    elif "refused" in name or name.startswith(("label", "group")):
        assert outcome[0] == "error" and outcome[2] == lines.index(next(
            line for line in lines if '"disc": 0' in line or "{}" in line or line[0] == "x")) + 1
    else:
        assert outcome[0] == "ok" and len(outcome[1]) == 8


def test_an_item_of_the_stream_is_one_line():
    # an item that holds two writer lines is one line of two JSON values, as a
    # line is on the general path, whatever block it is read in
    lines = WRITER_LISTS[2][:6]
    items = [line + "\n" for line in lines]
    items[2:4] = [items[2] + items[3]]
    for block in (1, 3, records._BLOCK):
        with mock.patch.object(records, "_BLOCK", block), pytest.raises(MalformedLine) as exc:
            records.parse_field_file(iter(items))
        assert exc.value.lineno == 3 and "Extra data" in str(exc.value)


@pytest.mark.parametrize("key, value, message", [
    ("p", True, "line 5: bad ramification entry: p must be a JSON integer, got True"),
    ("kind", "tamer", "line 5: unknown ramification kind 'tamer'"),
])
def test_the_frame_path_leaves_a_refused_entry_to_the_general_path(key, value, message):
    # line 5 is in the frame, of the list's kind, with an entry first met there
    # that _Ingest.entry refuses: the general path raises, and only it
    whole_line, seen = records._Ingest.whole_line, []

    def spied(ingest, obj, lineno):
        seen.append([lineno, None])
        try:
            return whole_line(ingest, obj, lineno)
        except MalformedLine as exc:
            seen[-1][1] = exc
            raise

    lines = _lines(enumerate_cubic(1000))
    obj = json.loads(lines[4])
    obj["ram"][0][key] = value
    lines[4] = json.dumps(obj, sort_keys=True)
    assert records._line_frame((3, "S3")).fullmatch(lines[4])
    with mock.patch.object(records._Ingest, "whole_line", spied):
        with pytest.raises(MalformedLine) as exc:
            records.parse_field_file(io.StringIO("\n".join(lines)))
    assert (exc.value.lineno, str(exc.value)) == (5, message)
    assert seen == [[1, None], [5, exc.value]]
