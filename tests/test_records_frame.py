"""parse_field_file decides a line the same on its frame path and on its general path.

A stripped line in the writer's frame is split into entry texts, each decoded
once per call; any other line, and any frame line that the frame path does
not accept, is decoded whole, and only that path refuses a line.  A writer
file sends only its first line, which sets the list's kind, down the general
path.  Each example is
a short file of the writer lines of one list, which holds one kind of field,
with one or two mutated lines of that list in it.  The file
is parsed as is, and again with the frame pattern swapped for one that
matches nothing, which sends every line down the general path.  The two
parses must give equal records with the same sharing and warnings, or the
same error: its type, line number and message.
"""

import io
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


def _outcome(text: str):
    """The records, x_max, entry count, distinct entry objects and warnings, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fl = records.parse_field_file(io.StringIO(text))
        except Exception as exc:
            return "error", type(exc), getattr(exc, "lineno", None), str(exc)
    entries = [loc for r in fl for loc in r.ramification]
    shared = len({id(loc) for loc in entries})
    return "ok", tuple(fl), fl.x_max, len(entries), shared, [str(w.message) for w in caught]


def _general_outcome(text: str):
    with mock.patch.object(records, "_LINE_FRAME", _NEVER):
        return _outcome(text)


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
    """A file of one list's writer lines with one or two mutated lines of it, and the mutated lines."""
    writer_lines = draw(st.sampled_from(WRITER_LISTS))
    lines = draw(st.lists(st.sampled_from(writer_lines), max_size=4))
    mutated = draw(st.lists(mutated_lines(writer_lines), min_size=1, max_size=2))
    for line in mutated:
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"])), mutated


@settings(max_examples=400, deadline=None)
@given(files())
def test_frame_path_agrees_with_the_general_path(case):
    text, mutated = case
    for line in mutated:
        event("mutated line in the frame" if records._LINE_FRAME.fullmatch(line.strip())
              else "mutated line out of the frame")
    outcome = _outcome(text)
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


def test_a_writer_file_sends_only_its_first_line_down_the_general_path():
    # the first line sets the list's kind; every later writer line is taken by the frame
    whole_line, seen = records._Ingest.whole_line, []

    def counted(ingest, obj, lineno):
        seen.append(lineno)
        return whole_line(ingest, obj, lineno)

    with mock.patch.object(records._Ingest, "whole_line", counted):
        for lines in WRITER_LISTS:
            seen.clear()
            assert len(records.parse_field_file(io.StringIO("\n".join(lines)))) == len(lines)
            assert seen == [1]


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
    assert records._LINE_FRAME.fullmatch(lines[4])
    with mock.patch.object(records._Ingest, "whole_line", spied):
        with pytest.raises(MalformedLine) as exc:
            records.parse_field_file(io.StringIO("\n".join(lines)))
    assert (exc.value.lineno, str(exc.value)) == (5, message)
    assert seen == [[1, None], [5, exc.value]]
