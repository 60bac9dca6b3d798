"""Differential test of the ``.eso`` reading loop's two record readers.

``deserialize`` reads each record exactly as ``serialize`` writes it a
block at a time and hands any other record, alone, to the line reader
(``objects._read_record``), which alone writes errors; then the block match
resumes. Whatever the text, ``deserialize`` must give exactly what it gives
when no block ever matches (``objects._BLOCK_RE`` replaced by a pattern that
matches nothing), so that every record goes through the line reader: an
equal graph with the same field order and value reprs, or the same error
class, line and reason.
"""

from __future__ import annotations

import random
import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher import objects  # noqa: E402
from escher._lex import escape_string, unescape_string  # noqa: E402
from escher.errors import DanglingReference, FormatError  # noqa: E402
from escher.values import render_real  # noqa: E402
from escher.objects import ObjectGraph, deserialize, serialize  # noqa: E402
from helpers import random_graph  # noqa: E402

NO_BLOCK = re.compile(r"(?!)")


def read_by_lines(text: str) -> ObjectGraph:
    """``deserialize`` with every record read by the line reader."""
    block_re, objects._BLOCK_RE = objects._BLOCK_RE, NO_BLOCK
    try:
        return deserialize(text)
    finally:
        objects._BLOCK_RE = block_re


def outcome(parse, text: str):
    try:
        graph = parse(text)
    except Exception as err:
        return ("error", type(err).__name__, getattr(err, "line", None), str(err))
    return ("ok", [
        (r.id, r.class_name, r.version, [(name, repr(value)) for name, value in r.fields.items()])
        for r in graph.records
    ])


def assert_paths_agree(text: str) -> None:
    read = outcome(deserialize, text)
    event(f"{read[0]} {read[1] if read[0] == 'error' else ''}")
    assert read == outcome(read_by_lines, text)


serialized = st.integers(0, 2**32).map(lambda seed: serialize(random_graph(random.Random(seed))))

PIECES = [
    "obj", "end", "version", "ref", "Void", "true", "false", "True",
    "INTEGER", "REAL", "BOOLEAN", "STRING", "NONE", "NODE", "ITEM", "CELL", "f0", "f1",
    "0", "1", "2", "7", "00", "01", "-3", "-0", "٣", "１",
    "9223372036854775807", "9223372036854775808", "-9223372036854775809", "1" * 5000,
    "1.5", "-0.0", "1e5", "1.0e999", "2.5e-400", "1.", ".5",
    '"', '""', '"a"', '"\\q"', '"\\n"', "\\", ":", "=", ": ", " = ", "-", "--", "--x",
    " ", "  ", "\t", "\r", "\n", "\n\n", "\r\n", "\x0c", "\u2028", "\xa0",
    "end\n", "  f0: INTEGER = 1\n", "  f0: NODE = ref 0\n", "obj 1 NODE version 1\n",
    "ESCHER-OBJECTS 1\n",
]
# Values for a field of each annotation, mostly of its own kind, so that an
# edit to values alone often leaves a file the block reader takes; a ``ref``
# field gets another id.
FITTING = {
    "INTEGER": ["0", "00", "-0", "42", "-9223372036854775808", "9223372036854775807",
                "9223372036854775808", "1" * 30, "٣"],
    "REAL": ["0.5", "-0.0", "00.10", "1.0e-7", "2.5e-400", "1.0e999", "1e5"],
    "STRING": ['""', '"a b"', '"\\"\\\\\\n"', '"é"', '"\\t"'],
    "BOOLEAN": ["true", "false", "True"],
    "NONE": ["Void", "void"],
}
REF_IDS = ["0", "1", "00", "2", "5", "-1"]
TOKEN_SPLIT = re.compile(r"( |\n)")


def mutate(text: str, edits: list[tuple[int, str, str, int]]) -> str:
    """Insert, delete or replace characters, whole space- or newline-
    separated tokens, or a field's value, of a serialized file. ``number``
    counts the characters to delete, or picks the fitting value."""
    for position, action, piece, number in edits:
        if action == "value":
            tokens = TOKEN_SPLIT.split(text)  # a value follows ``=`` and a space
            places = [i for i in range(2, len(tokens)) if tokens[i - 2] == "="]
            if places:
                at = places[position % len(places)]
                pool = FITTING.get(tokens[at - 4], REF_IDS)
                if tokens[at] == "ref" and at + 2 < len(tokens):
                    at += 2
                tokens[at] = pool[number % len(pool)]
                text = "".join(tokens)
            continue
        if action.startswith("token"):
            tokens = TOKEN_SPLIT.split(text)
            at = position % len(tokens)
            if action == "token delete":
                del tokens[at]
            else:
                tokens[at] = piece
            text = "".join(tokens)
            continue
        at = position % (len(text) + 1)
        if action == "insert":
            text = text[:at] + piece + text[at:]
        elif action == "delete":
            text = text[:at] + text[at + number:]
        else:
            text = text[:at] + piece + text[at + number:]
    return text


value_edits = st.tuples(st.integers(0, 10_000), st.just("value"), st.just(""), st.integers(0, 100))
edits = st.tuples(
    st.integers(0, 10_000),
    st.sampled_from(["insert", "delete", "replace", "token delete", "token replace"]),
    st.sampled_from(PIECES),
    st.integers(1, 4),
) | value_edits
mutated = st.builds(mutate, serialized, st.lists(edits, min_size=1, max_size=3)) | st.builds(
    mutate, serialized, st.lists(value_edits, min_size=1, max_size=3)
)


# One field line of many shapes, canonical or not, valid or not.
names = st.sampled_from(
    ["x", "_a1", "tot_deposits", "ref", "Void", "true", "ü", "x٣", "1x", ""]
)
annotations = st.sampled_from(
    ["INTEGER", "REAL", "BOOLEAN", "STRING", "NONE", "PERSON", "ITEM", "ü", "", "INTEGER INTEGER"]
)
colons = st.sampled_from([": ", ":", " : ", ":\t", ":  ", ":=", " "])
equals = st.sampled_from([" = ", "=", "  = ", "\t=\t", " := ", " "])
minus = st.sampled_from(["", "-", "- ", "--", "-\t"])
digits = st.sampled_from(["0", "7", "٣", "１", "١"])

ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.builds(lambda sign, d: sign + d, minus, st.text(digits, min_size=1, max_size=4)),
)
reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(render_real),
    st.builds(
        lambda sign, body: sign + body,
        minus,
        st.sampled_from(
            ["1e5", "1.0e999", "2.5e-400", "1.", ".5", "1.5e", "1.5E+3", "0.0", "٣.٥"]
        ),
    ),
)
string_bodies = st.lists(
    st.sampled_from(['a', 'é', ' ', '\t', '\\"', '\\\\', '\\n', '\\t', '\\', '"', '--', '٣']),
    max_size=6,
).map("".join)
strings = string_bodies.map(lambda body: f'"{body}"')
refs = st.builds(
    lambda space, target: f"ref{space}{target}",
    st.sampled_from([" ", "", "  ", "\t"]),
    st.sampled_from(["0", "1", "12", "-1", "1.5", "x", "٣", ""]),
)
words = st.sampled_from(["Void", "true", "false", "True", "void", "nope", "", "ref"])
literals = st.one_of(ints, reals, strings, refs, words)
trailers = st.sampled_from(["", " ", "\t", " -- note", "--note", " x", " 1", ";", "\r"])


@st.composite
def field_lines(draw) -> str:
    line = (
        draw(names) + draw(colons) + draw(annotations) + draw(equals)
        + draw(literals) + draw(trailers)
    )
    return line.strip()  # ``splice`` puts an indent in front


def splice(text: str, position: int, indent: str, line: str, replace: bool) -> str:
    """Put one field line into a serialized file, after its header, in
    place of a line or between two."""
    lines = text.split("\n")
    at = 1 + position % len(lines)
    lines[at:at + replace] = [indent + line]
    return "\n".join(lines)


@settings(max_examples=1500, deadline=None)
@given(mutated)
@example("ESCHER-OBJECTS 1\nobj 0 NODE version 1\nend\n")
@example("ESCHER-OBJECTS 1\n")
@example("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  f0: INTEGER = 1\n")
def test_mutated_files_read_the_same_on_both_paths(text):
    assert_paths_agree(text)


@settings(max_examples=1000, deadline=None)
@given(
    st.builds(
        splice,
        serialized,
        st.integers(0, 10_000),
        st.sampled_from(["  ", "", " ", "\t", "   "]),
        field_lines(),
        st.booleans(),
    )
)
def test_field_lines_spliced_into_serialized_files_read_the_same(text):
    assert_paths_agree(text)


CANONICAL = (
    "ESCHER-OBJECTS 1\n"
    "obj 0 NODE version 1\n"
    "  n: INTEGER = -7\n"
    '  s: STRING = "a \\"b\\" \\\\ c\\nd"\n'
    "  r: REAL = -0.0\n"
    "  b: BOOLEAN = true\n"
    "  v: NONE = Void\n"
    "  next: ITEM = ref 1\n"
    "end\n"
    "obj 1 ITEM version 3\n"
    "  back: NODE = ref 0\n"
    "end\n"
)


def handed_records(monkeypatch, text: str):
    """The outcome of ``deserialize``, and the line at which the line
    reader was handed each stretch of text it read."""
    handed = []
    read_record = objects._read_record

    def spy(text, pos, lineno, records, refs):
        handed.append(lineno + 1)
        return read_record(text, pos, lineno, records, refs)

    with monkeypatch.context() as patch:
        patch.setattr(objects, "_read_record", spy)
        return outcome(deserialize, text), handed


@pytest.mark.parametrize(
    "old, new, handed",
    [
        ("end\nobj 1", "end\n\nobj 1", [10]),  # a gap between blocks
        ("obj 1 ITEM", "obj 2 ITEM", [10]),  # a non-dense id
        ("  b: BOOLEAN = true\n", "  b: BOOLEAN = true\n  b: BOOLEAN = false\n", [2]),  # duplicate
        ("= -7", "= 9223372036854775808", [2]),  # past int64
        ("= -7", "= -9223372036854775809", [2]),
        ("= -0.0", "= 1.0e999", [2]),  # not finite
        ("ref 1", "ref " + "1" * 5000, [2]),  # more digits than int() converts
        ("version 3", "version 0", [10]),
        ("= -7", "= -٣", [2]),  # a digit int() reads, but not ASCII
        ("= -7", "= -7\r", []),  # trailing blanks, read as a block
        ("= -7", "= -7 -- note", [2]),
        ("  n: INTEGER", "   n: INTEGER", []),  # any blank indent, read as a block
        ("  n: INTEGER", "\t n: INTEGER", []),
        ("  n: INTEGER = -7", "  n : INTEGER = -7", [2]),
        ("  n: INTEGER = -7\n", "  end\n", [2, 4]),  # record 0 ends early; line 4 is no record
        ("v: NONE = Void", "v: NONE = ref 0", [2]),
        # Read as blocks; the check after the last record refuses the ``ref``.
        ("next: ITEM = ref 1", "next: NODE = ref 1", []),  # annotated with another class
        ("next: ITEM = ref 1", "next: ITEM = ref 2", []),  # dangling
        ("ESCHER-OBJECTS 1\n", " ESCHER-OBJECTS 1\n", []),
    ],
)
def test_only_a_deviating_record_goes_to_the_line_reader(monkeypatch, old, new, handed):
    assert old in CANONICAL
    text = CANONICAL.replace(old, new, 1)
    read, seen = handed_records(monkeypatch, text)
    assert seen == handed
    assert read == outcome(read_by_lines, text)


def test_no_records_and_a_missing_end_read_the_same_on_both_paths():
    for text in ["ESCHER-OBJECTS 1\n", "ESCHER-OBJECTS 1\nobj 0 NODE version 1\n", CANONICAL[:-1]]:
        assert outcome(deserialize, text) == outcome(read_by_lines, text)


def test_every_serialized_graph_is_read_as_blocks(monkeypatch):
    assert handed_records(monkeypatch, CANONICAL) == (outcome(read_by_lines, CANONICAL), [])
    rng = random.Random(1212)
    for _ in range(300):
        graph = random_graph(rng)
        text = serialize(graph)
        read, handed = handed_records(monkeypatch, text)
        assert handed == [], text
        assert deserialize(text) == graph
        assert read == outcome(read_by_lines, text)


def records_text(*bodies: str, classes: str = "NNNNI") -> str:
    """Records 0, 1, ... of class NODE or ITEM (``classes``), each with the
    given field lines."""
    kinds = {"N": "NODE", "I": "ITEM"}
    return "ESCHER-OBJECTS 1\n" + "".join(
        f"obj {i} {kinds[classes[i]]} version 1\n{body}end\n" for i, body in enumerate(bodies)
    )


def line_of(text: str, piece: str) -> int:
    return next(n for n, line in enumerate(text.split("\n"), 1) if piece in line)


def test_the_line_reader_reads_a_deviating_record_alone(monkeypatch):
    bodies = [f"  x: INTEGER = {i}\n  y: STRING = \"{i}\"\n" for i in range(5)]
    canonical = records_text(*bodies)
    text = records_text(*bodies[:2], bodies[2].replace(": ", " : "), *bodies[3:])
    read_lines = []
    parse_field = objects._parse_field

    def spy(line, lineno):
        read_lines.append(lineno)
        return parse_field(line, lineno)

    monkeypatch.setattr(objects, "_parse_field", spy)
    assert deserialize(text) == deserialize(canonical)
    assert read_lines == [line_of(text, "x : INTEGER = 2"), line_of(text, 'y : STRING = "2"')]


@pytest.mark.parametrize(
    "earlier",
    [lambda text: text, lambda text: text.replace("end\n", "end\n\n", 1),
     lambda text: text.replace("obj 3 NODE version 1\n", "obj 3 NODE version 1\r\n")],
    ids=["blocks", "a gap after record 0", "a CRLF in record 3"],
)
def test_an_error_after_a_run_of_blocks_names_its_own_line(earlier):
    bodies = ["  x: INTEGER = 1\n"] * 8 + ["  x: INTEGER = 1\n  y: INTEGER = 9223372036854775808\n"]
    text = earlier(records_text(*bodies, classes="N" * 9))
    with pytest.raises(FormatError) as exc:
        deserialize(text)
    line = line_of(text, "9223372036854775808")
    assert exc.value.cli_line() == (
        f"FormatError {line} line {line}, column 16: integer literal outside the 64-bit range"
    )
    assert outcome(deserialize, text) == outcome(read_by_lines, text)


@pytest.mark.parametrize("indent", ["  ", "\t"], ids=["record 0 a block", "record 0 by lines"])
@pytest.mark.parametrize(
    "first, second, wrong",
    [("a: ITEM", "b: NODE", "b: NODE"), ("a: NODE", "b: ITEM", "a: NODE"), ("a: ITEM", "b: ITEM", None)],
)
def test_refs_to_one_target_read_as_a_block_and_by_lines(indent, first, second, wrong):
    other = "\t" if indent == "  " else "  "
    text = records_text(f"{indent}{first} = ref 2\n", f"{other}{second} = ref 2\n", "", classes="NNI")
    assert outcome(deserialize, text) == outcome(read_by_lines, text)
    if wrong is None:
        graph = deserialize(text)
        assert graph.records[0].fields["a"] is graph.records[1].fields["b"]
        return
    with pytest.raises(FormatError) as exc:
        deserialize(text)
    name, annotation = wrong.split(": ")
    assert exc.value.cli_line() == (
        f"FormatError {line_of(text, wrong)} field '{name}' is annotated {annotation}, "
        "but record 2 is of class ITEM"
    )


def test_a_format_error_in_the_last_record_beats_bad_refs_in_the_first():
    first = "  dangling: NODE = ref 9\n  wrong: NODE = ref 2\n"
    last = "  n: INTEGER = 1.5\n"
    cases = [
        (records_text(first, "", last, classes="NNI"), FormatError, 9),
        (records_text(first, "", "", classes="NNI"), DanglingReference, None),
        (records_text(first.replace("ref 9", "ref 0"), "", "", classes="NNI"), FormatError, 4),
    ]
    for text, error, line in cases:
        with pytest.raises(error) as exc:
            deserialize(text)
        assert getattr(exc.value, "line", None) == line
        assert outcome(deserialize, text) == outcome(read_by_lines, text)
    assert str(exc.value) == "line 4: field 'wrong' is annotated NODE, but record 2 is of class ITEM"


@settings(max_examples=500, deadline=None)
@given(st.text())
@example('a"b\\c\nd\re')
def test_a_string_renders_as_the_per_character_escape_and_reads_back(value):
    rendered = escape_string(value)
    escapes = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r"}
    assert rendered == '"' + "".join(escapes.get(ch, ch) for ch in value) + '"'
    assert unescape_string(rendered, 1, 1) == value
