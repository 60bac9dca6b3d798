"""Differential test of the two ``.eso`` readers.

``deserialize`` reads a file exactly as ``serialize`` writes it a record
block at a time (``_deserialize_blocks``) and hands any other text to the
line parser (``_deserialize_lines``), which alone writes errors. Whatever the
text, ``deserialize`` must give exactly what the line parser gives on its
own: an equal graph with the same field order and value reprs, or the same
error class, line and reason.
"""

from __future__ import annotations

import random
import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher._lex import escape_string, unescape_string  # noqa: E402
from escher.exprs import render_real  # noqa: E402
from escher.objects import (  # noqa: E402
    _deserialize_blocks,
    _deserialize_lines,
    deserialize,
    serialize,
)
from helpers import random_graph  # noqa: E402


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
    event("block path" if _deserialize_blocks(text) is not None else "line path")
    assert outcome(deserialize, text) == outcome(_deserialize_lines, text)


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


@pytest.mark.parametrize(
    "old, new",
    [
        ("end\nobj 1", "end\n\nobj 1"),  # a gap between blocks
        ("obj 1 ITEM", "obj 2 ITEM"),  # a non-dense id
        ("  b: BOOLEAN = true\n", "  b: BOOLEAN = true\n  b: BOOLEAN = false\n"),  # duplicate
        ("= -7", "= 9223372036854775808"),  # past int64
        ("= -7", "= -9223372036854775809"),
        ("= -0.0", "= 1.0e999"),  # not finite
        ("next: ITEM = ref 1", "next: NODE = ref 1"),  # annotated with another class
        ("next: ITEM = ref 1", "next: ITEM = ref 2"),  # dangling
        ("ref 1", "ref " + "1" * 5000),  # more digits than int() converts
        ("version 3", "version 0"),
        ("= -7", "= -٣"),  # a digit int() reads, but not ASCII
        ("= -7", "= -7\r"),
        ("= -7", "= -7 -- note"),
        ("  n: INTEGER", "   n: INTEGER"),
        ("  n: INTEGER = -7\n", "  end\n"),
        ("v: NONE = Void", "v: NONE = ref 0"),
        ("ESCHER-OBJECTS 1\n", " ESCHER-OBJECTS 1\n"),
    ],
)
def test_each_deviation_leaves_the_block_path(old, new):
    assert old in CANONICAL
    text = CANONICAL.replace(old, new, 1)
    assert _deserialize_blocks(text) is None
    assert outcome(deserialize, text) == outcome(_deserialize_lines, text)


def test_no_records_and_a_missing_end_leave_the_block_path():
    for text in ["ESCHER-OBJECTS 1\n", "ESCHER-OBJECTS 1\nobj 0 NODE version 1\n", CANONICAL[:-1]]:
        assert _deserialize_blocks(text) is None
        assert outcome(deserialize, text) == outcome(_deserialize_lines, text)


def test_every_serialized_graph_takes_the_block_path():
    assert outcome(_deserialize_blocks, CANONICAL) == outcome(_deserialize_lines, CANONICAL)
    rng = random.Random(1212)
    for _ in range(300):
        graph = random_graph(rng)
        text = serialize(graph)
        read = _deserialize_blocks(text)
        assert read is not None, text
        assert read == graph
        assert outcome(lambda _: read, text) == outcome(_deserialize_lines, text)


@settings(max_examples=500, deadline=None)
@given(st.text())
@example('a"b\\c\nd')
def test_a_string_renders_as_the_per_character_escape_and_reads_back(value):
    rendered = escape_string(value)
    assert rendered == '"' + "".join({'"': '\\"', "\\": "\\\\", "\n": "\\n"}.get(ch, ch) for ch in value) + '"'
    assert unescape_string(rendered, 1, 1) == value
