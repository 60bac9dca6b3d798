"""Differential test of the two ``.eso`` field-line parsers.

``_parse_field`` takes canonical lines through one regex and everything else
through the tokenizer. Whatever the shape of a line, it must give exactly
what the tokenizer path gives: the same name, annotation and value, or a
``FormatError`` with the same line and message.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher.errors import FormatError  # noqa: E402
from escher.exprs import render_real  # noqa: E402
from escher.objects import (  # noqa: E402
    _CANONICAL_FIELD_RE,
    _parse_field,
    _parse_field_tokens,
    serialize,
)
from helpers import random_graph  # noqa: E402

LINENO = 7

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
    return line.strip()  # deserialize hands stripped lines to the parser


def outcome(parse, line: str):
    try:
        name, annotation, value = parse(line, LINENO)
    except FormatError as err:
        return ("error", err.line, err.reason)
    return ("ok", name, annotation, repr(value))


@settings(max_examples=1500, deadline=None)
@given(field_lines())
@example("x: INTEGER = 9223372036854775808")
@example("x: INTEGER = -9223372036854775809")
@example("x: REAL = 1.0e999")
@example("x: REAL = -0.0")
@example('s: STRING = "a\\qb"')
@example('s: STRING = "say \\"hi\\" \\\\ two\\nlines"')
@example("x: INTEGER = - 5")
@example("x: INTEGER = 5 -- five")
@example("x: INTEGER = " + "1" * 5000)
@example("p: NODE = ref " + "1" * 5000)
def test_regex_path_agrees_with_tokenizer_path(line):
    assert outcome(_parse_field, line) == outcome(_parse_field_tokens, line)


def test_serialized_field_lines_take_the_regex_path():
    rng = random.Random(4242)
    for _ in range(100):
        for line in serialize(random_graph(rng)).split("\n"):
            if line.startswith("  "):
                assert _CANONICAL_FIELD_RE.match(line), line
