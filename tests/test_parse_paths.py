"""Differential tests of the parses a project load shares one memo between.

``parse_schema(source, memo)`` reads a text with one production per line,
as ``render_schema`` writes it, a line at a time (``_parse_lines``), and
looks each line up in ``memo`` first; any other text goes through the
whole-text parser, which alone writes errors. ``parse_transformer`` looks
each statement line up in the memo before parsing it. Texts parsed in turn
through one shared memo must give exactly what each gives parsed alone, with
no memo: an equal result with the same repr (so the same attribute order),
or the same error class, line, column and message.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import BANK_V1_TEXT, BANK_V2_TEXT, HAND_FIXED_TEXT  # noqa: E402
from escher.schema import _parse_lines, parse_schema, render_schema  # noqa: E402
from escher.smo import diff_schemas  # noqa: E402
from escher.transformer import (  # noqa: E402
    generate_transformer,
    parse_transformer,
    render_transformer,
)
from helpers import random_schema, random_schema_pair  # noqa: E402
from test_eso_paths import mutate  # noqa: E402
from test_fuzz import TEMPLATES  # noqa: E402


def outcome(parse, text: str):
    try:
        result = parse(text)
    except Exception as err:
        return ("error", type(err).__name__, getattr(err, "line", None),
                getattr(err, "column", None), str(err))
    return ("ok", result, repr(result))


ESC_TEMPLATES = [BANK_V1_TEXT, BANK_V2_TEXT, TEMPLATES[0], TEMPLATES[1]]
EST_TEMPLATES = [HAND_FIXED_TEXT, TEMPLATES[2], TEMPLATES[3]]


def rendered_schema(seed: int) -> str:
    if seed < len(ESC_TEMPLATES):
        return ESC_TEMPLATES[seed]
    return render_schema(random_schema(random.Random(seed), allow_invariant=True))


def rendered_transformer(seed: int) -> str:
    if seed < len(EST_TEMPLATES):
        return EST_TEMPLATES[seed]
    return render_transformer(generate_transformer(diff_schemas(
        *random_schema_pair(random.Random(seed))
    )))


PIECES = [
    "version", "class", "feature", "invariant", "end", "attached", "detachable",
    "and", "or", "not", "Void", "true", "Result", "oldc", "input", "convert", "noop",
    "require_attached", "STRING_TO_INTEGER", "transform", "from", "to",
    "INTEGER", "REAL", "ARRAY", "LIST", "SUBJECT", "C", "G", "H", "x",
    "attr_0", "attr_1", "fresh_0", "nonneg_attr_0", "nonneg_attr_1",
    "0", "1", "2", "-1", "00", "9223372036854775808", "1" * 5000, "1.5",
    ":", ":=", ",", ";", "[", "]", "(", ")", ".", ">=", "=", "+", "-", "//", "--", "-- x",
    '"s"', '"', " ", "  ", "\t", "\r", "\n", "\n\n", "\x0c", "é",
    "  attr_0: INTEGER\n", "  attr_0: G\n", "  x: INTEGER\n", "invariant\n", "end\n",
    "  nonneg_attr_0: attr_0 >= 0\n", "  Result.attr_0 := oldc.attr_0\n",
    "  Result.attr_0 := oldc.\n", "  noop\n", "  -- warning: w\n",
]
edits = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.sampled_from(["insert", "delete", "replace", "token delete", "token replace"]),
        st.sampled_from(PIECES),
        st.integers(1, 4),
    ),
    max_size=3,
)
# Few seeds, so that texts drawn together often share lines.
schema_texts = st.lists(
    st.builds(lambda seed, e: mutate(rendered_schema(seed), e), st.integers(0, 12), edits),
    min_size=1, max_size=5,
)
transformer_texts = st.lists(
    st.builds(lambda seed, e: mutate(rendered_transformer(seed), e), st.integers(0, 12), edits),
    min_size=1, max_size=5,
)


@settings(max_examples=1000, deadline=None)
@given(schema_texts)
@example(["class C feature end\n", "class C feature\nend\n"])
@example(["class C [G, G] feature\n  x: G\nend\n"])
@example(["class C feature\n  x: INTEGER\n  x: REAL\nend\n"])
def test_schemas_through_one_memo_read_as_each_alone(texts):
    memo: dict = {}
    for text in texts:
        event("whole text" if outcome(lambda t: _parse_lines(t, {}), text)[1] is None
              else "line path")
        assert outcome(lambda t: parse_schema(t, memo), text) == outcome(parse_schema, text)


@settings(max_examples=1000, deadline=None)
@given(transformer_texts)
def test_transformers_through_one_memo_read_as_each_alone(texts):
    memo: dict = {}
    parse_schema(BANK_V1_TEXT, memo)  # a load shares the memo with .esc lines
    for text in texts:
        assert outcome(lambda t: parse_transformer(t, memo), text) == outcome(
            parse_transformer, text
        )


def test_every_rendered_schema_with_a_body_takes_the_line_path():
    rng = random.Random(1313)
    memo: dict = {}
    seen = {"generic": 0, "invariant": 0, "empty": 0}
    for _ in range(400):
        schema = random_schema(rng, allow_invariant=True)
        text = render_schema(schema)
        read = _parse_lines(text, memo)
        if not schema.attributes:
            # ``class X feature end`` holds three productions on one line
            assert read is None, text
            assert parse_schema(text, memo) == schema
            seen["empty"] += 1
            continue
        assert read is not None, text
        assert outcome(lambda _: read, text) == outcome(parse_schema, text)
        seen["generic"] += bool(schema.generic_params)
        seen["invariant"] += bool(schema.invariant)
    assert min(seen.values()) > 10, seen


CANONICAL = (
    "version 3\n"
    "class BOX [G, H] feature\n"
    "  item: G\n"
    "  rows: attached ARRAY[LIST[H]]\n"
    "  count: INTEGER\n"
    "invariant\n"
    "  counted: count >= 0 and not (count = 7 or count // 2 > -1)\n"
    "end\n"
)


@pytest.mark.parametrize(
    "old, new",
    [
        ("end\n", "end"),  # no final line break
        ("end\n", "end\n\n"),
        ("version 3\n", ""),  # the default version
        ("version 3\n", "-- note\nversion 3\n"),
        ("  item: G\n", "\n  item: G\n"),
        ("  item: G\n", "  item: G,\n"),
        ("  item: G\n", "  item:\n G\n"),
        ("ARRAY[LIST[H]]\n", "ARRAY\n[LIST[H]]\n"),
        ("-1)\n", "-1);\n"),
        ("> -1)\n", ">\n -1)\n"),
        ("feature\n", "feature\n  a: INTEGER  b: REAL\n"),
        ("invariant\n", "invariant\ninvariant\n"),
        ("  count: INTEGER\n", "  count: INTEGER\nend\n"),
        ("[G, H]", "[G, G]"),  # a ParseError the whole-text parser writes
        ("item: G", "item: G[H]"),
        ("count >= 0", "count >= 9223372036854775808"),
        ("  count: INTEGER\n", "  count: INTEGER \x0c\n"),
        ("version 3", "version 0"),
    ],
)
def test_each_deviation_leaves_the_line_path(old, new):
    assert old in CANONICAL
    text = CANONICAL.replace(old, new, 1)
    assert _parse_lines(text, {}) is None
    assert outcome(lambda t: parse_schema(t, {}), text) == outcome(parse_schema, text)


@pytest.mark.parametrize(
    "old, new",
    [
        ("", ""),
        ("  count: INTEGER\n", "count:INTEGER -- why\n"),
        ("  count: INTEGER\n", "  count: INTEGER\r\n"),
        ("count: INTEGER", "count: INTEGER\n  item: REAL"),  # DuplicateAttribute
        ("count: INTEGER", "count: INTEGER\n  G: REAL"),  # a parameter's name, ValueError
        ("counted: count", "counted: missing"),  # InvariantRefersUnknownAttribute
        ("invariant\n  counted:", "invariant\n  counted: count > 1\n  counted:"),
    ],
)
def test_one_production_a_line_keeps_the_line_path_and_its_checks(old, new):
    text = CANONICAL.replace(old, new, 1)
    assert outcome(lambda t: _parse_lines(t, {}), text) == outcome(parse_schema, text)


def test_texts_sharing_lines_share_their_parse():
    memo: dict = {}
    first = parse_schema(CANONICAL, memo)
    entries = len(memo)
    second = parse_schema(CANONICAL.replace("version 3", "version 4"), memo)
    assert len(memo) == entries + 1
    assert second.attributes[1] is first.attributes[1]
    assert second.invariant.clauses[0] is first.invariant.clauses[0]
    # an attribute line under other generic parameters is another parse
    third = parse_schema(CANONICAL.replace("[G, H]", "[H, G]"), memo)
    assert third.attributes[1] is not first.attributes[1]
    assert third.attributes[2] is not first.attributes[2]


def test_a_failing_statement_line_raises_at_its_own_line_every_time():
    bad = "  Result.x := oldc.\n"
    a = "transform C from 1 to 2\n" + bad + "end\n"
    b = "transform C from 2 to 3\n  Result.y := oldc.y\n  noop\n" + bad + "end\n"
    memo: dict = {}
    for text, line in [(a, 2), (b, 4), (a, 2)]:
        assert outcome(lambda t: parse_transformer(t, memo), text) == outcome(
            parse_transformer, text
        )
        assert outcome(parse_transformer, text)[2] == line
    assert bad.strip() not in memo
    assert "Result.y := oldc.y" in memo
