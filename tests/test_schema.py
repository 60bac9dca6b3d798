from __future__ import annotations

import random

import pytest

from escher import exprs
from escher._lex import Token, tokenize
from escher.errors import (
    DuplicateAttribute,
    InvariantRefersUnknownAttribute,
    ParseError,
    UnknownGenericParam,
)
from escher.schema import (
    Attached,
    Attribute,
    ClassSchema,
    ClassType,
    Detachable,
    GenericDerivation,
    GenericParamRef,
    InvariantClause,
    InvariantExpr,
    parse_schema,
    parse_type,
    render_schema,
    render_type,
    type_equal,
    weakens_attachment,
)
from helpers import random_schema, random_type


def test_tokens_are_named_tuples_in_field_order():
    tokens = tokenize('version 2 -- note\n  x: "a\\n" 1.5e3\n')
    assert tokens == [
        Token("IDENT", "version", 1, 1), Token("INT", "2", 1, 9),
        Token("IDENT", "x", 2, 3), Token("OP", ":", 2, 4), Token("STRING", '"a\\n"', 2, 6),
        Token("REAL", "1.5e3", 2, 12), Token("EOF", "", 3, 1),
    ]
    assert all(type(tok) is Token for tok in tokens)
    assert (tokens[2].kind, tokens[2].text, tokens[2].line, tokens[2].column) == ("IDENT", "x", 2, 3)


def test_parse_bank_account_v1(bank_v1):
    assert bank_v1.name == "BANK_ACCOUNT"
    assert bank_v1.version == 1
    assert bank_v1.attribute_names() == ("info", "tot_deposits", "tot_withdrawals")
    assert bank_v1.attributes[0].declared_type == ClassType("STRING")
    assert len(bank_v1.invariant.clauses) == 1
    assert bank_v1.invariant.clauses[0].tag == "valid_account"


def test_parse_empty_class():
    schema = parse_schema("class C feature end")
    assert schema.name == "C"
    assert schema.attributes == ()
    assert not schema.invariant
    assert schema.version == 1  # absent header defaults to 1


def test_parse_generic_box():
    schema = parse_schema("class BOX [G] feature item: G end")
    assert schema.generic_params == ("G",)
    assert schema.attributes[0].declared_type == GenericParamRef("G")


def test_render_round_trip_bank(bank_v1):
    again = parse_schema(render_schema(bank_v1))
    assert again == bank_v1


def test_render_empty_class_single_line():
    schema = parse_schema("class C feature end")
    assert render_schema(schema) == "version 1\nclass C feature end\n"


def test_render_generic_box_canonical():
    text = render_schema(parse_schema("class BOX [G]  feature\n item : G\nend"))
    assert text == "version 1\nclass BOX [G] feature\n  item: G\nend\n"
    assert parse_schema(text) == parse_schema("class BOX [G] feature item: G end")


def test_a_backslash_before_a_newline_ends_no_string():
    """A backslash escapes no newline, so the quote opens no string: it is
    the error, at its own line and column."""
    with pytest.raises(ParseError) as exc:
        parse_schema('class C feature s: STRING\ninvariant t: s = "a\\\nb" end')
    assert (exc.value.line, exc.value.column, exc.value.args[0]) == (
        2, 18, "unexpected character '\"'"
    )


def test_comments_are_skipped():
    schema = parse_schema("-- header comment\nclass C feature\n  x: INTEGER -- trailing\nend")
    assert schema.attribute_names() == ("x",)


def test_duplicate_attribute_rejected():
    with pytest.raises(DuplicateAttribute):
        parse_schema("class C feature x: INTEGER x: STRING end")


def test_invariant_unknown_attribute_rejected():
    with pytest.raises(InvariantRefersUnknownAttribute) as exc:
        parse_schema("class C feature x: INTEGER invariant bad: y > 0 end")
    assert exc.value.tag == "bad"
    assert exc.value.name == "y"


def test_trailing_content_rejected():
    with pytest.raises(ParseError):
        parse_schema("class C feature end class D feature end")


@pytest.mark.parametrize(
    "source",
    [
        "class class feature end",  # keyword as class name
        "class C feature end: INTEGER end",  # keyword as attribute name
        "class C [G, G] feature end",  # duplicate generic parameter
        "class C feature x: attached detachable STRING end",  # double marker
        "class BOX [G] feature x: G[INTEGER] end",  # derived generic parameter
        "version 0 class C feature end",  # version tags start at 1
        "class C feature x INTEGER end",  # missing colon
    ],
)
def test_parse_errors(source):
    with pytest.raises(ParseError):
        parse_schema(source)


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("class C [G] feature G: INTEGER end\n", 1, 21),
        ("class C [H, G] feature\n  x: G\n  G: INTEGER\n  G: REAL\nend\n", 3, 3),
    ],
)
def test_a_generic_parameter_named_as_an_attribute_is_a_parse_error(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_schema(text)
    message = "name 'G' is both a generic parameter and an attribute"
    assert (exc.value.line, exc.value.column, str(exc.value)) == (
        line, column, f"line {line}, column {column}: {message}"
    )


def test_oversized_version_header_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_schema("version " + "9" * 5000 + "\nclass C feature end")
    assert (exc.value.line, exc.value.column, exc.value.args[0]) == (1, 9, "version tag too large")


def test_unknown_generic_param_on_construction():
    with pytest.raises(UnknownGenericParam):
        ClassSchema("C", (), (Attribute("x", GenericParamRef("G")),))


@pytest.mark.parametrize(
    "node",
    [exprs.OldField("x"), exprs.InputRef("x"), exprs.Convert("INTEGER_TO_REAL", exprs.AttrRef("x"))],
)
def test_invariant_refuses_transformer_nodes_on_construction(node):
    body = exprs.Compare("=", exprs.BinOp("+", exprs.AttrRef("x"), node), exprs.Lit(0))
    with pytest.raises(ValueError):
        ClassSchema(
            "C",
            attributes=(Attribute("x", ClassType("INTEGER")),),
            invariant=InvariantExpr((InvariantClause("c", body),)),
        )


def test_generic_param_attribute_clash_rejected():
    with pytest.raises(ValueError):
        ClassSchema("C", ("G",), (Attribute("G", ClassType("INTEGER")),))


def test_multi_argument_derivation_desugars():
    nested = parse_type("TABLE[K][V]")
    sugared = parse_type("TABLE[K, V]")
    assert nested == sugared
    assert render_type(sugared) == "TABLE[K, V]"


def test_markers_allowed_inside_arguments():
    t = parse_type("ARRAY[attached PERSON]")
    assert isinstance(t, GenericDerivation)
    assert t.argument == Attached(ClassType("PERSON"))
    assert parse_type(render_type(t)) == t


def test_type_equal_examples():
    assert type_equal(ClassType("INTEGER"), ClassType("INTEGER"))
    assert not type_equal(Attached(ClassType("STRING")), Detachable(ClassType("STRING")))
    assert not type_equal(parse_type("ARRAY[INTEGER]"), parse_type("ARRAY[REAL]"))


def test_type_equal_default_attachment_is_detachable():
    assert type_equal(ClassType("PERSON"), Detachable(ClassType("PERSON")))
    assert not type_equal(ClassType("PERSON"), Attached(ClassType("PERSON")))
    assert type_equal(parse_type("ARRAY[INTEGER]"), parse_type("ARRAY[detachable INTEGER]"))


@pytest.mark.parametrize(
    "old,new,expected",
    [
        ("attached STRING", "STRING", True),
        ("attached STRING", "detachable STRING", True),
        ("attached ARRAY[INTEGER]", "ARRAY[detachable INTEGER]", True),
        ("attached STRING", "attached STRING", False),
        ("STRING", "attached STRING", False),
        ("detachable STRING", "STRING", False),
        ("attached STRING", "INTEGER", False),
    ],
)
def test_weakens_attachment(old, new, expected):
    assert weakens_attachment(parse_type(old), parse_type(new)) is expected


def test_type_equal_is_an_equivalence_relation():
    rng = random.Random(20111)
    pool = [random_type(rng, ("G",)) for _ in range(60)]
    for _ in range(400):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert type_equal(a, a)
        assert type_equal(a, b) == type_equal(b, a)
        if type_equal(a, b) and type_equal(b, c):
            assert type_equal(a, c)


def test_round_trip_property_random_schemas():
    rng = random.Random(4257)
    for i in range(200):
        schema = random_schema(rng, name=f"RT_{i}", allow_invariant=True)
        text = render_schema(schema)
        again = parse_schema(text)
        assert again == schema
        assert render_schema(again) == text  # canonical form is a fixed point


def test_negative_literals_in_invariants():
    schema = parse_schema("class C feature x: INTEGER invariant c: x > -1 end")
    clause = schema.invariant.clauses[0]
    assert clause.body.right.value == -1
    assert parse_schema(render_schema(schema)) == schema


def test_attachment_marker_rejected_on_marker():
    with pytest.raises(ValueError):
        Attached(Detachable(ClassType("C")))


def test_derivation_base_cannot_be_generic_param():
    with pytest.raises(ValueError):
        GenericDerivation(GenericParamRef("G"), ClassType("INTEGER"))


# ---------------------------------------------------------------------------
# type depth bound: each "[" and "," nests the derivation one level
# ---------------------------------------------------------------------------

N = exprs.MAX_DEPTH
TYPE_TOO_DEEP = f"type expression nested deeper than {N} levels"


def _nested(levels: int, marker: str = "") -> str:
    return f"{marker}LIST[" * levels + "INTEGER" + "]" * levels


def _wide(arguments: int) -> str:
    return "TABLE[" + ", ".join(["INTEGER"] * arguments) + "]"


def _nth(text: str, token: str, nth: int) -> int:
    """1-based column of the ``nth`` occurrence of ``token`` in one line."""
    offset = -1
    for _ in range(nth):
        offset = text.index(token, offset + 1)
    return offset + 1


@pytest.mark.parametrize(
    "text",
    [_nested(N), _nested(N, "attached "), _wide(N), "TABLE[" + _nested(N - 2) + ", INTEGER]"],
    ids=["brackets", "marked-brackets", "arguments", "both"],
)
def test_a_type_at_the_bound_parses_renders_and_normalizes(text):
    t = parse_type(text)
    assert parse_type(render_type(t)) == t
    assert type_equal(t, t)
    schema = parse_schema(
        f"class C feature a: {text} b: INTEGER invariant c: {'(' * N}b > 0{')' * N} end"
    )
    assert parse_schema(render_schema(schema)) == schema


@pytest.mark.parametrize(
    "text,token,nth",
    [
        (_nested(N + 1), "[", N + 1),
        (_nested(500), "[", N + 1),
        (_nested(500, "attached "), "[", N + 1),
        (_wide(N + 1), ",", N),
        (_wide(2000), ",", N),
        ("TABLE[" + _nested(N - 1) + ", INTEGER]", ",", 1),
    ],
    ids=["101-brackets", "500-brackets", "500-marked", "101-arguments", "2000-arguments", "both"],
)
def test_a_type_past_the_bound_is_refused_at_its_token(text, token, nth):
    with pytest.raises(ParseError) as exc:
        parse_type(text)
    assert exc.value.args[0] == TYPE_TOO_DEEP
    assert (exc.value.line, exc.value.column) == (1, _nth(text, token, nth))
