from __future__ import annotations

import random

import pytest

from escher import exprs
from escher.errors import (
    ConversionFailure,
    DuplicateTarget,
    MissingAttribute,
    ParseError,
    UnknownConverter,
)
from escher.repository import content_digest
from escher.schema import parse_schema, parse_type
from escher.smo import diff_schemas
from escher.transformer import (
    Assign,
    CheckAttached,
    Noop,
    ObjectTransformer,
    assignable,
    generate_transformer,
    parse_transformer,
    render_transformer,
)
from helpers import random_schema_pair


def test_generate_bank_account(bank_v1, bank_v2):
    t = generate_transformer(diff_schemas(bank_v1, bank_v2))
    assert t.class_name == "BANK_ACCOUNT"
    assert (t.from_version, t.to_version) == (1, 2)
    assert t.instructions == (
        Assign("info", exprs.Convert("STRING_TO_INTEGER", exprs.OldField("info"))),
        Noop("attribute tot_deposits removed; value will be dropped"),
        Noop("attribute tot_withdrawals removed; value will be dropped"),
        Assign("balance", exprs.InputRef("balance")),
    )
    assert t.required_inputs == {"balance"}


def test_generate_identity_transformer(bank_v1):
    ct = diff_schemas(bank_v1, bank_v1.with_version(2))
    t = generate_transformer(ct)
    assert all(i == Assign(i.target_name, exprs.OldField(i.target_name)) for i in t.instructions)
    assert len(t.instructions) == 3


def test_generate_widening_copies():
    old = parse_schema("class C feature x: INTEGER end")
    new = parse_schema("version 2 class C feature x: REAL end")
    t = generate_transformer(diff_schemas(old, new))
    assert t.instructions == (Assign("x", exprs.OldField("x")),)


def test_generate_narrowing_uses_converter():
    old = parse_schema("class C feature x: REAL end")
    new = parse_schema("version 2 class C feature x: INTEGER end")
    t = generate_transformer(diff_schemas(old, new))
    assert t.instructions == (Assign("x", exprs.Convert("REAL_TO_INTEGER", exprs.OldField("x"))),)


def test_generate_no_converter_warns_and_demands_input():
    old = parse_schema("class C feature x: PERSON end")
    new = parse_schema("version 2 class C feature x: WIDGET end")
    t = generate_transformer(diff_schemas(old, new))
    assert t.instructions == (
        Noop("no conversion from PERSON to WIDGET for x"),
        Assign("x", exprs.InputRef("x")),
    )
    assert t.required_inputs == {"x"}


def test_generate_rename_copies_with_warning():
    old = parse_schema("class C feature a: INTEGER end")
    new = parse_schema("version 2 class C feature b: INTEGER end")
    t = generate_transformer(diff_schemas(old, new))
    assert t.instructions == (
        Noop("possible rename of a to b; verify semantics"),
        Assign("b", exprs.OldField("a")),
    )


def test_generate_attach_added_checks():
    old = parse_schema("class C feature owner: PERSON end")
    new = parse_schema("version 2 class C feature owner: attached PERSON end")
    t = generate_transformer(diff_schemas(old, new))
    assert t.instructions == (Assign("owner", exprs.OldField("owner")), CheckAttached("owner"))


def test_generate_needs_distinct_versions(bank_v1):
    with pytest.raises(ValueError):
        generate_transformer(diff_schemas(bank_v1, bank_v1))


def test_generation_is_total_over_random_diffs():
    rng = random.Random(5150)
    for _ in range(120):
        old, new = random_schema_pair(rng)
        t = generate_transformer(diff_schemas(old, new))
        # every target attribute assigned exactly once
        assigned = {i.target_name for i in t.instructions if isinstance(i, Assign)}
        assert assigned == set(new.attribute_names())


def test_generation_is_deterministic(bank_v1, bank_v2):
    a = render_transformer(generate_transformer(diff_schemas(bank_v1, bank_v2)))
    b = render_transformer(generate_transformer(diff_schemas(bank_v1, bank_v2)))
    assert a == b


# ---------------------------------------------------------------------------
# assignability
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "src,dst,expected",
    [
        ("INTEGER", "INTEGER", True),
        ("attached STRING", "detachable STRING", True),
        ("detachable STRING", "attached STRING", False),
        ("REAL", "INTEGER", False),
        ("INTEGER", "REAL", True),
        ("attached PERSON", "PERSON", True),
        ("PERSON", "attached PERSON", False),
        ("ARRAY[INTEGER]", "ARRAY[INTEGER]", True),
        ("ARRAY[INTEGER]", "ARRAY[REAL]", False),
    ],
)
def test_assignable(src, dst, expected):
    assert assignable(parse_type(src), parse_type(dst)) is expected


# ---------------------------------------------------------------------------
# concrete syntax
# ---------------------------------------------------------------------------


def test_render_matches_file_format(bank_v1, bank_v2):
    t = generate_transformer(diff_schemas(bank_v1, bank_v2))
    assert render_transformer(t) == (
        "transform BANK_ACCOUNT from 1 to 2\n"
        "  Result.info := convert STRING_TO_INTEGER (oldc.info)\n"
        "  -- warning: attribute tot_deposits removed; value will be dropped\n"
        "  noop\n"
        "  -- warning: attribute tot_withdrawals removed; value will be dropped\n"
        "  noop\n"
        "  Result.balance := input balance\n"
        "end\n"
    )


GOLDEN_OLD = """class C feature
  keep: INTEGER
  conv: STRING
  wide: INTEGER
  gone: BOOLEAN
  old_name: REAL
  p: PERSON
  owner: PERSON
end
"""
GOLDEN_NEW = """version 2 class C feature
  keep: INTEGER
  conv: INTEGER
  wide: REAL
  new_name: REAL
  p: WIDGET
  owner: attached PERSON
  added: STRING
end
"""
# One line per SMO kind; handler files saved by earlier versions hold exactly
# this text, so a change here changes their digests and user_modified flags.
GOLDEN_EST = (
    "transform C from 1 to 2\n"
    "  Result.keep := oldc.keep\n"
    "  Result.conv := convert STRING_TO_INTEGER (oldc.conv)\n"
    "  Result.wide := oldc.wide\n"
    "  -- warning: no conversion from PERSON to WIDGET for p\n"
    "  noop\n"
    "  Result.p := input p\n"
    "  Result.owner := oldc.owner\n"
    "  require_attached Result.owner\n"
    "  -- warning: possible rename of old_name to new_name; verify semantics\n"
    "  noop\n"
    "  Result.new_name := oldc.old_name\n"
    "  -- warning: attribute gone removed; value will be dropped\n"
    "  noop\n"
    "  Result.added := input added\n"
    "end\n"
)


def test_generated_text_and_digest_are_pinned_for_every_smo_kind():
    ct = diff_schemas(parse_schema(GOLDEN_OLD), parse_schema(GOLDEN_NEW))
    t = generate_transformer(ct)
    text = render_transformer(t)
    assert text == GOLDEN_EST
    assert content_digest(text) == (
        "581cdfc57c5d54e54cc3e856b1785fc4c3a1af385eba6a82f68e3a931b17c407"
    )
    assert parse_transformer(text) == t
    assert t.required_inputs == {"p", "added"}


def test_parse_render_round_trip_generated(bank_v1, bank_v2):
    t = generate_transformer(diff_schemas(bank_v1, bank_v2))
    text = render_transformer(t)
    assert parse_transformer(text) == t
    assert render_transformer(parse_transformer(text)) == text


def test_parse_hand_written_arithmetic(hand_fixed_transformer):
    t = hand_fixed_transformer
    assert t.instructions[0] == Assign("info", exprs.Convert("STRING_TO_INTEGER", exprs.OldField("info")))
    balance = t.instructions[1]
    assert isinstance(balance, Assign)
    assert balance.expr == exprs.BinOp(
        "-", exprs.OldField("tot_deposits"), exprs.OldField("tot_withdrawals")
    )
    assert render_transformer(parse_transformer(render_transformer(t))) == render_transformer(t)


def test_parse_expression_grammar():
    t = parse_transformer(
        "transform C from 1 to 2\n"
        "  Result.x := (oldc.a + 2) * oldc.b - 4 // 2\n"
        '  Result.y := "quoted \\"text\\""\n'
        "  Result.z := input other\n"
        "  Result.w := convert INTEGER_TO_REAL (oldc.a + 1)\n"
        "end\n"
    )
    x = t.instructions[0]
    assert isinstance(x, Assign)
    # precedence: ((a+2)*b) - (4//2)
    assert x.expr == exprs.BinOp(
        "-",
        exprs.BinOp("*", exprs.BinOp("+", exprs.OldField("a"), exprs.Lit(2)), exprs.OldField("b")),
        exprs.BinOp("//", exprs.Lit(4), exprs.Lit(2)),
    )
    assert t.instructions[2] == Assign("z", exprs.InputRef("other"))
    assert t.required_inputs == {"other"}
    text = render_transformer(t)
    assert parse_transformer(text) == t


def test_duplicate_target_rejected():
    with pytest.raises(DuplicateTarget):
        parse_transformer(
            "transform C from 1 to 2\n"
            "  Result.balance := input balance\n"
            "  Result.balance := oldc.balance\n"
            "end\n"
        )


def test_unknown_converter_parses_and_fails_when_evaluated():
    text = "transform C from 1 to 2\n  Result.x := convert NO_SUCH (oldc.x)\nend\n"
    (instr,) = parse_transformer(text).instructions
    source = exprs.compile_expr(instr.expr)
    with pytest.raises(UnknownConverter) as caught:
        source({"x": 1}, {})
    assert caught.value.converter_id == "NO_SUCH"
    with pytest.raises(MissingAttribute):  # the argument is evaluated first
        source({}, {})


@pytest.mark.parametrize(
    "source",
    [
        "  Result.x := oldc.x\nend\n",  # missing header
        "transform C from 1 to 2\n  Result.x := oldc.x\n",  # missing end
        "transform C from 1 to 1\n  noop\nend\n",  # same version
        "transform C from 1 to 2\n  Result.x = oldc.x\nend\n",  # = instead of :=
        "transform C from 1 to 2\n  Result.x := oldc.x extra\nend\n",
        "transform C from 1 to 2\n  noop\nend\ntrailing\n",
    ],
)
def test_parse_errors(source):
    with pytest.raises((ParseError, ValueError)):
        parse_transformer(source)


@pytest.mark.parametrize(
    "header, column, message",
    [
        ("transform X from " + "9" * 5000 + " to 2", 18, "version tag too large"),
        ("transform X from 1 to " + "9" * 5000, 23, "version tag too large"),
        ("transform X from 0 to 2", 18, "version tag must be positive"),
        ("transform X from 2 to 2", 23, "a transformer must change the version"),
    ],
)
def test_header_versions_are_parse_errors_at_their_token(header, column, message):
    with pytest.raises(ParseError) as exc:
        parse_transformer(header + "\nend\n")
    assert (exc.value.line, exc.value.column, exc.value.args[0]) == (1, column, message)


@pytest.mark.parametrize(
    "source, line, column",
    [
        ("transform C from 1 to 2\n    Result.x := oldc.x )\nend\n", 2, 24),
        ("\t transform C from 1 to 1\nend\n", 1, 25),
        ("transform C from 1 to 2\nend\n   noop\n", 3, 4),
    ],
    ids=["statement", "header", "trailing"],
)
def test_a_parse_error_column_counts_from_the_start_of_the_file_line(source, line, column):
    with pytest.raises(ParseError) as exc:
        parse_transformer(source)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_a_failing_statement_raises_at_its_own_line_in_each_file():
    bad = "  Result.x := oldc.\n"
    first = "transform C from 1 to 2\n" + bad + "end\n"
    second = "transform C from 2 to 3\n  Result.y := oldc.y\n  noop\n" + bad + "end\n"
    for text, line in [(first, 2), (second, 4), (first, 2)]:
        with pytest.raises(ParseError) as exc:
            parse_transformer(text)
        assert exc.value.line == line


def test_negative_literals_round_trip():
    text = "transform C from 1 to 2\n  Result.x := oldc.a - -3\nend\n"
    t = parse_transformer(text)
    assert t.instructions[0].expr == exprs.BinOp("-", exprs.OldField("a"), exprs.Lit(-3))
    assert render_transformer(t) == text


def test_warning_comment_attaches_to_noop():
    t = parse_transformer(
        "transform C from 1 to 2\n"
        "  -- plain comment\n"
        "  -- warning: something dropped\n"
        "  noop\n"
        "  noop\n"
        "end\n"
    )
    assert t.instructions == (Noop("something dropped"), Noop(""))


def test_assign_refuses_invariant_only_nodes():
    true = exprs.Lit(True)
    for invariant_only in (
        exprs.AttrRef("x"),
        exprs.Compare(">", exprs.OldField("x"), exprs.Lit(0)),
        exprs.And(true, true),
        exprs.Or(true, true),
        exprs.Not(true),
    ):
        with pytest.raises(ValueError):
            Assign("x", invariant_only)
        with pytest.raises(ValueError):  # nested too
            Assign("x", exprs.BinOp("+", exprs.Lit(1), exprs.Convert("C", invariant_only)))


def test_transformer_invariants():
    with pytest.raises(ValueError):
        ObjectTransformer("C", 1, 1, ())
    with pytest.raises(DuplicateTarget):
        ObjectTransformer("C", 1, 2, (Assign("x", exprs.InputRef("x")), Assign("x", exprs.OldField("y"))))


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

CONVERTERS = exprs.CONVERTERS


def test_builtin_conversions():
    # by repr, so that each result is of its target's kind: 3 is not 3.0
    assert repr(CONVERTERS["STRING_TO_INTEGER"]("42")) == "42"
    assert repr(CONVERTERS["STRING_TO_INTEGER"]("-7")) == "-7"
    assert repr(CONVERTERS["INTEGER_TO_STRING"](42)) == "'42'"
    assert repr(CONVERTERS["INTEGER_TO_REAL"](3)) == "3.0"
    assert repr(CONVERTERS["REAL_TO_INTEGER"](-2.7)) == "-2"  # toward zero
    assert repr(CONVERTERS["STRING_TO_REAL"]("2.5")) == "2.5"
    assert repr(CONVERTERS["REAL_TO_STRING"](2.5)) == "'2.5'"


def test_conversion_failures():
    with pytest.raises(ConversionFailure):
        CONVERTERS["STRING_TO_INTEGER"]("abc")
    with pytest.raises(ConversionFailure):
        CONVERTERS["STRING_TO_INTEGER"](1)
    with pytest.raises(ConversionFailure):  # more digits than int() converts
        CONVERTERS["STRING_TO_INTEGER"]("1" * 5000)
    assert CONVERTERS["STRING_TO_INTEGER"]("-" + "0" * 5000 + "7") == -7
    for converter_id, value in [("INTEGER_TO_STRING", True), ("INTEGER_TO_REAL", 1.0),
                                ("REAL_TO_INTEGER", 1), ("REAL_TO_STRING", None)]:
        with pytest.raises(ConversionFailure):  # kinds apart: a bool is no integer
            CONVERTERS[converter_id](value)
    with pytest.raises(ConversionFailure):
        CONVERTERS["REAL_TO_INTEGER"](float("nan"))


def test_string_integer_round_trip_property():
    rng = random.Random(314)
    to_string = CONVERTERS["INTEGER_TO_STRING"]
    to_int = CONVERTERS["STRING_TO_INTEGER"]
    for _ in range(500):
        v = rng.randint(-(2**63), 2**63 - 1)
        assert to_int(to_string(v)) == v


def test_generated_conversion_is_chosen_by_the_normalized_type_pair():
    old = parse_schema("class C feature x: detachable STRING end")
    new = parse_schema("version 2 class C feature x: INTEGER end")
    t = generate_transformer(diff_schemas(old, new))
    assert t.instructions == (Assign("x", exprs.Convert("STRING_TO_INTEGER", exprs.OldField("x"))),)
    old = parse_schema("class C feature x: attached STRING end")
    t = generate_transformer(diff_schemas(old, new))
    assert t.instructions == (
        Noop("no conversion from attached STRING to INTEGER for x"),
        Assign("x", exprs.InputRef("x")),
    )


def test_every_conversion_the_generator_emits_is_in_the_table():
    kinds = ("INTEGER", "REAL", "STRING", "BOOLEAN")
    emitted = set()
    for a in kinds:
        for b in kinds:
            old = parse_schema(f"class C feature x: {a} end")
            new = parse_schema(f"version 2 class C feature x: {b} end")
            for instr in generate_transformer(diff_schemas(old, new)).instructions:
                if isinstance(instr, Assign) and isinstance(instr.expr, exprs.Convert):
                    emitted.add(instr.expr.converter_id)
    assert emitted <= set(CONVERTERS)
    assert emitted == set(CONVERTERS) - {"INTEGER_TO_REAL"}  # a widening is copied as is


def test_the_conversion_table_is_read_only():
    with pytest.raises(TypeError):
        CONVERTERS["MY_CONV"] = CONVERTERS["INTEGER_TO_REAL"]
    with pytest.raises(TypeError):
        del CONVERTERS["INTEGER_TO_REAL"]
    assert "MY_CONV" not in CONVERTERS and len(CONVERTERS) == 6
