"""The arithmetic and literal grammar ``.esc`` invariants and ``.est``
transformer sources share (``exprs.parse_arith``/``exprs.parse_literal``).

Random trees over each language's node pool must come back from their
rendered text unchanged, and a literal no value can hold must be a
``ParseError`` at parse time in both languages.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher import exprs  # noqa: E402
from escher.errors import ParseError  # noqa: E402
from escher.schema import (  # noqa: E402
    Attribute,
    ClassSchema,
    ClassType,
    InvariantClause,
    InvariantExpr,
    parse_schema,
    render_schema,
)
from escher.transformer import (  # noqa: E402
    AssignConverted,
    AssignExpr,
    AssignInput,
    CopyField,
    ObjectTransformer,
    parse_transformer,
    render_transformer,
)
from escher.values import INT64_MAX, INT64_MIN  # noqa: E402

ATTRIBUTES = ("a", "b", "tot_deposits")

literals = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX).map(exprs.IntLit),
    st.sampled_from([-1, -3, 0, 7]).map(exprs.IntLit),
    st.floats(allow_nan=False, allow_infinity=False).map(exprs.RealLit),
    st.sampled_from([-0.5, -2.0, 1e-300, -1e300]).map(exprs.RealLit),
    st.text(st.sampled_from(['a', ' ', '"', '\\', '\n', '\t', '-', 'é']), max_size=6).map(exprs.StrLit),
    st.booleans().map(exprs.BoolLit),
    st.just(exprs.VoidLit()),
)


def arithmetic(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.builds(exprs.BinOp, st.sampled_from(exprs.ARITH_OPS), inner, inner),
        max_leaves=8,
    )


def clauses():
    """Invariant bodies: connectives and comparisons over arithmetic with
    ``AttrRef`` atoms; a parenthesized clause may stand inside arithmetic."""
    attrs = st.sampled_from(ATTRIBUTES).map(exprs.AttrRef)
    return st.recursive(
        arithmetic(st.one_of(literals, attrs)),
        lambda inner: st.one_of(
            st.builds(exprs.Compare, st.sampled_from(exprs.COMPARE_OPS), inner, inner),
            st.builds(exprs.And, inner, inner),
            st.builds(exprs.Or, inner, inner),
            st.builds(exprs.Not, inner),
            st.builds(exprs.BinOp, st.sampled_from(exprs.ARITH_OPS), inner, inner),
        ),
        max_leaves=10,
    )


names = st.sampled_from(["x", "tot_deposits", "input", "Void", "oldc"])
sources = st.recursive(
    arithmetic(
        st.one_of(literals, names.map(exprs.OldField), names.map(exprs.InputRef))
    ),
    lambda inner: st.one_of(
        st.builds(exprs.Convert, st.sampled_from(["STRING_TO_INTEGER", "MY_CONV"]), inner),
        st.builds(exprs.BinOp, st.sampled_from(exprs.ARITH_OPS), inner, inner),
    ),
    max_leaves=10,
)


def assignment(target: str, expr: exprs.Expr):
    """The instruction ``parse_transformer`` builds for ``Result.<target> := expr``."""
    if isinstance(expr, exprs.OldField):
        return CopyField(target, expr.name)
    if isinstance(expr, exprs.InputRef) and expr.key == target:
        return AssignInput(target)
    if isinstance(expr, exprs.Convert) and isinstance(expr.arg, exprs.OldField):
        return AssignConverted(target, expr.converter_id, expr.arg.name)
    return AssignExpr(target, expr)


@settings(max_examples=300, deadline=None)
@given(st.lists(clauses(), min_size=1, max_size=2))
def test_invariants_round_trip(bodies):
    schema = ClassSchema(
        "C",
        attributes=tuple(Attribute(name, ClassType("INTEGER")) for name in ATTRIBUTES),
        invariant=InvariantExpr(
            tuple(InvariantClause(f"c{i}", body) for i, body in enumerate(bodies))
        ),
    )
    assert parse_schema(render_schema(schema)) == schema


@settings(max_examples=300, deadline=None)
@given(st.lists(sources, min_size=1, max_size=2))
def test_transformer_sources_round_trip(bodies):
    t = ObjectTransformer(
        "C", 1, 2, tuple(assignment(f"t{i}", body) for i, body in enumerate(bodies))
    )
    assert parse_transformer(render_transformer(t)) == t


def _in_invariant(literal: str) -> str:
    return f"class C feature a: INTEGER invariant c: a < {literal} end"


def _in_transformer(literal: str) -> str:
    return f"transform C from 1 to 2\nResult.a := {literal}\nend\n"


@pytest.mark.parametrize(
    "parse,wrap",
    [(parse_schema, _in_invariant), (parse_transformer, _in_transformer)],
    ids=["esc", "est"],
)
@pytest.mark.parametrize(
    "literal,reason",
    [
        pytest.param("1" * 5000, "integer literal outside the 64-bit range", id="5000-digits"),
        pytest.param("0" * 5000 + "1", None, id="5000-leading-zeros"),
        ("99999999999999999999", "integer literal outside the 64-bit range"),
        ("9223372036854775808", "integer literal outside the 64-bit range"),
        ("-9223372036854775809", "integer literal outside the 64-bit range"),
        ("9223372036854775807", None),
        ("-9223372036854775808", None),
        ("1.0e999", "real literal out of range"),
        ("-1.0e999", "real literal out of range"),
        pytest.param("1" * 400 + ".0", "real literal out of range", id="400-digit-real"),
        ("1.0e-999", None),
    ],
)
def test_literal_range_is_checked_at_parse_time(parse, wrap, literal, reason):
    if reason is None:
        parse(wrap(literal))
        return
    with pytest.raises(ParseError) as exc:
        parse(wrap(literal))
    assert exc.value.args[0] == reason
    text = wrap(literal)
    line = text[: text.index(literal)].count("\n") + 1
    column = text.index(literal) - text.rfind("\n", 0, text.index(literal))
    assert (exc.value.line, exc.value.column) == (line, column)
