"""The expression and literal grammar ``.esc`` invariants and ``.est``
transformer sources share (``exprs.parse_expr``/``exprs.parse_literal``),
whose literals ``.eso`` fields and ``--inputs`` values read too.

Random trees over each language's node pool must come back from their
rendered text unchanged, as must every value from ``exprs.render_value``. A
literal no value can hold must be refused at parse time with one reason in
all four inputs, and a tree or parenthesis nested deeper than
``exprs.MAX_DEPTH`` must be a ``ParseError``. Generated into a gate as
invariant clauses, or into a hop as transformer sources, the same trees must
evaluate as the tree walk ``helpers.walk_eval`` does, value for value and
error for error. A conversion reads only a value of its source kind, and a
string only with ASCII digits, as every literal does.
"""

from __future__ import annotations

import inspect
import re
import sys

import pytest

pytest.importorskip("hypothesis")

from unittest import mock  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher import exprs, objects  # noqa: E402
from escher.errors import (  # noqa: E402
    ConversionFailure,
    EvaluationError,
    FormatError,
    MissingAttribute,
    ParseError,
)
from escher.objects import (  # noqa: E402
    ObjectRecord,
    deserialize,
    eval_invariant,
    interpret_transformer,
    parse_value_text,
)
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
    Assign,
    ObjectTransformer,
    parse_transformer,
    render_transformer,
)
from escher.values import CLASS_NAMED, INT64_MAX, INT64_MIN, KINDS, RefVal  # noqa: E402

from helpers import clause_loop, step_loop, walk_eval  # noqa: E402

ATTRIBUTES = ("a", "b", "tot_deposits")

literal_values = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.sampled_from([-1, -3, 0, 7]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.5, -2.0, 1e-300, -1e300]),
    st.text(st.sampled_from(['a', ' ', '"', '\\', '\n', '\t', '-', 'é']), max_size=6),
    st.booleans(),
    st.none(),
)
literals = literal_values.map(exprs.Lit)


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
        st.builds(
            exprs.Convert,
            st.sampled_from(["STRING_TO_INTEGER", "INTEGER_TO_REAL", "NO_SUCH"]),
            inner,
        ),
        st.builds(exprs.BinOp, st.sampled_from(exprs.ARITH_OPS), inner, inner),
    ),
    max_leaves=10,
)


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
        "C", 1, 2, tuple(Assign(f"t{i}", body) for i, body in enumerate(bodies))
    )
    assert parse_transformer(render_transformer(t)) == t


def _in_invariant(literal: str) -> str:
    return f"class C feature a: INTEGER invariant c: a < {literal} end"


def _in_transformer(literal: str) -> str:
    return f"transform C from 1 to 2\nResult.a := {literal}\nend\n"


def _in_object_file(literal: str) -> str:
    kind = "REAL" if "." in literal else "INTEGER"
    return f"ESCHER-OBJECTS 1\nobj 0 C version 1\na: {kind} = {literal}\nend\n"


def _as_input(literal: str) -> str:
    return literal


LANGUAGES = pytest.mark.parametrize(
    "parse,wrap",
    [
        (parse_schema, _in_invariant),
        (parse_transformer, _in_transformer),
        (deserialize, _in_object_file),
        (parse_value_text, _as_input),
    ],
    ids=["esc", "est", "eso", "inputs"],
)


def _refused(parse, text: str, reason: str, at: str) -> None:
    """``parse(text)`` fails for ``reason`` at the first ``at`` in ``text``:
    a ParseError in ``.esc``/``.est``, and in ``.eso``/``--inputs`` a
    FormatError with the same place and reason, which it gives once."""
    index = text.index(at)
    line = text.count("\n", 0, index) + 1
    column = index - text.rfind("\n", 0, index)
    with pytest.raises((ParseError, FormatError)) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column, exc.value.reason) == (line, column, reason)
    assert str(exc.value).endswith(f"line {line}, column {column}: {reason}")


@LANGUAGES
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
    _refused(parse, wrap(literal), reason, literal)


@LANGUAGES
@pytest.mark.parametrize("after", ["x", "Void", '"7"', "(1)"])
def test_minus_prefixes_only_a_number(parse, wrap, after):
    _refused(parse, wrap("-" + after), "'-' must prefix a numeric literal", after)


# ---------------------------------------------------------------------------
# depth bound
# ---------------------------------------------------------------------------

N = exprs.MAX_DEPTH
TOO_DEEP = f"expression nested deeper than {N} levels"


def _esc(body: str) -> str:
    return f"class C feature a: INTEGER invariant c: {body} end"


def _est(body: str) -> str:
    return f"transform C from 1 to 2\nResult.a := {body}\nend\n"


def _chain(atom: str, terms: int) -> str:
    return " + ".join([atom] * terms)


def _parens(atom: str, depth: int) -> str:
    return "(" * depth + atom + ")" * depth


def _at(text: str, token: str, nth: int) -> tuple[int, int]:
    """Line and column of the ``nth`` (1-based) occurrence of ``token``."""
    offset = -1
    for _ in range(nth):
        offset = text.index(token, offset + 1)
    return text[:offset].count("\n") + 1, offset - text.rfind("\n", 0, offset)


LANGUAGES = pytest.mark.parametrize(
    "parse,wrap,atom",
    [(parse_schema, _esc, "a"), (parse_transformer, _est, "oldc.a")],
    ids=["esc", "est"],
)


@LANGUAGES
def test_a_chain_at_the_bound_parses_and_one_more_term_is_refused_at_its_operator(parse, wrap, atom):
    parse(wrap(_chain(atom, N)))  # N - 1 operators over a leaf: depth N
    text = wrap(_chain(atom, 5000))
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.args[0] == TOO_DEEP
    assert (exc.value.line, exc.value.column) == _at(text, "+", N)


@LANGUAGES
def test_parentheses_at_the_bound_parse_and_one_more_is_refused_where_it_opens(parse, wrap, atom):
    parse(wrap(_parens(atom, N)))
    text = wrap(_parens(atom, 3000))
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.args[0] == TOO_DEEP
    assert (exc.value.line, exc.value.column) == _at(text, "(", N + 1)


@pytest.mark.parametrize(
    "parse,text,token",
    [
        (parse_schema, _esc("not " * 3000 + "a"), "not"),
        (parse_schema, _esc(" and ".join(["a"] * 3000)), "and"),
        (parse_transformer, _est("convert X (" * 3000 + "oldc.a" + ")" * 3000), "("),
    ],
    ids=["not", "and", "convert"],
)
def test_other_nesting_is_refused_as_a_parse_error(parse, text, token):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.args[0] == TOO_DEEP
    line = text.split("\n")[exc.value.line - 1]
    assert line[exc.value.column - 1:].startswith(token)


@pytest.mark.parametrize(
    "parse,wrap,link,atom",
    [(parse_schema, _esc, "a or b and not c = d + e * (", "a"),
     (parse_transformer, _est, "oldc.x + oldc.y * (", "oldc.a")],
    ids=["esc", "est"],
)
def test_parentheses_under_every_level_at_the_bound_stay_inside_the_stack(parse, wrap, link, atom):
    """Each parenthesis opens below every operator level, where the parser
    is deepest; the tree built on the way back is past the bound."""
    with pytest.raises(ParseError) as exc:
        parse(wrap(link * N + atom + ")" * N))
    assert exc.value.args[0] == TOO_DEEP


@pytest.mark.parametrize(
    "parse,wrap,atom,frames",
    [(parse_schema, _esc, "a", 9), (parse_transformer, _est, "oldc.a", 5)],
    ids=["esc", "est"],
)
def test_a_parenthesis_costs_the_frames_the_exprs_docstring_states(parse, wrap, atom, frames):
    module = sys.modules[parse.__module__]  # its ``_parse_atom`` opens each parenthesis
    depths = []
    real = module._parse_atom

    def spy(stream):
        depths.append(len(inspect.stack(0)))
        return real(stream)

    with mock.patch.object(module, "_parse_atom", spy):
        parse(wrap(_parens(atom, 10)))
    assert {b - a for a, b in zip(depths, depths[1:])} == {frames + 1}  # and the spy's own


def test_a_tree_over_the_bound_cannot_be_built():
    tree = exprs.OldField("a")
    for _ in range(N - 1):
        tree = exprs.BinOp("+", tree, exprs.Lit(1))
    assert tree.depth == N
    with pytest.raises(ValueError, match=TOO_DEEP):
        exprs.BinOp("+", tree, exprs.Lit(1))
    with pytest.raises(ValueError, match=TOO_DEEP):
        exprs.Not(exprs.Not(tree))
    assert "depth" not in repr(exprs.Not(exprs.Lit(1)))  # not a field


def test_trees_at_the_bound_render_walk_and_evaluate():
    t = parse_transformer(_est(_chain("oldc.a", N)))
    assert parse_transformer(render_transformer(t)) == t
    assert sum(1 for _ in exprs.walk(t.instructions[0].expr)) == 2 * N - 1
    schema = ClassSchema("C", attributes=(Attribute("a", ClassType("INTEGER")),), version=2)
    old = ObjectRecord(0, "C", 1, {"a": 1})
    new = interpret_transformer(t, old, {}, new_schema=schema)
    assert list(new.fields.items()) == [("a", N)]
    assert list(t.hops) == [schema.shape_key]  # generated, as is any hop at the bound
    assert walk_eval(t.instructions[0].expr, old.fields, {}) == N  # and the walk agrees
    with pytest.raises(EvaluationError, match="integer overflow") as caught:  # so do its errors
        interpret_transformer(t, ObjectRecord(0, "C", 1, {"a": INT64_MAX}), {}, new_schema=schema)
    assert caught.value.index == 0
    parsed = parse_schema(_esc(_chain("a", N - 1) + " > 0"))
    assert parse_schema(render_schema(parsed)) == parsed
    eval_invariant(ObjectRecord(0, "C", 1, {"a": 1}), parsed)


# ---------------------------------------------------------------------------
# generated code against a tree walk
# ---------------------------------------------------------------------------


def _generated(expr):
    """``expr`` alone, written as a gate writes a clause, into one generated
    function of fields ``f`` that returns its value, and raises as
    ``walk_eval`` does."""
    writer = exprs.SourceWriter()
    value = writer.expr(expr)
    writer.own(None)
    return objects._define("value(f)", writer, value, lambda _, reason: exprs.EvalProblem(reason),
                           lambda _, name: MissingAttribute(name))


def _outcome(call):
    """What ``call`` returns, or the class, text and attributes of what it
    raises; by ``repr``, so that a NaN or a -0.0 must match exactly too."""
    try:
        return repr(call())
    except Exception as err:  # whatever it is, both sides must raise it
        return type(err), str(err), repr(vars(err))


def _each_subtree_agrees(expr, fields):
    """Every subtree of an invariant body, generated alone, against the
    walk: a difference inside a tree shows even where an error elsewhere
    hides it from the whole."""
    for node in exprs.walk(expr):
        generated = _outcome(lambda: _generated(node)(fields))
        assert generated == _outcome(lambda: walk_eval(node, fields, {}))


SOURCE_SCHEMA = ClassSchema("C", attributes=(Attribute("t", ClassType("INTEGER")),), version=2)


def _each_source_subtree_agrees(expr, fields, inputs):
    """Every subtree of a transformer source, generated alone into a hop,
    against the step loop over the walk."""
    old = ObjectRecord(0, "C", 1, dict(fields))
    for node in exprs.walk(expr):
        t = ObjectTransformer("C", 1, 2, (Assign("t", node),))
        hop = _outcome(lambda: interpret_transformer(t, old, inputs, new_schema=SOURCE_SCHEMA))
        assert hop == _outcome(lambda: step_loop(t, old, inputs, new_schema=SOURCE_SCHEMA))


edge_ints = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, 2, INT64_MAX - 1, INT64_MAX]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)
values = st.one_of(
    edge_ints,
    st.sampled_from([0.0, -0.0, 0.5, -2.5e300, 1e-07, 1.0e16]),
    st.sampled_from(["", "7", "-12", "x", "99999999999999999999"]),
    st.booleans(),
    st.none(),
    st.integers(min_value=0, max_value=3).map(RefVal),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        literal_values,
        edge_ints,
        st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e22, 1e300,
             1.7976931348623157e308, -1.7976931348623157e308]
        ),
        st.text(st.sampled_from(['"', '\\', '\n', 'n', ' ', '\t', 'é']), max_size=8),
    )
)
def test_every_literal_value_renders_and_reads_back(value):
    """One renderer and one grammar: every value but a ``ref`` comes back
    exactly (``-0.0`` included), from ``--inputs`` and in an expression."""
    text = exprs.render_value(value)
    assert repr(parse_value_text(text)) == repr(value)
    assert repr(parse_transformer(_in_transformer(text)).instructions[0].expr) == repr(exprs.Lit(value))


def _field_map(names):
    """Some of ``names`` (the rest missing) bound to values of any kind, or
    all of them to integers."""
    return st.one_of(
        st.dictionaries(st.sampled_from(names), values, max_size=len(names)),
        st.fixed_dictionaries({name: edge_ints for name in names}),
    )


def connectives():
    """Invariant bodies that mostly type-check: connectives over boolean
    literals and integer comparisons, where a bare integer is the error that
    only short-circuiting skips."""
    numbers = st.one_of(
        st.sampled_from(ATTRIBUTES).map(exprs.AttrRef), edge_ints.map(exprs.Lit)
    )
    return st.recursive(
        st.one_of(
            st.booleans().map(exprs.Lit),
            st.builds(exprs.Compare, st.sampled_from(exprs.COMPARE_OPS), numbers, numbers),
            numbers,
        ),
        lambda inner: st.one_of(
            st.builds(exprs.And, inner, inner),
            st.builds(exprs.Or, inner, inner),
            st.builds(exprs.Not, inner),
        ),
        max_leaves=8,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(clauses(), connectives()), min_size=1, max_size=3),
    _field_map(ATTRIBUTES),
)
def test_generated_invariants_evaluate_as_the_tree_walk_does(bodies, fields):
    schema = _schema(*bodies)
    record = ObjectRecord(0, "C", 1, dict(fields))
    assert _outcome(lambda: eval_invariant(record, schema)) == _outcome(lambda: clause_loop(record, schema))
    for body in bodies:
        _each_subtree_agrees(body, fields)


def _schema(*bodies):
    return ClassSchema(
        "C",
        attributes=tuple(Attribute(name, ClassType("INTEGER")) for name in ATTRIBUTES),
        invariant=InvariantExpr(tuple(InvariantClause(f"c{i}", body) for i, body in enumerate(bodies))),
    )


def _right_nested(node, leaves):
    """``leaves[0] <node> (leaves[1] <node> (...))``."""
    tree = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        tree = node(leaf, tree)
    return tree


def _not_run(count):
    tree = exprs.Compare(">", exprs.AttrRef("a"), exprs.Lit(0))
    for _ in range(count):
        tree = exprs.Not(tree)
    return tree


A = exprs.AttrRef("a")
# Per shape, a tree whose connectives nest about as deep as the number it is
# built from, a record it holds for and one it fails for; at ``N - 1`` the
# tree is ``N`` deep, and one record or the other runs its deepest clause.
DEEP = {
    "and chain": (lambda n: _right_nested(exprs.And, [exprs.Compare(">", A, exprs.Lit(k)) for k in range(n)]),
                  {"a": N}, {"a": N // 2}),
    "or chain": (lambda n: _right_nested(exprs.Or, [exprs.Compare("=", A, exprs.Lit(k)) for k in range(n)]),
                 {"a": N - 3}, {"a": -1}),
    "not run": (lambda n: _not_run(2 * (n // 2)), {"a": 1}, {"a": 0}),
}


@pytest.mark.parametrize("shape", DEEP)
def test_a_connective_at_the_bound_is_generated_flat_and_evaluates_as_the_walk_does(shape, monkeypatch):
    """A tree whose connectives nest ``exprs.MAX_DEPTH`` deep builds one
    gate whose source grows by the same lines per node, every guarded line
    tests one guard local, and no line sits deeper than one ``if``."""
    build, passing, failing = DEEP[shape]
    written = []
    define = objects._define
    monkeypatch.setattr(objects, "_define", lambda *args: written.append(args[1].lines) or define(*args))
    sizes = {}
    for count in (N // 4, N // 2, N - 1):
        tree = build(count)
        objects.generate_gate(_schema(tree))
        sizes[sum(1 for _ in exprs.walk(tree))] = len(written[-1])
    assert tree.depth == N
    (n0, l0), (n1, l1), (n2, l2) = sizes.items()
    assert (l1 - l0) * (n2 - n1) == (l2 - l1) * (n1 - n0)  # linear in the node count
    lines = written[-1]
    assert all(re.fullmatch(r"if g[0-9]+:", line) for line in lines if line.startswith("if g"))
    assert max(len(line) - len(line.lstrip()) for line in lines) <= 4
    schema = _schema(tree)
    for fields, held in ((passing, True), (failing, False)):
        record = ObjectRecord(0, "C", 1, fields)
        outcome = _outcome(lambda: eval_invariant(record, schema))
        assert outcome == _outcome(lambda: clause_loop(record, schema))
        assert (outcome == "None") is held


SOURCE_NAMES = ["x", "tot_deposits", "input", "Void", "oldc"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(sources, min_size=1, max_size=3),
    _field_map(SOURCE_NAMES),
    _field_map(SOURCE_NAMES),
)
def test_generated_sources_evaluate_as_the_tree_walk_does(bodies, fields, inputs):
    t = ObjectTransformer("C", 1, 2, tuple(Assign(f"t{i}", body) for i, body in enumerate(bodies)))
    new_schema = ClassSchema(
        "C", attributes=tuple(Attribute(f"t{i}", ClassType("INTEGER")) for i in range(3)),
        version=2,
    )
    old = ObjectRecord(0, "C", 1, dict(fields))
    hop = _outcome(lambda: interpret_transformer(t, old, inputs, new_schema=new_schema))
    assert hop == _outcome(lambda: step_loop(t, old, inputs, new_schema=new_schema))
    for body in bodies:
        _each_source_subtree_agrees(body, fields, inputs)


@pytest.mark.parametrize("node, fields, inputs", [
    (exprs.OldField("a"), {"a": 7}, {}),
    (exprs.OldField("a"), {}, {}),
    (exprs.InputRef("k"), {}, {"k": 7}),
    (exprs.InputRef("k"), {}, {}),
    (exprs.Convert("STRING_TO_INTEGER", exprs.OldField("a")), {"a": "-7"}, {}),
    (exprs.Convert("STRING_TO_INTEGER", exprs.OldField("a")), {"a": "x"}, {}),
    (exprs.Convert("NO_SUCH", exprs.OldField("a")), {"a": 7}, {}),
    (exprs.Convert("NO_SUCH", exprs.OldField("a")), {}, {}),
], ids=["field", "missing field", "input", "missing input", "conversion", "failed conversion",
        "unknown converter", "unknown converter over a missing field"])
def test_each_transformer_node_kind_evaluates_in_a_hop_as_the_tree_walk_does(node, fields, inputs):
    _each_source_subtree_agrees(node, fields, inputs)


# ---------------------------------------------------------------------------
# the operators against their semantics written out plainly
# ---------------------------------------------------------------------------


def _reference(op, a, b):
    """The language's arithmetic and comparisons over plain values: integers
    within 64 bits, ``//`` truncating toward zero, a real operand making both
    reals, void equal only to void; ``bool`` is no number."""
    ka, kb = type(a), type(b)
    numbers = {int, float}
    if op in exprs.ARITH_OPS:
        if ka is int and kb is int:
            if op == "//":
                if b == 0:
                    raise exprs.EvalProblem("integer division by zero")
                result = abs(a) // abs(b) * (-1 if (a < 0) != (b < 0) else 1)
            else:
                result = a + b if op == "+" else a - b if op == "-" else a * b
            if not INT64_MIN <= result <= INT64_MAX:
                raise exprs.EvalProblem("integer overflow")
            return result
        if not {ka, kb} <= numbers:
            raise exprs.EvalProblem(f"arithmetic {op} over non-numeric operands")
        if op == "//":
            raise exprs.EvalProblem("integer division needs integer operands")
        x, y = float(a), float(b)
        result = x + y if op == "+" else x - y if op == "-" else x * y
        if result in (float("inf"), float("-inf")):
            raise exprs.EvalProblem("real overflow")
        return result
    if op in ("=", "/="):
        if a is None or b is None:
            equal = a is b
        elif {ka, kb} <= numbers:
            equal = a == b if ka is kb is int else float(a) == float(b)
        elif ka is kb:
            equal = a == b
        else:
            raise exprs.EvalProblem("equality between incomparable types")
        return equal if op == "=" else not equal
    if {ka, kb} <= numbers:
        x, y = (a, b) if ka is kb is int else (float(a), float(b))
    elif ka is kb is str:
        x, y = a, b
    else:
        raise exprs.EvalProblem(f"operands of {op} are not comparable")
    return {"<": x < y, "<=": x <= y, ">": x > y, ">=": x >= y}[op]


INT_EDGES = [
    ("+", INT64_MAX, 1),
    ("-", INT64_MIN, 1),
    ("*", INT64_MIN, -1),
    ("//", INT64_MIN, -1),
    ("//", 7, 0),
    ("-", INT64_MAX, INT64_MAX),
    ("*", -3, INT64_MAX // 3),
]
NOT_INTS = [2.5, None, True, "7"]
OPERAND_CASES = INT_EDGES + [
    (op, a, b)
    for op in exprs.ARITH_OPS + exprs.COMPARE_OPS
    for a, b in [(3, -4), (-4, 3), (5, 5)]
    + [pair for other in NOT_INTS for pair in [(3, other), (other, 3)]]
]


def _case_id(case):
    op, a, b = case
    return f"{exprs.render_value(a)} {op} {exprs.render_value(b)}"


@pytest.mark.parametrize("case", OPERAND_CASES, ids=[_case_id(c) for c in OPERAND_CASES])
def test_the_inline_integer_path_agrees_with_arith_and_compare(case):
    """Each operand shape (two fields, a literal on the right, a literal on
    the left) gives what ``_reference`` gives, value or error, of the same
    kind: an integer operand beside a real, a void, a boolean or a string,
    and integer results at the edges of 64 bits. Arithmetic runs in a
    generated hop, where ``+ - *`` over two integers is inline, and its
    error is the hop's ``EvaluationError`` at index 0; a comparison is
    generated as a gate writes it, and agrees with the walk too."""
    op, a, b = case
    arithmetic = op in exprs.ARITH_OPS
    field = exprs.OldField if arithmetic else exprs.AttrRef
    expected = _outcome(lambda: _reference(op, a, b))
    fields = {"a": a, "b": b}
    for left, right in [(field("a"), field("b")), (field("a"), exprs.Lit(b)), (exprs.Lit(a), field("b"))]:
        if arithmetic:
            t = ObjectTransformer("C", 1, 2, (Assign("t", exprs.BinOp(op, left, right)),))
            try:
                new = interpret_transformer(t, ObjectRecord(0, "C", 1, fields), {}, new_schema=SOURCE_SCHEMA)
                got = repr(new.fields["t"])
            except EvaluationError as err:
                assert err.index == 0
                got = exprs.EvalProblem, err.reason, "{}"  # as ``_outcome`` shows the operator's error
        else:
            node = exprs.Compare(op, left, right)
            got = _outcome(lambda: _generated(node)(fields))
            assert got == _outcome(lambda: walk_eval(node, fields, {})), (left, right)
        assert got == expected, (left, right)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("1 = 1.0", "True"),  # numbers compare as reals ...
        (f"{2**53 + 1} = 9007199254740992.0", "True"),  # ... even where Python's exact == differs
        (f"{2**53 + 1} > 9007199254740992.0", "False"),
        ("-7 // 2", "-3"),
        ("7 // -2", "-3"),
        ("2 * 1.5", "3.0"),
        ("1 + 1", "2"),
        ("Void = Void", "True"),
        ("Void = 0", "False"),
        ('"b" > "a"', "True"),
        ("true = true", "True"),
        ("1 = true", "equality between incomparable types"),
        ("true + 1", "arithmetic + over non-numeric operands"),
        ("true < 1", "operands of < are not comparable"),
        ("true < false", "operands of < are not comparable"),
        ("Void < Void", "operands of < are not comparable"),
        ("1 // 1.0", "integer division needs integer operands"),
        ("1.0e300 * 1.0e300", "real overflow"),
    ],
)
def test_operators_keep_kinds_apart(text, outcome):
    expr = parse_schema(_esc(text)).invariant.clauses[0].body
    for evaluate in (_generated(expr), lambda f: walk_eval(expr, f, {})):
        try:
            result = repr(evaluate({}))
        except exprs.EvalProblem as err:
            result = str(err)
        assert result == outcome


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

# A value of each kind, which every converter but those of its source refuses.
SAMPLES = {int: 7, float: 2.5, bool: True, str: "7", type(None): None, RefVal: RefVal(0)}


def test_every_converter_refuses_a_value_of_every_kind_but_its_source():
    assert SAMPLES.keys() == KINDS.keys()
    for converter_id, convert in exprs.CONVERTERS.items():
        source = CLASS_NAMED[converter_id.partition("_TO_")[0]]
        for cls, value in SAMPLES.items():
            if cls is source:
                convert(value)
                continue
            with pytest.raises(ConversionFailure) as err:
                convert(value)
            assert (err.value.converter_id, err.value.value) == (converter_id, value)


@pytest.mark.parametrize("converter_id, value, shown", [
    ("REAL_TO_INTEGER", float("nan"), "nan"),
    ("REAL_TO_INTEGER", float("-inf"), "-inf"),
    ("REAL_TO_STRING", float("nan"), "nan"),
    ("REAL_TO_STRING", float("inf"), "inf"),
])
def test_a_converter_refuses_a_real_that_is_no_value_and_its_error_line_names_it(
    converter_id, value, shown
):
    """Only a library call can pass a NaN or an infinity: stored fields,
    inputs and operator results are all checked first."""
    with pytest.raises(ConversionFailure) as err:
        exprs.CONVERTERS[converter_id](value)
    assert err.value.cli_line() == f"ConversionFailure {converter_id} {shown}"


ASCII_DIGITS = "0123456789"
non_ascii_digits = st.characters(categories=("Nd",), exclude_characters=ASCII_DIGITS)
number_chars = st.text(st.sampled_from(ASCII_DIGITS + "-.eE+"), max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.tuples(number_chars, non_ascii_digits, number_chars).map("".join))
def test_a_string_conversion_refuses_a_non_ascii_digit(text):
    for converter_id in ("STRING_TO_INTEGER", "STRING_TO_REAL"):
        with pytest.raises(ConversionFailure) as err:
            exprs.CONVERTERS[converter_id](text)
        assert (err.value.converter_id, err.value.value) == (converter_id, text)


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"-?[0-9]+", fullmatch=True), st.from_regex(
    r"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?", fullmatch=True))
def test_a_string_conversion_of_an_ascii_string_of_its_shape_agrees_with_python(integer, real):
    for text, converter_id, convert, in_range in [
        (integer, "STRING_TO_INTEGER", int, lambda n: INT64_MIN <= n <= INT64_MAX),
        (real, "STRING_TO_REAL", float, lambda x: x not in (float("inf"), float("-inf"))),
    ]:
        value = convert(text)
        if in_range(value):
            assert repr(exprs.CONVERTERS[converter_id](text)) == repr(value)
        else:
            with pytest.raises(ConversionFailure):
                exprs.CONVERTERS[converter_id](text)
