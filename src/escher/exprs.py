"""Expression trees shared by invariant clauses and transformer bodies.

Two sub-languages draw from one node pool:

* invariant bodies: boolean connectives and comparisons over arithmetic,
  with ``AttrRef`` atoms naming attributes of the owning schema;
* transformer assignment sources: arithmetic only, with ``OldField``,
  ``InputRef`` and ``Convert`` atoms.

Both parse arithmetic and literals with ``parse_arith`` and supply only
their own primaries. A literal is a ``Lit`` holding the runtime value itself.
``parse_literal`` is the one literal grammar and ``render_value`` the one
literal renderer, for expressions, ``.eso`` fields and ``--inputs`` alike.
Rendering inserts parentheses exactly where reparsing would otherwise
associate differently, so render/parse is structurally lossless.

``compile_expr`` evaluates both, as closures built once per tree: each
transformer and schema compiles its trees on first use and keeps them.
``CONVERTERS`` is the one, read-only table of the conversions a ``convert``
may name; a ``Convert`` closure fetches its function when it compiles, and an
id the table lacks is an ``UnknownConverter`` when a record reaches it.

No tree is deeper than ``MAX_DEPTH``, and neither parser nests parentheses
deeper than that. Compiling, evaluating, rendering and ``walk`` recurse once
per tree level and the invariant parser eight frames per parenthesis, so at
the bound all of them stay inside Python's default limit of 1000 frames.
Going deeper is a ``ParseError`` at the token that did it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Union

from ._lex import Token, TokenStream, escape_string, unescape_string
from .errors import ConversionFailure, MissingAttribute, MissingInput, ParseError, UnknownConverter
from .values import (
    INT64_MAX, INT64_MIN, VOID, BoolVal, IntVal, ObjectValue, RealVal, RefVal, StringVal, VoidVal,
)

ARITH_OPS = ("+", "-", "*", "//")
COMPARE_OPS = ("=", "/=", "<", "<=", ">", ">=")
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


class _Branch:
    """A node with children: records its tree depth (not a field, so ``==``,
    ``repr`` and ``replace`` ignore it) and refuses to exceed MAX_DEPTH."""

    def __post_init__(self) -> None:
        depth = 1 + max(getattr(child, "depth", 1) for child in children(self))
        if depth > MAX_DEPTH:
            raise ValueError(_TOO_DEEP)
        object.__setattr__(self, "depth", depth)


@dataclass(frozen=True)
class Lit:
    """A literal: the runtime value it denotes (no parser builds a ``RefVal`` one)."""

    value: ObjectValue


@dataclass(frozen=True)
class AttrRef:
    """Reference to an attribute of the schema owning the invariant."""

    name: str


@dataclass(frozen=True)
class OldField:
    """``oldc.<name>``: a field of the record being migrated."""

    name: str


@dataclass(frozen=True)
class InputRef:
    """``input <key>``: a developer-supplied value, resolved by key."""

    key: str


@dataclass(frozen=True)
class Convert(_Branch):
    """``convert <ID> (<arg>)``: converter application."""

    converter_id: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp(_Branch):
    op: str  # one of ARITH_OPS
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")
        super().__post_init__()


@dataclass(frozen=True)
class Compare(_Branch):
    op: str  # one of COMPARE_OPS
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        super().__post_init__()


@dataclass(frozen=True)
class And(_Branch):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or(_Branch):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not(_Branch):
    operand: "Expr"


Expr = Union[Lit, AttrRef, OldField, InputRef, Convert, BinOp, Compare, And, Or, Not]

#: Nodes only an invariant clause may hold, and only a transformer source.
INVARIANT_ONLY = (AttrRef, Compare, And, Or, Not)
TRANSFORMER_ONLY = (OldField, InputRef, Convert)

_ATOM = 10
_PREC = {"or": 1, "and": 2, "not": 3, "cmp": 4, "+": 5, "-": 5, "*": 6, "//": 6}


def _prec(expr: Expr) -> int:
    if isinstance(expr, Or):
        return _PREC["or"]
    if isinstance(expr, And):
        return _PREC["and"]
    if isinstance(expr, Not):
        return _PREC["not"]
    if isinstance(expr, Compare):
        return _PREC["cmp"]
    if isinstance(expr, BinOp):
        return _PREC[expr.op]
    return _ATOM


def children(expr: Expr) -> tuple[Expr, ...]:
    if isinstance(expr, (BinOp, Compare, And, Or)):
        return (expr.left, expr.right)
    if isinstance(expr, Not):
        return (expr.operand,)
    if isinstance(expr, Convert):
        return (expr.arg,)
    return ()


def walk(expr: Expr):
    """Yield ``expr`` and every descendant, depth-first."""
    yield expr
    for child in children(expr):
        yield from walk(child)


WORD_VALUES = {"Void": VOID, "true": BoolVal(True), "false": BoolVal(False)}


def build(tok: Token, node: type, *args) -> Expr:
    """``node(*args)`` for a parser, whose arguments are otherwise valid: a
    tree deeper than MAX_DEPTH is a ParseError at ``tok``, the operator or
    keyword that builds it."""
    try:
        return node(*args)
    except ValueError as err:
        raise ParseError(str(err), tok.line, tok.column) from None


def parse_parenthesized(stream: TokenStream, inner: Callable[[TokenStream], Expr]) -> Expr:
    """``( <inner> )``; the parenthesis opening past MAX_DEPTH is a ParseError."""
    tok = stream.expect_op("(")
    stream.depth += 1
    if stream.depth > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, tok.line, tok.column)
    expr = inner(stream)
    stream.depth -= 1
    stream.expect_op(")")
    return expr


def parse_arith(stream: TokenStream, atom: Callable[[TokenStream], Expr]) -> Expr:
    """``+ -`` over ``* //``, both left-associative, over literals and the
    primaries ``atom`` parses (each language passes its own)."""
    left = _parse_term(stream, atom)
    while stream.at_op("+") or stream.at_op("-"):
        op = stream.next()
        left = build(op, BinOp, op.text, left, _parse_term(stream, atom))
    return left


def _parse_term(stream: TokenStream, atom: Callable[[TokenStream], Expr]) -> Expr:
    left = _parse_operand(stream, atom)
    while stream.at_op("*") or stream.at_op("//"):
        op = stream.next()
        left = build(op, BinOp, op.text, left, _parse_operand(stream, atom))
    return left


def _parse_operand(stream: TokenStream, atom: Callable[[TokenStream], Expr]) -> Expr:
    value = parse_literal(stream)
    return atom(stream) if value is None else Lit(value)


def parse_literal(stream: TokenStream) -> ObjectValue | None:
    """The value of an INT or REAL (optionally negative), STRING, ``Void``,
    ``true`` or ``false``; None when the next token starts none of these.
    ``.esc``, ``.est`` and ``.eso`` files and ``--inputs`` all read literals
    here.

    Integers must fit 64 bits and reals must be finite, so evaluation never
    meets a literal that no value can hold.
    """
    start = tok = stream.peek()
    negative = tok.kind == "OP" and tok.text == "-"
    if negative:  # a negative literal, not general unary minus
        stream.next()
        tok = stream.peek()
    if tok.kind == "INT":
        stream.next()
        digits = tok.text.lstrip("0")
        # int() refuses over 4300 digits; no 64-bit integer needs 20
        if len(digits) < 20:
            value = -int(digits or "0") if negative else int(digits or "0")
            if INT64_MIN <= value <= INT64_MAX:
                return IntVal(value)
        raise ParseError("integer literal outside the 64-bit range", start.line, start.column)
    if tok.kind == "REAL":
        stream.next()
        real = -float(tok.text) if negative else float(tok.text)
        if not math.isfinite(real):
            raise ParseError("real literal out of range", start.line, start.column)
        return RealVal(real)
    if negative:
        raise stream.error("'-' must prefix a numeric literal")
    if tok.kind == "STRING":
        stream.next()
        return StringVal(unescape_string(tok.text, tok.line, tok.column))
    if tok.kind == "IDENT" and tok.text in WORD_VALUES:
        stream.next()
        return WORD_VALUES[tok.text]
    return None


def parse_version(stream: TokenStream) -> int:
    """A version tag in a ``.esc`` or ``.est`` header: a positive integer."""
    tok = stream.peek()
    if tok.kind != "INT":
        raise stream.error("version must be an integer", expected="an integer")
    stream.next()
    try:
        version = int(tok.text)
    except ValueError:  # more digits than int() converts
        raise ParseError("version tag too large", tok.line, tok.column) from None
    if version < 1:
        raise ParseError("version tag must be positive", tok.line, tok.column)
    return version


def render_real(value: float) -> str:
    """Shortest round-tripping decimal form with a mandatory dot."""
    text = repr(value)
    if "e" in text or "E" in text:
        mantissa, _, exponent = text.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{exponent}"
    if "." not in text:
        text += ".0"
    return text


def render_value(value: ObjectValue) -> str:
    """The literal text of ``value``: an ``.eso`` field's value, or a ``Lit``."""
    cls = value.__class__
    if cls is IntVal:
        return str(value.value)
    if cls is StringVal:
        return escape_string(value.value)
    if cls is RefVal:
        return f"ref {value.object_id}"
    if cls is RealVal:
        if not math.isfinite(value.value):
            raise ValueError("non-finite reals are not serializable")
        return render_real(value.value)
    if cls is BoolVal:
        return "true" if value.value else "false"
    if cls is VoidVal:
        return "Void"
    raise TypeError(f"not an object value: {value!r}")


def render_expr(expr: Expr) -> str:
    return _render(expr, 0)


def _wrap(text: str, prec: int, context: int) -> str:
    return f"({text})" if prec < context else text


def _render(expr: Expr, context: int) -> str:
    if isinstance(expr, Lit):
        return render_value(expr.value)
    if isinstance(expr, AttrRef):
        return expr.name
    if isinstance(expr, OldField):
        return f"oldc.{expr.name}"
    if isinstance(expr, InputRef):
        return f"input {expr.key}"
    if isinstance(expr, Convert):
        return f"convert {expr.converter_id} ({_render(expr.arg, 0)})"
    if isinstance(expr, Not):
        p = _prec(expr)
        return _wrap(f"not {_render(expr.operand, p)}", p, context)
    if isinstance(expr, Compare):
        p = _prec(expr)
        # operands live at arithmetic level; nested comparisons need parens
        text = f"{_render(expr.left, p + 1)} {expr.op} {_render(expr.right, p + 1)}"
        return _wrap(text, p, context)
    if isinstance(expr, (BinOp, And, Or)):
        if isinstance(expr, And):
            op, p = "and", _PREC["and"]
        elif isinstance(expr, Or):
            op, p = "or", _PREC["or"]
        else:
            op, p = expr.op, _PREC[expr.op]
        # left-associative: equal precedence on the right needs parens
        text = f"{_render(expr.left, p)} {op} {_render(expr.right, p + 1)}"
        return _wrap(text, p, context)
    raise TypeError(f"not an expression node: {expr!r}")


class EvalProblem(Exception):
    """Arithmetic, a comparison or a connective cannot proceed; callers re-wrap."""


Compiled = Callable[[Mapping[str, ObjectValue], Mapping[str, ObjectValue]], ObjectValue]


def compile_expr(expr: Expr) -> Compiled:
    """Closures, one per node, that evaluate ``expr`` over fields ``f`` and
    inputs ``i``."""
    cls = expr.__class__
    if cls is Lit:
        value = expr.value
        return lambda f, i: value
    if cls is AttrRef or cls is OldField:
        name = expr.name

        def field(f, i):
            value = f.get(name)
            if value is None:
                raise MissingAttribute(name)
            return value

        return field
    if cls is InputRef:
        return lambda f, i: _input_value(i, expr.key)
    if cls is Convert:
        converter_id, arg = expr.converter_id, compile_expr(expr.arg)
        fn = CONVERTERS.get(converter_id)
        if fn is None:

            def unknown(f, i):
                arg(f, i)  # the argument's own failure comes first
                raise UnknownConverter(converter_id)

            return unknown
        return lambda f, i: fn(arg(f, i))
    if cls is Not:
        operand = compile_expr(expr.operand)
        return lambda f, i: _FALSE if _require_bool(operand(f, i)).value else _TRUE
    if cls is BinOp:
        return _compile_arith(expr)
    if cls is Compare:
        return _compile_compare(expr)
    if cls is And or cls is Or:
        left, right = compile_expr(expr.left), compile_expr(expr.right)
        stop = cls is Or  # short-circuit: ``and`` stops at false, ``or`` at true

        def connective(f, i):
            value = _require_bool(left(f, i))
            if value.value == stop:
                return value
            return _require_bool(right(f, i))

        return connective
    raise TypeError(f"not an expression node: {expr!r}")


_TRUE, _FALSE = WORD_VALUES["true"], WORD_VALUES["false"]
_INLINE_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_INLINE_COMPARE = {
    "=": operator.eq, "/=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compile_arith(expr: BinOp) -> Compiled:
    """Two ``IntVal`` operands of ``+ - *`` whose result fits 64 bits are
    computed inline; every other case, ``//`` included, is ``_arith``'s, so
    results and errors are its own. An integer literal on the right is read
    when the tree compiles."""
    op, left, right = expr.op, compile_expr(expr.left), compile_expr(expr.right)
    inline = _INLINE_ARITH.get(op)
    if inline is None:
        return lambda f, i: _arith(op, left(f, i), right(f, i))
    if expr.right.__class__ is Lit and expr.right.value.__class__ is IntVal:
        b = expr.right.value
        y = b.value

        def arith_literal(f, i):
            a = left(f, i)
            if a.__class__ is IntVal:
                result = inline(a.value, y)
                if INT64_MIN <= result <= INT64_MAX:
                    return IntVal(result)
            return _arith(op, a, b)

        return arith_literal

    def arith(f, i):
        a, b = left(f, i), right(f, i)
        if a.__class__ is IntVal and b.__class__ is IntVal:
            result = inline(a.value, b.value)
            if INT64_MIN <= result <= INT64_MAX:
                return IntVal(result)
        return _arith(op, a, b)

    return arith


def _compile_compare(expr: Compare) -> Compiled:
    """Two ``IntVal`` operands compare inline; anything else is ``_compare``'s."""
    op, left, right = expr.op, compile_expr(expr.left), compile_expr(expr.right)
    inline = _INLINE_COMPARE[op]

    def compare(f, i):
        a, b = left(f, i), right(f, i)
        if a.__class__ is IntVal and b.__class__ is IntVal:
            return _TRUE if inline(a.value, b.value) else _FALSE
        return _TRUE if _compare(op, a, b) else _FALSE

    return compare


def _require_bool(value: ObjectValue) -> BoolVal:
    if not isinstance(value, BoolVal):
        raise EvalProblem("boolean connective over a non-boolean operand")
    return value


def _compare(op: str, a: ObjectValue, b: ObjectValue) -> bool:
    if op in ("=", "/="):
        equal = _values_equal(a, b)
        return equal if op == "=" else not equal
    # ordering: numbers or strings
    if isinstance(a, (IntVal, RealVal)) and isinstance(b, (IntVal, RealVal)):
        left, right = _promote(a, b)
    elif isinstance(a, StringVal) and isinstance(b, StringVal):
        left, right = a.value, b.value
    else:
        raise EvalProblem(f"operands of {op} are not comparable")
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _values_equal(a: ObjectValue, b: ObjectValue) -> bool:
    if isinstance(a, VoidVal) or isinstance(b, VoidVal):
        return isinstance(a, VoidVal) and isinstance(b, VoidVal)
    if isinstance(a, (IntVal, RealVal)) and isinstance(b, (IntVal, RealVal)):
        if isinstance(a, IntVal) and isinstance(b, IntVal):
            return a.value == b.value
        left, right = _promote(a, b)
        return left == right
    if isinstance(a, BoolVal) and isinstance(b, BoolVal):
        return a.value == b.value
    if isinstance(a, StringVal) and isinstance(b, StringVal):
        return a.value == b.value
    if isinstance(a, RefVal) and isinstance(b, RefVal):
        return a.object_id == b.object_id
    raise EvalProblem("equality between incomparable types")


def _promote(a: IntVal | RealVal, b: IntVal | RealVal):
    if isinstance(a, IntVal) and isinstance(b, IntVal):
        return a.value, b.value
    return float(a.value), float(b.value)


_NUMERIC = (IntVal, RealVal)


def _arith(op: str, a: ObjectValue, b: ObjectValue) -> ObjectValue:
    """Integer results, quotients included, must fit 64 bits; real results
    must be finite."""
    a_cls, b_cls = a.__class__, b.__class__
    if a_cls is IntVal and b_cls is IntVal:
        x, y = a.value, b.value
        if op == "+":
            result = x + y
        elif op == "-":
            result = x - y
        elif op == "*":
            result = x * y
        else:
            if y == 0:
                raise EvalProblem("integer division by zero")
            # truncation toward zero, matching REAL_TO_INTEGER
            result = abs(x) // abs(y)
            if (x < 0) != (y < 0):
                result = -result
        if not (INT64_MIN <= result <= INT64_MAX):
            raise EvalProblem("integer overflow")
        return IntVal(result)
    if a_cls not in _NUMERIC or b_cls not in _NUMERIC:
        raise EvalProblem(f"arithmetic {op} over non-numeric operands")
    if op == "//":
        raise EvalProblem("integer division needs integer operands")
    x, y = float(a.value), float(b.value)
    if op == "+":
        real = x + y
    elif op == "-":
        real = x - y
    else:
        real = x * y
    if not math.isfinite(real):
        raise EvalProblem("real overflow")
    return RealVal(real)


def _input_value(inputs: Mapping[str, ObjectValue], key: str) -> ObjectValue:
    value = inputs.get(key)
    if value is None:
        raise MissingInput(key)
    return value


_INT_RE = re.compile(r"-?\d+\Z")
_REAL_RE = re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?\Z")


def _string_to_integer(value: ObjectValue) -> ObjectValue:
    if not isinstance(value, StringVal) or not _INT_RE.match(value.value):
        raise ConversionFailure("STRING_TO_INTEGER", value)
    number = int(value.value)
    if not (INT64_MIN <= number <= INT64_MAX):
        raise ConversionFailure("STRING_TO_INTEGER", value)
    return IntVal(number)


def _integer_to_string(value: ObjectValue) -> ObjectValue:
    if not isinstance(value, IntVal):
        raise ConversionFailure("INTEGER_TO_STRING", value)
    return StringVal(str(value.value))


def _integer_to_real(value: ObjectValue) -> ObjectValue:
    if not isinstance(value, IntVal):
        raise ConversionFailure("INTEGER_TO_REAL", value)
    return RealVal(float(value.value))


def _real_to_integer(value: ObjectValue) -> ObjectValue:
    if not isinstance(value, RealVal):
        raise ConversionFailure("REAL_TO_INTEGER", value)
    f = value.value
    if f != f or f in (float("inf"), float("-inf")):
        raise ConversionFailure("REAL_TO_INTEGER", value)
    truncated = int(f)  # toward zero
    if not (INT64_MIN <= truncated <= INT64_MAX):
        raise ConversionFailure("REAL_TO_INTEGER", value)
    return IntVal(truncated)


def _string_to_real(value: ObjectValue) -> ObjectValue:
    if not isinstance(value, StringVal) or not _REAL_RE.match(value.value):
        raise ConversionFailure("STRING_TO_REAL", value)
    real = float(value.value)
    if not math.isfinite(real):  # an exponent past the float range
        raise ConversionFailure("STRING_TO_REAL", value)
    return RealVal(real)


def _real_to_string(value: ObjectValue) -> ObjectValue:
    if not isinstance(value, RealVal):
        raise ConversionFailure("REAL_TO_STRING", value)
    return StringVal(render_real(value.value))


#: Every conversion a ``convert`` may name. An id reads ``<SOURCE>_TO_<TARGET>``,
#: the primitive types it converts between; generation relies on that.
CONVERTERS: Mapping[str, Callable[[ObjectValue], ObjectValue]] = MappingProxyType({
    "STRING_TO_INTEGER": _string_to_integer,
    "INTEGER_TO_STRING": _integer_to_string,
    "INTEGER_TO_REAL": _integer_to_real,
    "REAL_TO_INTEGER": _real_to_integer,
    "STRING_TO_REAL": _string_to_real,
    "REAL_TO_STRING": _real_to_string,
})
