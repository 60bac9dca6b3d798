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
from .values import INT64_MAX, INT64_MIN, ObjectValue, RefVal, check_value

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


@dataclass(frozen=True, eq=False)
class Lit:
    """A literal: the runtime value it denotes (no parser builds a ``RefVal``
    one). Literals are equal when their values are of one kind and equal, so
    ``1``, ``1.0`` and ``true`` are three literals."""

    value: ObjectValue

    def __post_init__(self) -> None:
        check_value(self.value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Lit:
            return NotImplemented
        return self.value.__class__ is other.value.__class__ and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value.__class__, self.value))


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


_WORDS = {"Void": None, "true": True, "false": False}


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
    literal = parse_literal(stream)
    return atom(stream) if literal is None else literal


def parse_literal(stream: TokenStream) -> Lit | None:
    """The ``Lit`` of an INT or REAL (optionally negative), STRING, ``Void``,
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
                return Lit(value)
        raise ParseError("integer literal outside the 64-bit range", start.line, start.column)
    if tok.kind == "REAL":
        stream.next()
        real = -float(tok.text) if negative else float(tok.text)
        if not math.isfinite(real):
            raise ParseError("real literal out of range", start.line, start.column)
        return Lit(real)
    if negative:
        raise stream.error("'-' must prefix a numeric literal")
    if tok.kind == "STRING":
        stream.next()
        return Lit(unescape_string(tok.text, tok.line, tok.column))
    if tok.kind == "IDENT" and tok.text in _WORDS:
        stream.next()
        return Lit(_WORDS[tok.text])
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
    if cls is int:
        return str(value)
    if cls is str:
        return escape_string(value)
    if cls is RefVal:
        return f"ref {value.object_id}"
    if cls is float:
        if not math.isfinite(value):
            raise ValueError("non-finite reals are not serializable")
        return render_real(value)
    if cls is bool:
        return "true" if value else "false"
    if value is None:
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
    """An operator cannot apply to its operands; callers re-wrap."""


Compiled = Callable[[Mapping[str, ObjectValue], Mapping[str, ObjectValue]], ObjectValue]


def compile_expr(expr: Expr) -> Compiled:
    """Closures, one per node, that evaluate ``expr`` over fields ``f`` and
    inputs ``i``; an operator's closure calls the function ``OPERATORS``
    holds for it, looked up here."""
    cls = expr.__class__
    if cls is Lit:
        value = expr.value
        return lambda f, i: value
    if cls is AttrRef or cls is OldField:
        name = expr.name

        def field(f, i):
            try:
                return f[name]
            except KeyError:
                raise MissingAttribute(name) from None

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
        return lambda f, i: not _truth(operand(f, i))
    if cls is BinOp or cls is Compare:
        op, left, right = OPERATORS[expr.op], compile_expr(expr.left), compile_expr(expr.right)
        return lambda f, i: op(left(f, i), right(f, i))
    if cls is And or cls is Or:
        left, right = compile_expr(expr.left), compile_expr(expr.right)
        stop = cls is Or  # short-circuit: ``and`` stops at false, ``or`` at true

        def connective(f, i):
            value = _truth(left(f, i))
            if value is stop:
                return value
            return _truth(right(f, i))

        return connective
    raise TypeError(f"not an expression node: {expr!r}")


# The operators dispatch on ``__class__``: ``bool`` is an ``int`` subclass but
# no number. Integer results must fit 64 bits and real results be finite.
_NUMBERS = (int, float)
_ORDERED = (int, float, str)


def _truth(value: ObjectValue) -> bool:
    if value.__class__ is not bool:
        raise EvalProblem("boolean connective over a non-boolean operand")
    return value


def _arithmetic(op: str, compute: Callable) -> Callable[[ObjectValue, ObjectValue], ObjectValue]:
    """``+ - *``: two integers give an integer; a real operand makes both reals."""

    def apply(a: ObjectValue, b: ObjectValue) -> ObjectValue:
        if a.__class__ is int and b.__class__ is int:
            result = compute(a, b)
            if INT64_MIN <= result <= INT64_MAX:
                return result
            raise EvalProblem("integer overflow")
        if a.__class__ not in _NUMBERS or b.__class__ not in _NUMBERS:
            raise EvalProblem(f"arithmetic {op} over non-numeric operands")
        result = compute(float(a), float(b))
        if math.isfinite(result):
            return result
        raise EvalProblem("real overflow")

    return apply


def _divide(a: ObjectValue, b: ObjectValue) -> int:
    """``//``: integers only, truncating toward zero as REAL_TO_INTEGER does."""
    if a.__class__ is int and b.__class__ is int:
        if b == 0:
            raise EvalProblem("integer division by zero")
        result = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            result = -result
        if INT64_MIN <= result <= INT64_MAX:
            return result
        raise EvalProblem("integer overflow")
    if a.__class__ not in _NUMBERS or b.__class__ not in _NUMBERS:
        raise EvalProblem("arithmetic // over non-numeric operands")
    raise EvalProblem("integer division needs integer operands")


def _equal(a: ObjectValue, b: ObjectValue) -> bool:
    """``=``: operands of one kind compare as Python does; an integer and a
    real compare as reals; void differs from any other value."""
    if a.__class__ is b.__class__:
        return a == b
    if a.__class__ in _NUMBERS and b.__class__ in _NUMBERS:
        return float(a) == float(b)
    if a is None or b is None:
        return False
    raise EvalProblem("equality between incomparable types")


def _ordering(op: str, compare: Callable) -> Callable[[ObjectValue, ObjectValue], bool]:
    """``< <= > >=``: integers compare exactly, a real operand makes both
    reals, and strings compare by code point."""

    def apply(a: ObjectValue, b: ObjectValue) -> bool:
        if a.__class__ is b.__class__ and a.__class__ in _ORDERED:
            return compare(a, b)
        if a.__class__ in _NUMBERS and b.__class__ in _NUMBERS:
            return compare(float(a), float(b))
        raise EvalProblem(f"operands of {op} are not comparable")

    return apply


#: The function each arithmetic and comparison operator applies to its
#: operands' values; they alone raise the language's ``EvalProblem``s.
OPERATORS: Mapping[str, Callable[[ObjectValue, ObjectValue], ObjectValue]] = MappingProxyType({
    "+": _arithmetic("+", operator.add),
    "-": _arithmetic("-", operator.sub),
    "*": _arithmetic("*", operator.mul),
    "//": _divide,
    "=": _equal,
    "/=": lambda a, b: not _equal(a, b),
    "<": _ordering("<", operator.lt),
    "<=": _ordering("<=", operator.le),
    ">": _ordering(">", operator.gt),
    ">=": _ordering(">=", operator.ge),
})


def _input_value(inputs: Mapping[str, ObjectValue], key: str) -> ObjectValue:
    try:
        return inputs[key]
    except KeyError:
        raise MissingInput(key) from None


_INT_RE = re.compile(r"-?\d+\Z")
_REAL_RE = re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?\Z")


def _string_to_integer(value: ObjectValue) -> ObjectValue:
    if value.__class__ is not str or not _INT_RE.match(value):
        raise ConversionFailure("STRING_TO_INTEGER", value)
    digits = value.lstrip("-").lstrip("0") or "0"
    if len(digits) >= 20:  # int() refuses over 4300 digits; no 64-bit integer needs 20
        raise ConversionFailure("STRING_TO_INTEGER", value)
    number = -int(digits) if value[0] == "-" else int(digits)
    if not (INT64_MIN <= number <= INT64_MAX):
        raise ConversionFailure("STRING_TO_INTEGER", value)
    return number


def _integer_to_string(value: ObjectValue) -> ObjectValue:
    if value.__class__ is not int:
        raise ConversionFailure("INTEGER_TO_STRING", value)
    return str(value)


def _integer_to_real(value: ObjectValue) -> ObjectValue:
    if value.__class__ is not int:
        raise ConversionFailure("INTEGER_TO_REAL", value)
    return float(value)


def _real_to_integer(value: ObjectValue) -> ObjectValue:
    if value.__class__ is not float or not math.isfinite(value):
        raise ConversionFailure("REAL_TO_INTEGER", value)
    truncated = int(value)  # toward zero
    if not (INT64_MIN <= truncated <= INT64_MAX):
        raise ConversionFailure("REAL_TO_INTEGER", value)
    return truncated


def _string_to_real(value: ObjectValue) -> ObjectValue:
    if value.__class__ is not str or not _REAL_RE.match(value):
        raise ConversionFailure("STRING_TO_REAL", value)
    real = float(value)
    if not math.isfinite(real):  # an exponent past the float range
        raise ConversionFailure("STRING_TO_REAL", value)
    return real


def _real_to_string(value: ObjectValue) -> ObjectValue:
    if value.__class__ is not float:
        raise ConversionFailure("REAL_TO_STRING", value)
    return render_real(value)


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
