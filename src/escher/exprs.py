"""Expression trees shared by invariant clauses and transformer bodies.

Two sub-languages draw from one node pool:

* invariant bodies: boolean connectives and comparisons over arithmetic,
  with ``AttrRef`` atoms naming attributes of the owning schema;
* transformer assignment sources: arithmetic only, with ``OldField``,
  ``InputRef`` and ``Convert`` atoms.

Both parse with ``parse_expr``, which reads ``PRECEDENCE``, the one table of
operator levels that ``render_expr`` reads too: invariant bodies from its
loosest level, transformer sources from ``ARITH_LEVEL``. Each language
supplies only its own primaries. A literal is a ``Lit`` holding the runtime
value itself.
``parse_literal`` is the one literal grammar, over ``_lex``'s shapes, and
``render_value`` the one renderer, by ``values.KINDS``, for expressions,
``.eso`` fields and ``--inputs`` alike.
Rendering inserts parentheses exactly where reparsing would otherwise
associate differently, so render/parse is structurally lossless.

``SourceWriter`` is the one evaluator: it writes invariant clauses and
transformer sources as Python statements, applying each operator through
its function in ``OPERATORS``, for the one function ``objects.generate_gate``
builds per schema and ``objects.generate_hop`` per hop. ``CONVERTERS`` is
the one, read-only table of the conversions a ``convert`` may name; an id it
lacks is an ``UnknownConverter`` when a record reaches it. An entry states
only how it converts; ``_converter`` raises every failure.

No tree is deeper than ``MAX_DEPTH``, and neither parser nests parentheses
deeper than that. Rendering and ``walk`` recurse once per tree level,
writing source twice, and the parser nine frames per parenthesis in an
invariant and five in a transformer source, so at the bound all stay inside
Python's default limit of 1000 frames. Written statements indent two levels
at most, whatever the depth: an inline operator's, under one ``if`` guard.
Going deeper is a ``ParseError`` at the token that did it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Union

from ._lex import EXPONENT, INT, REAL, Token, TokenStream, unescape_string
from .errors import ConversionFailure, MissingInput, ParseError, UnknownConverter
from .values import CLASS_NAMED, INT64_MAX, INT64_MIN, KINDS, ObjectValue, check_value, render_real

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
    op = "and"  # not a field: the keyword, as ``BinOp.op`` is the operator


@dataclass(frozen=True)
class Or(_Branch):
    left: "Expr"
    right: "Expr"
    op = "or"


@dataclass(frozen=True)
class Not(_Branch):
    operand: "Expr"
    op = "not"


Expr = Union[Lit, AttrRef, OldField, InputRef, Convert, BinOp, Compare, And, Or, Not]

#: Nodes only an invariant clause may hold, and only a transformer source.
INVARIANT_ONLY = (AttrRef, Compare, And, Or, Not)
TRANSFORMER_ONLY = (OldField, InputRef, Convert)

#: The operators by level, loosest first: the one statement of precedence,
#: which ``parse_expr`` and ``render_expr`` read. Binary levels associate
#: left, comparisons do not chain, and ``not`` is a prefix.
PRECEDENCE = (("or",), ("and",), ("not",), COMPARE_OPS, ("+", "-"), ("*", "//"))
_LEVEL = {op: level for level, ops in enumerate(PRECEDENCE) for op in ops}
_NOT, _COMPARE, ARITH_LEVEL = _LEVEL["not"], _LEVEL["="], _LEVEL["+"]


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


_WORDS = {KINDS[value.__class__][2](value): value for value in (None, True, False)}


def build(tok: Token, node: type, *args) -> Expr:
    """``node(*args)`` for a parser, whose arguments are otherwise valid: a
    tree deeper than MAX_DEPTH is a ParseError at ``tok``, the operator or
    keyword that builds it."""
    try:
        return node(*args)
    except ValueError as err:
        raise ParseError(str(err), tok.line, tok.column) from None


def parse_parenthesized(stream: TokenStream, atom: Callable[[TokenStream], Expr], level: int) -> Expr:
    """``( <expression from level> )``; the parenthesis opening past
    MAX_DEPTH is a ParseError."""
    tok = stream.expect("(")
    stream.depth += 1
    if stream.depth > MAX_DEPTH:
        raise ParseError(_TOO_DEEP, tok.line, tok.column)
    expr = parse_expr(stream, atom, level)
    stream.depth -= 1
    stream.expect(")")
    return expr


def parse_expr(stream: TokenStream, atom: Callable[[TokenStream], Expr], level: int = 0) -> Expr:
    """An expression whose loosest operators are ``PRECEDENCE[level]``, over
    literals and the primaries ``atom`` parses (each language passes its
    own): an invariant body from level 0, a transformer source from
    ``ARITH_LEVEL``. One frame per level, and ``not`` runs are a loop."""
    if level == len(PRECEDENCE):  # a literal or a primary
        literal = parse_literal(stream)
        return atom(stream) if literal is None else literal
    if level == _NOT:
        nots = []
        while stream.at("not"):
            nots.append(stream.next())
        expr = parse_expr(stream, atom, level + 1)
        for tok in reversed(nots):
            expr = build(tok, Not, expr)
        return expr
    ops = PRECEDENCE[level]
    left = parse_expr(stream, atom, level + 1)
    while stream.peek().text in ops:
        tok = stream.next()
        right = parse_expr(stream, atom, level + 1)
        if level < _NOT:
            left = build(tok, Or if tok.text == "or" else And, left, right)
        else:
            left = build(tok, Compare if level == _COMPARE else BinOp, tok.text, left, right)
            if level == _COMPARE:
                break  # comparisons do not chain
    return left


def parse_literal(stream: TokenStream) -> Lit | None:
    """The ``Lit`` of an INT or REAL (optionally negative), STRING, ``Void``,
    ``true`` or ``false``; None when the next token starts none of these.
    ``.esc``, ``.est`` and ``.eso`` files and ``--inputs`` all read literals
    here.

    Integers must fit 64 bits and reals must be finite, so evaluation never
    meets a literal that no value can hold.
    """
    start = tok = stream.peek()
    negative = stream.at("-")
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


def render_value(value: ObjectValue) -> str:
    """The literal text of ``value``: an ``.eso`` field's value, or a ``Lit``."""
    kind = KINDS.get(value.__class__)
    if kind is None:
        raise TypeError(f"not an object value: {value!r}")
    return kind[2](value)


def render_expr(expr: Expr) -> str:
    return _render(expr, 0)


def _render(expr: Expr, context: int) -> str:
    """``expr`` inside an operand of ``PRECEDENCE[context]``: parenthesized
    where its own operator is looser."""
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
    if not isinstance(expr, (Not, Compare, BinOp, And, Or)):
        raise TypeError(f"not an expression node: {expr!r}")
    level = _LEVEL[expr.op]
    if isinstance(expr, Not):
        text = f"not {_render(expr.operand, level)}"
    else:  # left-associative, and a comparison's left operand cannot be one
        left = level + 1 if isinstance(expr, Compare) else level
        text = f"{_render(expr.left, left)} {expr.op} {_render(expr.right, level + 1)}"
    return f"({text})" if level < context else text


class EvalProblem(Exception):
    """An operator cannot apply to its operands; callers re-wrap."""


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


def _converter(converter_id: str, convert: Callable, shape: str | None = None) -> Callable:
    """``convert`` over a value (``check_value``) of the kind
    ``converter_id``'s source names, and, given a ``shape``, a string of that
    shape; it must give a value. Whatever else comes in or out is a
    ConversionFailure."""
    source = CLASS_NAMED[converter_id.partition("_TO_")[0]]
    fits = re.compile(shape).fullmatch if shape else None

    def apply(value: ObjectValue) -> ObjectValue:
        if value.__class__ is source and (fits is None or fits(value)):
            try:
                check_value(value)  # a NaN or an infinity is no value to convert
                result = convert(value)
                check_value(result)
                return result
            except (ValueError, OverflowError):  # also int() of a NaN or an infinity
                pass
        raise ConversionFailure(converter_id, value)

    return apply


def _string_to_integer(text: str) -> int:
    digits = text.lstrip("-").lstrip("0") or "0"  # zeros count toward int()'s 4300-digit limit
    return -int(digits) if text[0] == "-" else int(digits)


#: Every conversion a ``convert`` may name. An id reads ``<SOURCE>_TO_<TARGET>``,
#: the primitive types it converts between; generation relies on that.
CONVERTERS: Mapping[str, Callable[[ObjectValue], ObjectValue]] = MappingProxyType({
    converter_id: _converter(converter_id, *how) for converter_id, how in {
        "STRING_TO_INTEGER": (_string_to_integer, f"-?{INT}"),
        "INTEGER_TO_STRING": (str,),
        "INTEGER_TO_REAL": (float,),
        "REAL_TO_INTEGER": (int,),  # toward zero
        "STRING_TO_REAL": (float, f"-?(?:{REAL}|{INT}(?:{EXPONENT})?)"),  # "12" and "1e5" too
        "REAL_TO_STRING": (render_real,),
    }.items()
})


# Per operand class that ``+ - *`` compute inline, the test a result must pass.
_INLINE_CHECKS = (
    (int, f"{INT64_MIN} <= {{}} <= {INT64_MAX}"),
    (float, "isfinite({})"),
)


class SourceWriter:
    """Python statements that evaluate expressions over fields ``f`` and
    inputs ``i``, one local per node, for a generated function; each line is
    indented relative to the block that holds them all.

    Spliced into the text are only the writer's own names (``t<n>`` locals,
    ``g<n>`` guards, ``k<n>`` bindings) and ``repr`` of field and input
    names; every literal value, operator, converter function and converter
    id is bound in ``namespace``. Two ``int`` or two ``float`` operands of
    ``+ - *`` are computed inline, and a result that fails the 64-bit or
    finite check is computed again by the ``OPERATORS`` function, which
    raises its ``EvalProblem``; every other case calls that function at
    once, and a connective's operand that is no boolean calls ``_truth``. A
    missing field is a ``KeyError`` of its name, for the function to turn
    into its own error; a missing input is a ``MissingInput``, and a
    converter ``CONVERTERS`` lacks is an ``UnknownConverter`` once its
    argument is evaluated. ``and`` and ``or`` short-circuit through one
    guard local each: ``g<n> = <outer guard> and [not] <left>`` runs
    unguarded, and each statement of the right operand under ``if g<n>:``
    alone, which its own guards imply.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.owners: list[object] = []  # per line, the label ``own`` gave it
        self.namespace: dict[str, object] = {
            "isfinite": math.isfinite, "truth": _truth,
            "MissingInput": MissingInput, "UnknownConverter": UnknownConverter,
        }
        self._count = 0
        self._guard: str | None = None  # the local that lines written now run under

    def _name(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"

    def bind(self, value: object) -> str:
        name = self._name("k")
        self.namespace[name] = value
        return name

    def own(self, label: object) -> None:
        """Give ``label`` to each line written since the last call."""
        self.owners += [label] * (len(self.lines) - len(self.owners))

    def _write(self, *lines: str) -> None:
        """``lines``, one statement, to run where the current guard holds."""
        guard = self._guard
        self.lines += lines if guard is None else [f"if {guard}:", *[f"    {line}" for line in lines]]

    def expr(self, expr: Expr) -> str:
        """The name that holds ``expr``'s value once the lines so far run."""
        cls = expr.__class__
        if cls is Lit:
            return self.bind(expr.value)
        local = self._name("t")
        if cls is OldField or cls is AttrRef:
            self._write(f"{local} = f[{expr.name!r}]")
        elif cls is InputRef:
            key = repr(expr.key)
            self._write(f"if {key} not in i: raise MissingInput({key})", f"{local} = i[{key}]")
        elif cls is Convert:
            arg = self.expr(expr.arg)
            fn = CONVERTERS.get(expr.converter_id)
            if fn is None:
                self._write(f"raise UnknownConverter({self.bind(expr.converter_id)})")
            else:
                self._write(f"{local} = {self.bind(fn)}({arg})")
        elif cls is BinOp or cls is Compare:
            self._binop(local, expr)
        elif cls is Not:
            self._write(f"{local} = not {self._boolean(expr.operand)}")
        elif cls is And or cls is Or:
            outer = self._guard
            left = self._boolean(expr.left)
            test = left if cls is And else f"not {left}"
            self._guard = guard = self._name("g")
            self.lines.append(f"{guard} = {test}" if outer is None else f"{guard} = {outer} and {test}")
            right = self._boolean(expr.right)  # read below only where the guard held
            self._guard = outer
            self._write(f"{local} = {left} {expr.op} {right}")
        else:
            raise TypeError(f"not an expression node: {expr!r}")
        return local

    def _boolean(self, expr: Expr) -> str:
        """``expr``'s name, its value checked to be a boolean unless it must be."""
        name = self.expr(expr)
        if expr.__class__ not in (Compare, And, Or, Not):
            self._write(f"if {name}.__class__ is not bool: truth({name})")
        return name

    def _binop(self, local: str, expr: BinOp | Compare) -> None:
        a, b = self.expr(expr.left), self.expr(expr.right)
        call = f"{self.bind(OPERATORS[expr.op])}({a}, {b})"
        sides = ((a, expr.left), (b, expr.right))
        literal_classes = {side.value.__class__ for _, side in sides if side.__class__ is Lit}
        guarded = [name for name, side in sides if side.__class__ is not Lit]
        lines: list[str] = []
        for cls, check in _INLINE_CHECKS if expr.op in ("+", "-", "*") else ():
            if guarded and literal_classes <= {cls}:  # a literal of another class rules it out
                guard = " and ".join(f"{name}.__class__ is {cls.__name__}" for name in guarded)
                lines += [
                    f"{'elif' if lines else 'if'} {guard}:",
                    f"    {local} = {a} {expr.op} {b}",
                    f"    if not {check.format(local)}: {call}",  # raises the EvalProblem
                ]
        lines += ["else:", f"    {local} = {call}"] if lines else [f"{local} = {call}"]
        self._write(*lines)
