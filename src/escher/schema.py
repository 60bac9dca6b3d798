"""Class-schema data model and the versioned class DSL.

A schema is a flattened, versioned class: generic parameters, attributes,
and an invariant (a conjunction of tagged boolean clauses over the
attributes). The concrete syntax lives in ``.esc`` files:

    version 2
    class BANK_ACCOUNT feature
      balance: INTEGER
      info: INTEGER
    invariant
      valid_account: balance > 0
    end

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Union

from . import exprs
from ._lex import IDENT_RE, TokenStream, tokenize
from .errors import (
    DuplicateAttribute,
    InvariantRefersUnknownAttribute,
    ParseError,
    UnknownGenericParam,
)

KEYWORDS = frozenset(
    """class feature end invariant version attached detachable
       and or not Void true false""".split()
)

def is_identifier(name: str) -> bool:
    return bool(IDENT_RE.match(name)) and name not in KEYWORDS


# ---------------------------------------------------------------------------
# Type expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassType:
    name: str

    def __post_init__(self) -> None:
        if not is_identifier(self.name):
            raise ValueError(f"invalid class name {self.name!r}")


@dataclass(frozen=True)
class GenericParamRef:
    name: str

    def __post_init__(self) -> None:
        if not is_identifier(self.name):
            raise ValueError(f"invalid generic parameter name {self.name!r}")


@dataclass(frozen=True)
class GenericDerivation:
    base: "TypeExpr"
    argument: "TypeExpr"

    def __post_init__(self) -> None:
        # Grammar: the derived base is a class name or another derivation.
        if not isinstance(self.base, (ClassType, GenericDerivation)):
            raise ValueError("generic derivation base must be a class type or derivation")


@dataclass(frozen=True)
class Attached:
    inner: "TypeExpr"

    def __post_init__(self) -> None:
        if isinstance(self.inner, (Attached, Detachable)):
            raise ValueError("at most one attachment marker per type expression")


@dataclass(frozen=True)
class Detachable:
    inner: "TypeExpr"

    def __post_init__(self) -> None:
        if isinstance(self.inner, (Attached, Detachable)):
            raise ValueError("at most one attachment marker per type expression")


TypeExpr = Union[ClassType, GenericParamRef, GenericDerivation, Attached, Detachable]


def strip_marker(t: TypeExpr) -> TypeExpr:
    if isinstance(t, (Attached, Detachable)):
        return t.inner
    return t


def normalize_type(t: TypeExpr) -> TypeExpr:
    """Normal form under the project's default attachment (detachable).

    Unmarked class types and derivations gain an explicit Detachable marker;
    generic parameter references stay bare (their attachment is decided at
    instantiation).
    """
    if isinstance(t, Attached):
        return Attached(_normalize_unmarked(t.inner))
    if isinstance(t, Detachable):
        return Detachable(_normalize_unmarked(t.inner))
    if isinstance(t, GenericParamRef):
        return t
    return Detachable(_normalize_unmarked(t))


def _normalize_unmarked(t: TypeExpr) -> TypeExpr:
    if isinstance(t, ClassType):
        return t
    if isinstance(t, GenericParamRef):
        return t
    if isinstance(t, GenericDerivation):
        return GenericDerivation(_normalize_unmarked(t.base), normalize_type(t.argument))
    raise ValueError("marker inside marker")


def type_equal(a: TypeExpr, b: TypeExpr) -> bool:
    """Structural equality modulo the default-attachment convention."""
    return normalize_type(a) == normalize_type(b)


def weakens_attachment(old: TypeExpr, new: TypeExpr) -> bool:
    """True when ``new`` only drops ``old``'s ``attached`` marker: every value
    ``old`` holds still fits ``new``, so the change is harmless."""
    return (
        isinstance(old, Attached)
        and not isinstance(new, Attached)
        and type_equal(old.inner, strip_marker(new))
    )


def walk_type(t: TypeExpr) -> Iterator[TypeExpr]:
    yield t
    if isinstance(t, (Attached, Detachable)):
        yield from walk_type(t.inner)
    elif isinstance(t, GenericDerivation):
        yield from walk_type(t.base)
        yield from walk_type(t.argument)


def render_type(t: TypeExpr) -> str:
    if isinstance(t, Attached):
        return f"attached {render_type(t.inner)}"
    if isinstance(t, Detachable):
        return f"detachable {render_type(t.inner)}"
    if isinstance(t, (ClassType, GenericParamRef)):
        return t.name
    # flatten a left-nested derivation chain into bracket-comma form
    args: list[TypeExpr] = []
    base: TypeExpr = t
    while isinstance(base, GenericDerivation):
        args.append(base.argument)
        base = base.base
    args.reverse()
    return f"{render_type(base)}[{', '.join(render_type(a) for a in args)}]"


# ---------------------------------------------------------------------------
# Attributes, invariants, schemas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Attribute:
    name: str
    declared_type: TypeExpr

    def __post_init__(self) -> None:
        if not is_identifier(self.name):
            raise ValueError(f"invalid attribute name {self.name!r}")


@dataclass(frozen=True)
class InvariantClause:
    tag: str
    body: exprs.Expr

    def __post_init__(self) -> None:
        if not is_identifier(self.tag):
            raise ValueError(f"invalid invariant tag {self.tag!r}")


@dataclass(frozen=True)
class InvariantExpr:
    """Conjunction of tagged clauses; holds iff every clause is true."""

    clauses: tuple[InvariantClause, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.clauses)


EMPTY_INVARIANT = InvariantExpr()


@dataclass(frozen=True)
class ClassSchema:
    name: str
    generic_params: tuple[str, ...] = ()
    attributes: tuple[Attribute, ...] = ()
    invariant: InvariantExpr = EMPTY_INVARIANT
    version: int = 1

    def __post_init__(self) -> None:
        if not is_identifier(self.name):
            raise ValueError(f"invalid class name {self.name!r}")
        if self.version < 1:
            raise ValueError(f"version tag must be positive, got {self.version}")
        seen_params: set[str] = set()
        for param in self.generic_params:
            if not is_identifier(param):
                raise ValueError(f"invalid generic parameter name {param!r}")
            if param in seen_params:
                raise ValueError(f"duplicate generic parameter {param!r}")
            seen_params.add(param)
        seen_attrs: set[str] = set()
        for attr in self.attributes:
            if attr.name in seen_attrs:
                raise DuplicateAttribute(attr.name)
            seen_attrs.add(attr.name)
        # not a field, so ``==``, ``repr`` and ``replace`` ignore it
        object.__setattr__(self, "attribute_set", frozenset(seen_attrs))
        if seen_params & seen_attrs:
            clash = sorted(seen_params & seen_attrs)[0]
            raise ValueError(f"name {clash!r} is both a generic parameter and an attribute")
        for attr in self.attributes:
            for node in walk_type(attr.declared_type):
                if isinstance(node, GenericParamRef) and node.name not in seen_params:
                    raise UnknownGenericParam(node.name)
        for clause in self.invariant.clauses:
            for node in exprs.walk(clause.body):
                if isinstance(node, exprs.AttrRef) and node.name not in seen_attrs:
                    raise InvariantRefersUnknownAttribute(clause.tag, node.name)
                if isinstance(node, exprs.TRANSFORMER_ONLY):
                    raise ValueError(f"invariant {clause.tag!r} holds a transformer-only {node!r}")

    @cached_property
    def invariant_steps(self) -> tuple[tuple[str, exprs.Compiled], ...]:
        """``(tag, closure)`` per invariant clause, compiled on first use."""
        return tuple((c.tag, exprs.compile_expr(c.body)) for c in self.invariant.clauses)

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def get_attribute(self, name: str) -> Attribute | None:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def with_attributes(self, attributes: tuple[Attribute, ...]) -> "ClassSchema":
        return replace(self, attributes=attributes)

    def with_version(self, version: int) -> "ClassSchema":
        return replace(self, version=version)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_schema(source: str, memo: dict | None = None) -> ClassSchema:
    """Parse a ``.esc`` class definition; trailing content is an error.

    ``memo`` serves a caller that parses many texts at once, such as a
    project load, and passes one dict to every parse: a text laid out as
    ``render_schema`` writes it then parses only the lines the dict lacks
    (``_parse_lines``). Any other text goes through the whole-text parser
    below, which gives the same schema and alone writes errors.
    """
    if memo is not None:
        schema = _parse_lines(source, memo)
        if schema is not None:
            return schema
    stream = TokenStream(tokenize(source))
    version = _version(stream) if stream.at_ident("version") else 1
    name, generic_params = _header(stream)
    attributes: list[Attribute] = []
    while stream.at_ident() and stream.peek().text not in ("invariant", "end"):
        attributes.append(_attribute(stream, generic_params))
        if stream.at_op(","):
            stream.next()
    clauses: list[InvariantClause] = []
    if stream.at_ident("invariant"):
        stream.next()
        while stream.at_ident() and stream.peek().text != "end":
            clauses.append(_clause(stream))
            if stream.at_op(";"):
                stream.next()
    stream.expect_ident("end")
    trailing = stream.peek()
    if trailing.kind != "EOF":
        raise ParseError(
            f"unparsed trailing content starting at {trailing.text!r}",
            trailing.line,
            trailing.column,
        )
    return ClassSchema(
        name=name,
        generic_params=generic_params,
        attributes=tuple(attributes),
        invariant=InvariantExpr(tuple(clauses)),
        version=version,
    )


def _parse_lines(source: str, memo: dict) -> ClassSchema | None:
    """The schema of a text with one production per line: ``version N``,
    the ``class`` header, one attribute per line, ``invariant``, one clause
    per line and ``end``. Each line is parsed only when ``memo`` lacks it,
    and stored only when it parses. None for a text laid out otherwise or
    with a line that does not parse on its own.

    No token spans a line break, and the first token of each next line ends
    the production before it, so when every line parses the whole-text
    parser reads the same productions from the same tokens.
    """
    lines = source.split("\n")
    if lines[-2:] != ["end", ""]:
        return None
    body = lines[2:-2]
    split = body.index("invariant") if "invariant" in body else len(body)
    try:
        version = _line(memo, lines[0], _version)
        name, generic_params = _line(memo, lines[1], _header)
        attributes = [_line(memo, line, _attribute, generic_params) for line in body[:split]]
        clauses = [_line(memo, line, _clause) for line in body[split + 1:]]
    except ParseError:
        return None
    invariant = InvariantExpr(tuple(clauses))
    return ClassSchema(name, generic_params, tuple(attributes), invariant, version)


def _line(memo: dict, line: str, production, *args):
    """``production(stream, *args)`` over the whole of one line, looked up in
    ``memo`` under the production, the line and ``args``."""
    key = (production, line, *args)
    value = memo.get(key)
    if value is None:
        stream = TokenStream(tokenize(line))
        value = production(stream, *args)
        if stream.peek().kind != "EOF":
            raise stream.error("more than one production on the line")
        memo[key] = value
    return value


def _version(stream: TokenStream) -> int:
    stream.expect_ident("version")
    return exprs.parse_version(stream)


def _header(stream: TokenStream) -> tuple[str, tuple[str, ...]]:
    """``class NAME [P, ...] feature``: the name and the generic parameters."""
    stream.expect_ident("class")
    name = _class_ident(stream)
    generic_params: list[str] = []
    if stream.at_op("["):
        stream.next()
        while True:
            tok = stream.peek()
            param = _class_ident(stream)
            if param in generic_params:
                raise ParseError(f"duplicate generic parameter {param!r}", tok.line, tok.column)
            generic_params.append(param)
            if stream.at_op(","):
                stream.next()
                continue
            break
        stream.expect_op("]")
    stream.expect_ident("feature")
    return name, tuple(generic_params)


def _attribute(stream: TokenStream, params: tuple[str, ...]) -> Attribute:
    name = _class_ident(stream)
    stream.expect_op(":")
    return Attribute(name, _parse_type(stream, params))


def _clause(stream: TokenStream) -> InvariantClause:
    tag = _class_ident(stream)
    stream.expect_op(":")
    return InvariantClause(tag, _parse_or(stream))


_TYPE_TOO_DEEP = f"type expression nested deeper than {exprs.MAX_DEPTH} levels"


def _class_ident(stream: TokenStream) -> str:
    tok = stream.peek()
    if tok.kind != "IDENT":
        raise stream.error(f"found {tok.text!r}", expected="an identifier")
    if tok.text in KEYWORDS:
        raise ParseError(f"keyword {tok.text!r} cannot be used as an identifier", tok.line, tok.column)
    return stream.next().text


def _parse_type(stream: TokenStream, params: tuple[str, ...]) -> TypeExpr:
    """A type expression. Each ``[`` and ``,`` in it nests the derivation one
    level deeper (``X[A, B]`` derives ``X[A]`` by ``B``); the one that takes
    it past ``exprs.MAX_DEPTH`` levels is a ParseError, which keeps this
    parser, ``normalize_type``, ``render_type`` and ``walk_type`` inside the
    stack."""
    outer = stream.depth
    declared = _parse_derived(stream, params)
    stream.depth = outer
    return declared


def _parse_derived(stream: TokenStream, params: tuple[str, ...]) -> TypeExpr:
    marker: str | None = None
    if stream.at_ident("attached") or stream.at_ident("detachable"):
        marker = stream.next().text
        follow = stream.peek()
        if follow.kind == "IDENT" and follow.text in ("attached", "detachable"):
            raise ParseError(
                "at most one attachment marker per type expression", follow.line, follow.column
            )
    tok = stream.peek()
    base_name = _class_ident(stream)
    base: TypeExpr
    base = GenericParamRef(base_name) if base_name in params else ClassType(base_name)
    while stream.at_op("["):
        if isinstance(base, GenericParamRef):
            raise ParseError(
                f"generic parameter {base_name!r} cannot take type arguments", tok.line, tok.column
            )
        while True:
            nest = stream.next()  # "[" or ","
            stream.depth += 1
            if stream.depth > exprs.MAX_DEPTH:
                raise ParseError(_TYPE_TOO_DEEP, nest.line, nest.column)
            base = GenericDerivation(base, _parse_derived(stream, params))
            if not stream.at_op(","):
                break
        stream.expect_op("]")
    if marker == "attached":
        return Attached(base)
    if marker == "detachable":
        return Detachable(base)
    return base


def parse_type(text: str, generic_params: tuple[str, ...] = ()) -> TypeExpr:
    """Parse a standalone type expression (used by tools and tests)."""
    stream = TokenStream(tokenize(text))
    t = _parse_type(stream, generic_params)
    trailing = stream.peek()
    if trailing.kind != "EOF":
        raise ParseError(f"trailing content {trailing.text!r}", trailing.line, trailing.column)
    return t


# Invariant expression grammar, lowest precedence first:
#   or -> and -> not -> comparison -> exprs.parse_arith -> atom


def _parse_or(stream: TokenStream) -> exprs.Expr:
    left = _parse_and(stream)
    while stream.at_ident("or"):
        left = exprs.build(stream.next(), exprs.Or, left, _parse_and(stream))
    return left


def _parse_and(stream: TokenStream) -> exprs.Expr:
    left = _parse_not(stream)
    while stream.at_ident("and"):
        left = exprs.build(stream.next(), exprs.And, left, _parse_not(stream))
    return left


def _parse_not(stream: TokenStream) -> exprs.Expr:
    nots = []
    while stream.at_ident("not"):
        nots.append(stream.next())
    expr = _parse_comparison(stream)
    for tok in reversed(nots):
        expr = exprs.build(tok, exprs.Not, expr)
    return expr


def _parse_comparison(stream: TokenStream) -> exprs.Expr:
    left = exprs.parse_arith(stream, _parse_atom)
    tok = stream.peek()
    if tok.kind == "OP" and tok.text in exprs.COMPARE_OPS:
        stream.next()
        right = exprs.parse_arith(stream, _parse_atom)
        return exprs.build(tok, exprs.Compare, tok.text, left, right)
    return left


def _parse_atom(stream: TokenStream) -> exprs.Expr:
    """The invariant's own primaries: a parenthesized clause or an attribute."""
    tok = stream.peek()
    if stream.at_op("("):
        return exprs.parse_parenthesized(stream, _parse_or)
    if tok.kind == "IDENT":
        if tok.text in KEYWORDS:
            raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.column)
        stream.next()
        return exprs.AttrRef(tok.text)
    raise stream.error(f"found {tok.text!r}", expected="an expression")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_schema(schema: ClassSchema) -> str:
    """Canonical text; ``parse_schema(render_schema(s))`` equals ``s``."""
    lines = [f"version {schema.version}"]
    header = f"class {schema.name}"
    if schema.generic_params:
        header += f" [{', '.join(schema.generic_params)}]"
    if not schema.attributes and not schema.invariant:
        lines.append(header + " feature end")
        return "\n".join(lines) + "\n"
    lines.append(header + " feature")
    for attr in schema.attributes:
        lines.append(f"  {attr.name}: {render_type(attr.declared_type)}")
    if schema.invariant:
        lines.append("invariant")
        for clause in schema.invariant.clauses:
            lines.append(f"  {clause.tag}: {exprs.render_expr(clause.body)}")
    lines.append("end")
    return "\n".join(lines) + "\n"
