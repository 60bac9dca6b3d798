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

A clause body is an expression that ``exprs.parse_expr`` reads from the
loosest level of ``exprs.PRECEDENCE``; this module supplies only its
primaries, a parenthesized body and an attribute name.
All values are immutable; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Mapping, Union

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
        names = tuple([attr.name for attr in self.attributes])
        seen_attrs: set[str] = set()
        for name in names:
            if name in seen_attrs:
                raise DuplicateAttribute(name)
            seen_attrs.add(name)
        # not fields, so ``==``, ``repr`` and ``replace`` ignore them
        object.__setattr__(self, "_attribute_names", names)
        # (attribute order, the ``attached`` ones): what a migrated record must
        # match, and all a hop's generated function builds in of its schema.
        # Hops cache that function by ``shape_key``, the same in one string,
        # whose hash Python computes once, where a tuple's on every lookup.
        attached = tuple(a.name for a in self.attributes if isinstance(a.declared_type, Attached))
        object.__setattr__(self, "record_shape", (names, attached))
        object.__setattr__(self, "shape_key", f"{' '.join(names)} / {' '.join(attached)}")
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
    def gate(self) -> Callable[[Mapping[str, exprs.ObjectValue]], str | None]:
        """``objects.generate_gate(self)``, built on first use."""
        from .objects import generate_gate  # objects imports this module
        return generate_gate(self)

    def attribute_names(self) -> tuple[str, ...]:
        return self._attribute_names

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


def parse_schema(source: str) -> ClassSchema:
    """Parse a ``.esc`` class definition; trailing content is an error."""
    stream = TokenStream(tokenize(source))
    version = 1
    if stream.at("version"):
        stream.next()
        version = exprs.parse_version(stream)
    stream.expect("class")
    name = _class_ident(stream)
    generic_params: list[str] = []
    if stream.at("["):
        stream.next()
        while True:
            tok = stream.peek()
            param = _class_ident(stream)
            if param in generic_params:
                raise ParseError(f"duplicate generic parameter {param!r}", tok.line, tok.column)
            generic_params.append(param)
            if stream.at(","):
                stream.next()
                continue
            break
        stream.expect("]")
    stream.expect("feature")
    params = tuple(generic_params)
    attributes: list[Attribute] = []
    while stream.at_ident() and stream.peek().text not in ("invariant", "end"):
        tok = stream.peek()
        attr_name = _class_ident(stream)
        if attr_name in params:
            raise ParseError(
                f"name {attr_name!r} is both a generic parameter and an attribute",
                tok.line,
                tok.column,
            )
        stream.expect(":")
        attributes.append(Attribute(attr_name, _parse_type(stream, params)))
        if stream.at(","):
            stream.next()
    clauses: list[InvariantClause] = []
    if stream.at("invariant"):
        stream.next()
        while stream.at_ident() and stream.peek().text != "end":
            tag = _class_ident(stream)
            stream.expect(":")
            clauses.append(InvariantClause(tag, exprs.parse_expr(stream, _parse_atom)))
            if stream.at(";"):
                stream.next()
    stream.expect("end")
    trailing = stream.peek()
    if trailing.kind != "EOF":
        raise ParseError(
            f"unparsed trailing content starting at {trailing.text!r}",
            trailing.line,
            trailing.column,
        )
    return ClassSchema(
        name=name,
        generic_params=params,
        attributes=tuple(attributes),
        invariant=InvariantExpr(tuple(clauses)),
        version=version,
    )


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
    if stream.at("attached") or stream.at("detachable"):
        marker = stream.next().text
        if stream.at("attached") or stream.at("detachable"):
            raise stream.error("at most one attachment marker per type expression")
    tok = stream.peek()
    base_name = _class_ident(stream)
    base: TypeExpr
    base = GenericParamRef(base_name) if base_name in params else ClassType(base_name)
    while stream.at("["):
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
            if not stream.at(","):
                break
        stream.expect("]")
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


def _parse_atom(stream: TokenStream) -> exprs.Expr:
    """The invariant's own primaries: a parenthesized clause or an attribute."""
    tok = stream.peek()
    if stream.at("("):
        return exprs.parse_parenthesized(stream, _parse_atom, 0)
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
