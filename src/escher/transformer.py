"""Object transformers: generation from class transformations, and the
``.est`` concrete syntax.

A transformer is a straight-line instruction list building a record of the
new class version from a record of the old one:

    transform BANK_ACCOUNT from 1 to 2
      Result.info := convert STRING_TO_INTEGER (oldc.info)
      -- warning: attribute tot_deposits removed; value will be dropped
      noop
      Result.balance := input balance
    end

Every ``Result.x := <source>`` line is one ``Assign``, its source an
expression over ``oldc`` fields, ``input`` keys, ``convert`` applications and
literals (see :mod:`escher.exprs`). The generator emits only three sources,
``oldc.<name>``, ``input <target>`` and ``convert <ID> (oldc.<target>)``;
hand-edited transformers may assign any such expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Union

from . import exprs
from ._lex import IDENT_RE, TokenStream, tokenize
from .errors import ConversionFailure, DuplicateTarget, ParseError, UnknownConverter
from .schema import (
    ClassType,
    TypeExpr,
    normalize_type,
    render_type,
    strip_marker,
    type_equal,
    weakens_attachment,
)
from .smo import (
    Added,
    AttachAdded,
    ClassTransformation,
    NoChange,
    Removed,
    Renamed,
    TypeChanged,
)
from .values import INT64_MAX, INT64_MIN, IntVal, ObjectValue, RealVal, StringVal


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    """``Result.<target_name> := <expr>``, the source in the transformer's
    expression language."""

    target_name: str
    expr: exprs.Expr

    def __post_init__(self) -> None:
        for node in exprs.walk(self.expr):
            if isinstance(node, exprs.INVARIANT_ONLY):
                raise ValueError(f"a transformer source cannot hold {node!r}")


@dataclass(frozen=True)
class Noop:
    warning: str = ""


@dataclass(frozen=True)
class CheckAttached:
    """Runtime non-void check on an already-assigned result field."""

    target_name: str


TransformerInstr = Union[Assign, Noop, CheckAttached]


@dataclass(frozen=True)
class ObjectTransformer:
    class_name: str
    from_version: int
    to_version: int
    instructions: tuple[TransformerInstr, ...]

    def __post_init__(self) -> None:
        if self.from_version < 1 or self.to_version < 1:
            raise ValueError("version tags must be positive")
        if self.from_version == self.to_version:
            raise ValueError("a transformer must change the version")
        seen: set[str] = set()
        for instr in self.instructions:
            if isinstance(instr, Assign):
                if instr.target_name in seen:
                    raise DuplicateTarget(instr.target_name)
                seen.add(instr.target_name)

    @property
    def required_inputs(self) -> frozenset[str]:
        return frozenset(
            node.key
            for instr in self.instructions if isinstance(instr, Assign)
            for node in exprs.walk(instr.expr) if isinstance(node, exprs.InputRef)
        )

    def assigned_targets(self) -> frozenset[str]:
        return frozenset(i.target_name for i in self.instructions if isinstance(i, Assign))

    @cached_property
    def steps(self) -> tuple[tuple[type, str, exprs.Compiled | None], ...]:
        """``(kind, target, closure)`` per instruction, compiled on first use."""
        return tuple((i.__class__, getattr(i, "target_name", ""),
                      exprs.compile_expr(i.expr) if i.__class__ is Assign else None)
                     for i in self.instructions)


# ---------------------------------------------------------------------------
# Converter registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Converter:
    converter_id: str
    source_type: TypeExpr
    target_type: TypeExpr
    fn: Callable[[ObjectValue], ObjectValue]

    def __post_init__(self) -> None:
        if not IDENT_RE.match(self.converter_id):
            raise ValueError(f"invalid converter id {self.converter_id!r}")


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
    return RealVal(float(value.value))


def _real_to_string(value: ObjectValue) -> ObjectValue:
    if not isinstance(value, RealVal):
        raise ConversionFailure("REAL_TO_STRING", value)
    return StringVal(exprs.render_real(value.value))


_INTEGER = ClassType("INTEGER")
_REAL = ClassType("REAL")
_STRING = ClassType("STRING")

BUILTIN_CONVERTERS = (
    Converter("STRING_TO_INTEGER", _STRING, _INTEGER, _string_to_integer),
    Converter("INTEGER_TO_STRING", _INTEGER, _STRING, _integer_to_string),
    Converter("INTEGER_TO_REAL", _INTEGER, _REAL, _integer_to_real),
    Converter("REAL_TO_INTEGER", _REAL, _INTEGER, _real_to_integer),
    Converter("STRING_TO_REAL", _STRING, _REAL, _string_to_real),
    Converter("REAL_TO_STRING", _REAL, _STRING, _real_to_string),
)


class ConverterRegistry:
    """Deterministic converter lookup, immutable once constructed.

    One converter per (source type, target type) pair; the built-in
    primitive matrix is always present.
    """

    def __init__(self, extra: Iterable[Converter] = ()):
        self._by_id: dict[str, Converter] = {}
        self._by_pair: dict[tuple[TypeExpr, TypeExpr], Converter] = {}
        for conv in (*BUILTIN_CONVERTERS, *extra):
            if conv.converter_id in self._by_id:
                raise ValueError(f"duplicate converter id {conv.converter_id!r}")
            pair = (normalize_type(conv.source_type), normalize_type(conv.target_type))
            if pair in self._by_pair:
                raise ValueError(
                    f"duplicate converter for {render_type(conv.source_type)} -> "
                    f"{render_type(conv.target_type)}"
                )
            self._by_id[conv.converter_id] = conv
            self._by_pair[pair] = conv

    def extended(self, *extra: Converter) -> "ConverterRegistry":
        current = [c for c in self._by_id.values() if c not in BUILTIN_CONVERTERS]
        return ConverterRegistry((*current, *extra))

    def get(self, converter_id: str) -> Converter:
        conv = self._by_id.get(converter_id)
        if conv is None:
            raise UnknownConverter(converter_id)
        return conv

    def __contains__(self, converter_id: str) -> bool:
        return converter_id in self._by_id

    def find(self, source_type: TypeExpr, target_type: TypeExpr) -> Converter | None:
        return self._by_pair.get((normalize_type(source_type), normalize_type(target_type)))


DEFAULT_REGISTRY = ConverterRegistry()


# ---------------------------------------------------------------------------
# Assignability and generation
# ---------------------------------------------------------------------------

# primitive widenings that keep a plain copy sound
_WIDENINGS = {(_INTEGER, _REAL)}


def assignable(from_type: TypeExpr, to_type: TypeExpr) -> bool:
    """True when a value of ``from_type`` can be stored as ``to_type`` as-is."""
    if type_equal(from_type, to_type) or weakens_attachment(from_type, to_type):
        return True
    return (strip_marker(from_type), strip_marker(to_type)) in _WIDENINGS


def generate_transformer(
    transformation: ClassTransformation, registry: ConverterRegistry = DEFAULT_REGISTRY
) -> ObjectTransformer:
    """Map each SMO to its instruction(s); never fails, gaps become warnings."""
    source, target = transformation.source, transformation.target
    if source.version == target.version:
        raise ValueError("source and target schemas carry the same version tag")
    instructions: list[TransformerInstr] = []
    for smo in transformation.smos:
        if isinstance(smo, NoChange):
            instructions.append(Assign(smo.attribute.name, exprs.OldField(smo.attribute.name)))
        elif isinstance(smo, Added):
            instructions.append(Assign(smo.attribute.name, exprs.InputRef(smo.attribute.name)))
        elif isinstance(smo, Renamed):
            if smo.candidate:
                instructions.append(
                    Noop(f"possible rename of {smo.old_name} to {smo.new_name}; verify semantics")
                )
            instructions.append(Assign(smo.new_name, exprs.OldField(smo.old_name)))
        elif isinstance(smo, TypeChanged):
            if assignable(smo.old_type, smo.new_type):
                instructions.append(Assign(smo.name, exprs.OldField(smo.name)))
            else:
                converter = registry.find(smo.old_type, smo.new_type)
                if converter is not None:
                    converted = exprs.Convert(converter.converter_id, exprs.OldField(smo.name))
                    instructions.append(Assign(smo.name, converted))
                else:
                    instructions.append(
                        Noop(
                            f"no conversion from {render_type(smo.old_type)} to "
                            f"{render_type(smo.new_type)} for {smo.name}"
                        )
                    )
                    instructions.append(Assign(smo.name, exprs.InputRef(smo.name)))
        elif isinstance(smo, Removed):
            instructions.append(Noop(f"attribute {smo.name} removed; value will be dropped"))
        elif isinstance(smo, AttachAdded):
            instructions.append(Assign(smo.name, exprs.OldField(smo.name)))
            instructions.append(CheckAttached(smo.name))
        else:
            raise TypeError(f"not an SMO: {smo!r}")
    return ObjectTransformer(
        class_name=source.name,
        from_version=source.version,
        to_version=target.version,
        instructions=tuple(instructions),
    )


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------


def render_transformer(t: ObjectTransformer) -> str:
    lines = [f"transform {t.class_name} from {t.from_version} to {t.to_version}"]
    for instr in t.instructions:
        if isinstance(instr, Noop):
            if instr.warning:
                lines.append(f"  -- warning: {instr.warning}")
            lines.append("  noop")
        elif isinstance(instr, CheckAttached):
            lines.append(f"  require_attached Result.{instr.target_name}")
        else:
            lines.append(f"  Result.{instr.target_name} := {exprs.render_expr(instr.expr)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


_WARNING_PREFIX = "-- warning:"


def parse_transformer(source: str, registry: ConverterRegistry | None = None) -> ObjectTransformer:
    """Parse a ``.est`` file; converter ids are validated against ``registry``
    when one is given."""
    header: tuple[str, int, int] | None = None
    instructions: list[TransformerInstr] = []
    pending_warning: str | None = None
    ended = False
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(_WARNING_PREFIX):
            pending_warning = line[len(_WARNING_PREFIX):].strip()
            continue
        if line.startswith("--"):
            continue
        if ended:
            raise ParseError(f"unparsed trailing content {line!r}", lineno, 1)
        if header is None:
            header = _parse_header(line, lineno)
            continue
        if line == "end":
            ended = True
            continue
        if line == "noop":
            instructions.append(Noop(pending_warning or ""))
            pending_warning = None
            continue
        pending_warning = None
        instructions.append(_parse_statement(line, lineno, registry))
    if header is None:
        raise ParseError("missing transform header", 1, 1)
    if not ended:
        raise ParseError("missing end", len(source.split("\n")), 1)
    name, from_version, to_version = header
    return ObjectTransformer(name, from_version, to_version, tuple(instructions))


def _parse_header(line: str, lineno: int) -> tuple[str, int, int]:
    stream = TokenStream(tokenize(line, start_line=lineno))
    stream.expect_ident("transform")
    name = stream.expect_ident().text
    stream.expect_ident("from")
    from_version = exprs.parse_version(stream)
    stream.expect_ident("to")
    to_tok = stream.peek()
    to_version = exprs.parse_version(stream)
    if to_version == from_version:
        raise ParseError("a transformer must change the version", to_tok.line, to_tok.column)
    _expect_eol(stream)
    return name, from_version, to_version


def _parse_statement(
    line: str, lineno: int, registry: ConverterRegistry | None
) -> TransformerInstr:
    stream = TokenStream(tokenize(line, start_line=lineno))
    if stream.at_ident("require_attached"):
        stream.next()
        stream.expect_ident("Result")
        stream.expect_op(".")
        target = stream.expect_ident().text
        _expect_eol(stream)
        return CheckAttached(target)
    stream.expect_ident("Result")
    stream.expect_op(".")
    target = stream.expect_ident().text
    stream.expect_op(":=")
    expr = _parse_source(stream)
    _expect_eol(stream)
    if registry is not None:
        for node in exprs.walk(expr):
            if isinstance(node, exprs.Convert) and node.converter_id not in registry:
                raise UnknownConverter(node.converter_id)
    return Assign(target, expr)


def _expect_eol(stream: TokenStream) -> None:
    tok = stream.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column, expected="end of line")


def _parse_source(stream: TokenStream) -> exprs.Expr:
    return exprs.parse_arith(stream, _parse_atom)


def _parse_atom(stream: TokenStream) -> exprs.Expr:
    """The transformer's own primaries: ``(...)``, ``oldc.<name>``,
    ``input <key>`` and ``convert <ID> (...)``."""
    tok = stream.peek()
    if stream.at_op("("):
        return exprs.parse_parenthesized(stream, _parse_source)
    if stream.at_ident("oldc"):
        stream.next()
        stream.expect_op(".")
        return exprs.OldField(stream.expect_ident().text)
    if stream.at_ident("input"):
        stream.next()
        return exprs.InputRef(stream.expect_ident().text)
    if stream.at_ident("convert"):
        stream.next()
        converter_id = stream.expect_ident().text
        arg = exprs.parse_parenthesized(stream, _parse_source)
        return exprs.build(tok, exprs.Convert, converter_id, arg)
    raise stream.error(f"found {tok.text!r}", expected="an expression")
