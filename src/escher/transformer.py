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
literals, which ``exprs.parse_expr`` reads from ``exprs.ARITH_LEVEL``; this
module supplies only those primaries. A line is stripped of ``_lex.BLANKS``
alone, as every line format is. The generator emits only three sources,
``oldc.<name>``, ``input <target>`` and ``convert <ID> (oldc.<target>)``;
hand-edited transformers may assign any such expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

from . import exprs
from ._lex import BLANKS, TokenStream, tokenize
from .errors import DuplicateTarget, ParseError
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
from .values import RefVal


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    """``Result.<target_name> := <expr>``, the source in the transformer's
    expression language, which has no ``ref`` literal."""

    target_name: str
    expr: exprs.Expr

    def __post_init__(self) -> None:
        for node in exprs.walk(self.expr):
            if isinstance(node, exprs.INVARIANT_ONLY) or (
                node.__class__ is exprs.Lit and node.value.__class__ is RefVal
            ):
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

    @cached_property
    def assigned_targets(self) -> frozenset[str]:
        """Every ``Assign`` target; a hop fills defaults only where these fall short."""
        return frozenset(i.target_name for i in self.instructions if i.__class__ is Assign)

    @cached_property
    def steps(self) -> tuple[tuple[type, str, exprs.Compiled | None], ...]:
        """``(kind, target, closure)`` per instruction, compiled on first use."""
        return tuple((i.__class__, getattr(i, "target_name", ""),
                      exprs.compile_expr(i.expr) if i.__class__ is Assign else None)
                     for i in self.instructions)

    @cached_property
    def hops(self) -> dict:
        """The generated function per the new schema's ``record_shape``, or
        None where the steps alone run; filled by
        ``objects.interpret_transformer``."""
        return {}


# ---------------------------------------------------------------------------
# Assignability and generation
# ---------------------------------------------------------------------------

# primitive widenings that keep a plain copy sound
_WIDENINGS = {(ClassType("INTEGER"), ClassType("REAL"))}

# (normalized source type, normalized target type) -> the converter id that
# the generator emits; each id in the table names its two types
_CONVERTER_FOR = {
    (normalize_type(ClassType(source)), normalize_type(ClassType(target))): converter_id
    for converter_id in exprs.CONVERTERS
    for source, _, target in [converter_id.partition("_TO_")]
}


def assignable(from_type: TypeExpr, to_type: TypeExpr) -> bool:
    """True when a value of ``from_type`` can be stored as ``to_type`` as-is."""
    if type_equal(from_type, to_type) or weakens_attachment(from_type, to_type):
        return True
    return (strip_marker(from_type), strip_marker(to_type)) in _WIDENINGS


def generate_transformer(transformation: ClassTransformation) -> ObjectTransformer:
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
                converter_id = _CONVERTER_FOR.get(
                    (normalize_type(smo.old_type), normalize_type(smo.new_type))
                )
                if converter_id is not None:
                    converted = exprs.Convert(converter_id, exprs.OldField(smo.name))
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


def parse_transformer(source: str) -> ObjectTransformer:
    """Parse a ``.est`` file, one statement a line. A ``convert`` may name
    any id: one that ``exprs.CONVERTERS`` lacks fails when a record reaches it."""
    header: tuple[str, int, int] | None = None
    instructions: list[TransformerInstr] = []
    pending_warning: str | None = None
    ended = False
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw.strip(BLANKS)
        if not line:
            continue
        column = len(raw) - len(raw.lstrip(BLANKS)) + 1  # of the line's first character
        if line.startswith(_WARNING_PREFIX):
            pending_warning = line[len(_WARNING_PREFIX):].strip(BLANKS)
            continue
        if line.startswith("--"):
            continue
        if ended:
            raise ParseError(f"unparsed trailing content {line!r}", lineno, column)
        if header is None:
            header = _parse_header(line, lineno, column)
            continue
        if line == "end":
            ended = True
            continue
        if line == "noop":
            instructions.append(Noop(pending_warning or ""))
            pending_warning = None
            continue
        pending_warning = None
        instructions.append(_parse_statement(line, lineno, column))
    if header is None:
        raise ParseError("missing transform header", 1, 1)
    if not ended:
        raise ParseError("missing end", len(source.split("\n")), 1)
    name, from_version, to_version = header
    return ObjectTransformer(name, from_version, to_version, tuple(instructions))


def _parse_header(line: str, lineno: int, column: int) -> tuple[str, int, int]:
    stream = TokenStream(tokenize(line, start_line=lineno, start_column=column))
    stream.expect("transform")
    name = stream.expect_ident().text
    stream.expect("from")
    from_version = exprs.parse_version(stream)
    stream.expect("to")
    to_tok = stream.peek()
    to_version = exprs.parse_version(stream)
    if to_version == from_version:
        raise ParseError("a transformer must change the version", to_tok.line, to_tok.column)
    _expect_eol(stream)
    return name, from_version, to_version


def _parse_statement(line: str, lineno: int, column: int) -> TransformerInstr:
    stream = TokenStream(tokenize(line, start_line=lineno, start_column=column))
    if stream.at("require_attached"):
        stream.next()
        stream.expect("Result")
        stream.expect(".")
        target = stream.expect_ident().text
        _expect_eol(stream)
        return CheckAttached(target)
    stream.expect("Result")
    stream.expect(".")
    target = stream.expect_ident().text
    stream.expect(":=")
    expr = exprs.parse_expr(stream, _parse_atom, exprs.ARITH_LEVEL)
    _expect_eol(stream)
    return Assign(target, expr)


def _expect_eol(stream: TokenStream) -> None:
    tok = stream.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column, expected="end of line")


def _parse_atom(stream: TokenStream) -> exprs.Expr:
    """The transformer's own primaries: ``(...)``, ``oldc.<name>``,
    ``input <key>`` and ``convert <ID> (...)``."""
    tok = stream.peek()
    if stream.at("("):
        return exprs.parse_parenthesized(stream, _parse_atom, exprs.ARITH_LEVEL)
    if stream.at("oldc"):
        stream.next()
        stream.expect(".")
        return exprs.OldField(stream.expect_ident().text)
    if stream.at("input"):
        stream.next()
        return exprs.InputRef(stream.expect_ident().text)
    if stream.at("convert"):
        stream.next()
        converter_id = stream.expect_ident().text
        arg = exprs.parse_parenthesized(stream, _parse_atom, exprs.ARITH_LEVEL)
        return exprs.build(tok, exprs.Convert, converter_id, arg)
    raise stream.error(f"found {tok.text!r}", expected="an expression")
