"""Serialized object graphs, invariant evaluation, and the retrieval algorithm.

The ``.eso`` object file is a flat table of records with explicit ids, which
represents shared substructure and cycles without nesting:

    ESCHER-OBJECTS 1
    obj 0 BANK_ACCOUNT version 1
      tot_deposits: INTEGER = 100
      tot_withdrawals: INTEGER = 30
      info: STRING = "42"
    end

A field's value is written in the literal grammar of the expression
languages (``exprs.parse_literal``/``exprs.render_value``), plus ``ref N``;
its annotation is a primitive kind's name (``values.PRIMITIVE_KINDS``) or, for
a ``ref``, the class of the record it names. A record's fields are one
read-only mapping in field order, from parse through migration to render.

Retrieval migrates every record whose stored version differs from its
class's target version, then enforces the target schema's class invariant.
Transformer sources and invariant clauses run compiled on first use.
Migration failures are loud by design: a missing handler, a missing
transformation, or a violated invariant each raises its own error instead of
letting a default-initialized object into the system.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from . import exprs
from ._lex import TokenStream, line_int, tokenize, unescape_string
from .errors import (
    AttachmentViolation,
    DanglingReference,
    EvaluationError,
    FormatError,
    HandlerMissing,
    InvariantViolation,
    MissingAttribute,
    ParseError,
    TransformationMissing,
    TypeMismatchInInvariant,
)
from .schema import ClassSchema, ClassType, TypeExpr, strip_marker
from .transformer import Assign, CheckAttached, ObjectTransformer
from .values import PRIMITIVE_KINDS, ObjectValue, RefVal, check_value

if TYPE_CHECKING:
    from .repository import Repository


# ---------------------------------------------------------------------------
# Records and graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class ObjectRecord:
    """One stored object; ``fields`` is a read-only view, in field order, of
    the dict it is built from. Field order fixes the ``.eso`` text, but
    equality ignores it, as dict equality does. Equal records hold values of
    one kind in each field, so ``1``, ``1.0`` and ``true`` differ. Records
    are unhashable."""

    id: int
    class_name: str
    version: int
    fields: Mapping[str, ObjectValue]

    def __init__(self, id: int, class_name: str, version: int, fields: Mapping[str, ObjectValue]):
        if id < 0:
            raise ValueError(f"object id must be nonnegative: {id}")
        if version < 1:
            raise ValueError(f"version must be positive: {version}")
        _set_id(self, id)
        _set_class_name(self, class_name)
        _set_version(self, version)
        _set_fields(self, MappingProxyType(fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ObjectRecord:
            return NotImplemented
        return (self.id, self.class_name, self.version, _kinds(self.fields)) == (
            other.id, other.class_name, other.version, _kinds(other.fields)
        )


def _kinds(fields: Mapping[str, ObjectValue]) -> dict[str, tuple[type, ObjectValue]]:
    return {name: (value.__class__, value) for name, value in fields.items()}


# The slots' own setters, which a frozen class's ``__setattr__`` does not reach.
_set_id, _set_class_name, _set_version, _set_fields = (
    getattr(ObjectRecord, name).__set__ for name in ObjectRecord.__slots__
)


@dataclass(frozen=True, slots=True)
class ObjectGraph:
    records: tuple[ObjectRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("an object graph holds at least its root record")
        for position, record in enumerate(self.records):
            if record.id != position:
                raise ValueError(f"record ids must be dense: expected {position}, got {record.id}")
        count = len(self.records)
        for record in self.records:
            for value in record.fields.values():
                if value.__class__ is not RefVal:
                    check_value(value)
                elif value.object_id >= count:
                    raise DanglingReference(value.object_id)


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------

_HEADER = "ESCHER-OBJECTS 1"


# The one value class each annotation admits, and back, as ``serialize``
# writes them: a name no primitive kind has is the class of a ``ref``'s target.
_KIND_CLASS = {name: cls for name, (cls, _) in PRIMITIVE_KINDS.items()}
_KIND_NAME = {cls: name for name, cls in _KIND_CLASS.items()}


def _annotation(value: ObjectValue, graph: ObjectGraph) -> str:
    return _KIND_NAME.get(value.__class__) or graph.records[value.object_id].class_name


def serialize(graph: ObjectGraph) -> str:
    """Byte-exact canonical text; field order is preserved."""
    lines = [_HEADER]
    for record in graph.records:
        lines.append(f"obj {record.id} {record.class_name} version {record.version}")
        for name, value in record.fields.items():
            lines.append(f"  {name}: {_annotation(value, graph)} = {exprs.render_value(value)}")
        lines.append("end")
    return "\n".join(lines) + "\n"


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_OBJ_RE = re.compile(rf"obj\s+(\d+)\s+({_NAME})\s+version\s+(\d+)\s*\Z")


def deserialize(text: str) -> ObjectGraph:
    """The graph an ``.eso`` text holds. A file exactly as ``serialize``
    writes it is read a record block at a time; any other text goes through
    the line parser, which gives the same graph and writes every error."""
    graph = _deserialize_blocks(text)
    return graph if graph is not None else _deserialize_lines(text)


# One record exactly as ``serialize`` writes it: the header line, the field
# lines (each starting with two spaces), then ``end``.
_BLOCK_RE = re.compile(rf"obj ([0-9]+) ({_NAME}) version ([0-9]+)\n((?:  [^\n]*\n)*)end\n")
# One field line as ``serialize`` writes it, its annotation fused with the
# shape of the one literal kind it admits; a ``ref``'s class is any other name.
_BLOCK_FIELD_RE = re.compile(
    rf"^  ({_NAME}): (?:"
    r"INTEGER = (-?[0-9]+)"
    r'|STRING = ("(?:[^"\\\n]|\\["\\n])*")'
    rf"|(?!(?:{'|'.join(PRIMITIVE_KINDS)}) )({_NAME}) = ref ([0-9]+)"
    r"|NONE = (Void)"
    r"|BOOLEAN = (true|false)"
    r"|REAL = (-?[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r")$",
    re.M,
)


def _deserialize_blocks(text: str) -> ObjectGraph | None:
    """The graph of a text exactly as ``serialize`` writes it, or None for
    any deviation, error or not: the line parser alone reports errors."""
    if not text.startswith(_HEADER + "\n"):
        return None
    records: list[ObjectRecord] = []
    ref_classes: dict[int, str] = {}  # target id -> the class its refs annotate
    pos, total = len(_HEADER) + 1, len(text)
    match_block, field_rows = _BLOCK_RE.match, _BLOCK_FIELD_RE.findall
    try:
        while pos < total:
            block = match_block(text, pos)
            if block is None:
                return None
            pos = block.end()
            object_id, class_name, version, body = block.groups()
            rows = field_rows(body)
            if int(object_id) != len(records) or len(rows) != body.count("\n"):
                return None
            fields: dict[str, ObjectValue] = {}
            for name, integer, string, ref_class, ref, void, boolean, real in rows:
                if integer:
                    value = int(integer)
                elif string:
                    value = unescape_string(string, 0, 0)
                elif ref:
                    value = RefVal(int(ref))
                    if ref_classes.setdefault(value.object_id, ref_class) != ref_class:
                        return None
                elif void:
                    value = None
                elif boolean:
                    value = boolean == "true"
                else:
                    value = float(real)
                fields[name] = value
            if len(fields) != len(rows):  # a duplicate field name
                return None
            records.append(ObjectRecord(len(records), class_name, int(version), fields))
        graph = ObjectGraph(tuple(records))
    except (ValueError, DanglingReference):  # int64 range, finite, version, no records
        return None
    for target, annotation in ref_classes.items():
        if records[target].class_name != annotation:
            return None
    return graph


def _deserialize_lines(text: str) -> ObjectGraph:
    lines = text.split("\n")
    if not lines or lines[0].strip() != _HEADER:
        raise FormatError(1, f"missing {_HEADER!r} header")
    records: list[ObjectRecord] = []
    refs: list[tuple[int, str, str, int]] = []  # (line, field, annotation, target id)
    lineno = 1
    total = len(lines)
    while lineno < total:
        line = lines[lineno].strip()
        lineno += 1
        if not line:
            continue
        m = _OBJ_RE.match(line)
        if m is None:
            raise FormatError(lineno, f"expected 'obj <id> <CLASS> version <v>', got {line!r}")
        object_id, class_name = line_int(m.group(1), lineno), m.group(2)
        version = line_int(m.group(3), lineno)
        if version < 1:
            raise FormatError(lineno, f"version must be positive: {version}")
        if object_id != len(records):
            raise FormatError(lineno, f"expected object id {len(records)}, got {object_id}")
        fields: dict[str, ObjectValue] = {}
        closed = False
        while lineno < total:
            field_line = lines[lineno]
            lineno += 1
            word = field_line.strip()
            if not word:
                continue
            if word == "end":
                closed = True
                break
            name, annotation, value = _parse_field(field_line, lineno)
            if name in fields:
                raise FormatError(lineno, f"duplicate field name {name!r} in record {object_id}")
            if value.__class__ is RefVal:
                refs.append((lineno, name, annotation, value.object_id))
            fields[name] = value
        if not closed:
            raise FormatError(lineno, f"record {object_id} is missing its 'end'")
        records.append(ObjectRecord(object_id, class_name, version, fields))
    if not records:
        raise FormatError(lineno, "object file holds no records")
    graph = ObjectGraph(tuple(records))
    for ref_line, name, annotation, target in refs:
        target_class = records[target].class_name
        if annotation != target_class:
            raise FormatError(
                ref_line,
                f"field {name!r} is annotated {annotation}, "
                f"but record {target} is of class {target_class}",
            )
    return graph


def _parse_field(line: str, lineno: int) -> tuple[str, str, ObjectValue]:
    """Parse one field line, as the file holds it, into (name, annotation, value)."""
    try:
        stream = TokenStream(tokenize(line, start_line=lineno))
        name = stream.expect_ident().text
        stream.expect_op(":")
        annotation = stream.expect_ident().text
        stream.expect_op("=")
        value = _parse_whole_value(stream)
    except ParseError as err:
        raise FormatError.at(err) from err
    _check_annotation(annotation, value, lineno, name)
    return name, annotation, value


def _check_annotation(annotation: str, value: ObjectValue, lineno: int, name: str) -> None:
    if value.__class__ is not _KIND_CLASS.get(annotation, RefVal):
        raise FormatError(lineno, f"value of field {name!r} does not fit annotation {annotation}")


def parse_value(stream: TokenStream) -> ObjectValue:
    """One object-file value: ``ref N``, or a literal of the expression
    languages, with their range checks and reasons. Every failure is a
    ParseError at the token that caused it."""
    tok = stream.peek()
    if tok.kind == "IDENT" and tok.text == "ref":
        stream.next()
        ref_tok = stream.next()
        if ref_tok.kind != "INT":
            raise ParseError("ref needs a nonnegative integer id", ref_tok.line, ref_tok.column)
        try:
            object_id = int(ref_tok.text)
        except ValueError:  # more digits than int() converts
            raise ParseError(
                f"number too large: {len(ref_tok.text)} digits", ref_tok.line, ref_tok.column
            ) from None
        return RefVal(object_id)
    literal = exprs.parse_literal(stream)
    if literal is None:
        raise ParseError(f"not a value literal: {tok.text!r}", tok.line, tok.column)
    return literal.value


def _parse_whole_value(stream: TokenStream) -> ObjectValue:
    """``parse_value``, where nothing may follow the value."""
    value = parse_value(stream)
    trailing = stream.peek()
    if trailing.kind != "EOF":
        raise ParseError(f"trailing content {trailing.text!r}", trailing.line, trailing.column)
    return value


def parse_value_text(text: str) -> ObjectValue:
    try:
        return _parse_whole_value(TokenStream(tokenize(text)))
    except ParseError as err:
        raise FormatError.at(err) from err


# ---------------------------------------------------------------------------
# Invariant evaluation
# ---------------------------------------------------------------------------


_NO_INPUTS: Mapping[str, ObjectValue] = {}


def eval_invariant(record: ObjectRecord, schema: ClassSchema) -> None:
    """Evaluate clauses in order; the first false one is an
    ``InvariantViolation`` naming the record and the clause's tag.

    Integer/integer comparisons are exact; a real operand promotes both
    sides; strings compare lexicographically by code point; ``x /= Void``
    is true iff x is not void.
    """
    if record.class_name != schema.name:
        raise ValueError(
            f"record of class {record.class_name} checked against schema {schema.name}"
        )
    for tag, clause in schema.invariant_steps:
        try:
            outcome = clause(record.fields, _NO_INPUTS)
        except exprs.EvalProblem as err:
            raise TypeMismatchInInvariant(tag, str(err)) from err
        if outcome.__class__ is not bool:
            raise TypeMismatchInInvariant(tag, "clause body is not boolean")
        if not outcome:
            raise InvariantViolation(record.class_name, record.id, tag)


# ---------------------------------------------------------------------------
# Transformer interpretation
# ---------------------------------------------------------------------------


def type_default(declared: TypeExpr) -> ObjectValue:
    base = strip_marker(declared)
    if isinstance(base, ClassType) and base.name in PRIMITIVE_KINDS:
        return PRIMITIVE_KINDS[base.name][1]
    return None


# Holds the place of an attribute no instruction has assigned yet.
_UNASSIGNED = object()


def interpret_transformer(
    t: ObjectTransformer,
    old: ObjectRecord,
    inputs: Mapping[str, ObjectValue],
    *,
    new_schema: ClassSchema,
    check_attached: bool = True,
    warnings: list[str] | None = None,
) -> ObjectRecord:
    """Run the instruction list over ``old``, producing a record of the new
    version with exactly ``new_schema``'s attributes.

    Attributes no instruction assigns (possible only in hand-edited
    transformers) default by declared type, with a warning recorded.
    """
    if old.class_name != t.class_name or new_schema.name != t.class_name:
        raise ValueError(
            f"transformer for {t.class_name} applied to {old.class_name}/{new_schema.name}"
        )
    if old.version != t.from_version:
        raise ValueError(
            f"record stores version {old.version}, transformer starts at {t.from_version}"
        )
    fields: dict[str, object] = dict.fromkeys(new_schema.attribute_names(), _UNASSIGNED)
    for index, (kind, target, source) in enumerate(t.steps):
        if kind is Assign:
            if target not in fields:
                raise EvaluationError(
                    index, f"target {target!r} is not an attribute of {new_schema.name}"
                )
            try:
                fields[target] = source(old.fields, inputs)
            except exprs.EvalProblem as err:
                raise EvaluationError(index, str(err)) from err
            except MissingAttribute as err:
                raise EvaluationError(index, f"old record has no attribute {err.name!r}") from err
        elif kind is CheckAttached and check_attached:
            value = fields.get(target, _UNASSIGNED)
            if value is None or value is _UNASSIGNED:
                raise AttachmentViolation(target)
    if not new_schema.attribute_set <= t.assigned_targets:
        for attr in new_schema.attributes:
            if fields[attr.name] is _UNASSIGNED:
                if warnings is not None:
                    warnings.append(
                        f"attribute {attr.name!r} of {new_schema.name} not assigned by the "
                        f"{t.from_version}->{t.to_version} transformer; default used"
                    )
                fields[attr.name] = type_default(attr.declared_type)
    return ObjectRecord(old.id, t.class_name, t.to_version, fields)


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


# The hops [(to_version, transformer), ...] from one stored version to the
# target, and the class's inputs. Hop schemas are looked up per record.
_Plan = tuple[list[tuple[int, ObjectTransformer]], dict[str, ObjectValue]]


def retrieve(
    graph: ObjectGraph,
    repo: "Repository",
    target_versions: Mapping[str, int],
    inputs: Mapping[tuple[str, str], ObjectValue] | None = None,
    *,
    assertions: bool = True,
    allow_composition: bool = True,
    warnings: list[str] | None = None,
) -> ObjectGraph:
    """Migrate every record to its class's target version and gate on the
    target invariant.

    Classes absent from ``target_versions`` stay at their stored version
    (invariant-checked only). When no direct transformer exists, the shortest
    chain of registered transformers is composed, unless ``allow_composition``
    is off; only the final schema's invariant is checked. ``assertions`` off
    reproduces the tolerant retrieval the invariant gate exists to prevent.
    """
    inputs = inputs or {}
    plans: dict[tuple[str, int], _Plan] = {}  # keyed by (class, stored version)
    migrated: list[ObjectRecord] = []
    for record in graph.records:
        class_name = record.class_name
        target = target_versions.get(class_name, record.version)
        current = record
        if record.version != target:
            key = (class_name, record.version)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _plan(
                    repo, class_name, record.version, target, inputs, allow_composition
                )
            hops, class_inputs = plan
            for hop_to, transformer in hops:
                current = interpret_transformer(
                    transformer,
                    current,
                    class_inputs,
                    new_schema=repo.schema_for(class_name, hop_to),
                    check_attached=assertions,
                    warnings=warnings,
                )
        if assertions:
            eval_invariant(current, repo.schema_for(class_name, target))
        migrated.append(current)
    return ObjectGraph(tuple(migrated))


def _plan(
    repo: "Repository",
    class_name: str,
    start: int,
    goal: int,
    inputs: Mapping[tuple[str, str], ObjectValue],
    allow_composition: bool,
) -> _Plan:
    handlers = repo.handlers_for(class_name)
    if handlers is None:
        raise HandlerMissing(class_name)
    path = repo.hop_path(class_name, start, goal, allow_composition)
    if path is None:
        raise TransformationMissing(class_name, start, goal)
    hops = [(hop_to, handlers[(hop_from, hop_to)]) for hop_from, hop_to in zip(path, path[1:])]
    class_inputs = {attr: value for (cls, attr), value in inputs.items() if cls == class_name}
    for value in class_inputs.values():
        check_value(value)
    return hops, class_inputs

