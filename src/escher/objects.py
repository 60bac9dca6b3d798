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
its annotation is its kind's name (``values.KINDS``) or, for a ``ref``, the
class of the record it names. ``deserialize`` reads a file in one loop: a
record as ``serialize`` writes it, its field lines indented and any line
ended by any blanks, is one regex block, and any other goes alone through
the tokenizer, which alone reports errors. A record's fields are one
read-only mapping in field order, from parse through migration to render.

Retrieval migrates every record whose stored version differs from its
class's target version, then enforces the target schema's class invariant.
Both run generated Python, built on first use, which raises every error
itself: one function per (transformer, the new schema's ``record_shape``),
which also writes every warning and reads ``check_attached``
(``generate_hop``), and one gate per schema (``generate_gate``).
Migration failures are loud by design: a missing handler, a missing
transformation, or a violated invariant each raises its own error instead of
letting a default-initialized object into the system.
"""

from __future__ import annotations

import gc
import math
import re
from dataclasses import dataclass
from functools import wraps
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping

from . import exprs
from ._lex import (
    BLANKS, IDENT, INT, REAL, STRING, TokenStream, line_format, line_int, tokenize, unescape_string,
)
from .errors import (
    AttachmentViolation,
    DanglingReference,
    EscherError,
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
from .values import CLASS_NAMED, INT64_MAX, INT64_MIN, KINDS, ObjectValue, RefVal, check_value

if TYPE_CHECKING:
    from .repository import Repository


# ---------------------------------------------------------------------------
# Records and graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class ObjectRecord:
    """One stored object; ``fields`` is a read-only view, in field order, of
    the dict it is built from, until an ``ObjectGraph(...)`` copies it.
    Field order fixes the ``.eso`` text, but equality ignores it, as dict
    equality does. Equal records hold values of one kind in each field, so
    ``1``, ``1.0`` and ``true`` differ. Records are unhashable."""

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
    """Records with dense ids, record 0 the root. The constructor refuses a
    value no field may hold and a ``ref`` past the last record, and gives
    each record a read-only copy of the fields it checked; ``deserialize``
    and ``retrieve``, which check each value as they make it in dicts of
    their own, build theirs through ``_checked_graph`` instead."""

    records: tuple[ObjectRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("an object graph holds at least its root record")
        for position, record in enumerate(self.records):
            if record.id != position:
                raise ValueError(f"record ids must be dense: expected {position}, got {record.id}")
        count = len(self.records)
        for record in self.records:
            fields = dict(record.fields)
            for value in fields.values():
                if value.__class__ is not RefVal:
                    check_value(value)
                elif value.object_id >= count:
                    raise DanglingReference(value.object_id)
            _set_fields(record, MappingProxyType(fields))  # the caller's dict may change


_set_records = ObjectGraph.records.__set__


def _checked_graph(records: tuple[ObjectRecord, ...]) -> ObjectGraph:
    """The graph of ``records``, whose ids are dense and whose values were
    each checked as they were made, without ``__post_init__``'s walk."""
    graph = object.__new__(ObjectGraph)
    _set_records(graph, records)
    return graph


def _no_gc(build: Callable) -> Callable:
    """``build`` with cyclic garbage collection paused while it runs: the
    records it makes all live on, so a pass over them frees nothing. A
    collector the caller had disabled stays disabled."""

    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------

_HEADER = "ESCHER-OBJECTS 1"


def serialize(graph: ObjectGraph) -> str:
    """Byte-exact canonical text; field order is preserved."""
    lines = [_HEADER]
    append, records, kinds = lines.append, graph.records, KINDS
    for record in records:
        append(f"obj {record.id} {record.class_name} version {record.version}")
        for name, value in record.fields.items():
            annotation, _, render = kinds[value.__class__]
            if annotation is None:
                annotation = records[value.object_id].class_name
            append(f"  {name}: {annotation} = {render(value)}")
        append("end")
    return "\n".join(lines) + "\n"


_OBJ_RE = line_format("obj", f"({INT})", f"({IDENT})", "version", f"({INT})")
_LINE_RE = re.compile(r"^.*$", re.M)  # each line, without its newline
# One record as ``serialize`` writes it: the header line, the field lines
# (each starting with a blank, any of them), then ``end``, each line ending
# in any blanks, so a CRLF text reads as blocks too.
_BLOCK_RE = re.compile(rf"obj ({INT}) ({IDENT}) version ({INT})[{BLANKS}]*\n"
                       rf"((?:[{BLANKS}].*\n)*)end[{BLANKS}]*\n")
# One field line as ``serialize`` writes it, but for its indent and trailing
# blanks, its annotation fused with the shape of the one literal kind it
# admits; a ``ref``'s class is any other name.
_BLOCK_FIELD_RE = re.compile(
    rf"^[{BLANKS}]+({IDENT}): (?:"
    rf"INTEGER = (-?{INT})"
    rf"|STRING = ({STRING})"
    rf"|(?!(?:{'|'.join(CLASS_NAMED)}) )({IDENT}) = ref ({INT})"
    r"|NONE = (Void)"
    r"|BOOLEAN = (true|false)"
    rf"|REAL = (-?{REAL})"
    rf")[{BLANKS}]*$",
    re.M,
)


@_no_gc
def deserialize(text: str) -> ObjectGraph:
    """The graph an ``.eso`` text holds. A record as ``serialize`` writes it,
    but for the blanks that indent its field lines and end its lines, is one
    block, each value checked as it is converted; any other goes alone to
    the line reader, ``_read_record``, which alone raises errors. Then the
    first ``ref`` past the last record, else the first not annotated with
    its target's class, is refused (``_ref_error``)."""
    header = _LINE_RE.match(text)[0]  # no copy of the rest, as partition() makes
    if header.strip(BLANKS) != _HEADER:
        raise FormatError(1, f"missing {_HEADER!r} header")
    records: list[ObjectRecord] = []
    refs: dict[int, tuple[RefVal, str | None]] = {}  # target -> its RefVal, refs' annotation
    pos, lineno, total = len(header) + 1, 1, len(text)
    match_block, field_rows, finite = _BLOCK_RE.match, _BLOCK_FIELD_RE.findall, math.isfinite
    while pos < total:
        block = match_block(text, pos)
        if block is not None:
            object_id, class_name, version, body = block.groups()
            rows = field_rows(body)
            try:
                if int(object_id) != len(records) or len(rows) != body.count("\n"):
                    raise ValueError(object_id)  # not dense, or a line no row reads
                fields: dict[str, ObjectValue] = {}
                for name, integer, string, ref_class, ref, void, boolean, real in rows:
                    if integer:
                        value = int(integer)
                        if not INT64_MIN <= value <= INT64_MAX:
                            raise ValueError(integer)
                    elif string:
                        value = unescape_string(string, 0, 0)
                    elif ref:
                        target = int(ref)
                        interned = refs.get(target)
                        if interned is None:
                            interned = refs[target] = (RefVal(target), ref_class)
                        elif interned[1] != ref_class:
                            refs[target] = (interned[0], None)  # refs that disagree
                        value = interned[0]
                    elif void:
                        value = None
                    elif boolean:
                        value = boolean == "true"
                    else:
                        value = float(real)
                        if not finite(value):
                            raise ValueError(real)
                    fields[name] = value
                if len(fields) != len(rows):
                    raise ValueError(name)  # a duplicate field name
                records.append(ObjectRecord(len(records), class_name, int(version), fields))
                pos, lineno = block.end(), lineno + len(rows) + 2
                continue
            except ValueError:  # as above, more digits than int() converts, version 0
                pass  # the line reader refuses this record, so no ref it registered counts
        pos, lineno = _read_record(text, pos, lineno, records, refs)
    if not records:
        raise FormatError(text.count("\n") + 1, "object file holds no records")
    count = len(records)
    for target, (_, annotation) in refs.items():
        if target >= count or records[target].class_name != annotation:
            raise _ref_error(text, records, refs)
    return _checked_graph(tuple(records))


def _read_record(text: str, pos: int, lineno: int, records: list, refs: dict) -> tuple[int, int]:
    """Read the record at ``pos``, the start of line ``lineno + 1``, and the
    blank lines before it, a line at a time through the tokenizer; append it
    to ``records``, and return the position and line number past its
    ``end``, or past the text where only blank lines are left."""
    object_id = None
    fields: dict[str, ObjectValue] = {}
    for line in _LINE_RE.finditer(text, pos):
        lineno += 1
        word = line[0].strip(BLANKS)
        if not word:
            continue
        if object_id is None:
            m = _OBJ_RE.match(word)
            if m is None:
                raise FormatError(lineno, f"expected 'obj <id> <CLASS> version <v>', got {word!r}")
            object_id, class_name, version = line_int(m[1], lineno), m[2], line_int(m[3], lineno)
            if version < 1:
                raise FormatError(lineno, f"version must be positive: {version}")
            if object_id != len(records):
                raise FormatError(lineno, f"expected object id {len(records)}, got {object_id}")
        elif word == "end":
            records.append(ObjectRecord(object_id, class_name, version, fields))
            return line.end() + 1, lineno
        else:
            name, annotation, value = _parse_field(line[0], lineno)
            if name in fields:
                raise FormatError(lineno, f"duplicate field name {name!r} in record {object_id}")
            if value.__class__ is RefVal:
                interned = refs.setdefault(value.object_id, (value, annotation))
                if interned[1] != annotation:
                    refs[value.object_id] = (interned[0], None)
                value = interned[0]
            fields[name] = value
    if object_id is not None:
        raise FormatError(lineno, f"record {object_id} is missing its 'end'")
    return len(text), lineno


def _ref_error(text: str, records: list[ObjectRecord], refs: dict) -> EscherError:
    """The error of a read file with a bad ``ref``: the first past the last
    record (``refs`` holds targets in file order), else the first annotated
    with a class its target does not have, at its line."""
    count = len(records)
    for target in refs:
        if target >= count:
            return DanglingReference(target)
    # After the header, the non-blank lines are each record's ``obj`` line,
    # its field lines and its ``end``; annotations are read again only here.
    lines = [(n, line) for n, line in enumerate(text.split("\n"), 1) if line.strip(BLANKS)][1:]
    values = [value for record in records for value in (None, *record.fields.values(), None)]
    for (lineno, line), value in zip(lines, values):
        if value.__class__ is RefVal:
            name, annotation, _ = _parse_field(line, lineno)
            target_class = records[value.object_id].class_name
            if annotation != target_class:
                return FormatError(lineno, f"field {name!r} is annotated {annotation}, but "
                                   f"record {value.object_id} is of class {target_class}")
    raise AssertionError("no bad ref found")


def _parse_field(line: str, lineno: int) -> tuple[str, str, ObjectValue]:
    """Parse one field line, as the file holds it, into (name, annotation, value)."""
    try:
        stream = TokenStream(tokenize(line, start_line=lineno))
        name = stream.expect_ident().text
        stream.expect(":")
        annotation = stream.expect_ident().text
        stream.expect("=")
        value = _parse_whole_value(stream)
    except ParseError as err:
        raise FormatError.at(err) from err
    if value.__class__ is not CLASS_NAMED.get(annotation, RefVal):  # else a ref's class
        raise FormatError(lineno, f"value of field {name!r} does not fit annotation {annotation}")
    return name, annotation, value


def _parse_whole_value(stream: TokenStream) -> ObjectValue:
    """One object-file value with nothing after it: ``ref N``, or a literal
    of the expression languages, with their range checks and reasons. Every
    failure is a ParseError at the token that caused it."""
    tok = stream.peek()
    if stream.at("ref"):
        stream.next()
        ref_tok = stream.next()
        if ref_tok.kind != "INT":
            raise ParseError("ref needs a nonnegative integer id", ref_tok.line, ref_tok.column)
        try:
            value = RefVal(int(ref_tok.text))
        except ValueError:  # more digits than int() converts
            raise ParseError(
                f"number too large: {len(ref_tok.text)} digits", ref_tok.line, ref_tok.column
            ) from None
    else:
        literal = exprs.parse_literal(stream)
        if literal is None:
            raise ParseError(f"not a value literal: {tok.text!r}", tok.line, tok.column)
        value = literal.value
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


def eval_invariant(record: ObjectRecord, schema: ClassSchema) -> None:
    """Run ``schema.gate`` over the record: the first false clause is an
    ``InvariantViolation`` naming the record and the clause's tag."""
    if record.class_name != schema.name:
        raise ValueError(f"record of class {record.class_name} checked against schema {schema.name}")
    tag = schema.gate(record.fields)
    if tag is not None:
        raise InvariantViolation(record.class_name, record.id, tag)


def generate_gate(schema: ClassSchema) -> Callable[[Mapping[str, ObjectValue]], str | None]:
    """``gate(f)``: the tag of ``schema``'s first invariant clause false over
    fields ``f``, or None; a failed operator or a clause that is no boolean
    is a ``TypeMismatchInInvariant`` with its tag, a missing field a ``MissingAttribute``."""
    writer = exprs.SourceWriter()
    reason = writer.bind("clause body is not boolean")
    for clause in schema.invariant.clauses:
        v = writer.expr(clause.body)
        writer.lines += [f"if {v} is not True:", f"    if {v} is not False: raise EvalProblem({reason})",
                         f"    return {writer.bind(clause.tag)}"]
        writer.own(clause.tag)
    return _define("gate(f)", writer, "None", TypeMismatchInInvariant,
                   lambda _, name: MissingAttribute(name))


def _define(head: str, writer: exprs.SourceWriter, result: str, problem: Callable, missing: Callable):
    """``def <head>``, ``writer``'s lines in one ``try`` and then ``return
    <result>``: the one place generated code runs. Its handler raises
    ``problem(label, reason)`` for an ``EvalProblem`` and ``missing(label,
    name)`` for a missing field, ``label`` being the failed line's ``own``."""
    source = "\n".join([
        f"def {head}:",
        "    try:",
        *[f"        {line}" for line in writer.lines or ["pass"]],
        "    except EvalProblem as err:",
        "        raise PROBLEM(OWNER[err.__traceback__.tb_lineno - 3], str(err)) from err",
        "    except KeyError as err:  # only a field's read raises it",
        "        raise MISSING(OWNER[err.__traceback__.tb_lineno - 3], err.args[0]) from None",
        f"    return {result}",
    ])
    namespace = writer.namespace
    namespace.update(EvalProblem=exprs.EvalProblem, OWNER=writer.owners, PROBLEM=problem, MISSING=missing)
    exec(source, namespace)
    return namespace.pop(head.partition("(")[0])  # no cycle: its owner's drop frees it at once


# ---------------------------------------------------------------------------
# Transformer interpretation
# ---------------------------------------------------------------------------


def type_default(declared: TypeExpr) -> ObjectValue:
    base = strip_marker(declared)
    if isinstance(base, ClassType):
        return KINDS[CLASS_NAMED.get(base.name, RefVal)][1]  # a class's is void
    return None


def interpret_transformer(
    t: ObjectTransformer,
    old: ObjectRecord,
    inputs: Mapping[str, ObjectValue],
    *,
    new_schema: ClassSchema,
    check_attached: bool = True,
    warnings: list[str] | None = None,
) -> ObjectRecord:
    """The record of the new version, with exactly ``new_schema``'s
    attributes, that the hop's generated function (``generate_hop``, one per
    ``new_schema.shape_key``) makes of ``old``."""
    if old.class_name != t.class_name or new_schema.name != t.class_name:
        raise ValueError(
            f"transformer for {t.class_name} applied to {old.class_name}/{new_schema.name}"
        )
    if old.version != t.from_version:
        raise ValueError(
            f"record stores version {old.version}, transformer starts at {t.from_version}"
        )
    key = new_schema.shape_key
    hop = t.hops.get(key)
    if hop is None:
        hop = t.hops[key] = generate_hop(t, *new_schema.record_shape)
    fields = hop(old.fields, inputs, check_attached, warnings, new_schema)
    return ObjectRecord(old.id, t.class_name, t.to_version, fields)


def generate_hop(t: ObjectTransformer, order: tuple[str, ...], attached: tuple[str, ...]) -> Callable[
    [Mapping[str, ObjectValue], Mapping[str, ObjectValue], bool, list | None, ClassSchema], dict
]:
    """``hop(f, i, c, w, s)``: the new fields, in ``order``, that ``t``
    gives over old fields ``f`` and inputs ``i``, with checks on where ``c``
    holds and warnings appended to ``w`` unless it is None, for a new schema
    ``s`` of ``record_shape`` (``order``, ``attached``); built with
    ``exprs.SourceWriter``. It raises each error at the instruction that
    causes it: a failed source as an ``EvaluationError`` with its index, a
    target outside ``order`` when it is reached, a ``require_attached`` on a
    void or not yet assigned target while checks are on. An attribute no
    ``Assign`` targets (possible only in a hand-edited transformer) takes the
    ``type_default`` of its type in ``s``, with a warning in ``order``,
    before the ``attached`` checks."""
    writer = exprs.SourceWriter()
    lines, bind = writer.lines, writer.bind
    assigned: dict[str, str | None] = dict.fromkeys(order)  # each attribute's local, once assigned
    for index, instr in enumerate(t.instructions):
        if instr.__class__ is Assign:
            if instr.target_name in assigned:
                assigned[instr.target_name] = writer.expr(instr.expr)
            else:
                reason = f"target {instr.target_name!r} is not an attribute of {t.class_name}"
                lines.append(f"raise EvaluationError({index}, {bind(reason)})")
        elif instr.__class__ is CheckAttached:
            local = assigned.get(instr.target_name)
            fail = f"raise AttachmentViolation({bind(instr.target_name)})"
            lines.append(f"if c and {local} is None: {fail}" if local else f"if c: {fail}")
        writer.own(index)
    for position, name in enumerate(order):
        if assigned[name] is None:
            warning = (f"attribute {name!r} of {t.class_name} not assigned by the "
                       f"{t.from_version}->{t.to_version} transformer; default used")
            lines.append(f"if w is not None: w.append({bind(warning)})")
            assigned[name] = f"d{position}"
            lines.append(f"d{position} = type_default(s.attributes[{position}].declared_type)")
    for name in attached:
        lines.append(f"if c and {assigned[name]} is None: raise AttachmentViolation({bind(name)})")
    writer.namespace.update(EvaluationError=EvaluationError, AttachmentViolation=AttachmentViolation,
                            type_default=type_default)
    result = ", ".join(f"{name!r}: {assigned[name]}" for name in order)
    return _define("hop(f, i, c, w, s)", writer, f"{{{result}}}", EvaluationError,
                   lambda index, name: EvaluationError(index, f"old record has no attribute {name!r}"))


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


# The hops [(to_version, transformer), ...] from one stored version to the
# target, and the class's inputs. Hop schemas are looked up per record.
_Plan = tuple[list[tuple[int, ObjectTransformer]], dict[str, ObjectValue]]


@_no_gc
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
    The graph it returns is not walked again: its stored values were checked
    with ``graph``, its inputs by ``_plan``, its literals when built (an
    ``Assign`` holds no ``ref`` one), and each computed value by the
    operator or converter that made it.
    """
    inputs = inputs or {}
    count = len(graph.records)
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
                    repo, class_name, record.version, target, inputs, allow_composition, count
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
    return _checked_graph(tuple(migrated))


def _plan(
    repo: "Repository",
    class_name: str,
    start: int,
    goal: int,
    inputs: Mapping[tuple[str, str], ObjectValue],
    allow_composition: bool,
    count: int,
) -> _Plan:
    """The hops and the class's inputs: more than one hop only with
    ``allow_composition``. No input, read or not, may name a record past the
    graph's ``count``."""
    handlers = repo.handlers_for(class_name)
    if handlers is None:
        raise HandlerMissing(class_name)
    path = repo.hop_path(class_name, start, goal)
    if path is None or (len(path) > 2 and not allow_composition):
        raise TransformationMissing(class_name, start, goal)
    hops = [(hop_to, handlers[(hop_from, hop_to)]) for hop_from, hop_to in zip(path, path[1:])]
    class_inputs = {attr: value for (cls, attr), value in inputs.items() if cls == class_name}
    for value in class_inputs.values():
        check_value(value)
        if value.__class__ is RefVal and value.object_id >= count:
            raise DanglingReference(value.object_id)
    return hops, class_inputs

