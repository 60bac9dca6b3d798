"""Seeded random generators for property-style tests.

Everything takes an explicit ``random.Random`` so failures reproduce.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

from escher.errors import (
    AttachmentViolation, EvaluationError, InvariantViolation, MissingAttribute, MissingInput,
    TypeMismatchInInvariant, UnknownConverter,
)
from escher.objects import ObjectGraph, ObjectRecord, type_default
from escher.repository import Release, Repository, render_manifest
from escher.schema import (
    Attached,
    Attribute,
    ClassSchema,
    ClassType,
    Detachable,
    GenericDerivation,
    GenericParamRef,
    InvariantClause,
    InvariantExpr,
    TypeExpr,
    render_schema,
    type_equal,
    weakens_attachment,
)
from escher import exprs
from escher.transformer import Assign, CheckAttached, ObjectTransformer
from escher.values import ObjectValue, RefVal


def attribute_sets_match(applied: ClassSchema, target: ClassSchema) -> bool:
    """Order-insensitive (name, type) set equality, modulo attachment weakening.

    An applied attribute may stay ``attached`` where the target weakened it to
    detachable: the stored value satisfies the weaker type, and the diff
    deliberately records such changes as no_change.
    """
    applied_types = {a.name: a.declared_type for a in applied.attributes}
    target_types = {a.name: a.declared_type for a in target.attributes}
    if applied_types.keys() != target_types.keys():
        return False
    return all(
        type_equal(got, target_types[name]) or weakens_attachment(got, target_types[name])
        for name, got in applied_types.items()
    )


def without_handler(repo: Repository, class_name: str, pair: tuple[int, int] | None = None) -> Repository:
    """A new Repository without one handler of the class, or, with no
    ``pair``, without the class's handler set."""
    handlers = {name: dict(entries) for name, entries in repo.handlers.items()}
    if pair is None:
        del handlers[class_name]
    else:
        del handlers[class_name][pair]
    return replace(repo, handlers=handlers)


CLASS_NAMES = ["INTEGER", "REAL", "BOOLEAN", "STRING", "PERSON", "ADDRESS", "ACCOUNT", "WIDGET"]
CONTAINER_NAMES = ["ARRAY", "LIST", "TABLE"]


def random_type(rng: random.Random, params: tuple[str, ...], depth: int = 0) -> TypeExpr:
    base = _random_unmarked(rng, params, depth)
    marker = rng.random()
    if isinstance(base, GenericParamRef):
        return base
    if marker < 0.2:
        return Attached(base)
    if marker < 0.35:
        return Detachable(base)
    return base


def _random_unmarked(rng: random.Random, params: tuple[str, ...], depth: int) -> TypeExpr:
    roll = rng.random()
    if params and roll < 0.15:
        return GenericParamRef(rng.choice(params))
    if depth < 2 and roll < 0.35:
        base: TypeExpr = ClassType(rng.choice(CONTAINER_NAMES))
        for _ in range(rng.randint(1, 2)):
            base = GenericDerivation(base, random_type(rng, params, depth + 1))
        return base
    return ClassType(rng.choice(CLASS_NAMES))


def random_schema(
    rng: random.Random,
    name: str = "SUBJECT",
    *,
    max_attributes: int = 12,
    version: int = 1,
    allow_invariant: bool = False,
) -> ClassSchema:
    params = tuple(rng.sample(["G", "H"], k=rng.randint(0, 2)))
    count = rng.randint(0, max_attributes)
    attributes = tuple(
        Attribute(f"attr_{i}", random_type(rng, params)) for i in range(count)
    )
    invariant = InvariantExpr()
    if allow_invariant and attributes and rng.random() < 0.5:
        clauses = []
        for attr in attributes:
            if attr.declared_type == ClassType("INTEGER") and rng.random() < 0.5:
                clauses.append(
                    InvariantClause(
                        f"nonneg_{attr.name}",
                        exprs.Compare(">=", exprs.AttrRef(attr.name), exprs.Lit(0)),
                    )
                )
        invariant = InvariantExpr(tuple(clauses))
    return ClassSchema(name, params, attributes, invariant, version)


def random_schema_pair(rng: random.Random) -> tuple[ClassSchema, ClassSchema]:
    """Two versions of one class: a random base, then a mutation mixing kept,
    retyped, renamed, dropped, added, and reordered attributes."""
    old = random_schema(rng, allow_invariant=True)
    params = old.generic_params
    new_attrs: list[Attribute] = []
    for attr in old.attributes:
        roll = rng.random()
        if roll < 0.25:
            continue  # dropped
        if roll < 0.40:
            new_attrs.append(Attribute(attr.name, random_type(rng, params)))  # maybe retyped
        elif roll < 0.55:
            new_attrs.append(Attribute(f"renamed_{attr.name}", attr.declared_type))
        else:
            new_attrs.append(attr)
    for i in range(rng.randint(0, 4)):
        new_attrs.append(Attribute(f"fresh_{i}", random_type(rng, params)))
    rng.shuffle(new_attrs)
    new = ClassSchema(
        old.name, params, tuple(new_attrs), InvariantExpr(), old.version + 1
    )
    return old, new


def random_value(rng: random.Random, record_count: int) -> ObjectValue:
    roll = rng.random()
    if roll < 0.25:
        return rng.randint(-(2**40), 2**40)
    if roll < 0.40:
        return rng.choice([0.0, 1.5, -2.25, 3.125e10, 0.1])
    if roll < 0.50:
        return rng.random() < 0.5
    if roll < 0.70:
        alphabet = 'ab "\\\n\r xyz_09'
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
    if roll < 0.80:
        return None
    return RefVal(rng.randrange(record_count))


def random_graph(rng: random.Random, max_records: int = 6) -> ObjectGraph:
    """Random flat object table; reference fields may form cycles."""
    count = rng.randint(1, max_records)
    records = []
    for object_id in range(count):
        fields = {f"f{i}": random_value(rng, count) for i in range(rng.randint(0, 5))}
        records.append(
            ObjectRecord(object_id, rng.choice(["NODE", "ITEM", "CELL"]), rng.randint(1, 4), fields)
        )
    return ObjectGraph(tuple(records))


def random_repository(rng: random.Random, max_releases: int = 8) -> Repository:
    """Releases of up to three classes: each release drops a class, keeps its
    tag together with its schema, or bumps it by one with a new schema; a
    dropped class may come back at its last tag."""
    last: dict[str, ClassSchema] = {}
    releases = []
    for number in range(1, rng.randint(1, max_releases) + 1):
        schemas: dict[str, ClassSchema] = {}
        for name in ("NODE", "ITEM", "CELL"):
            roll = rng.random()
            previous = last.get(name)
            if roll < 0.2:
                continue
            if previous is None:
                schema = random_schema(rng, name, max_attributes=3, version=rng.randint(1, 3))
            elif roll < 0.6:
                schema = previous
            else:
                schema = random_schema(rng, name, max_attributes=3, version=previous.version + 1)
            schemas[name] = last[name] = schema
        releases.append(Release(number, schemas))
    return Repository("random", tuple(releases))


def write_old_layout(repo: Repository, project: Path) -> None:
    """Write ``repo`` as older saves did: every release directory holds a
    file of each class the release tags."""
    files = {"escher.manifest": render_manifest(repo)}
    for rel in repo.releases:
        for name in rel.versions:
            files[f"releases/{rel.number}/{name}.esc"] = render_schema(rel.schemas[name])
    for name, entries in repo.handlers.items():
        for (a, b), entry in entries.items():
            files[f"handlers/{name}/{a}_to_{b}.est"] = entry.text
    for relative, text in files.items():
        path = project / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# the one reference evaluator: a tree walk, and the clause and step loops over it
# ---------------------------------------------------------------------------


def walk_eval(expr: exprs.Expr, fields, inputs) -> ObjectValue:
    """Reference semantics of both expression languages, node by node over
    old fields (or a record's, for ``AttrRef``) and inputs: what generated
    gates and hops must give, value for value and error for error."""
    cls = expr.__class__
    if cls is exprs.AttrRef or cls is exprs.OldField:
        if expr.name not in fields:
            raise MissingAttribute(expr.name)
        return fields[expr.name]
    if cls is exprs.Lit:
        return expr.value
    if cls is exprs.BinOp or cls is exprs.Compare:
        left = walk_eval(expr.left, fields, inputs)
        return exprs.OPERATORS[expr.op](left, walk_eval(expr.right, fields, inputs))
    if cls is exprs.And or cls is exprs.Or:
        left = exprs._truth(walk_eval(expr.left, fields, inputs))
        if left == (cls is exprs.Or):
            return left
        return exprs._truth(walk_eval(expr.right, fields, inputs))
    if cls is exprs.Not:
        return not exprs._truth(walk_eval(expr.operand, fields, inputs))
    if cls is exprs.InputRef:
        if expr.key not in inputs:
            raise MissingInput(expr.key)
        return inputs[expr.key]
    if cls is exprs.Convert:
        arg = walk_eval(expr.arg, fields, inputs)
        if expr.converter_id not in exprs.CONVERTERS:
            raise UnknownConverter(expr.converter_id)
        return exprs.CONVERTERS[expr.converter_id](arg)
    raise TypeError(f"not an expression node: {expr!r}")


def clause_loop(record: ObjectRecord, schema: ClassSchema) -> None:
    """Reference semantics of ``objects.eval_invariant``: the clauses in
    order over ``walk_eval``, the first false one an ``InvariantViolation``."""
    for clause in schema.invariant.clauses:
        try:
            outcome = walk_eval(clause.body, record.fields, {})
        except exprs.EvalProblem as err:
            raise TypeMismatchInInvariant(clause.tag, str(err)) from err
        if outcome.__class__ is not bool:
            raise TypeMismatchInInvariant(clause.tag, "clause body is not boolean")
        if not outcome:
            raise InvariantViolation(record.class_name, record.id, clause.tag)


_UNASSIGNED = object()


def step_loop(t: ObjectTransformer, old: ObjectRecord, inputs, *, new_schema: ClassSchema,
              check_attached: bool = True, warnings: list[str] | None = None) -> ObjectRecord:
    """Reference semantics of ``objects.interpret_transformer``: the
    instructions one at a time over ``walk_eval``, then defaults with their
    warnings in schema order, then the ``attached`` checks."""
    if old.class_name != t.class_name or new_schema.name != t.class_name:
        raise ValueError(
            f"transformer for {t.class_name} applied to {old.class_name}/{new_schema.name}"
        )
    if old.version != t.from_version:
        raise ValueError(
            f"record stores version {old.version}, transformer starts at {t.from_version}"
        )
    fields = dict.fromkeys(new_schema.attribute_names(), _UNASSIGNED)
    for index, instr in enumerate(t.instructions):
        if instr.__class__ is Assign:
            if instr.target_name not in fields:
                raise EvaluationError(
                    index, f"target {instr.target_name!r} is not an attribute of {new_schema.name}"
                )
            try:
                fields[instr.target_name] = walk_eval(instr.expr, old.fields, inputs)
            except exprs.EvalProblem as err:
                raise EvaluationError(index, str(err)) from err
            except MissingAttribute as err:
                raise EvaluationError(index, f"old record has no attribute {err.name!r}") from err
        elif instr.__class__ is CheckAttached and check_attached:
            value = fields.get(instr.target_name, _UNASSIGNED)
            if value is None or value is _UNASSIGNED:
                raise AttachmentViolation(instr.target_name)
    for attr in new_schema.attributes:
        if fields[attr.name] is _UNASSIGNED:
            if warnings is not None:
                warnings.append(
                    f"attribute {attr.name!r} of {new_schema.name} not assigned by the "
                    f"{t.from_version}->{t.to_version} transformer; default used"
                )
            fields[attr.name] = type_default(attr.declared_type)
    if check_attached:
        for attr in new_schema.attributes:
            if isinstance(attr.declared_type, Attached) and fields[attr.name] is None:
                raise AttachmentViolation(attr.name)
    return ObjectRecord(old.id, t.class_name, t.to_version, fields)
