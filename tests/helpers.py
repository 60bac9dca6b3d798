"""Seeded random generators for property-style tests.

Everything takes an explicit ``random.Random`` so failures reproduce.
"""

from __future__ import annotations

import random
from dataclasses import replace

from escher.objects import ObjectGraph, ObjectRecord
from escher.repository import Release, Repository
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
)
from escher import exprs
from escher.values import ObjectValue, RefVal


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
        alphabet = 'ab "\\\n xyz_09'
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
    tag (usually with the same schema, sometimes a different one), or bumps
    it by one; a dropped class may come back at its last tag."""
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
            elif roll < 0.5:
                schema = previous
            elif roll < 0.6:
                schema = random_schema(rng, name, max_attributes=3, version=previous.version)
            else:
                schema = random_schema(rng, name, max_attributes=3, version=previous.version + 1)
            schemas[name] = last[name] = schema
        releases.append(Release(number, schemas))
    return Repository("random", tuple(releases))
