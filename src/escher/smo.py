"""Schema modification operators, their application rules, and the AST diff.

Six atomic operators cover every attribute-level change between two versions
of a class. ``diff_schemas`` infers an operator list from a pair of schemas
using static comparison heuristics; ``completeness_witness`` produces the
always-valid remove-everything-add-everything decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import (
    InvariantDanglesAfterRemoval,
    MismatchedClassIdentity,
    PremiseViolated,
)
from .schema import (
    Attached,
    Attribute,
    ClassSchema,
    Detachable,
    InvariantExpr,
    TypeExpr,
    normalize_type,
    render_type,
    strip_marker,
    type_equal,
    weakens_attachment,
)
from . import exprs


@dataclass(frozen=True)
class NoChange:
    attribute: Attribute


@dataclass(frozen=True)
class Added:
    attribute: Attribute


@dataclass(frozen=True)
class Renamed:
    old_name: str
    new_name: str
    typ: TypeExpr
    candidate: bool = False

    def __post_init__(self) -> None:
        if self.old_name == self.new_name:
            raise ValueError("a rename must change the attribute name")


@dataclass(frozen=True)
class TypeChanged:
    name: str
    old_type: TypeExpr
    new_type: TypeExpr

    def __post_init__(self) -> None:
        if type_equal(self.old_type, self.new_type):
            raise ValueError(f"type change for {self.name!r} must actually change the type")


@dataclass(frozen=True)
class Removed:
    name: str
    old_type: TypeExpr


@dataclass(frozen=True)
class AttachAdded:
    name: str
    inner_type: TypeExpr

    def __post_init__(self) -> None:
        if isinstance(self.inner_type, (Attached, Detachable)):
            raise ValueError("attach_added wraps an unmarked type")


SMO = Union[NoChange, Added, Renamed, TypeChanged, Removed, AttachAdded]


def smo_kind(smo: SMO) -> str:
    return {
        NoChange: "no_change",
        Added: "added",
        Renamed: "renamed",
        TypeChanged: "type_changed",
        Removed: "removed",
        AttachAdded: "attach_added",
    }[type(smo)]


# ---------------------------------------------------------------------------
# Application (the inference rules)
# ---------------------------------------------------------------------------


def apply_smo(
    schema: ClassSchema,
    smo: SMO,
    *,
    drop_dangling_clauses: bool = False,
    warnings: list[str] | None = None,
) -> ClassSchema:
    """Apply one operator; raises PremiseViolated when its rule cannot fire.

    Removing or renaming an attribute that an invariant clause mentions
    raises InvariantDanglesAfterRemoval unless ``drop_dangling_clauses`` is
    set, in which case the offending clauses are dropped and a warning is
    appended to ``warnings``.
    """
    if isinstance(smo, NoChange):
        _require_attribute(schema, smo, smo.attribute.name, smo.attribute.declared_type)
        return schema

    if isinstance(smo, Added):
        name = smo.attribute.name
        if schema.get_attribute(name) is not None:
            raise PremiseViolated(smo_kind(smo), f"attribute {name!r} already present")
        if name in schema.generic_params:
            raise PremiseViolated(smo_kind(smo), f"{name!r} clashes with a generic parameter")
        return schema.with_attributes(schema.attributes + (smo.attribute,))

    if isinstance(smo, Renamed):
        attr = _require_attribute(schema, smo, smo.old_name, smo.typ)
        if schema.get_attribute(smo.new_name) is not None:
            raise PremiseViolated(smo_kind(smo), f"attribute {smo.new_name!r} already present")
        if smo.new_name in schema.generic_params:
            raise PremiseViolated(smo_kind(smo), f"{smo.new_name!r} clashes with a generic parameter")
        attrs = tuple(
            Attribute(smo.new_name, a.declared_type) if a.name == smo.old_name else a
            for a in schema.attributes
        )
        invariant = _without_dangling(schema, smo.old_name, drop_dangling_clauses, warnings)
        return ClassSchema(schema.name, schema.generic_params, attrs, invariant, schema.version)

    if isinstance(smo, TypeChanged):
        _require_attribute(schema, smo, smo.name, smo.old_type)
        attrs = tuple(
            Attribute(a.name, smo.new_type) if a.name == smo.name else a
            for a in schema.attributes
        )
        return schema.with_attributes(attrs)

    if isinstance(smo, Removed):
        _require_attribute(schema, smo, smo.name, smo.old_type)
        attrs = tuple(a for a in schema.attributes if a.name != smo.name)
        invariant = _without_dangling(schema, smo.name, drop_dangling_clauses, warnings)
        return ClassSchema(schema.name, schema.generic_params, attrs, invariant, schema.version)

    if isinstance(smo, AttachAdded):
        attr = schema.get_attribute(smo.name)
        if attr is None:
            raise PremiseViolated(smo_kind(smo), f"no attribute named {smo.name!r}")
        if isinstance(attr.declared_type, Attached):
            raise PremiseViolated(smo_kind(smo), f"attribute {smo.name!r} is already attached")
        if not type_equal(strip_marker(attr.declared_type), smo.inner_type):
            raise PremiseViolated(
                smo_kind(smo),
                f"attribute {smo.name!r} has type {render_type(attr.declared_type)}, "
                f"not {render_type(smo.inner_type)}",
            )
        attrs = tuple(
            Attribute(a.name, Attached(smo.inner_type)) if a.name == smo.name else a
            for a in schema.attributes
        )
        return schema.with_attributes(attrs)

    raise TypeError(f"not an SMO: {smo!r}")


def _require_attribute(schema: ClassSchema, smo: SMO, name: str, typ: TypeExpr) -> Attribute:
    attr = schema.get_attribute(name)
    if attr is None:
        raise PremiseViolated(smo_kind(smo), f"no attribute named {name!r}")
    if not type_equal(attr.declared_type, typ):
        raise PremiseViolated(
            smo_kind(smo),
            f"attribute {name!r} has type {render_type(attr.declared_type)}, "
            f"not {render_type(typ)}",
        )
    return attr


def _without_dangling(
    schema: ClassSchema,
    vanished: str,
    drop: bool,
    warnings: list[str] | None,
) -> InvariantExpr:
    offending = [
        clause
        for clause in schema.invariant.clauses
        if any(isinstance(n, exprs.AttrRef) and n.name == vanished for n in exprs.walk(clause.body))
    ]
    if not offending:
        return schema.invariant
    if not drop:
        raise InvariantDanglesAfterRemoval(vanished)
    if warnings is not None:
        tags = ", ".join(c.tag for c in offending)
        warnings.append(f"dropped invariant clause(s) {tags}: referenced vanished attribute {vanished!r}")
    kept = tuple(c for c in schema.invariant.clauses if c not in offending)
    return InvariantExpr(kept)


def apply_transformation(
    schema: ClassSchema,
    smos: tuple[SMO, ...] | list[SMO],
    *,
    drop_dangling_clauses: bool = False,
    warnings: list[str] | None = None,
) -> ClassSchema:
    """Left-to-right composition; errors carry the index of the failing SMO."""
    current = schema
    for index, smo in enumerate(smos):
        try:
            current = apply_smo(
                current, smo, drop_dangling_clauses=drop_dangling_clauses, warnings=warnings
            )
        except (PremiseViolated, InvariantDanglesAfterRemoval) as err:
            err.smo_index = index
            raise
    return current


# ---------------------------------------------------------------------------
# Class transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassTransformation:
    """An ordered SMO list mapping ``source`` onto ``target``'s attribute set."""

    source: ClassSchema
    target: ClassSchema
    smos: tuple[SMO, ...]
    notes: tuple[str, ...] = ()


def _check_identity(old: ClassSchema, new: ClassSchema) -> None:
    if old.name != new.name:
        raise MismatchedClassIdentity(f"class names differ: {old.name} vs {new.name}")
    if old.generic_params != new.generic_params:
        raise MismatchedClassIdentity(
            f"generic parameter lists differ for {old.name}: "
            f"{list(old.generic_params)} vs {list(new.generic_params)}"
        )


def diff_schemas(old: ClassSchema, new: ClassSchema) -> ClassTransformation:
    """Infer the SMO list between two versions of the same class.

    Heuristic pipeline: name-stable attributes become no_change /
    attach_added / type_changed; then a removed and an added attribute of the
    same type pair up as a rename candidate, but only when each side has
    exactly one attribute of that type; the rest become removals and
    additions. Output order is fixed so generated transformers are
    deterministic.
    """
    _check_identity(old, new)
    old_by_name = {a.name: a for a in old.attributes}
    new_by_name = {a.name: a for a in new.attributes}

    notes: list[str] = []
    unchanged: list[SMO] = []
    retyped: list[SMO] = []
    for attr in new.attributes:
        old_attr = old_by_name.get(attr.name)
        if old_attr is None:
            continue
        old_t, new_t = old_attr.declared_type, attr.declared_type
        if type_equal(old_t, new_t):
            unchanged.append(NoChange(old_attr))
        elif weakens_attachment(new_t, old_t):  # the reverse change: attachment added
            retyped.append(AttachAdded(attr.name, new_t.inner))
        elif weakens_attachment(old_t, new_t):
            unchanged.append(NoChange(old_attr))
            notes.append(
                f"attribute {attr.name}: attachment weakened "
                f"({render_type(old_t)} -> {render_type(new_t)}); harmless, kept as no_change"
            )
        else:
            retyped.append(TypeChanged(attr.name, old_t, new_t))

    removed_attrs = [a for a in old.attributes if a.name not in new_by_name]
    added_attrs = [a for a in new.attributes if a.name not in old_by_name]
    removed_by_type: dict[TypeExpr, list[Attribute]] = {}
    for a in removed_attrs:
        removed_by_type.setdefault(normalize_type(a.declared_type), []).append(a)
    added_by_type: dict[TypeExpr, list[Attribute]] = {}
    for a in added_attrs:
        added_by_type.setdefault(normalize_type(a.declared_type), []).append(a)

    renames: list[SMO] = []
    paired: set[str] = set()
    for a in added_attrs:  # new-schema order
        key = normalize_type(a.declared_type)
        if len(added_by_type[key]) == 1 and len(removed_by_type.get(key, [])) == 1:
            old_attr = removed_by_type[key][0]
            renames.append(Renamed(old_attr.name, a.name, old_attr.declared_type, candidate=True))
            paired.add(old_attr.name)
            paired.add(a.name)

    removals: list[SMO] = [
        Removed(a.name, a.declared_type) for a in removed_attrs if a.name not in paired
    ]
    additions: list[SMO] = [Added(a) for a in added_attrs if a.name not in paired]

    smos = tuple(unchanged + retyped + renames + removals + additions)
    return ClassTransformation(old, new, smos, notes=tuple(notes))


def completeness_witness(old: ClassSchema, new: ClassSchema) -> ClassTransformation:
    """Remove every old attribute, then add every new one (always valid)."""
    _check_identity(old, new)
    smos: list[SMO] = [Removed(a.name, a.declared_type) for a in old.attributes]
    smos += [Added(a) for a in new.attributes]
    return ClassTransformation(old, new, tuple(smos))


# ---------------------------------------------------------------------------
# Report format
# ---------------------------------------------------------------------------


def smo_line(smo: SMO) -> str:
    if isinstance(smo, NoChange):
        return f"no_change {smo.attribute.name} {render_type(smo.attribute.declared_type)}"
    if isinstance(smo, Added):
        return f"added {smo.attribute.name} {render_type(smo.attribute.declared_type)}"
    if isinstance(smo, Renamed):
        line = f"renamed {smo.old_name} -> {smo.new_name} {render_type(smo.typ)}"
        if smo.candidate:
            line += " candidate"
        return line
    if isinstance(smo, TypeChanged):
        return f"type_changed {smo.name} {render_type(smo.old_type)} -> {render_type(smo.new_type)}"
    if isinstance(smo, Removed):
        return f"removed {smo.name} {render_type(smo.old_type)}"
    if isinstance(smo, AttachAdded):
        return f"attach_added {smo.name} {render_type(smo.inner_type)}"
    raise TypeError(f"not an SMO: {smo!r}")


def render_smo_report(transformation: ClassTransformation) -> str:
    lines = [f"smo {smo_line(s)}" for s in transformation.smos]
    lines += [f"note {n}" for n in transformation.notes]
    return "\n".join(lines) + "\n" if lines else ""
