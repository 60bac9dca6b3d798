"""Schema evolution toolkit for persistent object-oriented data.

The pieces, bottom up:

* :mod:`escher.exprs` — expression trees, their compiled evaluation, and
  the one table of conversions;
* :mod:`escher.schema` — the versioned class DSL (``.esc``) and type model;
* :mod:`escher.smo` — atomic schema modification operators and the AST diff;
* :mod:`escher.transformer` — object-transformer generation and the ``.est``
  syntax;
* :mod:`escher.objects` — serialized object graphs (``.eso``), invariant
  evaluation, transformer interpretation, and invariant-gated retrieval;
* :mod:`escher.repository` — releases, version tags, and handler files;
* :mod:`escher.per` — the p-evolution-robustness metric;
* :mod:`escher.cli` — the ``escher`` command.
"""

from .errors import EscherError
from .objects import (
    ObjectGraph,
    ObjectRecord,
    deserialize,
    eval_invariant,
    interpret_transformer,
    retrieve,
    serialize,
)
from .per import (
    EvolutionHistory,
    history_from_repository,
    per_class,
    per_release,
    per_version,
    transitive_closure,
)
from .repository import (
    Release,
    Repository,
    empty_repository,
    load_repository,
    register_transformer,
    release,
    save_repository,
)
from .schema import (
    Attached,
    Attribute,
    ClassSchema,
    ClassType,
    Detachable,
    GenericDerivation,
    GenericParamRef,
    InvariantExpr,
    parse_schema,
    parse_type,
    render_schema,
    render_type,
    type_equal,
)
from .smo import (
    SMO,
    Added,
    AttachAdded,
    ClassTransformation,
    NoChange,
    Removed,
    Renamed,
    TypeChanged,
    apply_smo,
    apply_transformation,
    completeness_witness,
    diff_schemas,
    render_smo_report,
)
from .transformer import (
    Assign,
    CheckAttached,
    Noop,
    ObjectTransformer,
    assignable,
    generate_transformer,
    parse_transformer,
    render_transformer,
)
from .values import BoolVal, IntVal, ObjectValue, RealVal, RefVal, StringVal, VoidVal

__version__ = "0.1.0"

__all__ = [
    "EscherError",
    # schema
    "ClassSchema", "Attribute", "InvariantExpr", "ClassType", "GenericParamRef",
    "GenericDerivation", "Attached", "Detachable", "parse_schema", "render_schema",
    "parse_type", "render_type", "type_equal",
    # smo
    "SMO", "NoChange", "Added", "Renamed", "TypeChanged", "Removed", "AttachAdded",
    "ClassTransformation", "apply_smo", "apply_transformation", "diff_schemas",
    "completeness_witness", "render_smo_report",
    # transformer
    "ObjectTransformer", "Assign", "Noop", "CheckAttached", "assignable",
    "generate_transformer", "parse_transformer", "render_transformer",
    # objects
    "ObjectGraph", "ObjectRecord", "ObjectValue", "IntVal", "RealVal", "BoolVal",
    "StringVal", "VoidVal", "RefVal", "serialize", "deserialize", "eval_invariant",
    "interpret_transformer", "retrieve",
    # repository
    "Repository", "Release", "empty_repository", "release", "register_transformer",
    "load_repository", "save_repository",
    # per
    "EvolutionHistory", "transitive_closure", "per_class", "per_version",
    "per_release", "history_from_repository",
]
