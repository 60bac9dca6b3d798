"""Schema evolution toolkit for persistent object-oriented data.

The pieces, bottom up:

* :mod:`escher.exprs` — expression trees, the one evaluator that writes
  them as Python, and the one table of conversions;
* :mod:`escher.schema` — the versioned class DSL (``.esc``) and type model;
* :mod:`escher.smo` — atomic schema modification operators and the AST diff;
* :mod:`escher.transformer` — object-transformer generation and the ``.est``
  syntax;
* :mod:`escher.objects` — serialized object graphs (``.eso``), invariant
  evaluation, transformer interpretation, and invariant-gated retrieval;
* :mod:`escher.repository` — releases, version tags, and handler files;
* :mod:`escher.per` — the p-evolution-robustness metric;
* :mod:`escher.cli` — the ``escher`` command.

Each public name is listed once below, under the module that defines it.
``from escher import X`` imports that module when X is first read
(PEP 562), so importing one module runs only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "errors": ("EscherError",),
    "schema": (
        "ClassSchema", "Attribute", "InvariantExpr", "ClassType", "GenericParamRef",
        "GenericDerivation", "Attached", "Detachable", "parse_schema", "render_schema",
        "parse_type", "render_type", "type_equal",
    ),
    "smo": (
        "SMO", "NoChange", "Added", "Renamed", "TypeChanged", "Removed", "AttachAdded",
        "ClassTransformation", "apply_smo", "apply_transformation", "diff_schemas",
        "completeness_witness", "render_smo_report",
    ),
    "transformer": (
        "ObjectTransformer", "Assign", "Noop", "CheckAttached", "assignable",
        "generate_transformer", "parse_transformer", "render_transformer",
    ),
    "values": ("ObjectValue", "RefVal"),
    "objects": (
        "ObjectGraph", "ObjectRecord", "serialize", "deserialize", "eval_invariant",
        "interpret_transformer", "retrieve",
    ),
    "repository": (
        "Repository", "Release", "empty_repository", "release", "register_transformer",
        "load_repository", "save_repository",
    ),
    "per": (
        "EvolutionHistory", "transitive_closure", "per_class", "per_version",
        "per_release", "history_from_repository",
    ),
}

__all__ = [name for names in _PUBLIC.values() for name in names]


def __getattr__(name: str):
    for module, names in _PUBLIC.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value  # later reads skip this function
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
