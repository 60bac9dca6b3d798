"""The package surface: each public name is declared once in
``escher/__init__.py`` and imported with its module on first read, so a
process loads only the modules its command runs."""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest
from conftest import FIXTURES

import escher

# The public surface; a name added or dropped is a deliberate change here too.
PUBLIC = frozenset({
    "EscherError",
    "ClassSchema", "Attribute", "InvariantExpr", "ClassType", "GenericParamRef",
    "GenericDerivation", "Attached", "Detachable", "parse_schema", "render_schema",
    "parse_type", "render_type", "type_equal",
    "SMO", "NoChange", "Added", "Renamed", "TypeChanged", "Removed", "AttachAdded",
    "ClassTransformation", "apply_smo", "apply_transformation", "diff_schemas",
    "completeness_witness", "render_smo_report",
    "ObjectTransformer", "Assign", "Noop", "CheckAttached", "assignable",
    "generate_transformer", "parse_transformer", "render_transformer",
    "ObjectGraph", "ObjectRecord", "ObjectValue", "RefVal", "serialize", "deserialize",
    "eval_invariant", "interpret_transformer", "retrieve",
    "Repository", "Release", "empty_repository", "release", "register_transformer",
    "load_repository", "save_repository",
    "EvolutionHistory", "transitive_closure", "per_class", "per_version",
    "per_release", "history_from_repository",
})

SRC = Path(escher.__file__).parents[1]


def test_each_public_name_is_declared_once():
    text = Path(escher.__file__).read_text(encoding="utf-8")
    assert len(escher.__all__) == len(PUBLIC) and set(escher.__all__) == PUBLIC
    for name in PUBLIC:
        assert len(re.findall(rf"\b{name}\b", text)) == 1, name


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_a_public_name_is_the_object_its_module_defines(name):
    (module_name,) = [module for module, names in escher._PUBLIC.items() if name in names]
    module = importlib.import_module(f"escher.{module_name}")
    assert name in vars(module)
    value = getattr(escher, name)
    assert value is getattr(module, name)
    if isinstance(value, (type, FunctionType)):  # not a Union alias such as ObjectValue
        assert value.__module__ == module.__name__
    assert name in dir(escher)


def test_an_unknown_name_is_an_attribute_error_and_a_submodule_still_imports():
    with pytest.raises(AttributeError, match="no_such_name"):
        escher.no_such_name
    from escher import objects
    assert objects is sys.modules["escher.objects"]
    namespace: dict = {}
    exec("from escher import *", namespace)
    assert PUBLIC <= namespace.keys()


def loaded_after(code: str) -> dict:
    """The modules of interest in ``sys.modules`` after ``code`` runs in a
    fresh interpreter, with its result (``result``) alongside."""
    script = (
        "import json, sys\n" + code + "\n"
        "names = ('escher.objects', 'escher.per', 'escher.cli', 'escher.smo', 'fractions')\n"
        "print(json.dumps({'result': result, 'loaded': [n for n in names if n in sys.modules]}))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(run.stdout.splitlines()[-1])


def test_importing_the_repository_loads_neither_objects_nor_per_nor_the_cli():
    got = loaded_after("import escher.repository\nresult = None")
    assert got["loaded"] == ["escher.smo"]  # release diffs schemas


def test_migrate_loads_neither_per_nor_fractions(bank_project, tmp_path):
    argv = ["migrate", str(FIXTURES / "bank_account_v1.eso"), "--to-release", "2",
            "--project", str(bank_project), "--out", str(tmp_path / "out.eso")]
    got = loaded_after(f"from escher.cli import main\nresult = main({argv!r})")
    assert got == {"result": 0, "loaded": ["escher.objects", "escher.cli", "escher.smo"]}
