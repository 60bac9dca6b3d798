"""The error contract: each error is built from its fields by position, keeps
them as attributes and as ``args``, and prints them after its name.

``FIELDS`` is written out by hand, so renaming or reordering a field, which
changes a CLI line, shows up here as a diff.
"""

from __future__ import annotations

import inspect

import pytest

from escher import errors

FIELDS = {
    "DuplicateAttribute": ("name",),
    "UnknownGenericParam": ("name",),
    "InvariantRefersUnknownAttribute": ("tag", "name"),
    "PremiseViolated": ("smo_kind", "reason"),
    "InvariantDanglesAfterRemoval": ("name",),
    "MismatchedClassIdentity": ("reason",),
    "UnknownConverter": ("converter_id",),
    "DuplicateTarget": ("name",),
    "FormatError": ("line", "reason"),
    "DanglingReference": ("ref_id",),
    "TypeMismatchInInvariant": ("clause_tag",),
    "MissingAttribute": ("name",),
    "MissingInput": ("name",),
    "ConversionFailure": ("converter_id", "value"),
    "AttachmentViolation": ("name",),
    "EvaluationError": ("index", "reason"),
    "HandlerMissing": ("class_name",),
    "TransformationMissing": ("class_name", "from_version", "to_version"),
    "InvariantViolation": ("class_name", "record_id", "clause_tag"),
    "VersionTagTamper": ("class_name",),
    "UnknownVersion": ("class_name", "version"),
    "OverwriteRefused": ("class_name", "from_version", "to_version"),
    "DegenerateHistory": ("class_name",),
    "EmptyRelease": (),
    "UnknownClass": ("class_name",),
    "NoRecordChecked": ("class_name", "version"),
}

# Their CLI lines are not their name and fields; tests of the CLI pin them.
OWN_CLI_LINE = {"FormatError", "TypeMismatchInInvariant", "ConversionFailure"}


def sample(fields: tuple[str, ...]) -> tuple[object, ...]:
    return tuple(f"{field}-{i}" if i % 2 else i + 7 for i, field in enumerate(fields))


def test_every_error_is_in_the_table():
    declared = {
        name for name, cls in vars(errors).items()
        if inspect.isclass(cls) and issubclass(cls, errors.EscherError) and cls is not errors.EscherError
    }
    assert declared == set(FIELDS) | {"ParseError"}


@pytest.mark.parametrize("name", FIELDS)
def test_an_error_keeps_its_fields_as_attributes_and_args(name):
    values = sample(FIELDS[name])
    err = getattr(errors, name)(*values)
    assert err.args == values
    assert tuple(getattr(err, field) for field in FIELDS[name]) == values
    if name not in OWN_CLI_LINE:
        assert err.cli_line() == " ".join([name, *map(str, values)])


@pytest.mark.parametrize("name", FIELDS)
def test_a_wrong_argument_count_is_a_type_error(name):
    cls, values = getattr(errors, name), sample(FIELDS[name])
    with pytest.raises(TypeError):
        cls(*values, "extra", "extra")  # two extra, past any optional parameter
    if values:
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_a_parse_error_keeps_only_its_message_as_args():
    err = errors.ParseError("unexpected token", 3, 14, "'end'")
    assert err.args == ("unexpected token",)
    assert (err.line, err.column, err.expected, err.path) == (3, 14, "'end'", None)
    assert err.cli_line() == "ParseError line 3 column 14: unexpected token"
