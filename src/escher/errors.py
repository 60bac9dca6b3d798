"""Error taxonomy shared by every module.

An error declares its fields once, as annotations in its own class body, and
is built from exactly those values by position; each is kept as the attribute
of its name and in ``args``. ``cli_fields``, the tokens printed after the class
name on the first output line of a failing CLI command, is ``args``. An error
whose ``args`` or printing differ from its fields keeps its own constructor.
"""

from __future__ import annotations

import inspect


class EscherError(Exception):
    """Base class for all domain errors."""

    def __init__(self, *values: object) -> None:
        names = inspect.get_annotations(type(self))  # this class's own fields, in order
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments, got {len(values)}")
        super().__init__(*values)
        for name, value in zip(names, values):
            setattr(self, name, value)

    @property
    def cli_fields(self) -> tuple[object, ...]:
        return tuple(self.args)

    def cli_line(self) -> str:
        return " ".join([type(self).__name__, *map(str, self.cli_fields)])


class ParseError(EscherError):
    """Syntax error in one of the DSLs (line/column are 1-based). ``path``
    names the file when its reader sets it (``repository.naming``)."""

    def __init__(self, message: str, line: int, column: int, expected: str | None = None):
        Exception.__init__(self, message)
        self.line = line
        self.column = column
        self.expected = expected
        self.path: str | None = None

    @property
    def reason(self) -> str:
        """The message and what was expected, without the place."""
        return f"{self.args[0]} (expected {self.expected})" if self.expected else self.args[0]

    def __str__(self) -> str:
        msg = f"line {self.line}, column {self.column}: {self.reason}"
        return msg if self.path is None else f"{self.path}: {msg}"

    @property
    def cli_fields(self) -> tuple[object, ...]:
        where = (f"line {self.line} column {self.column}:", self.args[0])
        return where if self.path is None else (self.path, *where)


class DuplicateAttribute(EscherError):
    name: str


class UnknownGenericParam(EscherError):
    name: str


class InvariantRefersUnknownAttribute(EscherError):
    tag: str
    name: str


class PremiseViolated(EscherError):
    """An SMO's inference-rule premise does not hold against the schema."""

    smo_kind: str
    reason: str
    smo_index = None  # set when raised through apply_transformation


class InvariantDanglesAfterRemoval(EscherError):
    name: str
    smo_index = None


class MismatchedClassIdentity(EscherError):
    reason: str


class UnknownConverter(EscherError):
    converter_id: str


class DuplicateTarget(EscherError):
    name: str


class FormatError(EscherError):
    """Malformed object file; ``column`` is None when no one token is at fault."""

    def __init__(self, line: int, reason: str, column: int | None = None):
        Exception.__init__(self, line, reason)
        self.line = line
        self.reason = reason
        self.column = column

    @classmethod
    def at(cls, err: ParseError) -> FormatError:
        """The FormatError of a ParseError in an object file's text."""
        return cls(err.line, err.reason, err.column)

    def __str__(self) -> str:
        where = f"line {self.line}" if self.column is None else f"line {self.line}, column {self.column}"
        return f"{where}: {self.reason}"

    @property
    def cli_fields(self) -> tuple[object, ...]:
        return (self.line, self.reason if self.column is None else str(self))


class DanglingReference(EscherError):
    ref_id: int


class TypeMismatchInInvariant(EscherError):
    def __init__(self, clause_tag: str, reason: str = ""):
        Exception.__init__(self, clause_tag)
        self.clause_tag = clause_tag
        self.reason = reason


class MissingAttribute(EscherError):
    name: str


class MissingInput(EscherError):
    name: str


class ConversionFailure(EscherError):
    converter_id: str
    value: object

    @property
    def cli_fields(self) -> tuple[object, ...]:
        """The value as a literal, or by ``repr`` where it is none (a NaN)."""
        from .exprs import render_value  # exprs raises this error, so it loads first

        try:
            return (self.converter_id, render_value(self.value))
        except (TypeError, ValueError):
            return (self.converter_id, repr(self.value))


class AttachmentViolation(EscherError):
    name: str


class EvaluationError(EscherError):
    index: int
    reason: str


class HandlerMissing(EscherError):
    class_name: str


class TransformationMissing(EscherError):
    class_name: str
    from_version: int
    to_version: int


class InvariantViolation(EscherError):
    class_name: str
    record_id: int
    clause_tag: str


class VersionTagTamper(EscherError):
    class_name: str


class UnknownVersion(EscherError):
    class_name: str
    version: int


class OverwriteRefused(EscherError):
    class_name: str
    from_version: int
    to_version: int


class DegenerateHistory(EscherError):
    class_name: str


class EmptyRelease(EscherError):
    pass


class UnknownClass(EscherError):
    class_name: str


class NoRecordChecked(EscherError):
    class_name: str
    version: int
