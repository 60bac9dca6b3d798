"""Error taxonomy shared by every module.

Each error exposes ``cli_fields``: the ordered tokens printed (after the class
name) on the first output line of a failing CLI command. Keeping the fields
structured lets tests assert on them without parsing messages.
"""

from __future__ import annotations


class EscherError(Exception):
    """Base class for all domain errors."""

    @property
    def cli_fields(self) -> tuple[object, ...]:
        return tuple(self.args)

    def cli_line(self) -> str:
        parts = [type(self).__name__] + [str(f) for f in self.cli_fields]
        return " ".join(parts)


class ParseError(EscherError):
    """Syntax error in one of the DSLs (line/column are 1-based). ``path``
    names the file when its reader sets it (``repository.naming``)."""

    def __init__(self, message: str, line: int, column: int, expected: str | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = expected
        self.path: str | None = None

    def __str__(self) -> str:
        msg = f"line {self.line}, column {self.column}: {self.args[0]}"
        if self.expected:
            msg += f" (expected {self.expected})"
        return msg if self.path is None else f"{self.path}: {msg}"

    @property
    def cli_fields(self) -> tuple[object, ...]:
        where = (f"line {self.line} column {self.column}:", self.args[0])
        return where if self.path is None else (self.path, *where)


class DuplicateAttribute(EscherError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class UnknownGenericParam(EscherError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class InvariantRefersUnknownAttribute(EscherError):
    def __init__(self, tag: str, name: str):
        super().__init__(tag, name)
        self.tag = tag
        self.name = name


class PremiseViolated(EscherError):
    """An SMO's inference-rule premise does not hold against the schema."""

    def __init__(self, smo_kind: str, reason: str):
        super().__init__(smo_kind, reason)
        self.smo_kind = smo_kind
        self.reason = reason
        self.smo_index: int | None = None  # set when raised through apply_transformation


class InvariantDanglesAfterRemoval(EscherError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name
        self.smo_index: int | None = None


class MismatchedClassIdentity(EscherError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class UnknownConverter(EscherError):
    def __init__(self, converter_id: str):
        super().__init__(converter_id)
        self.converter_id = converter_id


class DuplicateTarget(EscherError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class FormatError(EscherError):
    """Malformed object file."""

    def __init__(self, line: int, reason: str):
        super().__init__(line, reason)
        self.line = line
        self.reason = reason

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}"


class DanglingReference(EscherError):
    def __init__(self, ref_id: int):
        super().__init__(ref_id)
        self.ref_id = ref_id


class TypeMismatchInInvariant(EscherError):
    def __init__(self, clause_tag: str, reason: str = ""):
        super().__init__(clause_tag)
        self.clause_tag = clause_tag
        self.reason = reason


class MissingAttribute(EscherError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class MissingInput(EscherError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class ConversionFailure(EscherError):
    def __init__(self, converter_id: str, value: object):
        super().__init__(converter_id, value)
        self.converter_id = converter_id
        self.value = value


class AttachmentViolation(EscherError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class EvaluationError(EscherError):
    def __init__(self, index: int, reason: str):
        super().__init__(index, reason)
        self.index = index
        self.reason = reason


class HandlerMissing(EscherError):
    def __init__(self, class_name: str):
        super().__init__(class_name)
        self.class_name = class_name


class TransformationMissing(EscherError):
    def __init__(self, class_name: str, from_version: int, to_version: int):
        super().__init__(class_name, from_version, to_version)
        self.class_name = class_name
        self.from_version = from_version
        self.to_version = to_version


class InvariantViolation(EscherError):
    def __init__(self, class_name: str, record_id: int, clause_tag: str):
        super().__init__(class_name, record_id, clause_tag)
        self.class_name = class_name
        self.record_id = record_id
        self.clause_tag = clause_tag


class VersionTagTamper(EscherError):
    def __init__(self, class_name: str):
        super().__init__(class_name)
        self.class_name = class_name


class UnknownVersion(EscherError):
    def __init__(self, class_name: str, version: int):
        super().__init__(class_name, version)
        self.class_name = class_name
        self.version = version


class OverwriteRefused(EscherError):
    def __init__(self, class_name: str, from_version: int, to_version: int):
        super().__init__(class_name, from_version, to_version)
        self.class_name = class_name
        self.from_version = from_version
        self.to_version = to_version


class DegenerateHistory(EscherError):
    def __init__(self, class_name: str):
        super().__init__(class_name)
        self.class_name = class_name


class EmptyRelease(EscherError):
    def __init__(self) -> None:
        super().__init__()


class UnknownClass(EscherError):
    def __init__(self, class_name: str):
        super().__init__(class_name)
        self.class_name = class_name
