"""Runtime values carried by serialized object fields and expression literals.

Integers are 64-bit signed; reals are IEEE doubles; references name another
record in the owning object graph by id. ``PRIMITIVE_KINDS`` is the one table
of the primitive kinds: the name a ``.esc`` type and an ``.eso`` annotation
give each, its value class and its default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@dataclass(frozen=True, slots=True)
class IntVal:
    value: int

    def __post_init__(self) -> None:
        if not (INT64_MIN <= self.value <= INT64_MAX):
            raise ValueError(f"integer out of 64-bit range: {self.value}")


@dataclass(frozen=True, slots=True)
class RealVal:
    value: float


@dataclass(frozen=True, slots=True)
class BoolVal:
    value: bool


@dataclass(frozen=True, slots=True)
class StringVal:
    value: str


@dataclass(frozen=True, slots=True)
class VoidVal:
    pass


@dataclass(frozen=True, slots=True)
class RefVal:
    object_id: int

    def __post_init__(self) -> None:
        if self.object_id < 0:
            raise ValueError(f"object id must be nonnegative: {self.object_id}")


ObjectValue = Union[IntVal, RealVal, BoolVal, StringVal, VoidVal, RefVal]

VOID = VoidVal()

#: name -> (value class, default). A void is annotated ``NONE``; every other
#: name is a class, whose values are ``RefVal``s and whose default is void.
PRIMITIVE_KINDS: dict[str, tuple[type, ObjectValue]] = {
    "INTEGER": (IntVal, IntVal(0)),
    "REAL": (RealVal, RealVal(0.0)),
    "BOOLEAN": (BoolVal, BoolVal(False)),
    "STRING": (StringVal, StringVal("")),
    "NONE": (VoidVal, VOID),
}
