"""Runtime values carried by serialized object fields and expression literals.

A value is a plain Python value: an ``int`` (64-bit signed), a ``float`` (a
finite IEEE double), a ``bool``, a ``str``, or ``None`` for void. Only a
reference has a class of its own, ``RefVal``, which names another record in
the owning object graph by id. ``PRIMITIVE_KINDS`` is the one table of the
primitive kinds: the name a ``.esc`` type and an ``.eso`` annotation give
each, its value class and its default.

``bool`` is a subclass of ``int`` and ``1 == 1.0 == True``, so code that
tells kinds apart compares ``value.__class__``, never ``isinstance`` or
``==`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@dataclass(frozen=True, slots=True)
class RefVal:
    object_id: int

    def __post_init__(self) -> None:
        if self.object_id < 0:
            raise ValueError(f"object id must be nonnegative: {self.object_id}")


ObjectValue = Union[int, float, bool, str, None, RefVal]

#: name -> (value class, default). A void is annotated ``NONE``; every other
#: name is a class, whose values are ``RefVal``s and whose default is void.
PRIMITIVE_KINDS: dict[str, tuple[type, ObjectValue]] = {
    "INTEGER": (int, 0),
    "REAL": (float, 0.0),
    "BOOLEAN": (bool, False),
    "STRING": (str, ""),
    "NONE": (type(None), None),
}

_PLAIN = (bool, str, type(None), RefVal)


def check_value(value: object) -> None:
    """A ``ValueError`` unless ``value`` is a value: one of the kinds above,
    an integer within 64 bits, a real that is finite."""
    cls = value.__class__
    if cls is int:
        if not INT64_MIN <= value <= INT64_MAX:
            raise ValueError(f"integer out of 64-bit range: {value}")
    elif cls is float:
        if not math.isfinite(value):
            raise ValueError(f"non-finite real: {value}")
    elif cls not in _PLAIN:
        raise ValueError(f"not an object value: {value!r}")


# ``benchmarks/workloads.py`` builds its inputs through these two names, and
# that file is fixed with the benchmark, so they stay as plain aliases.
IntVal = int
StringVal = str
