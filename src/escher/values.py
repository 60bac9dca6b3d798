"""Runtime values carried by serialized object fields and expression literals.

A value is a plain Python value: an ``int`` (64-bit signed), a ``float`` (a
finite IEEE double), a ``bool``, a ``str``, or ``None`` for void. Only a
reference has a class of its own, ``RefVal``, which names another record in
the owning object graph by id. ``KINDS`` is the one table of the value
kinds: per value class, the name a ``.esc`` type and an ``.eso`` annotation
give it, its default and its literal renderer (``exprs.render_value``);
``CLASS_NAMED`` is its name-keyed view.

``bool`` is a subclass of ``int`` and ``1 == 1.0 == True``, so code that
tells kinds apart compares ``value.__class__``, never ``isinstance`` or
``==`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Union

from ._lex import escape_string

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@dataclass(frozen=True, slots=True)
class RefVal:
    object_id: int

    def __post_init__(self) -> None:
        if self.object_id < 0:
            raise ValueError(f"object id must be nonnegative: {self.object_id}")


ObjectValue = Union[int, float, bool, str, None, RefVal]


def render_real(value: float) -> str:
    """Shortest round-tripping decimal form with a mandatory dot."""
    text = repr(value)
    if "e" in text or "E" in text:
        mantissa, _, exponent = text.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{exponent}"
    if "." not in text:
        text += ".0"
    return text


def _render_finite(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("non-finite reals are not serializable")
    return render_real(value)


#: Per value class: its name, its default (of an attribute no transformer
#: assigns) and its literal renderer. A ref has no name: its annotation is
#: the class of the record it names.
KINDS: Mapping[type, tuple[str | None, ObjectValue, Callable]] = MappingProxyType({
    int: ("INTEGER", 0, str),
    str: ("STRING", "", escape_string),
    RefVal: (None, None, lambda value: f"ref {value.object_id}"),
    float: ("REAL", 0.0, _render_finite),
    bool: ("BOOLEAN", False, lambda value: "true" if value else "false"),
    type(None): ("NONE", None, lambda value: "Void"),
})
CLASS_NAMED = {name: cls for cls, (name, _, _) in KINDS.items() if name}  # name -> value class


def check_value(value: object) -> None:
    """A ``ValueError`` unless ``value`` is a value: of a class ``KINDS``
    holds, an integer within 64 bits, a real that is finite."""
    cls = value.__class__
    if cls is int:
        if not INT64_MIN <= value <= INT64_MAX:
            raise ValueError(f"integer out of 64-bit range: {value}")
    elif cls is float:
        if not math.isfinite(value):
            raise ValueError(f"non-finite real: {value}")
    elif cls not in KINDS:
        raise ValueError(f"not an object value: {value!r}")


# ``benchmarks/workloads.py`` builds its inputs through these two names, and
# that file is fixed with the benchmark, so they stay as plain aliases.
IntVal = int
StringVal = str
