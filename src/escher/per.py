"""P-evolution-robustness: how well a class's transformation functions cover
its version history.

For a class with m versions there are m(m-1) ordered version pairs. PER is
the share of those pairs reachable in the transitive closure of the declared
"there is a transformation function from a to b" relation. A single-version
class is vacuously robust (PER 1).

History files (``.hist``) are line-oriented and may hold several classes:

    class ArrayList
    versions 5
    tf 1 2
    tf 2 1
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

from ._lex import BLANKS, IDENT, INT, line_format, line_int
from .errors import DegenerateHistory, EmptyRelease, FormatError, UnknownClass
from .repository import Repository, breadth_first


@dataclass(frozen=True)
class EvolutionHistory:
    class_name: str
    version_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.version_count < 1:
            raise ValueError("a class has at least one version")
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop {a}->{b} in history of {self.class_name}")
            if not (1 <= a <= self.version_count and 1 <= b <= self.version_count):
                raise ValueError(f"edge {a}->{b} outside 1..{self.version_count}")


def transitive_closure(edges: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Directed reachability over one or more edges; self-pairs excluded.
    It is read off the walk that finds hop paths (``breadth_first``), so a
    pair counts here exactly when a migration finds a path for it."""
    return frozenset(
        (source, target)
        for source, reached in breadth_first(edges).items()
        for target in reached
        if target != source
    )


def per_class(history: EvolutionHistory) -> Fraction:
    m = history.version_count
    if m == 1:
        return Fraction(1)
    return Fraction(len(transitive_closure(history.edges)), m * (m - 1))


def per_version(history: EvolutionHistory, version: int) -> Fraction:
    m = history.version_count
    if m == 1:
        raise DegenerateHistory(history.class_name)
    if not (1 <= version <= m):
        raise ValueError(f"version {version} outside 1..{m}")
    closure = transitive_closure(history.edges)
    touching = sum(1 for a, b in closure if a == version or b == version)
    return Fraction(touching, 2 * (m - 1))


def per_release(histories: list[EvolutionHistory]) -> Fraction:
    if not histories:
        raise EmptyRelease()
    return sum((per_class(h) for h in histories), Fraction(0)) / len(histories)


def history_from_repository(repo: Repository, class_name: str) -> EvolutionHistory:
    latest = repo.latest_version(class_name)
    if latest is None:
        raise UnknownClass(class_name)
    return EvolutionHistory(class_name, latest, repo.transformer_pairs(class_name))


# ---------------------------------------------------------------------------
# History files and reports
# ---------------------------------------------------------------------------

_CLASS_RE = line_format("class", f"({IDENT})")
_VERSIONS_RE = line_format("versions", f"({INT})")
_TF_RE = line_format("tf", f"({INT})", f"({INT})")


def parse_history_file(text: str) -> list[EvolutionHistory]:
    histories: dict[str, EvolutionHistory] = {}
    name: str | None = None
    count: int | None = None
    edges: set[tuple[int, int]] = set()

    def flush(lineno: int) -> None:
        nonlocal name, count, edges
        if name is None:
            return
        if count is None:
            raise FormatError(lineno, f"class {name} has no 'versions' line")
        try:
            histories[name] = EvolutionHistory(name, count, frozenset(edges))
        except ValueError as err:
            raise FormatError(lineno, str(err)) from err
        name, count, edges = None, None, set()

    lineno = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(BLANKS)
        if not line or line.startswith("--"):
            continue
        if m := _CLASS_RE.match(line):
            flush(lineno)
            name = m.group(1)
            if name in histories:
                raise FormatError(lineno, f"class {name} named twice in the history file")
            continue
        if name is None:
            raise FormatError(lineno, f"expected a class line, got {line!r}")
        if m := _VERSIONS_RE.match(line):
            count = line_int(m.group(1), lineno)
            continue
        if m := _TF_RE.match(line):
            edges.add((line_int(m.group(1), lineno), line_int(m.group(2), lineno)))
            continue
        raise FormatError(lineno, f"unrecognized history line {line!r}")
    flush(lineno)
    if not histories:
        raise FormatError(lineno, "history file holds no classes")
    return list(histories.values())


def format_ratio(x: Fraction) -> str:
    quotient = Decimal(x.numerator) / Decimal(x.denominator)
    return str(quotient.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def render_per_report(histories: list[EvolutionHistory]) -> str:
    lines = []
    for history in histories:
        lines.append(f"per {history.class_name} = {format_ratio(per_class(history))}")
        if history.version_count == 1:
            lines.append(f"note {history.class_name} has a single version; per is vacuous")
    if len(histories) > 1:
        lines.append(f"release per = {format_ratio(per_release(histories))}")
    return "\n".join(lines) + "\n"
