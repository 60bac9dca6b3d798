"""Hop paths found once per Repository (``Repository.hop_path``).

A Repository's handlers are read-only, so a path it remembers can only be
wrong if it differs from what ``_shortest_path`` finds over the same edges,
and ``_shortest_path`` is checked against an enumeration of every path.
``retrieve`` takes the remembered path, or refuses one of more than one hop
when composition is off. Each hop below writes its target version into
``x`` (``x := oldc.x * 10 + to``), so a migrated record spells out the path
``retrieve`` took.
"""

from __future__ import annotations

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher.errors import TransformationMissing  # noqa: E402
from escher.objects import ObjectGraph, ObjectRecord, retrieve  # noqa: E402
from escher.per import transitive_closure  # noqa: E402
from escher.repository import (  # noqa: E402
    Release,
    Repository,
    StoredFile,
    _shortest_path,
    register_transformer,
)
from escher.schema import parse_schema  # noqa: E402
from escher.transformer import parse_transformer  # noqa: E402

VERSIONS = range(1, 9)
SCHEMAS = {
    v: parse_schema(f"version {v} class C feature x: INTEGER g{v}: INTEGER end") for v in VERSIONS
}
RELEASES = tuple(Release(v, {"C": SCHEMAS[v]}) for v in VERSIONS)
PAIRS = list(itertools.permutations(VERSIONS, 2))


def hop_text(a: int, b: int) -> str:
    return f"transform C from {a} to {b}\n  Result.x := oldc.x * 10 + {b}\n  Result.g{b} := 0\nend\n"


HOPS = {pair: parse_transformer(hop_text(*pair)) for pair in PAIRS}


def repository(edges) -> Repository:
    entries = {
        pair: StoredFile(hop_text(*pair), parse=lambda pair=pair: HOPS[pair]) for pair in edges
    }
    return Repository("paths", RELEASES, {"C": entries})


def migrate(repo: Repository, start: int, goal: int, allow_composition: bool) -> tuple[int, ...] | None:
    """The versions a record stored at ``start`` passed through, or None
    when ``retrieve`` finds no path."""
    graph = ObjectGraph((ObjectRecord(0, "C", start, {"x": 0, f"g{start}": 0}),))
    try:
        out = retrieve(graph, repo, {"C": goal}, allow_composition=allow_composition)
    except TransformationMissing:
        return None
    return (start, *map(int, str(out.records[0].fields["x"])))


def enumerated_path(edges, start: int, goal: int, allow_composition: bool) -> list[int] | None:
    """The path ``_shortest_path`` promises, by enumerating every simple path:
    a registered direct hop, else the shortest path, then the smallest
    version sequence."""
    if (start, goal) in edges:
        return [start, goal]
    if not allow_composition:
        return None
    paths = []

    def extend(path: list[int]) -> None:
        if path[-1] == goal:
            paths.append(path)
            return
        for a, b in edges:
            if a == path[-1] and b not in path:
                extend([*path, b])

    extend([start])
    return min(paths, key=lambda path: (len(path), path), default=None)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(PAIRS), max_size=20))
def test_remembered_paths_equal_shortest_path_across_calls(edges):
    repo = repository(edges)
    for _ in range(2):  # the second call reads only remembered paths
        for start, goal in itertools.product(VERSIONS, VERSIONS):
            expected = _shortest_path(edges, start, goal)
            assert expected == enumerated_path(edges, start, goal, True)
            assert repo.hop_path("C", start, goal) == (expected and tuple(expected))
            if start != goal:
                for flag in (True, False):
                    taken = enumerated_path(edges, start, goal, flag)
                    assert migrate(repo, start, goal, flag) == (taken and tuple(taken))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(PAIRS), max_size=20))
def test_per_counts_exactly_the_pairs_a_migration_finds_a_path_for(edges):
    """PER's closure and ``TransformationMissing`` agree: a pair is reachable
    exactly when a hop path exists for it."""
    closure = transitive_closure(frozenset(edges))
    for start, goal in PAIRS:
        assert ((start, goal) in closure) == (_shortest_path(edges, start, goal) is not None)


def test_a_registered_shortcut_is_used_by_the_new_repository_only():
    old = repository({(1, 2), (2, 3), (3, 4)})
    assert migrate(old, 1, 4, True) == (1, 2, 3, 4)
    new = register_transformer(old, HOPS[(1, 4)])
    assert migrate(new, 1, 4, True) == (1, 4)
    assert new.hop_path("C", 1, 4) == (1, 4)
    assert migrate(old, 1, 4, True) == (1, 2, 3, 4)
    assert old.hop_path("C", 1, 4) == (1, 2, 3, 4)
