from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from escher.errors import DegenerateHistory, EmptyRelease, FormatError, UnknownClass
from escher.per import (
    EvolutionHistory,
    format_ratio,
    history_from_repository,
    parse_history_file,
    per_class,
    per_release,
    per_version,
    render_per_report,
    transitive_closure,
)
from escher.repository import register_transformer
from escher.transformer import parse_transformer

FIXTURES = Path(__file__).parent / "fixtures"

# Table-4 per-class values (java.util across 5 versions)
JAVA_UTIL_PER = {
    "ArrayList": "0.20", "BitSet": "0.40", "Calendar": "0.25", "Currency": "0.70",
    "Date": "0.30", "EnumMap": "1.00", "EnumSet": "1.00", "EventObject": "0.70",
    "HashMap": "0.10", "HashSet": "0.30", "HashTable": "0.30", "IdentityHashMap": "0.40",
    "LinkedHashSet": "0.40", "LinkedList": "0.40", "Locale": "0.20",
    "PriorityQueue": "1.00", "Random": "0.15", "TimeZone": "0.30", "TreeMap": "0.20",
    "TreeSet": "0.35", "UUID": "1.00", "Vector": "1.00",
}


def history(m, edges, name="C"):
    return EvolutionHistory(name, m, frozenset(edges))


def closure_oracle(edges):
    """Naive fixed-point iteration; self-pairs excluded by definition."""
    closure = set(edges)
    while True:
        extra = {
            (a, d)
            for (a, b) in closure
            for (c, d) in closure
            if b == c and a != d
        }
        if extra <= closure:
            return frozenset(closure)
        closure |= extra


def test_two_versions_forward_only():
    assert per_class(history(2, {(1, 2)})) == Fraction(1, 2)


def test_five_version_chain():
    chain = {(i, i + 1) for i in range(1, 5)}
    h = history(5, chain)
    assert len(transitive_closure(h.edges)) == 10
    assert per_class(h) == Fraction(1, 2)


def test_arraylist_fixture_value():
    h = history(5, {(1, 2), (2, 1), (1, 3), (2, 3)}, name="ArrayList")
    assert transitive_closure(h.edges) == h.edges
    assert per_class(h) == Fraction(1, 5)
    assert format_ratio(per_class(h)) == "0.20"


def test_complete_relation_is_one():
    for m in (2, 3, 5):
        edges = {(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b}
        assert per_class(history(m, edges)) == 1


def test_empty_relation_is_zero():
    assert per_class(history(4, set())) == 0


def test_single_version_is_vacuously_robust():
    assert per_class(history(1, set())) == 1


def test_per_version_examples():
    assert per_version(history(2, {(1, 2)}), 1) == Fraction(1, 2)
    arraylist = history(5, {(1, 2), (2, 1), (1, 3), (2, 3)})
    assert per_version(arraylist, 5) == 0
    complete = {(a, b) for a in range(1, 4) for b in range(1, 4) if a != b}
    for v in (1, 2, 3):
        assert per_version(history(3, complete), v) == 1
    with pytest.raises(DegenerateHistory):
        per_version(history(1, set()), 1)
    with pytest.raises(ValueError):
        per_version(history(3, set()), 4)


def test_per_release_simple_cases():
    h0 = history(3, set(), name="A")
    h1 = history(3, {(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b}, name="B")
    assert per_release([h0, h1]) == Fraction(1, 2)
    assert per_release([h1]) == per_class(h1)
    with pytest.raises(EmptyRelease):
        per_release([])


def test_java_util_fixture_reproduces_table():
    histories = parse_history_file((FIXTURES / "java_util.hist").read_text(encoding="utf-8"))
    assert len(histories) == 22
    for h in histories:
        assert format_ratio(per_class(h)) == JAVA_UTIL_PER[h.class_name]
    release_per = per_release(histories)
    assert abs(float(release_per) - 0.48) <= 0.005
    assert format_ratio(release_per) == "0.48"


def test_closure_matches_oracle_on_random_sets():
    rng = random.Random(60902)
    for _ in range(400):
        m = rng.randint(1, 5)
        pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
        edges = frozenset(p for p in pairs if rng.random() < 0.3)
        assert transitive_closure(edges) == closure_oracle(edges)


def test_closure_exhaustive_m3():
    pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        edges = frozenset(p for p, bit in zip(pairs, bits) if bit)
        assert transitive_closure(edges) == closure_oracle(edges)


def test_closure_idempotent():
    rng = random.Random(112)
    for _ in range(100):
        m = rng.randint(2, 6)
        pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
        edges = frozenset(p for p in pairs if rng.random() < 0.25)
        once = transitive_closure(edges)
        assert transitive_closure(once) == once


def test_closure_mixes_directions_without_self_pairs():
    closure = transitive_closure(frozenset({(1, 2), (2, 1), (1, 3)}))
    assert (2, 3) in closure  # 2 -> 1 -> 3
    assert not any(a == b for a, b in closure)


def test_chain_law():
    for m in range(2, 13):
        chain = frozenset((i, i + 1) for i in range(1, m))
        h = history(m, chain)
        assert per_class(h) == Fraction(1, 2)
        assert len(closure_oracle(chain)) == m * (m - 1) // 2


def test_monotonicity_adding_edges():
    rng = random.Random(8128)
    for _ in range(120):
        m = rng.randint(2, 6)
        pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
        edges = {p for p in pairs if rng.random() < 0.25}
        base = per_class(history(m, edges))
        missing = [p for p in pairs if p not in edges]
        if not missing:
            continue
        grown = per_class(history(m, edges | {rng.choice(missing)}))
        assert grown >= base


def test_history_validation():
    with pytest.raises(ValueError):
        EvolutionHistory("C", 2, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        EvolutionHistory("C", 2, frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        EvolutionHistory("C", 0, frozenset())


def test_parse_history_file_reads_a_class():
    text = "class ArrayList\nversions 5\ntf 1 2\ntf 1 3\ntf 2 1\ntf 2 3\n"
    assert parse_history_file(text) == [
        EvolutionHistory("ArrayList", 5, frozenset({(1, 2), (1, 3), (2, 1), (2, 3)}))
    ]


@pytest.mark.parametrize(
    "text",
    [
        "versions 5\n",  # no class line
        "class C\ntf 1 2\n",  # no versions line
        "class C\nversions 2\ntf 1 5\n",  # edge outside range
        "class C\nversions 2\nwhat 1 2\n",
        "",
    ],
)
def test_history_format_errors(text):
    with pytest.raises(FormatError):
        parse_history_file(text)


def test_a_class_named_twice_is_a_format_error_at_its_second_class_line():
    with pytest.raises(FormatError) as err:
        parse_history_file("class A\nversions 2\nclass B\nversions 2\nclass A\nversions 3\n")
    assert err.value.cli_line() == "FormatError 5 class A named twice in the history file"


def test_history_from_repository(bank_repo):
    h = history_from_repository(bank_repo, "BANK_ACCOUNT")
    assert h.version_count == 2
    assert h.edges == {(1, 2)}
    assert per_class(h) == Fraction(1, 2)
    backwards = parse_transformer(
        "transform BANK_ACCOUNT from 2 to 1\n"
        "  Result.info := convert INTEGER_TO_STRING (oldc.info)\n"
        "end\n"
    )
    both = register_transformer(bank_repo, backwards)
    assert per_class(history_from_repository(both, "BANK_ACCOUNT")) == 1
    with pytest.raises(UnknownClass):
        history_from_repository(bank_repo, "NOPE")


def test_single_release_class_is_degenerate(bank_v1):
    from escher.repository import empty_repository, release

    repo, _ = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1})
    h = history_from_repository(repo, "BANK_ACCOUNT")
    assert h.version_count == 1
    assert per_class(h) == 1


def test_report_format():
    h = history(5, {(1, 2), (2, 1), (1, 3), (2, 3)}, name="ArrayList")
    assert render_per_report([h]) == "per ArrayList = 0.20\n"
    pair = [history(2, {(1, 2)}, name="A"), history(1, set(), name="LONER")]
    report = render_per_report(pair)
    assert report.splitlines() == [
        "per A = 0.50",
        "per LONER = 1.00",
        "note LONER has a single version; per is vacuous",
        "release per = 0.75",
    ]


def test_format_ratio():
    assert format_ratio(Fraction(1, 2)) == "0.50"
    assert format_ratio(Fraction(1)) == "1.00"
    assert format_ratio(Fraction(1, 5)) == "0.20"
    assert format_ratio(Fraction(213, 440)) == "0.48"
    assert format_ratio(Fraction(0)) == "0.00"
