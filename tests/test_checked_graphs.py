"""Graphs ``deserialize`` and ``retrieve`` build without the public
constructor's walk, and the collector pause around both.

Both check each value as they make it and build their graph through
``objects._checked_graph``; ``deserialize`` reads each record a block or a
line at a time in one loop. Whatever they return must be a graph the public,
validating ``ObjectGraph(...)`` accepts as it stands. ``retrieve`` refuses a
``ref`` input past the graph's end whether or not a transformer reads it.
"""

from __future__ import annotations

import gc
import random
import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher import exprs, objects  # noqa: E402
from escher.errors import DanglingReference, EscherError, FormatError  # noqa: E402
from escher.objects import ObjectGraph, ObjectRecord, deserialize, retrieve, serialize  # noqa: E402
from escher.repository import Release, Repository, StoredFile  # noqa: E402
from escher.schema import parse_schema  # noqa: E402
from escher.transformer import Assign, ObjectTransformer  # noqa: E402
from escher.values import INT64_MAX, INT64_MIN, KINDS, RefVal  # noqa: E402
from helpers import random_graph  # noqa: E402

CLASSES = ("NODE", "ITEM", "CELL")
VERSIONS = (1, 2, 3)
FIELDS = ("f0", "f1", "f2", "f3")
SCHEMAS = {
    (name, v): parse_schema(
        f"version {v} class {name} feature " + " ".join(f"{f}: INTEGER" for f in FIELDS) + " end"
    )
    for name in CLASSES
    for v in VERSIONS
}
RELEASES = tuple(Release(v, {name: SCHEMAS[name, v] for name in CLASSES}) for v in VERSIONS)

plain_values = st.one_of(
    st.integers(-1000, 1000),
    st.integers(INT64_MIN, INT64_MAX),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([True, False, None, "", "12", "-7", "1.5", "1e999", 'a "b"\n']),
)


@st.composite
def migrations(draw):
    """A graph of up to six records, each with every field, some of them
    ``ref``s; one source per (class, field) that every hop of the class
    assigns; inputs; and target versions."""
    count = draw(st.integers(1, 6))
    values = st.one_of(plain_values, st.integers(0, count - 1).map(RefVal))
    graph = ObjectGraph(tuple(
        ObjectRecord(i, draw(st.sampled_from(CLASSES)), draw(st.sampled_from(VERSIONS)),
                     draw(st.fixed_dictionaries({f: values for f in FIELDS})))
        for i in range(count)
    ))
    leaves = st.one_of(
        st.sampled_from(FIELDS).map(exprs.OldField),
        st.sampled_from(FIELDS).map(exprs.OldField),
        st.just(exprs.InputRef("k")),
        plain_values.map(exprs.Lit),  # an ``Assign`` refuses a ``ref`` literal
    )
    sources = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(exprs.BinOp, st.sampled_from(exprs.ARITH_OPS), inner, inner),
            st.builds(exprs.Convert, st.sampled_from(sorted(exprs.CONVERTERS)), inner),
        ),
        max_leaves=3,
    )
    bodies = {name: draw(st.tuples(*[sources] * len(FIELDS))) for name in CLASSES}
    inputs = {(name, "k"): draw(values) for name in CLASSES}
    targets = {name: draw(st.sampled_from(VERSIONS)) for name in CLASSES}
    return graph, bodies, inputs, targets


def repository(bodies) -> Repository:
    """Every hop between two versions of a class assigns the class's body."""
    handlers = {}
    for name, body in bodies.items():
        entries = {}
        for a in VERSIONS:
            for b in VERSIONS:
                if a != b:
                    t = ObjectTransformer(name, a, b, tuple(map(Assign, FIELDS, body)))
                    entries[a, b] = StoredFile(f"{name} {a} {b}", parse=lambda t=t: t)
        handlers[name] = entries
    return Repository("checked", RELEASES, handlers)


def assert_accepted_as_it_stands(graph: ObjectGraph) -> None:
    rebuilt = ObjectGraph(graph.records)  # the public constructor's walk
    assert rebuilt == graph
    assert serialize(rebuilt) == serialize(graph)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_every_graph_deserialize_returns_passes_the_public_constructor(seed):
    graph = random_graph(random.Random(seed))
    read = deserialize(serialize(graph))
    assert_accepted_as_it_stands(read)
    assert read == graph


@settings(max_examples=300, deadline=None)
@given(migrations(), st.booleans())
def test_every_graph_retrieve_returns_passes_the_public_constructor(case, assertions):
    graph, bodies, inputs, targets = case
    try:
        out = retrieve(graph, repository(bodies), targets, inputs, assertions=assertions)
    except EscherError:
        return
    assert_accepted_as_it_stands(out)
    assert [(r.id, r.class_name) for r in out.records] == [(r.id, r.class_name) for r in graph.records]


# The outcome the line reader alone gives, graph or error, as the reading
# loop must, whichever records it reads as blocks.
EIGHT = "ESCHER-OBJECTS 1\n" + "".join(
    f"obj {i} {'ITEM' if i == 7 else 'NODE'} version 1\n{{{i}}}end\n" for i in range(8)
)


def eight(first: str) -> str:
    return EIGHT.format(first, *[""] * 7)


@pytest.mark.parametrize("text, expected", [
    ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  n: INTEGER = 9223372036854775808\nend\n",
     "FormatError 3 line 3, column 16: integer literal outside the 64-bit range"),
    ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  n: INTEGER = -9223372036854775809\nend\n",
     "FormatError 3 line 3, column 16: integer literal outside the 64-bit range"),
    ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  r: REAL = 1.0e999\nend\n",
     "FormatError 3 line 3, column 13: real literal out of range"),
    ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  next: NODE = ref 1\nend\n",
     "DanglingReference 1"),
    (eight("  a: ITEM = ref 7\n  b: ITEM = ref 07\n"), None),
    (eight("  a: ITEM = ref 7\n  b: NODE = ref 07\n"),
     "FormatError 4 field 'b' is annotated NODE, but record 7 is of class ITEM"),
    (eight("  a: NODE = ref 07\n  b: ITEM = ref 7\n"),
     "FormatError 3 field 'a' is annotated NODE, but record 7 is of class ITEM"),
])
def test_deserialize_gives_the_line_readers_outcome(monkeypatch, text, expected):
    for block_re in (objects._BLOCK_RE, re.compile(r"(?!)")):  # the second matches no block
        monkeypatch.setattr(objects, "_BLOCK_RE", block_re)
        try:
            graph = deserialize(text)
        except EscherError as err:
            assert err.cli_line() == expected
        else:
            assert expected is None
            assert graph.records[0].fields == {"a": RefVal(7), "b": RefVal(7)}


def test_a_read_file_holds_one_ref_value_per_target():
    graph = deserialize(eight("  a: ITEM = ref 7\n  b: ITEM = ref 7\n"))
    fields = graph.records[0].fields
    assert fields["a"] is fields["b"]


def test_the_block_reader_reads_a_field_of_every_kind_as_serialize_writes_it():
    # ``serialize`` writes each field from ``KINDS``; the block regex spells
    # each kind's annotation and literal shape, and must read every line it writes
    assert all(default.__class__ is cls for cls, (name, default, _) in KINDS.items() if name)
    fields = {f"f{i}": default for i, (name, default, _) in enumerate(KINDS.values()) if name}
    fields |= {"s": 'a "b"\\\n\r', "n": -7, "x": -1.5e-300, "t": True, "r": RefVal(0)}
    text = serialize(ObjectGraph((ObjectRecord(0, "NODE", 1, fields),)))
    body = objects._BLOCK_RE.match(text, len("ESCHER-OBJECTS 1\n"))[4]
    assert len(objects._BLOCK_FIELD_RE.findall(body)) == len(fields)
    assert deserialize(text).records[0].fields == fields


# ---------------------------------------------------------------------------
# Dangling ``ref`` inputs
# ---------------------------------------------------------------------------

ONE = ObjectGraph((ObjectRecord(0, "NODE", 1, dict.fromkeys(FIELDS, 0)),))
COPY = tuple(map(exprs.OldField, FIELDS))


@pytest.mark.parametrize("body", [COPY, (exprs.InputRef("k"), *COPY[1:])], ids=["unread", "read"])
def test_a_ref_input_past_the_graph_is_refused_read_or_not(body):
    repo = repository({"NODE": body})
    with pytest.raises(DanglingReference) as exc:
        retrieve(ONE, repo, {"NODE": 2}, {("NODE", "k"): RefVal(1)})
    assert exc.value.ref_id == 1
    out = retrieve(ONE, repo, {"NODE": 2}, {("NODE", "k"): RefVal(0)})
    assert out.records[0].version == 2


def test_a_ref_literal_is_refused_when_its_transformer_is_built():
    # No ``.est`` line holds one: ``parse_transformer`` refuses ``ref``.
    for source in (exprs.Lit(RefVal(3)), exprs.BinOp("+", exprs.Lit(1), exprs.Lit(RefVal(0)))):
        with pytest.raises(ValueError, match="a transformer source cannot hold"):
            Assign("f0", source)


def test_a_dict_changed_after_its_graph_was_checked_reaches_no_output():
    fields = dict.fromkeys(FIELDS, 1)
    graph = ObjectGraph((ObjectRecord(0, "NODE", 1, fields),))
    fields["f0"] = 2**70
    assert graph.records[0].fields["f0"] == 1
    out = retrieve(graph, repository({"NODE": COPY}), {})
    assert out == graph
    assert "  f0: INTEGER = 1\n" in serialize(out)


# ---------------------------------------------------------------------------
# The collector pause
# ---------------------------------------------------------------------------


@pytest.fixture(params=[True, False], ids=["gc enabled", "gc disabled"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


CALLS = {
    "deserialize returns": lambda: deserialize(serialize(ONE)),
    "deserialize raises": lambda: deserialize("ESCHER-OBJECTS 1\n"),
    "retrieve returns": lambda: retrieve(ONE, repository({"NODE": COPY}), {"NODE": 2}),
    "retrieve raises": lambda: retrieve(ONE, repository({"NODE": COPY}), {"NODE": 2},
                                        {("NODE", "k"): RefVal(5)}),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_the_callers_collector_state_survives(collector, call):
    try:
        CALLS[call]()
    except (FormatError, DanglingReference):
        assert call.endswith("raises")
    else:
        assert call.endswith("returns")
    assert gc.isenabled() is collector


def test_the_collector_is_paused_while_records_are_built(monkeypatch):
    seen = []
    for name in ("ObjectRecord", "_read_record", "interpret_transformer"):
        original = getattr(objects, name)

        def spy(*args, original=original, name=name, **kwargs):
            seen.append((name, gc.isenabled()))
            return original(*args, **kwargs)

        monkeypatch.setattr(objects, name, spy)
    gc.enable()
    two = serialize(ObjectGraph((*ONE.records, ObjectRecord(1, "NODE", 1, ONE.records[0].fields))))
    # Record 0 is read as a block, record 1 (after a blank line) by lines.
    graph = deserialize(two.replace("end\n", "end\n\n", 1))
    retrieve(graph, repository({"NODE": COPY}), {"NODE": 2})
    assert set(seen) == {("ObjectRecord", False), ("_read_record", False),
                         ("interpret_transformer", False)}
    assert gc.isenabled()
