"""The generated hop function against the step loop it stands in front of.

``objects.interpret_transformer`` runs a record through the function
``objects.generate_hop`` builds for (transformer, attribute order,
``attached`` attributes) and, when the function raises or was not built,
through the step loop, which alone reads ``check_attached``. Here the same
hop also runs with no function at all. Both must give the same fields in
the same order with the same value classes, the same warnings, or the same
error class, text and attributes (``EvaluationError`` carries its index).
"""

from __future__ import annotations

import random
from dataclasses import replace
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher import exprs, objects  # noqa: E402
from escher.errors import AttachmentViolation  # noqa: E402
from escher.objects import ObjectGraph, ObjectRecord, interpret_transformer, retrieve, serialize  # noqa: E402
from escher.repository import Release, Repository, register_transformer  # noqa: E402
from escher.schema import parse_schema  # noqa: E402
from escher.transformer import Assign, CheckAttached, Noop, ObjectTransformer, parse_transformer  # noqa: E402
from escher.values import INT64_MAX, INT64_MIN, RefVal  # noqa: E402

from helpers import random_schema  # noqa: E402


def outcome(t, old, inputs, schema, check_attached):
    """What one hop gives, and its warnings, in a form that compares classes too."""
    warnings: list[str] = []
    try:
        record = interpret_transformer(
            t, old, inputs, new_schema=schema, check_attached=check_attached, warnings=warnings
        )
    except Exception as err:  # whatever it is, both sides must raise it
        return (type(err), str(err), repr(vars(err))), warnings
    return [(name, value.__class__, value) for name, value in record.fields.items()], warnings


def steps_alone(t, old, inputs, schema, check_attached):
    """``outcome`` of a fresh copy of ``t`` with no function generated."""
    with mock.patch.object(objects, "generate_hop", lambda *args: None):
        return outcome(replace(t), old, inputs, schema, check_attached)


def was_built(t, schema) -> bool:
    return t.hops[schema.record_shape] is not None


# ---------------------------------------------------------------------------
# the differential property
# ---------------------------------------------------------------------------

OLD_NAMES = ["attr_0", "attr_1", "attr_2", "attr_3", "gone"]
integers = st.one_of(st.integers(-1000, 1000), st.integers(INT64_MIN, INT64_MAX),
                     st.sampled_from([INT64_MAX, INT64_MIN, 2**62]))
reals = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([-0.0, 1e308, -1e308]))
# Mostly numbers, so that many sources succeed and the inline paths run.
values = st.one_of(
    integers, integers, reals, reals,
    st.sampled_from([True, False, None, RefVal(0), "", "12", "-7", "1.5", "1e999", "x"]),
)
# Most records hold every field a source reads; some lack one.
old_fields = st.one_of(
    st.fixed_dictionaries({name: values for name in OLD_NAMES[:4]}),
    st.dictionaries(st.sampled_from(OLD_NAMES), values),
)
leaves = st.one_of(
    st.sampled_from(OLD_NAMES).map(exprs.OldField),
    values.filter(lambda value: value.__class__ is not RefVal).map(exprs.Lit),  # no ``ref`` literal
    st.sampled_from(["k", "absent"]).map(exprs.InputRef),
)
sources = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(exprs.BinOp, st.sampled_from(exprs.ARITH_OPS), inner, inner),
        st.builds(exprs.Convert, st.sampled_from([*exprs.CONVERTERS, "NO_SUCH"]), inner),
    ),
    max_leaves=6,
)


@st.composite
def hops(draw):
    """A schema, and a transformer that mostly assigns each of its
    attributes once, so that a function is built; some drop an attribute or
    add a target outside the schema. Checks and noops fall anywhere."""
    schema = random_schema(random.Random(draw(st.integers(0, 2**32))), "C", max_attributes=5, version=2)
    targets = list(draw(st.permutations(schema.attribute_names())))
    shape = draw(st.sampled_from(["whole"] * 4 + ["drop", "extra"]))
    if shape == "drop" and targets:
        targets.pop(draw(st.integers(0, len(targets) - 1)))
    elif shape == "extra":
        targets.insert(draw(st.integers(0, len(targets))), "nope")
    instrs: list = [Assign(target, draw(sources)) for target in targets]
    for _ in range(draw(st.integers(0, 2))):
        check = CheckAttached(draw(st.sampled_from([*schema.attribute_names(), "nope"])))
        instrs.insert(draw(st.integers(0, len(instrs))), check)
    if draw(st.booleans()):
        instrs.insert(draw(st.integers(0, len(instrs))), Noop("hand-edited"))
    return ObjectTransformer("C", 1, 2, tuple(instrs)), schema


def expect_built(t: ObjectTransformer, schema) -> bool:
    """Whether ``generate_hop`` should build, worked out from the instructions."""
    if t.assigned_targets != schema.attribute_set:
        return False
    assigned: set[str] = set()
    for instr in t.instructions:
        if instr.__class__ is Assign:
            if any(node.__class__ is exprs.Convert and node.converter_id not in exprs.CONVERTERS
                   for node in exprs.walk(instr.expr)):
                return False
            assigned.add(instr.target_name)
        elif instr.__class__ is CheckAttached and instr.target_name not in assigned:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    hops(),
    st.lists(old_fields, min_size=1, max_size=3),
    st.dictionaries(st.just("k"), values),
    st.booleans(),
)
def test_a_generated_hop_gives_what_the_steps_alone_give(hop, records, inputs, check_attached):
    t, schema = hop
    for fields in records:  # one transformer object, so later records reuse its function
        old = ObjectRecord(3, "C", 1, fields)
        got = outcome(t, old, inputs, schema, check_attached)
        assert got == steps_alone(t, old, inputs, schema, check_attached)
        event("error" if isinstance(got[0], tuple) else "fields")
    built = was_built(t, schema)
    assert built == expect_built(t, schema)
    event(f"built: {built}")


# ---------------------------------------------------------------------------
# named cases
# ---------------------------------------------------------------------------

SCHEMA = "version 2 class C feature x: INTEGER w: REAL s: STRING end"
REST = "  Result.w := oldc.w\n  Result.s := oldc.s\n"
GOOD = {"x": 1, "w": 1.5, "s": "a"}

# (id, transformer body, old fields, inputs, check_attached, built, outcome):
# the outcome is the error's class name, or the new fields in schema order.
CASES = [
    ("int64 overflow", "Result.x := oldc.x + 1\n" + REST, {**GOOD, "x": INT64_MAX}, {}, True,
     True, "EvaluationError"),
    ("int64 underflow", "Result.x := oldc.x - 1\n" + REST, {**GOOD, "x": INT64_MIN}, {}, True,
     True, "EvaluationError"),
    ("real overflow", "Result.x := oldc.x\n  Result.w := oldc.w * 1.0e308\n  Result.s := oldc.s\n",
     {**GOOD, "w": 10.0}, {}, True, True, "EvaluationError"),
    ("boolean operand", "Result.x := oldc.x + 1\n" + REST, {**GOOD, "x": True}, {}, True,
     True, "EvaluationError"),
    ("void operand", "Result.x := 1 * oldc.x\n" + REST, {**GOOD, "x": None}, {}, True,
     True, "EvaluationError"),
    ("integer and real", "Result.x := oldc.x\n  Result.w := oldc.x + oldc.w\n  Result.s := oldc.s\n",
     GOOD, {}, True, True, [("x", 1), ("w", 2.5), ("s", "a")]),
    ("missing old field", "Result.x := oldc.x\n" + REST, {"w": 1.5, "s": "a"}, {}, True,
     True, "EvaluationError"),
    ("missing input", "Result.x := input x\n" + REST, GOOD, {}, True, True, "MissingInput"),
    ("input given", "Result.x := input x * 2\n" + REST, GOOD, {"x": 21}, True,
     True, [("x", 42), ("w", 1.5), ("s", "a")]),
    ("conversion", "Result.x := convert STRING_TO_INTEGER (oldc.s)\n" + REST, {**GOOD, "s": "-7"}, {},
     True, True, [("x", -7), ("w", 1.5), ("s", "-7")]),
    ("failed conversion", "Result.x := convert STRING_TO_INTEGER (oldc.s)\n" + REST, GOOD, {}, True,
     True, "ConversionFailure"),
    ("unknown converter", "Result.x := convert NO_SUCH (oldc.x)\n" + REST, GOOD, {}, True,
     False, "UnknownConverter"),
    ("check on void", "Result.x := oldc.x\n  require_attached Result.x\n" + REST, {**GOOD, "x": None},
     {}, True, True, "AttachmentViolation"),
    ("check before assign", "require_attached Result.x\n  Result.x := oldc.x\n" + REST, GOOD, {}, True,
     False, "AttachmentViolation"),
    ("unassigned attribute", "Result.x := oldc.x\n  Result.w := oldc.w\n", GOOD, {}, True,
     False, [("x", 1), ("w", 1.5), ("s", "")]),
    ("target outside the schema", "Result.x := oldc.x\n  Result.nope := 1\n" + REST, GOOD, {}, True,
     False, "EvaluationError"),
    ("check_attached off", "require_attached Result.x\n  Result.x := oldc.x\n" + REST,
     {**GOOD, "x": None}, {}, False, False, [("x", None), ("w", 1.5), ("s", "a")]),
    ("tripped check, check_attached off", "Result.x := oldc.x\n  require_attached Result.x\n" + REST,
     {**GOOD, "x": None}, {}, False, True, [("x", None), ("w", 1.5), ("s", "a")]),
]


@pytest.mark.parametrize(
    "body, fields, inputs, check_attached, built, expected", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_a_named_hop_is_built_or_not_and_agrees_with_the_steps(
    body, fields, inputs, check_attached, built, expected
):
    t = parse_transformer(f"transform C from 1 to 2\n  {body}end\n")
    schema = parse_schema(SCHEMA)
    old = ObjectRecord(0, "C", 1, fields)
    got = outcome(t, old, inputs, schema, check_attached)
    assert got == steps_alone(t, old, inputs, schema, check_attached)
    assert was_built(t, schema) is built
    result, warnings = got
    if isinstance(expected, str):
        assert result[0].__name__ == expected
    else:
        assert result == [(name, value.__class__, value) for name, value in expected]
        assert len(warnings) == len(schema.attribute_set - t.assigned_targets)


@pytest.mark.parametrize("body, check_attached, built, expected", [
    ("Result.x := oldc.x\n  Result.p := oldc.p\n", True, True, "AttachmentViolation"),
    ("Result.x := oldc.x\n  Result.p := oldc.p\n", False, True, [("x", 1), ("p", None)]),
    ("Result.x := oldc.x\n", True, False, "AttachmentViolation"),  # p takes its default, Void
    ("Result.x := oldc.x\n", False, False, [("x", 1), ("p", None)]),
], ids=["assigned", "assigned, check_attached off", "unassigned", "unassigned, check_attached off"])
def test_a_void_attached_attribute_fails_the_hop_while_checks_are_on(
    body, check_attached, built, expected
):
    t = parse_transformer(f"transform C from 1 to 2\n  {body}end\n")
    schema = parse_schema("version 2 class C feature x: INTEGER p: attached C end")
    old = ObjectRecord(0, "C", 1, {"x": 1, "p": None})
    got = outcome(t, old, {}, schema, check_attached)
    assert got == steps_alone(t, old, {}, schema, check_attached)
    assert was_built(t, schema) is built
    repo = register_transformer(Repository("r", (
        Release(1, {"C": parse_schema("version 1 class C feature x: INTEGER p: C end")}),
        Release(2, {"C": schema}),
    )), t)
    try:  # retrieve passes ``assertions`` on as ``check_attached``
        fields = retrieve(ObjectGraph((old,)), repo, {"C": 2}, assertions=check_attached).records[0].fields
    except AttachmentViolation as err:
        assert got[0][:2] == (AttachmentViolation, str(err))
    else:
        assert got[0] == [(name, value.__class__, value) for name, value in fields.items()]
    result, _ = got
    if isinstance(expected, str):
        assert (result[0].__name__, result[1]) == (expected, "p")
    else:
        assert result == [(name, value.__class__, value) for name, value in expected]


# ---------------------------------------------------------------------------
# nothing from a file is spliced into generated source
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("schema_text, body, fields, inputs", [
    ("class C feature s: STRING end",
     'Result.s := "\\"); raise SystemExit #"', {"s": "x"}, {}),
    ("class C feature f: INTEGER i: INTEGER t1: REAL k1: STRING hop: INTEGER SlowPath: INTEGER end",
     "Result.hop := oldc.f + oldc.i\n  Result.f := oldc.hop * 2\n  Result.i := input t1 - 1\n"
     "  Result.t1 := oldc.t1 * 0.5\n  Result.k1 := oldc.k1\n  Result.SlowPath := input hop",
     {"f": 2, "i": 3, "t1": 1.5, "k1": "k1", "hop": 7, "SlowPath": 0}, {"t1": 10, "hop": 1}),
], ids=["string literal holding Python", "names of the generator's own"])
def test_a_hop_over_hostile_text_migrates_as_the_steps_do(schema_text, body, fields, inputs):
    schema = parse_schema(f"version 2 {schema_text}")
    t = parse_transformer(f"transform C from 1 to 2\n  {body}\nend\n")
    old = ObjectRecord(0, "C", 1, fields)

    def migrate(transformer):
        return serialize(ObjectGraph((interpret_transformer(transformer, old, inputs, new_schema=schema),)))

    generated = migrate(t)
    assert was_built(t, schema)
    with mock.patch.object(objects, "generate_hop", lambda *args: None):
        assert generated == migrate(replace(t))
