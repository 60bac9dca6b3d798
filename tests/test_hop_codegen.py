"""The generated hop function against the reference step loop.

``objects.interpret_transformer`` runs a record through the one function
``objects.generate_hop`` builds per (transformer, the new schema's
``record_shape``), which raises every error, writes every warning and reads
``check_attached`` itself. Here the same hop also runs through
``helpers.step_loop``, the instructions one at a time over the tree walk.
Both must give the same fields in the same order with the same value
classes, the same warnings, or the same error class, text and attributes
(``EvaluationError`` carries its index).
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher import exprs  # noqa: E402
from escher.errors import AttachmentViolation  # noqa: E402
from escher.objects import ObjectGraph, ObjectRecord, interpret_transformer, retrieve, serialize  # noqa: E402
from escher.repository import Release, Repository, register_transformer  # noqa: E402
from escher.schema import parse_schema  # noqa: E402
from escher.transformer import Assign, CheckAttached, Noop, ObjectTransformer, parse_transformer  # noqa: E402
from escher.values import INT64_MAX, INT64_MIN, RefVal  # noqa: E402

from helpers import random_schema, step_loop  # noqa: E402


def outcome(interpret, t, old, inputs, schema, check_attached):
    """What one hop gives, and its warnings, in a form that compares classes too."""
    warnings: list[str] = []
    try:
        record = interpret(
            t, old, inputs, new_schema=schema, check_attached=check_attached, warnings=warnings
        )
    except Exception as err:  # whatever it is, both sides must raise it
        return (type(err), str(err), repr(vars(err))), warnings
    return [(name, value.__class__, value) for name, value in record.fields.items()], warnings


def agree(t, old, inputs, schema, check_attached):
    """The hop's outcome, once it has been checked against the step loop's."""
    got = outcome(interpret_transformer, t, old, inputs, schema, check_attached)
    assert got == outcome(step_loop, t, old, inputs, schema, check_attached)
    return got


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
    attributes once; some drop an attribute, which takes its default, or
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


@settings(max_examples=300, deadline=None)
@given(hops(), st.lists(old_fields, min_size=1, max_size=3), st.dictionaries(st.just("k"), values))
def test_a_generated_hop_gives_what_the_step_loop_gives(hop, records, inputs):
    t, schema = hop
    for fields in records:  # one transformer object, so later records reuse its function
        old = ObjectRecord(3, "C", 1, fields)
        for check_attached in (True, False):
            got, _ = agree(t, old, inputs, schema, check_attached)
            event(f"check_attached {check_attached}: {'error' if isinstance(got, tuple) else 'fields'}")
    assert list(t.hops) == [schema.shape_key]  # one function, checks on or off


# ---------------------------------------------------------------------------
# named cases
# ---------------------------------------------------------------------------

SCHEMA = "version 2 class C feature x: INTEGER w: REAL s: STRING end"
REST = "  Result.w := oldc.w\n  Result.s := oldc.s\n"
GOOD = {"x": 1, "w": 1.5, "s": "a"}

# (id, transformer body, old fields, inputs, check_attached, outcome): the
# outcome is the error's class name and index, if it has one, or the new
# fields in schema order.
CASES = [
    ("int64 overflow", "Result.x := oldc.x + 1\n" + REST, {**GOOD, "x": INT64_MAX}, {}, True,
     ("EvaluationError", 0)),
    ("int64 underflow", "Result.x := oldc.x - 1\n" + REST, {**GOOD, "x": INT64_MIN}, {}, True,
     ("EvaluationError", 0)),
    ("real overflow", "Result.x := oldc.x\n  Result.w := oldc.w * 1.0e308\n  Result.s := oldc.s\n",
     {**GOOD, "w": 10.0}, {}, True, ("EvaluationError", 1)),
    ("boolean operand", "Result.x := oldc.x + 1\n" + REST, {**GOOD, "x": True}, {}, True,
     ("EvaluationError", 0)),
    ("void operand", "Result.x := 1 * oldc.x\n" + REST, {**GOOD, "x": None}, {}, True,
     ("EvaluationError", 0)),
    ("integer and real", "Result.x := oldc.x\n  Result.w := oldc.x + oldc.w\n  Result.s := oldc.s\n",
     GOOD, {}, True, [("x", 1), ("w", 2.5), ("s", "a")]),
    ("missing old field", "Result.x := oldc.x\n" + REST, {"w": 1.5, "s": "a"}, {}, True,
     ("EvaluationError", 0)),
    ("missing old field, later", "Result.x := oldc.x\n" + REST, {"x": 1, "s": "a"}, {}, True,
     ("EvaluationError", 1)),
    ("missing input", "Result.x := input x\n" + REST, GOOD, {}, True, ("MissingInput", None)),
    ("input given", "Result.x := input x * 2\n" + REST, GOOD, {"x": 21}, True,
     [("x", 42), ("w", 1.5), ("s", "a")]),
    ("literal", "Result.x := -7\n" + REST, GOOD, {}, True, [("x", -7), ("w", 1.5), ("s", "a")]),
    ("conversion", "Result.x := convert STRING_TO_INTEGER (oldc.s)\n" + REST, {**GOOD, "s": "-7"}, {},
     True, [("x", -7), ("w", 1.5), ("s", "-7")]),
    ("failed conversion", "Result.x := convert STRING_TO_INTEGER (oldc.s)\n" + REST, GOOD, {}, True,
     ("ConversionFailure", None)),
    ("unknown converter", "Result.x := convert NO_SUCH (oldc.x)\n" + REST, GOOD, {}, True,
     ("UnknownConverter", None)),
    ("unknown converter over a failing argument", "Result.x := convert NO_SUCH (oldc.x + 1)\n" + REST,
     {**GOOD, "x": INT64_MAX}, {}, True, ("EvaluationError", 0)),
    ("check on void", "Result.x := oldc.x\n  require_attached Result.x\n" + REST, {**GOOD, "x": None},
     {}, True, ("AttachmentViolation", None)),
    ("check before assign", "require_attached Result.x\n  Result.x := oldc.x\n" + REST, GOOD, {}, True,
     ("AttachmentViolation", None)),
    ("unassigned attribute", "Result.x := oldc.x\n  Result.w := oldc.w\n", GOOD, {}, True,
     [("x", 1), ("w", 1.5), ("s", "")]),
    ("target outside the schema", "Result.x := oldc.x\n  Result.nope := 1\n" + REST, GOOD, {}, True,
     ("EvaluationError", 1)),
    ("target outside the schema after a failing source",
     "Result.x := oldc.x + 1\n  Result.nope := 1\n" + REST, {**GOOD, "x": INT64_MAX}, {}, True,
     ("EvaluationError", 0)),
    ("check_attached off", "require_attached Result.x\n  Result.x := oldc.x\n" + REST,
     {**GOOD, "x": None}, {}, False, [("x", None), ("w", 1.5), ("s", "a")]),
    ("tripped check, check_attached off", "Result.x := oldc.x\n  require_attached Result.x\n" + REST,
     {**GOOD, "x": None}, {}, False, [("x", None), ("w", 1.5), ("s", "a")]),
]


@pytest.mark.parametrize(
    "body, fields, inputs, check_attached, expected", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_a_named_hop_agrees_with_the_step_loop(body, fields, inputs, check_attached, expected):
    t = parse_transformer(f"transform C from 1 to 2\n  {body}end\n")
    schema = parse_schema(SCHEMA)
    old = ObjectRecord(0, "C", 1, fields)
    result, warnings = agree(t, old, inputs, schema, check_attached)
    assert list(t.hops) == [schema.shape_key]
    if isinstance(expected, tuple):
        with pytest.raises(Exception) as caught:
            interpret_transformer(t, old, inputs, new_schema=schema, check_attached=check_attached)
        assert (type(caught.value).__name__, getattr(caught.value, "index", None)) == expected
    else:
        assert result == [(name, value.__class__, value) for name, value in expected]
        assigned = {i.target_name for i in t.instructions if i.__class__ is Assign}
        assert len(warnings) == len(set(schema.attribute_names()) - assigned)


def test_schemas_of_one_order_with_other_defaults_give_their_own_defaults():
    """A hop's function is cached by the new schema's attribute order and
    ``attached`` attributes, and reads the default of an attribute it
    leaves unassigned from the schema it is called with: the function a
    schema with ``y: INTEGER`` got gives ``""`` for ``y: STRING``, however
    the two are met."""
    t = parse_transformer("transform C from 1 to 2\n  Result.x := oldc.x\nend\n")
    old = ObjectRecord(0, "C", 1, {"x": 1})
    kinds = {"INTEGER": 0, "STRING": "", "REAL": 0.0, "BOOLEAN": False, "C": None}
    for order in (list(kinds), list(reversed(kinds))):
        for kind in order:
            schema = parse_schema(f"version 2 class C feature x: INTEGER y: {kind} end")
            result, _ = agree(t, old, {}, schema, True)
            assert result[1] == ("y", kinds[kind].__class__, kinds[kind])
    assert len(t.hops) == 1


def test_schemas_of_one_order_with_other_attached_attributes_get_their_own_functions():
    t = parse_transformer("transform C from 1 to 2\n  Result.p := oldc.p\nend\n")
    old = ObjectRecord(0, "C", 1, {"p": None})
    detachable, attached = (parse_schema(f"version 2 class C feature p: {m}C end") for m in ("", "attached "))
    for schema, expected in [(detachable, [("p", type(None), None)]), (attached, AttachmentViolation)] * 2:
        result, _ = agree(t, old, {}, schema, True)
        assert (result[0] if isinstance(result, tuple) else result) == expected
    assert len(t.hops) == 2


@pytest.mark.parametrize("body, check_attached, expected", [
    ("Result.x := oldc.x\n  Result.p := oldc.p\n", True, "AttachmentViolation"),
    ("Result.x := oldc.x\n  Result.p := oldc.p\n", False, [("x", 1), ("p", None)]),
    ("Result.x := oldc.x\n", True, "AttachmentViolation"),  # p takes its default, Void
    ("Result.x := oldc.x\n", False, [("x", 1), ("p", None)]),
], ids=["assigned", "assigned, check_attached off", "unassigned", "unassigned, check_attached off"])
def test_a_void_attached_attribute_fails_the_hop_while_checks_are_on(body, check_attached, expected):
    t = parse_transformer(f"transform C from 1 to 2\n  {body}end\n")
    schema = parse_schema("version 2 class C feature x: INTEGER p: attached C end")
    old = ObjectRecord(0, "C", 1, {"x": 1, "p": None})
    got = agree(t, old, {}, schema, check_attached)
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
    ("class C feature f: INTEGER i: INTEGER t1: REAL k1: STRING hop: INTEGER n: INTEGER "
     "err: INTEGER NO_FIELD: STRING end",
     "Result.hop := oldc.f + oldc.i\n  Result.f := oldc.hop * 2\n  Result.i := input t1 - 1\n"
     "  Result.t1 := oldc.t1 * 0.5\n  Result.k1 := oldc.k1\n  Result.n := input hop\n"
     "  Result.err := oldc.n\n  Result.NO_FIELD := oldc.NO_FIELD",
     {"f": 2, "i": 3, "t1": 1.5, "k1": "k1", "hop": 7, "n": 0, "NO_FIELD": "x"}, {"t1": 10, "hop": 1}),
], ids=["string literal holding Python", "names of the generator's own"])
def test_a_hop_over_hostile_text_migrates_as_the_step_loop_does(schema_text, body, fields, inputs):
    schema = parse_schema(f"version 2 {schema_text}")
    t = parse_transformer(f"transform C from 1 to 2\n  {body}\nend\n")
    old = ObjectRecord(0, "C", 1, fields)

    def migrate(interpret):
        return serialize(ObjectGraph((interpret(t, old, inputs, new_schema=schema),)))

    assert migrate(interpret_transformer) == migrate(step_loop)
    for name in fields:  # a missing field, named as one of the function's own names may be
        lacking = ObjectRecord(0, "C", 1, {key: value for key, value in fields.items() if key != name})
        agree(t, lacking, inputs, schema, True)
