"""One hop, ``objects.interpret_transformer``, against the loop it replaced.

The hop now fills one dict laid out in the new schema's attribute order; the
loop below, kept as the oracle, assigned into a scratch dict and then copied
every attribute into a second one in schema order. Over hand-edited
instruction lists (targets out of order, repeated or unknown, checks on
assigned and unassigned targets, sources that fail, old records missing
attributes) both must give the same fields in the same order and the same
warnings, or raise the same error with the same text and attributes.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from escher import exprs  # noqa: E402
from escher.errors import AttachmentViolation, EvaluationError, MissingAttribute  # noqa: E402
from escher.objects import ObjectRecord, interpret_transformer, type_default  # noqa: E402
from escher.schema import Attached  # noqa: E402
from escher.transformer import Assign, CheckAttached, Noop, ObjectTransformer  # noqa: E402

from helpers import random_schema  # noqa: E402


def oracle(t, old, inputs, *, new_schema, check_attached=True, warnings=None):
    """The hop as it was: a scratch dict, then a second dict in schema order."""
    if old.class_name != t.class_name or new_schema.name != t.class_name:
        raise ValueError(
            f"transformer for {t.class_name} applied to {old.class_name}/{new_schema.name}"
        )
    if old.version != t.from_version:
        raise ValueError(
            f"record stores version {old.version}, transformer starts at {t.from_version}"
        )
    result = {}
    target_names = new_schema.attribute_set
    for index, (kind, target, source) in enumerate(t.steps):
        if kind is Assign:
            if target not in target_names:
                raise EvaluationError(
                    index, f"target {target!r} is not an attribute of {new_schema.name}"
                )
            try:
                result[target] = source(old.fields, inputs)
            except exprs.EvalProblem as err:
                raise EvaluationError(index, str(err)) from err
            except MissingAttribute as err:
                raise EvaluationError(index, f"old record has no attribute {err.name!r}") from err
        elif kind is CheckAttached:
            if check_attached and result.get(target) is None:
                raise AttachmentViolation(target)
    fields = {}
    for attr in new_schema.attributes:
        if attr.name in result:
            fields[attr.name] = result[attr.name]
        else:
            if warnings is not None:
                warnings.append(
                    f"attribute {attr.name!r} of {new_schema.name} not assigned by the "
                    f"{t.from_version}->{t.to_version} transformer; default used"
                )
            fields[attr.name] = type_default(attr.declared_type)
    for attr in new_schema.attributes:
        if check_attached and isinstance(attr.declared_type, Attached) and fields[attr.name] is None:
            raise AttachmentViolation(attr.name)
    return ObjectRecord(old.id, t.class_name, t.to_version, fields)


OLD_NAMES = ["attr_0", "attr_1", "attr_2", "attr_5", "gone"]
TARGETS = [f"attr_{i}" for i in range(8)] + ["nope"]

old_values = st.one_of(
    st.sampled_from([0, 1, -7, 2**62, -(2**63), 2**63 - 1]),
    st.sampled_from([0.0, -2.5, 1e308]),
    st.sampled_from(["", "12", "x"]),
    st.none(),
)
leaves = st.one_of(
    st.sampled_from(OLD_NAMES).map(exprs.OldField),
    old_values.map(exprs.Lit),
    st.sampled_from(["k", "absent"]).map(exprs.InputRef),
)
# Sources that succeed or fail (overflow, a real or void operand, a zero
# divisor, a missing attribute or input, an unknown or failing conversion).
sources = st.one_of(
    leaves,
    st.builds(exprs.BinOp, st.sampled_from(exprs.ARITH_OPS), leaves, leaves),
    st.builds(exprs.Convert, st.sampled_from(["STRING_TO_INTEGER", "NO_SUCH"]), leaves),
)
instruction = st.one_of(
    st.builds(Assign, st.sampled_from(TARGETS), sources),
    st.builds(CheckAttached, st.sampled_from(TARGETS)),
    st.just(Noop("hand-edited")),
)
# Mostly lists a transformer accepts; a repeated Assign target is refused
# when the transformer is built.
instructions = st.one_of(
    st.lists(
        instruction,
        max_size=10,
        unique_by=lambda i: i.target_name if i.__class__ is Assign else object(),
    ),
    st.lists(instruction, max_size=10),
)


def _outcome(call):
    try:
        record = call()
    except Exception as err:  # whatever it is, both sides must raise it
        return type(err), str(err), repr(vars(err))
    return repr(list(record.fields.items()))  # order too: record equality ignores it


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**32),
    instructions,
    st.dictionaries(st.sampled_from(OLD_NAMES), old_values),
    st.dictionaries(st.just("k"), old_values),
    st.booleans(),
    st.booleans(),
)
def test_a_hop_fills_one_schema_ordered_dict_as_the_old_loop_did(
    schema_seed, instrs, old_fields, inputs, check_attached, collect
):
    new_schema = random_schema(random.Random(schema_seed), "C", max_attributes=8, version=2)
    old = ObjectRecord(3, "C", 1, old_fields)

    def hop(interpret, warnings):
        t = ObjectTransformer("C", 1, 2, tuple(instrs))
        return interpret(
            t, old, inputs, new_schema=new_schema, check_attached=check_attached, warnings=warnings
        )

    new_warnings, old_warnings = ([], []) if collect else (None, None)
    assert _outcome(lambda: hop(interpret_transformer, new_warnings)) == _outcome(
        lambda: hop(oracle, old_warnings)
    )
    assert new_warnings == old_warnings
