from __future__ import annotations

import random
from dataclasses import replace

import pytest

from escher import exprs, objects
from escher.errors import (
    AttachmentViolation,
    ConversionFailure,
    DanglingReference,
    EvaluationError,
    FormatError,
    HandlerMissing,
    InvariantViolation,
    MissingAttribute,
    MissingInput,
    TransformationMissing,
    TypeMismatchInInvariant,
)
from escher.objects import (
    ObjectGraph,
    ObjectRecord,
    deserialize,
    eval_invariant,
    interpret_transformer,
    parse_value_text,
    retrieve,
    serialize,
    type_default,
)
from escher.repository import (
    Repository,
    empty_repository,
    load_repository,
    register_transformer,
    release,
)
from escher.schema import parse_schema, parse_type
from escher.transformer import Assign, generate_transformer, parse_transformer
from escher.smo import diff_schemas
from escher.values import RefVal
from conftest import BANK_OBJECT_TEXT
from helpers import random_graph, without_handler


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_bank_record_golden(bank_graph):
    assert serialize(bank_graph) == BANK_OBJECT_TEXT


def test_round_trip_cyclic_graph():
    a = ObjectRecord(0, "NODE", 1, {"next": RefVal(1)})
    b = ObjectRecord(1, "NODE", 1, {"next": RefVal(0)})
    graph = ObjectGraph((a, b))
    assert deserialize(serialize(graph)) == graph


def test_round_trip_property_random_graphs():
    rng = random.Random(8080)
    for _ in range(200):
        graph = random_graph(rng)
        text = serialize(graph)
        parsed = deserialize(text)
        assert parsed == graph
        assert [list(r.fields.items()) for r in parsed.records] == [
            list(r.fields.items()) for r in graph.records
        ]
        assert serialize(parsed) == text


def test_string_escapes_round_trip():
    tricky = 'say "hi" \\ two\nlines'
    graph = ObjectGraph((ObjectRecord(0, "NODE", 1, {"s": tricky}),))
    text = serialize(graph)
    assert "\\n" in text
    assert deserialize(text) == graph


def test_void_and_ref_annotations():
    graph = ObjectGraph(
        (
            ObjectRecord(0, "HOLDER", 1, {"owner": RefVal(1), "spare": None}),
            ObjectRecord(1, "PERSON", 2, {}),
        )
    )
    text = serialize(graph)
    assert "owner: PERSON = ref 1" in text
    assert "spare: NONE = Void" in text
    assert deserialize(text) == graph


def test_dangling_reference_rejected():
    with pytest.raises(DanglingReference):
        ObjectGraph((ObjectRecord(0, "NODE", 1, {"next": RefVal(7)}),))
    text = 'ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  next: NODE = ref 7\nend\n'
    with pytest.raises(DanglingReference):
        deserialize(text)


@pytest.mark.parametrize(
    "text,complain",
    [
        ("obj 0 NODE version 1\nend\n", "header"),
        ("ESCHER-OBJECTS 1\nobj 1 NODE version 1\nend\n", "id"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  x: INTEGER = true\nend\n", "annotation"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  x: INTEGER = 1\n", "end"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  x: INTEGER = 1\n  x: INTEGER = 2\nend\n", "duplicate"),
        ("ESCHER-OBJECTS 1\n", "no records"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  x: REAL = 2\nend\n", "mandatory dot"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  r: REAL = 1.0e999\nend\n", "non-finite"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  r: REAL = - 1.0e999\nend\n", "non-finite"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  p: NODE = ref " + "1" * 5000 + "\nend\n", "digits"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  x: INTEGER = " + "1" * 5000 + "\nend\n", "digits"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  p: PERSON = Void\nend\n", "void is NONE"),
        ("ESCHER-OBJECTS 1\nobj 0 NODE version 1\n  s: STRING = Void\nend\n", "void is NONE"),
    ],
)
def test_format_errors(text, complain):
    with pytest.raises(FormatError):
        deserialize(text)


_OUT_OF_INT64 = "line 3, column 16: integer literal outside the 64-bit range"


@pytest.mark.parametrize(
    "field, expected",
    [
        ("  x: INTEGER = 9223372036854775808", _OUT_OF_INT64),
        ("  x: INTEGER = -9223372036854775809", _OUT_OF_INT64),
        ("  x: INTEGER = " + "1" * 5000, _OUT_OF_INT64),
        ("  p: NODE = ref " + "1" * 5000, "line 3, column 17: number too large: 5000 digits"),
        ("  x: REAL = 1.0e999", "line 3, column 13: real literal out of range"),
        ('  s: STRING = "a\\qb"', 'line 3, column 15: unknown escape in string literal "a\\qb"'),
        ("  x: REAL = -0.0", (float, -0.0)),
        ('  s: STRING = "say \\"hi\\" \\\\ two\\nlines"', (str, 'say "hi" \\ two\nlines')),
        ("  x: INTEGER = - 5", (int, -5)),
        ("  x: INTEGER = 5 -- five", (int, 5)),
        ("  x: INTEGER = 5\r", (int, 5)),
        ("\tx:INTEGER=5", (int, 5)),
        ("  p: NODE = ref x", "line 3, column 17: ref needs a nonnegative integer id"),
        ("  p: NODE = ref -1", "line 3, column 17: ref needs a nonnegative integer id"),
        ("  p: NODE = ref", "line 3, column 16: ref needs a nonnegative integer id"),
        ("  p: NODE = bogus", "line 3, column 13: not a value literal: 'bogus'"),
        ("  p: INTEGER = 1 2", "line 3, column 18: trailing content '2'"),
        ("  p: INTEGER = 1 ref", "line 3, column 18: trailing content 'ref'"),
    ],
)
def test_a_field_line_reads_or_fails_at_its_own_line(field, expected):
    """A value reads as its kind, and an error gives its line and column once."""
    text = f"ESCHER-OBJECTS 1\nobj 0 NODE version 1\n{field}\nend\n"
    if isinstance(expected, str):
        with pytest.raises(FormatError) as exc:
            deserialize(text)
        assert (exc.value.line, str(exc.value)) == (3, expected)
        assert exc.value.cli_line() == f"FormatError 3 {expected}"
    else:
        [(name, value)] = deserialize(text).records[0].fields.items()
        kind, read = expected
        assert (name, value.__class__, repr(value)) == (field.split(":")[0].strip(), kind, repr(read))


def test_version_zero_is_a_format_error_at_its_header():
    text = "ESCHER-OBJECTS 1\nobj 0 NODE version 0\n  x: INTEGER = 1\n  y: INTEGER = 2\nend\n"
    with pytest.raises(FormatError) as exc:
        deserialize(text)
    assert (exc.value.line, exc.value.reason) == (2, "version must be positive: 0")


def test_duplicate_field_name_is_a_format_error_at_its_own_line():
    text = (
        "ESCHER-OBJECTS 1\n"
        "obj 0 NODE version 1\n"
        "end\n"
        "obj 1 NODE version 1\n"
        "  x: INTEGER = 1\n"
        "  y: INTEGER = 2\n"
        "  x: INTEGER = 3\n"
        "end\n"
    )
    with pytest.raises(FormatError) as exc:
        deserialize(text)
    assert (exc.value.line, exc.value.reason) == (7, "duplicate field name 'x' in record 1")


def test_record_fields_are_a_read_only_mapping_in_field_order():
    record = deserialize(BANK_OBJECT_TEXT).records[0]
    assert list(record.fields) == ["tot_deposits", "tot_withdrawals", "info"]
    with pytest.raises(TypeError):
        record.fields["info"] = "7"  # type: ignore[index]
    with pytest.raises(TypeError):
        hash(record)
    reordered = ObjectRecord(0, "BANK_ACCOUNT", 1, dict(reversed(record.fields.items())))
    assert reordered == record  # equality ignores field order ...
    assert serialize(ObjectGraph((reordered,))) != BANK_OBJECT_TEXT  # ... the text does not


def test_ref_annotation_must_name_the_referenced_class():
    text = (
        "ESCHER-OBJECTS 1\n"
        "obj 0 HOLDER version 1\n"
        "  p: PERSON = ref 1\n"
        "end\n"
        "obj 1 ITEM version 1\n"
        "end\n"
    )
    with pytest.raises(FormatError) as exc:
        deserialize(text)
    assert exc.value.line == 3
    assert exc.value.reason == "field 'p' is annotated PERSON, but record 1 is of class ITEM"
    assert deserialize(text.replace("PERSON", "ITEM")).records[0].fields["p"] == RefVal(1)


def test_value_literals():
    texts = ["42", "-42", "2.5", "true", '"x"', "Void", "ref 3"]
    assert [parse_value_text(text) for text in texts] == [42, -42, 2.5, True, "x", None, RefVal(3)]
    assert [type(parse_value_text(text)) for text in texts] == [
        int, int, float, bool, str, type(None), RefVal
    ]
    with pytest.raises(FormatError):
        parse_value_text("nope!")
    with pytest.raises(FormatError):
        parse_value_text("1.0e999")


def test_int64_range_is_enforced():
    with pytest.raises(FormatError):
        parse_value_text(str(2**63))


# ---------------------------------------------------------------------------
# invariant evaluation
# ---------------------------------------------------------------------------


def test_invariant_pass_and_fail(bank_v2):
    good = ObjectRecord(0, "BANK_ACCOUNT", 2, {"balance": 70, "info": 42})
    bad = ObjectRecord(0, "BANK_ACCOUNT", 2, {"balance": 0, "info": 42})
    eval_invariant(good, bank_v2)
    with pytest.raises(InvariantViolation) as caught:
        eval_invariant(bad, bank_v2)
    assert caught.value.cli_line() == "InvariantViolation BANK_ACCOUNT 0 valid_account"


def test_invariant_v1_constructor_state(bank_v1):
    record = ObjectRecord(
        0,
        "BANK_ACCOUNT",
        1,
        {"info": "", "tot_deposits": 1, "tot_withdrawals": 0},
    )
    eval_invariant(record, bank_v1)


def eval_clause(schema_text, **fields):
    schema = parse_schema(schema_text)
    record = ObjectRecord(0, schema.name, 1, fields)
    return eval_invariant(record, schema)


def test_real_promotion_in_comparisons():
    schema = "class C feature x: REAL y: INTEGER invariant c: x < y end"
    eval_clause(schema, x=1.5, y=2)
    with pytest.raises(InvariantViolation):
        eval_clause(schema, x=2.5, y=2)


def test_string_comparison_is_lexicographic():
    schema = 'class C feature s: STRING invariant c: s < "b" end'
    eval_clause(schema, s="a")
    with pytest.raises(InvariantViolation):
        eval_clause(schema, s="c")


def test_void_comparisons():
    schema = "class C feature p: detachable PERSON invariant c: p /= Void end"
    eval_clause(schema, p=RefVal(0))
    with pytest.raises(InvariantViolation):
        eval_clause(schema, p=None)


def test_boolean_connectives_and_arithmetic():
    schema = (
        "class C feature a: INTEGER b: INTEGER invariant "
        "c: a + b * 2 = 5 and not (a > b) or false end"
    )
    eval_clause(schema, a=1, b=2)


def test_integer_division_truncates_toward_zero():
    schema = "class C feature a: INTEGER invariant c: a // 2 = -3 end"
    eval_clause(schema, a=-7)


def test_type_mismatch_raises():
    schema = "class C feature s: STRING invariant c: s > 1 end"
    with pytest.raises(TypeMismatchInInvariant) as exc:
        eval_clause(schema, s="x")
    assert exc.value.clause_tag == "c"


@pytest.mark.parametrize("body", ["true < false", "Void < Void"])
def test_ordering_two_booleans_or_two_voids_is_a_type_mismatch(body):
    schema = f"class C feature a: INTEGER invariant c: {body} end"
    with pytest.raises(TypeMismatchInInvariant) as exc:
        eval_clause(schema, a=1)
    assert exc.value.clause_tag == "c"


def test_non_boolean_clause_body_raises():
    schema = "class C feature a: INTEGER invariant c: a + 1 end"
    with pytest.raises(TypeMismatchInInvariant):
        eval_clause(schema, a=1)


def test_missing_attribute_raises(bank_v2):
    record = ObjectRecord(0, "BANK_ACCOUNT", 2, {"info": 1})
    with pytest.raises(MissingAttribute):
        eval_invariant(record, bank_v2)


def test_clauses_checked_in_order():
    schema = parse_schema(
        "class C feature a: INTEGER invariant first: a > 10 second: a > 100 end"
    )
    record = ObjectRecord(0, "C", 1, {"a": 5})
    with pytest.raises(InvariantViolation) as caught:
        eval_invariant(record, schema)
    assert caught.value.clause_tag == "first"


# ---------------------------------------------------------------------------
# interpretation
# ---------------------------------------------------------------------------


def test_interpret_hand_fixed(bank_record, hand_fixed_transformer, bank_v2):
    out = interpret_transformer(hand_fixed_transformer, bank_record, {}, new_schema=bank_v2)
    assert list(out.fields.items()) == [("balance", 70), ("info", 42)]
    assert out.version == 2
    eval_invariant(out, bank_v2)


def test_interpret_generated_with_inputs(bank_record, bank_v1, bank_v2):
    t = generate_transformer(diff_schemas(bank_v1, bank_v2))
    out = interpret_transformer(t, bank_record, {"balance": 0}, new_schema=bank_v2)
    assert list(out.fields.items()) == [("balance", 0), ("info", 42)]
    with pytest.raises(InvariantViolation):
        eval_invariant(out, bank_v2)


def test_interpret_identity_bumps_version(bank_record, bank_v1):
    t = generate_transformer(diff_schemas(bank_v1, bank_v1.with_version(2)))
    out = interpret_transformer(t, bank_record, {}, new_schema=bank_v1.with_version(2))
    assert out.fields == bank_record.fields
    assert list(out.fields) == list(bank_v1.attribute_names())  # field order follows the schema
    assert out.version == 2
    assert out.id == bank_record.id


def test_interpret_missing_input(bank_record, bank_v1, bank_v2):
    t = generate_transformer(diff_schemas(bank_v1, bank_v2))
    with pytest.raises(MissingInput):
        interpret_transformer(t, bank_record, {}, new_schema=bank_v2)


def test_interpret_conversion_failure(bank_v1, bank_v2):
    t = generate_transformer(diff_schemas(bank_v1, bank_v2))
    record = ObjectRecord(
        0,
        "BANK_ACCOUNT",
        1,
        {"tot_deposits": 1, "tot_withdrawals": 0, "info": "abc"},
    )
    with pytest.raises(ConversionFailure):
        interpret_transformer(t, record, {"balance": 1}, new_schema=bank_v2)


@pytest.mark.parametrize("check_attached", [True, False])
def test_a_real_past_64_bits_fails_its_conversion_to_an_integer(check_attached):
    new = parse_schema("version 2 class C feature x: INTEGER end")
    t = parse_transformer("transform C from 1 to 2\n  Result.x := convert REAL_TO_INTEGER (1.0e19)\nend\n")
    with pytest.raises(ConversionFailure) as exc:
        interpret_transformer(t, ObjectRecord(0, "C", 1, {}), {}, new_schema=new,
                              check_attached=check_attached)
    assert exc.value.cli_line() == "ConversionFailure REAL_TO_INTEGER 1.0e+19"


def test_check_attached_raises_on_void():
    old = parse_schema("class C feature owner: PERSON end")
    new = parse_schema("version 2 class C feature owner: attached PERSON end")
    t = generate_transformer(diff_schemas(old, new))
    record = ObjectRecord(0, "C", 1, {"owner": None})
    with pytest.raises(AttachmentViolation):
        interpret_transformer(t, record, {}, new_schema=new)
    unsafe = interpret_transformer(t, record, {}, new_schema=new, check_attached=False)
    assert unsafe.fields["owner"] is None


def test_unassigned_attribute_defaults_with_warning():
    t = parse_transformer("transform C from 1 to 2\n  noop\nend\n")
    new = parse_schema(
        "version 2 class C feature n: INTEGER r: REAL b: BOOLEAN s: STRING p: PERSON end"
    )
    record = ObjectRecord(0, "C", 1, {})
    warnings: list[str] = []
    out = interpret_transformer(t, record, {}, new_schema=new, warnings=warnings)
    assert repr(list(out.fields.items())) == repr([
        ("n", 0),
        ("r", 0.0),
        ("b", False),
        ("s", ""),
        ("p", None),
    ])
    assert len(warnings) == 5


def test_fields_follow_the_schema_whatever_order_the_steps_assign(
    bank_record, hand_fixed_transformer, bank_v2
):
    in_order = parse_transformer(
        "transform BANK_ACCOUNT from 1 to 2\n"
        "  Result.balance := oldc.tot_deposits - oldc.tot_withdrawals\n"
        "  Result.info := convert STRING_TO_INTEGER (oldc.info)\n"
        "end\n"
    )
    for t in (in_order, hand_fixed_transformer):  # the fixture assigns info first
        out = interpret_transformer(t, bank_record, {}, new_schema=bank_v2)
        assert list(out.fields.items()) == [("balance", 70), ("info", 42)]
    partial = parse_transformer(
        "transform BANK_ACCOUNT from 1 to 2\n"
        "  Result.info := convert STRING_TO_INTEGER (oldc.info)\n"
        "end\n"
    )
    warnings: list[str] = []
    out = interpret_transformer(partial, bank_record, {}, new_schema=bank_v2, warnings=warnings)
    assert list(out.fields.items()) == [("balance", 0), ("info", 42)]
    assert warnings == [
        "attribute 'balance' of BANK_ACCOUNT not assigned by the 1->2 transformer; default used"
    ]


def test_interpret_arithmetic_errors(bank_v2):
    t = parse_transformer(
        "transform BANK_ACCOUNT from 1 to 2\n  Result.balance := oldc.tot_deposits // 0\nend\n"
    )
    record = ObjectRecord(0, "BANK_ACCOUNT", 1, {"tot_deposits": 1})
    with pytest.raises(EvaluationError):
        interpret_transformer(t, record, {}, new_schema=bank_v2)
    t2 = parse_transformer(
        'transform BANK_ACCOUNT from 1 to 2\n  Result.balance := oldc.info + 1\nend\n'
    )
    record2 = ObjectRecord(0, "BANK_ACCOUNT", 1, {"info": "x"})
    with pytest.raises(EvaluationError):
        interpret_transformer(t2, record2, {}, new_schema=bank_v2)


def test_interpret_names_a_missing_old_field(bank_v2):
    t = parse_transformer(
        "transform BANK_ACCOUNT from 1 to 2\n  Result.balance := oldc.tot_deposits + 1\nend\n"
    )
    record = ObjectRecord(0, "BANK_ACCOUNT", 1, {"info": "x"})
    with pytest.raises(EvaluationError) as exc:
        interpret_transformer(t, record, {}, new_schema=bank_v2)
    assert (exc.value.index, exc.value.reason) == (0, "old record has no attribute 'tot_deposits'")


def test_interpret_rejects_unknown_target(bank_record, bank_v2):
    t = parse_transformer("transform BANK_ACCOUNT from 1 to 2\n  Result.ghost := 1\nend\n")
    with pytest.raises(EvaluationError):
        interpret_transformer(t, bank_record, {}, new_schema=bank_v2)


def test_interpret_checks_preconditions(bank_record, hand_fixed_transformer, bank_v2):
    wrong_version = ObjectRecord(0, "BANK_ACCOUNT", 2, bank_record.fields)
    with pytest.raises(ValueError):
        interpret_transformer(hand_fixed_transformer, wrong_version, {}, new_schema=bank_v2)


def test_type_default_strips_markers():
    assert repr(type_default(parse_type("attached INTEGER"))) == "0"
    assert type_default(parse_type("attached PERSON")) is None
    assert type_default(parse_type("ARRAY[INTEGER]")) is None


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


def test_retrieve_hand_fixed(bank_graph, bank_repo_hand_fixed):
    out = retrieve(bank_graph, bank_repo_hand_fixed, {"BANK_ACCOUNT": 2}, {})
    record = out.records[0]
    assert record.version == 2
    assert list(record.fields.items()) == [("balance", 70), ("info", 42)]
    # gate soundness: the retrieved record re-checks clean
    eval_invariant(record, bank_repo_hand_fixed.schema_for("BANK_ACCOUNT", 2))


def test_retrieve_generated_stub_violates_invariant(bank_graph, bank_repo):
    with pytest.raises(InvariantViolation) as exc:
        retrieve(bank_graph, bank_repo, {"BANK_ACCOUNT": 2}, {("BANK_ACCOUNT", "balance"): 0})
    err = exc.value
    assert (err.class_name, err.record_id, err.clause_tag) == ("BANK_ACCOUNT", 0, "valid_account")


def test_retrieve_without_assertions_emits_corrupt_object(bank_graph, bank_repo):
    out = retrieve(
        bank_graph,
        bank_repo,
        {"BANK_ACCOUNT": 2},
        {("BANK_ACCOUNT", "balance"): 0},
        assertions=False,
    )
    assert out.records[0].fields["balance"] == 0


def test_retrieve_transformation_missing(bank_graph, bank_v1, bank_v2, hand_fixed_transformer):
    repo = empty_repository("bank")
    repo, _ = release(repo, {"BANK_ACCOUNT": bank_v1})
    repo, _ = release(repo, {"BANK_ACCOUNT": bank_v2.with_version(1)})
    # backwards transformer exists, forward does not; handler set is nonempty
    backwards = parse_transformer(
        "transform BANK_ACCOUNT from 2 to 1\n  Result.info := convert INTEGER_TO_STRING (oldc.info)\nend\n"
    )
    repo = register_transformer(repo, backwards, overwrite=True)
    repo = without_handler(repo, "BANK_ACCOUNT", (1, 2))
    with pytest.raises(TransformationMissing) as exc:
        retrieve(bank_graph, repo, {"BANK_ACCOUNT": 2}, {})
    assert (exc.value.from_version, exc.value.to_version) == (1, 2)


def test_retrieve_handler_missing(bank_graph, bank_repo):
    bank_repo = without_handler(bank_repo, "BANK_ACCOUNT")
    with pytest.raises(HandlerMissing):
        retrieve(bank_graph, bank_repo, {"BANK_ACCOUNT": 2}, {})


def test_retrieve_at_target_checks_invariant_only(bank_repo_hand_fixed):
    bad = ObjectGraph(
        (
            ObjectRecord(
                0,
                "BANK_ACCOUNT",
                2,
                {"balance": 0, "info": 1},
            ),
        )
    )
    with pytest.raises(InvariantViolation):
        retrieve(bad, bank_repo_hand_fixed, {"BANK_ACCOUNT": 2}, {})


def test_retrieve_identity_when_everything_at_target(bank_repo_hand_fixed):
    graph = ObjectGraph(
        (ObjectRecord(0, "BANK_ACCOUNT", 2, {"balance": 5, "info": 1}),)
    )
    out = retrieve(graph, bank_repo_hand_fixed, {"BANK_ACCOUNT": 2}, {})
    assert out == graph


def test_retrieve_preserves_graph_shape(bank_v1, bank_v2, hand_fixed_transformer):
    repo = empty_repository("bank")
    holder = parse_schema("class HOLDER feature account: BANK_ACCOUNT mirror: HOLDER end")
    repo, _ = release(repo, {"BANK_ACCOUNT": bank_v1, "HOLDER": holder})
    repo, _ = release(repo, {"BANK_ACCOUNT": bank_v2.with_version(1), "HOLDER": holder})
    repo = register_transformer(repo, hand_fixed_transformer, overwrite=True)
    graph = ObjectGraph(
        (
            ObjectRecord(0, "HOLDER", 1, {"account": RefVal(1), "mirror": RefVal(2)}),
            ObjectRecord(
                1,
                "BANK_ACCOUNT",
                1,
                {"tot_deposits": 10, "tot_withdrawals": 3, "info": "9"},
            ),
            ObjectRecord(2, "HOLDER", 1, {"account": RefVal(1), "mirror": RefVal(0)}),
        )
    )
    out = retrieve(graph, repo, {"BANK_ACCOUNT": 2}, {})
    assert [r.id for r in out.records] == [0, 1, 2]
    assert out.records[0].fields == graph.records[0].fields  # refs untouched
    assert out.records[2].fields == graph.records[2].fields
    assert out.records[1].fields["balance"] == 7


def make_chain_repo(versions: int) -> tuple:
    """CHAIN class with ``versions`` releases, each adding one attribute, and
    forward transformers registered for consecutive versions only."""
    repo = empty_repository("chain")
    schemas = []
    text = "class CHAIN feature\n"
    for v in range(1, versions + 1):
        text += f"  f{v}: INTEGER\n"
        schemas.append(parse_schema(text + "end"))
        repo, _ = release(repo, {"CHAIN": schemas[-1].with_version(max(1, v - 1))})
    for v in range(1, versions):
        t = generate_transformer(diff_schemas(repo.schema_for("CHAIN", v), repo.schema_for("CHAIN", v + 1)))
        repo = register_transformer(repo, t, overwrite=True)
    return repo, schemas


def test_retrieve_multi_hop_composition():
    repo, _ = make_chain_repo(3)
    graph = ObjectGraph((ObjectRecord(0, "CHAIN", 1, {"f1": 1}),))
    inputs = {("CHAIN", "f2"): 2, ("CHAIN", "f3"): 3}
    out = retrieve(graph, repo, {"CHAIN": 3}, inputs)
    assert out.records[0].version == 3
    fields = out.records[0].fields
    assert list(fields.items()) == [("f1", 1), ("f2", 2), ("f3", 3)]


def test_retrieve_strict_direct_refuses_composition():
    repo, _ = make_chain_repo(3)
    graph = ObjectGraph((ObjectRecord(0, "CHAIN", 1, {"f1": 1}),))
    inputs = {("CHAIN", "f2"): 2, ("CHAIN", "f3"): 3}
    with pytest.raises(TransformationMissing) as exc:
        retrieve(graph, repo, {"CHAIN": 3}, inputs, allow_composition=False)
    assert (exc.value.from_version, exc.value.to_version) == (1, 3)
    direct = ObjectGraph((ObjectRecord(0, "CHAIN", 2, {"f1": 1, "f2": 2}),))
    out = retrieve(direct, repo, {"CHAIN": 3}, inputs, allow_composition=False)
    assert list(out.records[0].fields.items()) == [("f1", 1), ("f2", 2), ("f3", 3)]


def test_retrieve_composes_lexicographically_smallest_shortest_path():
    from escher.repository import _shortest_path

    edges = {(1, 2), (2, 4), (1, 3), (3, 4)}
    assert _shortest_path(edges, 1, 4) == [1, 2, 4]
    assert _shortest_path({(1, 2)}, 1, 2) == [1, 2]
    assert _shortest_path({(2, 1), (1, 3)}, 2, 3) == [2, 1, 3]


def _count_calls(monkeypatch, name: str) -> list[tuple]:
    calls: list[tuple] = []
    original = getattr(Repository, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Repository, name, counted)
    return calls


def test_retrieve_plans_each_class_and_stored_version_once_per_call(monkeypatch):
    repo, _ = make_chain_repo(4)
    stored = [1, 1, 2, 1, 4, 2, 3]
    graph = ObjectGraph(tuple(
        ObjectRecord(i, "CHAIN", v, {f"f{k}": k for k in range(1, v + 1)})
        for i, v in enumerate(stored)
    ))
    inputs = {("CHAIN", f"f{k}"): k for k in (2, 3, 4)}
    planned = _count_calls(monkeypatch, "handlers_for")
    schemas = _count_calls(monkeypatch, "schema_for")
    out = retrieve(graph, repo, {"CHAIN": 4}, inputs)
    assert planned == [("CHAIN",)] * 3  # stored versions 1, 2 and 3
    assert len(schemas) == sum((4 - v) + 1 for v in stored)  # each hop, then the gate
    expected = [(f"f{k}", k) for k in range(1, 5)]
    assert all(r.version == 4 and list(r.fields.items()) == expected for r in out.records)
    # a plan lives for one call: the next call sees a changed handler set,
    # which is a new Repository
    assert retrieve(graph, repo, {"CHAIN": 4}, inputs) == out
    assert len(planned) == 6
    repo = without_handler(repo, "CHAIN", (3, 4))
    with pytest.raises(TransformationMissing):
        retrieve(graph, repo, {"CHAIN": 4}, inputs)


@pytest.fixture
def mixed_repo():
    """A 1 -> 2 adds ``y`` (left to its default) and an invariant; B 1 -> 2
    has a forward transformer only; C never changes."""
    repo = empty_repository("mixed")
    repo, _ = release(repo, {
        "A": parse_schema("class A feature x: INTEGER end"),
        "B": parse_schema("class B feature n: INTEGER end"),
        "C": parse_schema("class C feature a: A end"),
    })
    repo, _ = release(repo, {
        "A": parse_schema("class A feature x: INTEGER y: INTEGER invariant pos: x >= 0 end"),
        "B": parse_schema("class B feature n: INTEGER m: INTEGER end"),
        "C": parse_schema("class C feature a: A end"),
    })
    a_hop = parse_transformer("transform A from 1 to 2\n  Result.x := oldc.x - 10\nend\n")
    b_hop = parse_transformer("transform B from 1 to 2\n  Result.n := oldc.n\n  Result.m := 0\nend\n")
    repo = register_transformer(repo, a_hop, overwrite=True)
    return register_transformer(repo, b_hop, overwrite=True)


def _mixed_graph(*specs: tuple[str, int, int]) -> ObjectGraph:
    records = []
    for i, (cls, version, value) in enumerate(specs):
        if cls == "A":
            fields = {"x": value}
        elif cls == "B":
            fields = {"n": value, **({"m": 0} if version == 2 else {})}
        else:
            fields = {"a": None}
        records.append(ObjectRecord(i, cls, version, fields))
    return ObjectGraph(tuple(records))


def test_retrieve_on_a_mixed_graph_names_the_failing_record(mixed_repo):
    targets = {"A": 2, "B": 2, "C": 1}
    graph = _mixed_graph(("A", 1, 20), ("C", 1, 0), ("B", 1, 1), ("A", 1, 30), ("A", 1, 5), ("B", 1, 2))
    warnings: list[str] = []
    with pytest.raises(InvariantViolation) as exc:
        retrieve(graph, mixed_repo, targets, warnings=warnings)
    assert (exc.value.class_name, exc.value.record_id, exc.value.clause_tag) == ("A", 4, "pos")
    assert len(warnings) == 3  # y defaulted in records 0, 3 and 4

    # the first record of a key with no path raises, after others of its class passed
    back = _mixed_graph(("B", 1, 1), ("A", 1, 20), ("B", 2, 3))
    with pytest.raises(TransformationMissing) as missing:
        retrieve(back, mixed_repo, {"A": 2, "B": 1})
    assert (missing.value.class_name, missing.value.from_version, missing.value.to_version) == ("B", 2, 1)

    mixed_repo = without_handler(mixed_repo, "B")
    warnings.clear()
    with pytest.raises(HandlerMissing) as no_handlers:
        retrieve(graph, mixed_repo, targets, warnings=warnings)
    assert no_handlers.value.class_name == "B"
    assert len(warnings) == 1  # only record 0 was migrated before record 2


def test_retrieve_warns_once_per_defaulted_attribute_per_record(mixed_repo):
    graph = _mixed_graph(*[("A", 1, v) for v in (10, 11, 12, 13)], ("B", 1, 1), ("C", 1, 0))
    warnings: list[str] = []
    out = retrieve(graph, mixed_repo, {"A": 2, "B": 2}, warnings=warnings)
    assert len(warnings) == 4
    assert [r.fields["x"] for r in out.records[:4]] == [0, 1, 2, 3]
    assert list(out.records[4].fields.items()) == [("n", 1), ("m", 0)]


def test_integer_quotient_outside_64_bits_is_an_evaluation_error():
    t = parse_transformer("transform C from 1 to 2\n  Result.q := oldc.x // -1\nend\n")
    new = parse_schema("version 2 class C feature q: INTEGER end")
    record = ObjectRecord(0, "C", 1, {"x": -(2**63)})
    with pytest.raises(EvaluationError, match="integer overflow"):
        interpret_transformer(t, record, {}, new_schema=new)
    with pytest.raises(TypeMismatchInInvariant):
        eval_clause("class C feature x: INTEGER invariant q: x // -1 > 0 end", x=-(2**63))


# ---------------------------------------------------------------------------
# generated hops and gates: once per object, on first use, unseen
# ---------------------------------------------------------------------------


def _count_gates(monkeypatch) -> list:
    """The schema of each gate generated."""
    gated: list = []
    original = objects.generate_gate

    def counted(schema):
        gated.append(schema)
        return original(schema)

    monkeypatch.setattr(objects, "generate_gate", counted)
    return gated


def _count_builds(monkeypatch) -> list:
    """``(transformer, attribute order)`` per hop function generated."""
    builds: list = []
    original = objects.generate_hop

    def counted(t, order, attached):
        builds.append((t, order))
        return original(t, order, attached)

    monkeypatch.setattr(objects, "generate_hop", counted)
    return builds


def test_loading_a_project_builds_no_gate(bank_project, bank_graph, monkeypatch):
    gated = _count_gates(monkeypatch)
    repo = load_repository(bank_project)
    assert gated == []
    retrieve(bank_graph, repo, {"BANK_ACCOUNT": 2})
    assert gated == [repo.schema_for("BANK_ACCOUNT", 2)]


def test_retrieve_builds_each_transformer_hop_and_gate_once(mixed_repo, monkeypatch):
    gated, builds = _count_gates(monkeypatch), _count_builds(monkeypatch)
    graph = _mixed_graph(("A", 1, 10), ("A", 1, 11), ("B", 1, 1), ("B", 2, 2), ("C", 1, 0))
    first = retrieve(graph, mixed_repo, {"A": 2, "B": 2})
    assert retrieve(graph, mixed_repo, {"A": 2, "B": 2}) == first
    a_hop = mixed_repo.handlers_for("A")[(1, 2)]
    b_hop = mixed_repo.handlers_for("B")[(1, 2)]
    # one function per hop, A's with y's default built in
    assert [(id(t), order) for t, order in builds] == [(id(a_hop), ("x", "y")), (id(b_hop), ("n", "m"))]
    assert [len(t.hops) for t in (a_hop, b_hop)] == [1, 1]
    # one gate per schema a record is checked against, on its first record
    schemas = [mixed_repo.schema_for(*key) for key in (("A", 2), ("B", 2), ("C", 1))]
    assert [id(s) for s in gated] == [id(s) for s in schemas]


def test_retrieve_builds_each_hop_of_a_composed_path_once(monkeypatch):
    repo, _ = make_chain_repo(4)
    gated, builds = _count_gates(monkeypatch), _count_builds(monkeypatch)
    graph = ObjectGraph(tuple(
        ObjectRecord(i, "CHAIN", v, {f"f{k}": k for k in range(1, v + 1)})
        for i, v in enumerate([1, 2, 1, 3])
    ))
    inputs = {("CHAIN", f"f{k}"): k for k in (2, 3, 4)}
    for _ in range(2):
        retrieve(graph, repo, {"CHAIN": 4}, inputs)
    hops = [repo.handlers_for("CHAIN")[(v, v + 1)] for v in (1, 2, 3)]
    orders = [tuple(f"f{k}" for k in range(1, v + 2)) for v in (1, 2, 3)]
    assert [(id(t), order) for t, order in builds] == [(id(t), order) for t, order in zip(hops, orders)]
    assert [id(s) for s in gated] == [id(repo.schema_for("CHAIN", 4))]  # the last hop's only


def test_a_generated_function_is_not_part_of_the_value(monkeypatch):
    gated, builds = _count_gates(monkeypatch), _count_builds(monkeypatch)
    text = "transform A from 1 to 2\n  Result.x := oldc.x - 10\nend\n"
    schema_text = "version 2 class A feature x: INTEGER invariant pos: x >= 0 end"
    t, schema = parse_transformer(text), parse_schema(schema_text)
    seen = [(obj, repr(obj), hash(obj)) for obj in (t, schema)]
    old = ObjectRecord(0, "A", 1, {"x": 15})
    eval_invariant(interpret_transformer(t, old, {}, new_schema=schema), schema)
    assert (len(builds), len(gated)) == (1, 1)  # the hop and the gate are generated
    for obj, text_form, digest in seen:
        assert (repr(obj), hash(obj)) == (text_form, digest)
        assert replace(obj) == obj
    assert (t, schema) == (parse_transformer(text), parse_schema(schema_text))
    again = interpret_transformer(replace(t), old, {}, new_schema=replace(schema))
    eval_invariant(again, replace(schema))
    assert (len(builds), len(gated)) == (2, 2)  # a replaced object builds afresh
    interpret_transformer(t, old, {}, new_schema=schema)
    interpret_transformer(t, old, {}, new_schema=replace(schema))  # one attribute order
    eval_invariant(again, schema)
    assert (len(builds), len(gated)) == (2, 2)
    interpret_transformer(t, old, {}, new_schema=schema, check_attached=False)
    assert (len(builds), len(gated)) == (2, 2)  # checks on or off, one function


def test_a_hand_built_literal_outside_64_bits_fails_where_it_is_first_used():
    # no ``exprs.Lit`` can hold what no value can: an integer outside 64
    # bits, a real that is not finite, or anything but a value
    for bad, reason in [(2**63, "integer out of 64-bit range"), (float("inf"), "non-finite real"),
                        (object(), "not an object value")]:
        with pytest.raises(ValueError, match=reason):
            exprs.Lit(bad)
