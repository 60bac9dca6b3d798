from __future__ import annotations

import random

import pytest

from escher.errors import (
    InvariantDanglesAfterRemoval,
    MismatchedClassIdentity,
    PremiseViolated,
)
from escher.schema import (
    Attached,
    Attribute,
    ClassType,
    Detachable,
    parse_schema,
    type_equal,
)
from escher.smo import (
    Added,
    AttachAdded,
    NoChange,
    Removed,
    Renamed,
    TypeChanged,
    apply_smo,
    apply_transformation,
    completeness_witness,
    diff_schemas,
    render_smo_report,
)
from helpers import attribute_sets_match, random_schema_pair

INT = ClassType("INTEGER")
STR = ClassType("STRING")


def smo_kinds(transformation):
    return [type(s).__name__ for s in transformation.smos]


def test_no_change_is_identity(bank_v1):
    out = apply_smo(bank_v1, NoChange(Attribute("info", STR)))
    assert out is bank_v1


def test_added_appends_last():
    schema = parse_schema("class C feature x: INTEGER end")
    out = apply_smo(schema, Added(Attribute("y", STR)))
    assert out.attribute_names() == ("x", "y")


def test_bank_removals_then_addition(bank_v1):
    smos = [
        Removed("tot_deposits", INT),
        Removed("tot_withdrawals", INT),
        Added(Attribute("balance", INT)),
    ]
    out = apply_transformation(bank_v1, smos, drop_dangling_clauses=True)
    assert set(out.attribute_names()) == {"info", "balance"}


def test_empty_transformation_is_identity(bank_v1):
    assert apply_transformation(bank_v1, []) == bank_v1


def test_add_then_remove_restores_attribute_set(bank_v1):
    smos = [Added(Attribute("x", INT)), Removed("x", INT)]
    out = apply_transformation(bank_v1, smos)
    assert out.attribute_names() == bank_v1.attribute_names()


def test_renamed_replaces_in_place():
    schema = parse_schema("class C feature a: INTEGER b: STRING end")
    out = apply_smo(schema, Renamed("a", "c", INT))
    assert out.attribute_names() == ("c", "b")
    assert out.attributes[0].declared_type == INT


def test_type_changed_replaces_in_place(bank_v1):
    out = apply_smo(bank_v1, TypeChanged("info", STR, INT))
    assert out.attribute_names() == bank_v1.attribute_names()
    assert out.get_attribute("info").declared_type == INT


def test_attach_added_wraps_type():
    schema = parse_schema("class C feature owner: PERSON end")
    out = apply_smo(schema, AttachAdded("owner", ClassType("PERSON")))
    assert out.get_attribute("owner").declared_type == Attached(ClassType("PERSON"))
    detachable = parse_schema("class C feature owner: detachable PERSON end")
    out2 = apply_smo(detachable, AttachAdded("owner", ClassType("PERSON")))
    assert out2.get_attribute("owner").declared_type == Attached(ClassType("PERSON"))


def test_attach_added_premise_rejects_already_attached():
    schema = parse_schema("class C feature owner: attached PERSON end")
    with pytest.raises(PremiseViolated):
        apply_smo(schema, AttachAdded("owner", ClassType("PERSON")))


@pytest.mark.parametrize(
    "smo",
    [
        Added(Attribute("info", STR)),  # already present
        Removed("missing", INT),
        TypeChanged("info", INT, STR),  # wrong old type
        Renamed("info", "tot_deposits", STR),  # collision
        NoChange(Attribute("info", INT)),  # wrong stated type
    ],
)
def test_premise_violations(bank_v1, smo):
    with pytest.raises(PremiseViolated):
        apply_smo(bank_v1, smo)


def test_failing_index_is_reported(bank_v1):
    smos = [NoChange(Attribute("info", STR)), Removed("missing", INT)]
    with pytest.raises(PremiseViolated) as exc:
        apply_transformation(bank_v1, smos)
    assert exc.value.smo_index == 1


def test_dangling_invariant_is_an_error_by_default(bank_v1):
    with pytest.raises(InvariantDanglesAfterRemoval):
        apply_smo(bank_v1, Removed("tot_deposits", INT))


def test_dangling_invariant_dropped_with_flag(bank_v1):
    warnings: list[str] = []
    out = apply_smo(
        bank_v1, Removed("tot_deposits", INT), drop_dangling_clauses=True, warnings=warnings
    )
    assert not out.invariant
    assert warnings and "valid_account" in warnings[0]


def test_rename_dangles_too():
    schema = parse_schema("class C feature x: INTEGER invariant pos: x > 0 end")
    with pytest.raises(InvariantDanglesAfterRemoval):
        apply_smo(schema, Renamed("x", "y", INT))


def test_smo_invariants():
    with pytest.raises(ValueError):
        Renamed("a", "a", INT)
    with pytest.raises(ValueError):
        TypeChanged("a", INT, Detachable(INT))  # equal modulo default attachment
    with pytest.raises(ValueError):
        AttachAdded("a", Attached(ClassType("PERSON")))


# ---------------------------------------------------------------------------
# diff heuristics
# ---------------------------------------------------------------------------


def test_diff_bank_account_golden(bank_v1, bank_v2):
    ct = diff_schemas(bank_v1, bank_v2)
    assert ct.smos == (
        TypeChanged("info", STR, INT),
        Removed("tot_deposits", INT),
        Removed("tot_withdrawals", INT),
        Added(Attribute("balance", INT)),
    )
    assert render_smo_report(ct) == (
        "smo type_changed info STRING -> INTEGER\n"
        "smo removed tot_deposits INTEGER\n"
        "smo removed tot_withdrawals INTEGER\n"
        "smo added balance INTEGER\n"
    )


def test_diff_identical_is_all_no_change(bank_v1):
    ct = diff_schemas(bank_v1, bank_v1)
    assert smo_kinds(ct) == ["NoChange"] * 3
    assert [s.attribute.name for s in ct.smos] == list(bank_v1.attribute_names())


def test_diff_detects_attach_added():
    old = parse_schema("class C feature owner: PERSON end")
    new = parse_schema("version 2 class C feature owner: attached PERSON end")
    ct = diff_schemas(old, new)
    assert ct.smos == (AttachAdded("owner", ClassType("PERSON")),)


def test_diff_attachment_weakening_is_no_change_with_note():
    old = parse_schema("class C feature owner: attached PERSON end")
    new = parse_schema("version 2 class C feature owner: detachable PERSON end")
    ct = diff_schemas(old, new)
    assert smo_kinds(ct) == ["NoChange"]
    assert ct.notes and "weakened" in ct.notes[0]


def test_diff_unique_pairing_gives_rename_candidate():
    old = parse_schema("class C feature count: INTEGER label: STRING end")
    new = parse_schema("version 2 class C feature total: INTEGER label: STRING end")
    ct = diff_schemas(old, new)
    renames = [s for s in ct.smos if isinstance(s, Renamed)]
    assert renames == [Renamed("count", "total", INT, candidate=True)]


def test_diff_two_removed_one_added_is_not_a_rename(bank_v1, bank_v2):
    # two INTEGER attributes disappear, one INTEGER attribute appears
    ct = diff_schemas(bank_v1, bank_v2)
    assert not [s for s in ct.smos if isinstance(s, Renamed)]


def test_diff_multiple_unique_pairs_rename_per_type():
    old = parse_schema("class C feature a: INTEGER b: STRING end")
    new = parse_schema("version 2 class C feature c: INTEGER d: STRING end")
    ct = diff_schemas(old, new)
    assert set(smo_kinds(ct)) == {"Renamed"}
    assert {(s.old_name, s.new_name) for s in ct.smos} == {("a", "c"), ("b", "d")}


def test_diff_rename_grouping_uses_type_equal():
    old = parse_schema("class C feature a: detachable PERSON end")
    new = parse_schema("version 2 class C feature b: PERSON end")
    ct = diff_schemas(old, new)
    assert smo_kinds(ct) == ["Renamed"]


def test_diff_identity_mismatch():
    a = parse_schema("class A feature end")
    b = parse_schema("class B feature end")
    with pytest.raises(MismatchedClassIdentity):
        diff_schemas(a, b)
    c = parse_schema("class A [G] feature end")
    with pytest.raises(MismatchedClassIdentity):
        diff_schemas(a, c)


def test_diff_order_is_fixed():
    old = parse_schema(
        "class C feature keep: STRING retype: INTEGER gone: WIDGET old_name: PERSON end"
    )
    new = parse_schema(
        "version 2 class C feature fresh: BOOLEAN new_name: PERSON retype: REAL keep: STRING end"
    )
    ct = diff_schemas(old, new)
    assert smo_kinds(ct) == ["NoChange", "TypeChanged", "Renamed", "Removed", "Added"]


def test_diff_no_duplicate_targets():
    rng = random.Random(77)
    for _ in range(100):
        old, new = random_schema_pair(rng)
        ct = diff_schemas(old, new)
        targets = []
        for s in ct.smos:
            if isinstance(s, (NoChange, Added)):
                targets.append(s.attribute.name)
            elif isinstance(s, Renamed):
                targets.append(s.new_name)
            elif isinstance(s, (TypeChanged, AttachAdded)):
                targets.append(s.name)
        assert len(targets) == len(set(targets))


def test_diff_soundness_property():
    rng = random.Random(90125)
    for _ in range(150):
        old, new = random_schema_pair(rng)
        ct = diff_schemas(old, new)
        applied = apply_transformation(old, ct.smos, drop_dangling_clauses=True)
        assert attribute_sets_match(applied, new)


def test_completeness_witness_bank(bank_v1, bank_v2):
    ct = completeness_witness(bank_v1, bank_v2)
    assert smo_kinds(ct) == ["Removed"] * 3 + ["Added"] * 2
    applied = apply_transformation(bank_v1, ct.smos, drop_dangling_clauses=True)
    assert set(applied.attribute_names()) == {"balance", "info"}
    assert type_equal(applied.get_attribute("info").declared_type, INT)


def test_completeness_witness_empty():
    empty = parse_schema("class C feature end")
    assert completeness_witness(empty, empty).smos == ()


def test_completeness_witness_property():
    rng = random.Random(424242)
    for _ in range(150):
        old, new = random_schema_pair(rng)
        ct = completeness_witness(old, new)
        applied = apply_transformation(old, ct.smos, drop_dangling_clauses=True)
        assert attribute_sets_match(applied, new)


def test_an_smo_list_that_misses_the_target_does_not_match_it():
    old = parse_schema("class C feature x: INTEGER end")
    new = parse_schema("version 2 class C feature y: STRING end")
    applied = apply_transformation(old, (NoChange(Attribute("x", INT)),))
    assert not attribute_sets_match(applied, new)


def test_renamed_report_line():
    old = parse_schema("class C feature a: INTEGER end")
    new = parse_schema("version 2 class C feature b: INTEGER end")
    report = render_smo_report(diff_schemas(old, new))
    assert report == "smo renamed a -> b INTEGER candidate\n"
