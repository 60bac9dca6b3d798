"""Field values are plain Python values, and kinds stay apart.

Python has ``1 == 1.0 == True``. The language does not: a literal, a record
and a schema's invariant tell an integer, a real and a boolean apart, and
void (``None``) is a value, not a missing one.
"""

from __future__ import annotations

import itertools

import pytest

from conftest import BANK_OBJECT_TEXT, run_cli
from escher import exprs
from escher.errors import EvaluationError, InvariantViolation
from escher.objects import ObjectGraph, ObjectRecord, eval_invariant, interpret_transformer, retrieve
from escher.repository import empty_repository, release, save_repository
from escher.schema import parse_schema
from escher.transformer import parse_transformer


def _cut(invariant: str, then: str):
    def schema(body: str):
        return parse_schema(f"class C feature x: INTEGER invariant c: {body} end")

    repo, _ = release(empty_repository("kinds"), {"C": schema(invariant)})
    return release(repo, {"C": schema(then)})


def test_a_literal_of_another_kind_in_an_invariant_cuts_a_release():
    for before, after in [("x > 1", "x > 1.0"), ("x = 1", "x = true"), ("x = 0", "x = false")]:
        repo, report = _cut(before, after)
        assert not report.noop, (before, after)
        assert report.bumped == (("C", 1, 2),)
        assert repo.latest_version("C") == 2
    _, report = _cut("x > 1", "x > 1")
    assert report.noop


def test_literals_of_different_kinds_are_unequal_and_hash_apart():
    lits = [exprs.Lit(1), exprs.Lit(1.0), exprs.Lit(True)]
    for a, b in itertools.combinations(lits, 2):
        assert a != b
    assert len(set(lits)) == 3
    assert exprs.Lit(1) == exprs.Lit(1) and hash(exprs.Lit(1)) == hash(exprs.Lit(1))


def test_records_of_different_kinds_are_pairwise_unequal():
    records = [ObjectRecord(0, "C", 1, {"x": value}) for value in (1, 1.0, True)]
    for a, b in itertools.combinations(records, 2):
        assert a != b
    assert records[0] == ObjectRecord(0, "C", 1, {"x": 1})
    assert ObjectRecord(0, "C", 1, {"x": None}) != ObjectRecord(0, "C", 1, {"x": 0})


def test_a_void_field_is_present_to_oldc_and_to_an_invariant():
    t = parse_transformer("transform C from 1 to 2\n  Result.y := oldc.x\nend\n")
    new = parse_schema("version 2 class C feature y: INTEGER z: INTEGER end")
    old = ObjectRecord(0, "C", 1, {"x": None})
    warnings: list[str] = []
    migrated = interpret_transformer(t, old, {}, new_schema=new, warnings=warnings)
    # y is assigned void, not defaulted to 0 as the unassigned z is
    assert repr(dict(migrated.fields)) == "{'y': None, 'z': 0}"
    assert [w.split()[1] for w in warnings] == ["'z'"]
    schema = parse_schema("class C feature x: PERSON invariant set: x /= Void end")
    with pytest.raises(InvariantViolation) as exc:  # a false clause, not a missing attribute
        eval_invariant(old, schema)
    assert exc.value.cli_line() == "InvariantViolation C 0 set"
    with pytest.raises(EvaluationError, match="old record has no attribute 'x'"):
        interpret_transformer(t, ObjectRecord(0, "C", 1, {}), {}, new_schema=new)


def test_a_void_input_is_used_and_not_missing(bank_repo, tmp_path):
    project = tmp_path / "bank"
    save_repository(bank_repo, project)
    obj = tmp_path / "bank.eso"
    obj.write_text(BANK_OBJECT_TEXT, encoding="utf-8")
    code, out, err = run_cli(
        "migrate", str(obj), "--to-release", "2", "--no-assert",
        "--inputs", "BANK_ACCOUNT.balance=Void", "--project", str(project),
    )
    assert (code, err) == (0, "")
    assert "  balance: NONE = Void\n" in out


def test_a_library_input_or_field_no_value_can_hold_is_refused(bank_graph, bank_repo):
    for bad in (2**63, float("nan"), 1j):
        with pytest.raises(ValueError):
            retrieve(bank_graph, bank_repo, {"BANK_ACCOUNT": 2}, {("BANK_ACCOUNT", "balance"): bad})
        with pytest.raises(ValueError):
            ObjectGraph((ObjectRecord(0, "C", 1, {"x": bad}),))
