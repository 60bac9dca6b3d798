"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <n> PASS|FAIL`` line (run with ``-s``
to see them live). Tolerances and sample sizes are pinned here, not
configurable.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from functools import wraps
from pathlib import Path

from conftest import BANK_OBJECT_TEXT, FIXTURES, run_cli
from escher import exprs
from escher.errors import InvariantViolation, TransformationMissing
from escher.objects import (
    ObjectGraph,
    ObjectRecord,
    deserialize,
    eval_invariant,
    interpret_transformer,
    retrieve,
    serialize,
)
from escher.per import parse_history_file, per_class, per_release, transitive_closure
from escher.repository import empty_repository, register_transformer, release, save_repository
from escher.schema import parse_schema, render_schema
from escher.smo import (
    Added,
    Removed,
    TypeChanged,
    apply_transformation,
    completeness_witness,
    diff_schemas,
)
from escher.transformer import (
    Assign,
    generate_transformer,
    parse_transformer,
    render_transformer,
)
from helpers import (
    attribute_sets_match,
    random_graph,
    random_schema,
    random_schema_pair,
    without_handler,
)

from test_per import JAVA_UTIL_PER, closure_oracle


def criterion(number: int, title: str):
    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL {title}")
                raise
            elapsed = time.perf_counter() - started
            print(f"\nACCEPTANCE {number} PASS {title} ({elapsed:.2f}s)")

        return wrapper

    return decorate


BANK_V1 = parse_schema((FIXTURES / "bank_account_v1.esc").read_text(encoding="utf-8"))
BANK_V2 = parse_schema((FIXTURES / "bank_account_v2.esc").read_text(encoding="utf-8"))
HAND_FIXED = parse_transformer((FIXTURES / "bank_account_1_to_2.est").read_text(encoding="utf-8"))


@criterion(1, "BANK_ACCOUNT golden scenario")
def test_criterion_1_bank_account_scenario():
    started = time.perf_counter()
    ct = diff_schemas(BANK_V1, BANK_V2)
    assert ct.smos == (
        TypeChanged("info", BANK_V1.get_attribute("info").declared_type,
                    BANK_V2.get_attribute("info").declared_type),
        Removed("tot_deposits", BANK_V1.get_attribute("tot_deposits").declared_type),
        Removed("tot_withdrawals", BANK_V1.get_attribute("tot_withdrawals").declared_type),
        Added(BANK_V2.get_attribute("balance")),
    )
    generated = generate_transformer(ct)
    converted = exprs.Convert("STRING_TO_INTEGER", exprs.OldField("info"))
    assert Assign("info", converted) in generated.instructions
    assert Assign("balance", exprs.InputRef("balance")) in generated.instructions

    stored = ObjectRecord(
        0, "BANK_ACCOUNT", 1,
        {"tot_deposits": 100, "tot_withdrawals": 30, "info": "42"},
    )
    migrated = interpret_transformer(HAND_FIXED, stored, {}, new_schema=BANK_V2)
    assert migrated.fields == {"balance": 70, "info": 42}
    eval_invariant(migrated, BANK_V2)

    repo = empty_repository("bank")
    repo, _ = release(repo, {"BANK_ACCOUNT": BANK_V1})
    repo, _ = release(repo, {"BANK_ACCOUNT": BANK_V2.with_version(1)})
    graph = ObjectGraph((stored,))
    try:
        retrieve(graph, repo, {"BANK_ACCOUNT": 2}, {("BANK_ACCOUNT", "balance"): 0})
        raise AssertionError("default-initialized balance must violate the invariant")
    except InvariantViolation as err:
        assert err.clause_tag == "valid_account"

    repo = register_transformer(repo, HAND_FIXED, overwrite=True)
    healed = retrieve(graph, repo, {"BANK_ACCOUNT": 2}, {})
    assert healed.records[0].fields == {"balance": 70, "info": 42}
    assert time.perf_counter() - started < 1.0


@criterion(2, "PER reproduction (Tables 3 and 4, worked examples)")
def test_criterion_2_per_reproduction():
    started = time.perf_counter()
    histories = parse_history_file((FIXTURES / "java_util.hist").read_text(encoding="utf-8"))
    by_name = {h.class_name: h for h in histories}
    assert per_class(by_name["ArrayList"]) == Fraction(1, 5)  # 0.20 exactly

    from escher.per import EvolutionHistory

    two = EvolutionHistory("BANK_ACCOUNT", 2, frozenset({(1, 2)}))
    assert per_class(two) == Fraction(1, 2)
    chain = EvolutionHistory("CHAIN", 5, frozenset((i, i + 1) for i in range(1, 5)))
    assert per_class(chain) == Fraction(1, 2)

    for h in histories:
        assert f"{float(per_class(h)):.2f}" == JAVA_UTIL_PER[h.class_name]
    assert abs(float(per_release(histories)) - 0.48) <= 0.005
    assert time.perf_counter() - started < 1.0


@criterion(3, "diff/apply completeness over 1000 random schema pairs")
def test_criterion_3_diff_apply_completeness():
    started = time.perf_counter()
    rng = random.Random(193939)
    for _ in range(1000):
        old, new = random_schema_pair(rng)
        inferred = diff_schemas(old, new)
        applied = apply_transformation(old, inferred.smos, drop_dangling_clauses=True)
        assert attribute_sets_match(applied, new)
        witness = completeness_witness(old, new)
        rebuilt = apply_transformation(old, witness.smos, drop_dangling_clauses=True)
        assert attribute_sets_match(rebuilt, new)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(4, "closure oracle equivalence and chain law")
def test_criterion_4_closure_oracle():
    rng = random.Random(606060)

    def check(m: int, edges: frozenset[tuple[int, int]]) -> None:
        assert transitive_closure(edges) == closure_oracle(edges)

    # exhaustive for m <= 4 (4 + 64 + 4096 edge sets)
    for m in (2, 3, 4):
        pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
        for bits in itertools.product([0, 1], repeat=len(pairs)):
            check(m, frozenset(p for p, bit in zip(pairs, bits) if bit))
    # random sampling for m in (5, 6), mixed densities, plus the extremes
    samples = 0
    for m in (5, 6):
        pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
        check(m, frozenset())
        check(m, frozenset(pairs))
        for _ in range(47_500):
            density = rng.choice([0.05, 0.1, 0.2, 0.35, 0.5])
            check(m, frozenset(p for p in pairs if rng.random() < density))
            samples += 1
    assert samples == 95_000  # plus 4162 exhaustive sets above stays within 10^5 random

    from escher.per import EvolutionHistory

    for m in range(2, 13):
        chain = EvolutionHistory("CHAIN", m, frozenset((i, i + 1) for i in range(1, m)))
        assert per_class(chain) == Fraction(1, 2)


@criterion(5, "retrieval error taxonomy with documented exit codes")
def test_criterion_5_error_taxonomy(tmp_path):
    obj = tmp_path / "account.eso"
    obj.write_text(BANK_OBJECT_TEXT, encoding="utf-8")

    def project_with(handler_lines: bool, transformer: bool) -> Path:
        repo = empty_repository("bank")
        repo, _ = release(repo, {"BANK_ACCOUNT": BANK_V1})
        repo, _ = release(repo, {"BANK_ACCOUNT": BANK_V2.with_version(1)})
        if not transformer:
            repo = without_handler(repo, "BANK_ACCOUNT", (1, 2))
        if not handler_lines:
            repo = without_handler(repo, "BANK_ACCOUNT")
        target = tmp_path / f"proj_{handler_lines}_{transformer}"
        save_repository(repo, target)
        if not handler_lines:
            import shutil

            shutil.rmtree(target / "handlers", ignore_errors=True)
        return target

    # case 1: no handler at all
    code, out, _ = run_cli(
        "migrate", str(obj), "--to-release", "2", "--project", str(project_with(False, False))
    )
    assert code == 1 and out.splitlines()[0] == "HandlerMissing BANK_ACCOUNT"
    # case 2: handler exists, transformation does not
    code, out, _ = run_cli(
        "migrate", str(obj), "--to-release", "2", "--project", str(project_with(True, False))
    )
    assert code == 1 and out.splitlines()[0] == "TransformationMissing BANK_ACCOUNT 1 2"
    # case 3: transformation exists, invariant violated
    stub_project = project_with(True, True)
    args = (
        "migrate", str(obj), "--to-release", "2",
        "--inputs", "BANK_ACCOUNT.balance=0", "--project", str(stub_project),
    )
    code, out, _ = run_cli(*args)
    assert code == 1 and out.splitlines()[0] == "InvariantViolation BANK_ACCOUNT 0 valid_account"
    # with assertions off, the corrupt object is accepted and emitted
    code, out, _ = run_cli(*args, "--no-assert")
    assert code == 0
    assert deserialize(out).records[0].fields["balance"] == 0


@criterion(6, "serialization and text-format round-trips")
def test_criterion_6_round_trips():
    rng = random.Random(280284)
    for _ in range(1000):
        graph = random_graph(rng)
        assert deserialize(serialize(graph)) == graph
    for i in range(300):
        schema = random_schema(rng, name=f"RT_{i}", allow_invariant=True)
        text = render_schema(schema)
        assert parse_schema(text) == schema
        assert render_schema(parse_schema(text)) == text  # token-identical
    for _ in range(300):
        old, new = random_schema_pair(rng)
        t = generate_transformer(diff_schemas(old, new))
        text = render_transformer(t)
        assert parse_transformer(text) == t
        assert render_transformer(parse_transformer(text)) == text
    hand = (
        "transform BANK_ACCOUNT from 1 to 2\n"
        "  Result.info := convert STRING_TO_INTEGER (oldc.info)\n"
        "  Result.balance := (oldc.tot_deposits - oldc.tot_withdrawals) * 1 + 0\n"
        "end\n"
    )
    assert render_transformer(parse_transformer(hand)) == hand


@criterion(7, "multi-hop migration composes unless strict-direct")
def test_criterion_7_multi_hop(tmp_path):
    repo = empty_repository("chain")
    texts = [
        "class CHAIN feature\n  f1: INTEGER\nend",
        "class CHAIN feature\n  f1: INTEGER\n  f2: INTEGER\nend",
        "class CHAIN feature\n  f1: INTEGER\n  f2: INTEGER\n  f3: INTEGER\nend",
    ]
    for i, text in enumerate(texts):
        repo, _ = release(repo, {"CHAIN": parse_schema(text).with_version(max(1, i))})
    for v in (1, 2):
        ct = diff_schemas(repo.schema_for("CHAIN", v), repo.schema_for("CHAIN", v + 1))
        repo = register_transformer(repo, generate_transformer(ct), overwrite=True)
    assert repo.transformer_pairs("CHAIN") == {(1, 2), (2, 3)}  # no direct 1->3

    graph = ObjectGraph((ObjectRecord(0, "CHAIN", 1, {"f1": 1}),))
    inputs = {("CHAIN", "f2"): 2, ("CHAIN", "f3"): 3}
    migrated = retrieve(graph, repo, {"CHAIN": 3}, inputs)
    assert migrated.records[0].version == 3
    assert migrated.records[0].fields == {"f1": 1, "f2": 2, "f3": 3}
    try:
        retrieve(graph, repo, {"CHAIN": 3}, inputs, allow_composition=False)
        raise AssertionError("strict-direct mode must refuse composition")
    except TransformationMissing as err:
        assert (err.from_version, err.to_version) == (1, 3)
