"""Tests of the benchmark itself: seeded inputs, the oracle, the outcome
check and the tracing harness.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from escher import objects, repository  # noqa: E402


class TinyChain(workloads.ChainSmall):
    graphs = 80
    cli_records = 40
    trace_ops = 60
    warmup_ops = 2


def release_snapshot(seed: int):
    r = generate.release_inputs(seed, 4, 6, 20, 2, 2)
    return (r.base.files(), [(op.kind, op.expected, op.working_set) for op in r.ops], r.ledger_eso, r.hist)


def test_same_seed_gives_byte_identical_inputs():
    a, b = generate.bank_inputs(7, 500), generate.bank_inputs(7, 500)
    assert (a.eso, a.expected, a.project.files()) == (b.eso, b.expected, b.project.files())
    assert generate.bank_inputs(8, 500).eso != a.eso

    a, b = generate.chain_inputs(7, 50), generate.chain_inputs(7, 50)
    assert a.project.files() == b.project.files()
    assert [(c.eso, c.expected) for c in a.cases] == [(c.eso, c.expected) for c in b.cases]
    assert generate.chain_inputs(8, 50).cases[0].eso != a.cases[0].eso

    assert release_snapshot(7) == release_snapshot(7)
    assert release_snapshot(8) != release_snapshot(7)


def test_oracle_reproduces_the_readme_example():
    record = generate.bank_account_v1("42", 100, 30, generate.VOID_VALUE)
    migrated = generate.migrate_bank_account(record)
    assert generate.render_eso([migrated]) == (
        "ESCHER-OBJECTS 1\n"
        "obj 0 BANK_ACCOUNT version 2\n"
        "  balance: INTEGER = 70\n"
        "  info: INTEGER = 42\n"
        "  owner: NONE = Void\n"
        "end\n"
    )


def test_value_draws_cover_the_value_space():
    text = generate.bank_inputs(3, 3000).eso + "".join(c.eso for c in generate.chain_inputs(3, 200).cases)
    assert "= -" in text  # negative integers and reals
    assert "REAL = " in text and "e+" in text
    assert '\\"' in text and "\\\\" in text and "\\n" in text  # escaped strings
    assert "= Void" in text
    graph = generate.bank_records(generate.random.Random(3), 50)
    person = next(r for r in graph if r.cls == "PERSON")
    account = graph[person.get("account")[1]]
    assert account.get("owner") == (generate.REF, graph.index(person))  # a reference cycle


def chain_ops(tmp_path: Path, count: int, assertions: bool = True):
    inputs = generate.chain_inputs(5, count)
    inputs.project.write(tmp_path / "chain")
    repo = repository.load_repository(tmp_path / "chain")
    targets = {"A": generate.CHAIN_RELEASES, "B": generate.B_LATEST, "C": 1}
    values = {key: workloads.value(v) for key, v in inputs.inputs.items()}

    def op(case):
        def migrate():
            graph = objects.deserialize(case.eso)
            return objects.serialize(objects.retrieve(graph, repo, targets, values, assertions=assertions))
        return workloads.Op("planted" if case.planted else "migrate", migrate, case.expected, case.records)

    return inputs.cases, [op(case) for case in inputs.cases]


def test_every_planted_failure_raises_its_expected_error(tmp_path):
    cases, ops = chain_ops(tmp_path, 400)
    planted = [(case, op) for case, op in zip(cases, ops) if case.planted]
    assert {case.planted for case, _ in planted} == {"missing", "invariant"}
    for case, op in planted:
        got = workloads.outcome(op)
        assert got.startswith("ERROR ")
        assert got == case.expected


def test_wrong_outcomes_count_in_the_error_rate(tmp_path):
    cases, ops = chain_ops(tmp_path, 200)
    good = next(op for case, op in zip(cases, ops) if not case.planted)
    tally = run.Tally()
    run.run_ops([good], tally, "as generated")
    assert (tally.attempted, tally.failed) == (1, 0)

    corrupted = workloads.Op("migrate", lambda: good.run().replace("version", "versoin", 1), good.expected)
    run.run_ops([corrupted], tally, "corrupted")
    assert (tally.attempted, tally.failed) == (2, 1)

    # With the invariant gate off, a planted violation migrates instead of raising.
    _, ungated = chain_ops(tmp_path / "ungated", 200, assertions=False)
    case, op = next((c, o) for c, o in zip(cases, ungated) if c.planted == "invariant")
    run.run_ops([op], tally, "ungated")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "InvariantViolation" in tally.wrong[-1]


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    tally = run.Tally()
    metrics, notes = run.timed(TinyChain(ROOT, tmp_path, 9), 0.5, tally)
    assert tally.failed == 0
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert any(note.startswith("wall figures:") for note in notes)


def test_probes_inside_an_operation_are_taken_out_of_its_time():
    sampler = run.Sampler()
    probe = 2 * run.REFERENCE_S  # the machine runs at half the reference speed
    sampler.spans = [(start, start + probe) for start in (0.0, 1.0, 2.0, 3.0)]
    wall, at_ref = sampler.rescale(1, 0.5, 2.5)  # the probes at 1 s and 2 s fall inside
    assert wall == pytest.approx(2.0 - 2 * probe)
    assert at_ref == pytest.approx(wall / 2)


def test_traced_run_wraps_what_retrieve_calls_and_matches_the_oracle(tmp_path):
    tally = run.Tally()
    wl = TinyChain(ROOT, tmp_path, 9)
    metrics, notes = run.traced(wl, tally, tmp_path / "out")
    assert tally.failed == 0
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.missing_spans"] == 0
    counted = next(n for n in notes if n.startswith("class_history calls inside retrieve"))
    predicted = next(n for n in notes if n.startswith("class_history calls predicted"))
    assert counted.split()[-1] == predicted.split()[-1] == str(wl.predicted_class_history(wl.trace_ops))
    # self_s is the retrieve span minus its direct children, so the children
    # must be exactly the layers retrieve calls: nothing unwrapped, nothing extra.
    direct = next(n for n in notes if n.startswith("spans directly below retrieve"))
    assert direct.split(": ")[1].split(", ") == [
        "objects.eval_invariant", "objects.interpret_transformer",
        "repository.handlers_for", "repository.schema_for"]
    assert (tmp_path / "out" / "spans-chain_small-seed9.tsv").is_file()


def test_a_missing_layer_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + [("escher.objects", "no_such_name", "objects.gone"),
                                                         ("escher.gone", "parse", "gone.parse")])
    original = objects.deserialize
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert objects.deserialize is not original
    finally:
        tracer.uninstall()
    assert objects.deserialize is original
    assert tracer.missing == ["escher.objects.no_such_name", "escher.gone.parse"]
    assert "objects.gone" in tracer.summary()


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "bank_bulk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
