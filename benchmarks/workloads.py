"""The three workloads: inputs on disk, the operations each runs, and the
``escher migrate`` subprocess each also runs.

An operation returns its outcome as text: the output bytes, or ``ERROR``
and the error's CLI line. It is correct when that text equals the oracle's.
"""

from __future__ import annotations

import functools
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from escher import objects, per, repository, schema
from escher.errors import EscherError
from escher.values import IntVal, StringVal

import generate

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import escher.repository
escher.repository.load_repository(sys.argv[1])
print(time.perf_counter() - t0)
"""


@dataclass
class Op:
    kind: str
    run: Callable[[], str]
    expected: str
    records: int = 0  # records migrated when the outcome is correct


def outcome(op: Op) -> str:
    try:
        return op.run()
    except EscherError as err:
        return "ERROR " + err.cli_line()
    except Exception as err:  # a crash is a wrong outcome, reported by name
        return f"CRASH {type(err).__name__}: {err}"


def value(v: tuple):
    return IntVal(v[1]) if v[0] == generate.INT else StringVal(v[1])


def migrate_op(text: str, repo, targets, inputs, expected: str, records: int, kind: str = "migrate") -> Op:
    def run() -> str:
        graph = objects.deserialize(text)
        return objects.serialize(objects.retrieve(graph, repo, targets, inputs))
    return Op(kind, run, expected, records)


@dataclass
class Cli:
    argv: list[str]
    out: Path
    expected: str
    records: int


class Workload:
    name = ""
    window_ops = 1  # operations per rate window; a cycle may end a window early
    whole_cycles = False  # a run may stop only where a cycle of operations ends
    warmup_ops = 1
    cli_repeats = 7
    trace_ops = 1

    def __init__(self, root: Path, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def reset(self) -> None:
        """Restore on-disk state before a cycle of operations."""

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def cli(self) -> Cli:
        raise NotImplementedError

    def warm_up(self, ops: list[Op]) -> None:
        self.reset()
        for op in ops[: self.warmup_ops]:
            outcome(op)

    def setup_once(self) -> float:
        """Import plus load_repository of the starting project in a fresh
        interpreter, timed from inside it."""
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(self.start)],
            env=self.env, capture_output=True, text=True, timeout=120, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])

    def setup_op(self) -> Op:
        """The in-process part of set-up, for the traced run."""
        def load() -> str:
            return f"{len(repository.load_repository(self.start).releases)} releases"
        return Op("setup", load, f"{self.start_releases} releases")

    def cli_argv(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "escher.cli", "migrate", *args]


class BankBulk(Workload):
    name = "bank_bulk"
    records = 20_000
    cli_repeats = 5

    def __init__(self, root: Path, work: Path, seed: int):
        super().__init__(root, work, seed)
        self.inputs = generate.bank_inputs(seed, self.records)
        self.project = self.start = work / "bank"
        self.start_releases = len(self.inputs.project.releases)
        self.inputs.project.write(self.project)
        self.eso = work / "accounts.eso"
        self.eso.write_text(self.inputs.eso, encoding="utf-8")
        self.repo = repository.load_repository(self.project)
        self.targets = {"BANK_ACCOUNT": 2, "PERSON": 1}

    def predicted_class_history(self, ops: int) -> int:
        """Two lookups per migrated account (one hop, then the gate), one per
        gate-only PERSON."""
        return ops * (self.inputs.records + self.inputs.migrated)

    def cycle(self) -> list[Op]:
        b = self.inputs
        return [migrate_op(b.eso, self.repo, self.targets, {}, b.expected, b.records)]

    def cli(self) -> Cli:
        out = self.work / "cli-out.eso"
        argv = self.cli_argv(str(self.eso), "--project", str(self.project), "--to-release", "2", "--out", str(out))
        return Cli(argv, out, self.inputs.expected, self.inputs.records)


class ChainSmall(Workload):
    name = "chain_small"
    graphs = 3000
    cli_records = 1800
    window_ops = 100
    warmup_ops = 100
    trace_ops = 300

    def __init__(self, root: Path, work: Path, seed: int):
        super().__init__(root, work, seed)
        self.inputs = generate.chain_inputs(seed, self.graphs)
        self.project = self.start = work / "chain"
        self.start_releases = len(self.inputs.project.releases)
        self.inputs.project.write(self.project)
        self.repo = repository.load_repository(self.project)
        self.targets = {"A": generate.CHAIN_RELEASES, "B": generate.B_LATEST, "C": 1}
        self.values = {key: value(v) for key, v in self.inputs.inputs.items()}

    def cycle(self) -> list[Op]:
        return [
            migrate_op(case.eso, self.repo, self.targets, self.values, case.expected,
                       0 if case.planted else case.records, "planted" if case.planted else "migrate")
            for case in self.inputs.cases
        ]

    def predicted_class_history(self, ops: int) -> int:
        return sum(case.class_history_calls for case in self.inputs.cases[:ops])

    def cli(self) -> Cli:
        # Whole graphs until a fixed record count, so every seed gives the
        # subprocess the same amount of work (within one graph).
        chosen, total = [], 0
        for graph, case in zip(self.inputs.graphs, self.inputs.cases):
            if total >= self.cli_records:
                break
            if not case.planted:
                chosen.append(graph)
                total += len(graph)
        eso = self.work / "chains.eso"
        eso.write_text(generate.render_eso_many(chosen), encoding="utf-8")
        out = self.work / "cli-out.eso"
        expected = generate.render_eso_many([[self.inputs.oracle.migrate(r) for r in g] for g in chosen])
        inputs = [f"{cls}.{attr}={generate.literal(v)}" for (cls, attr), v in sorted(self.inputs.inputs.items())]
        argv = self.cli_argv(str(eso), "--project", str(self.project), "--to-release", str(generate.CHAIN_RELEASES),
                             *[arg for item in inputs for arg in ("--inputs", item)], "--out", str(out))
        return Cli(argv, out, expected, total)


class ReleaseCycle(Workload):
    name = "release_cycle"
    whole_cycles = True
    base_releases = 6
    cycle_releases = 14
    ledger_records = 60
    per_every = 4
    migrate_every = 2
    cli_repeats = 15  # a short subprocess: more samples for a steady median

    def __init__(self, root: Path, work: Path, seed: int):
        super().__init__(root, work, seed)
        self.inputs = generate.release_inputs(seed, self.base_releases, self.cycle_releases, self.ledger_records,
                                              self.per_every, self.migrate_every)
        # One rate window per cycle, so that every window holds the same mix of operations.
        self.window_ops = self.trace_ops = self.warmup_ops = len(self.inputs.ops)
        self.start = work / "base"
        self.start_releases = self.base_releases
        self.inputs.base.write(self.start)
        self.project = work / "project"
        self.final = work / "final"
        self.ledger = work / "ledger.eso"
        self.ledger.write_text(self.inputs.ledger_eso, encoding="utf-8")
        self.currency = {("LEDGER", "currency"): StringVal(self.inputs.currency)}
        self.reset()

    def reset(self) -> None:
        shutil.rmtree(self.project, ignore_errors=True)
        shutil.copytree(self.start, self.project)

    def warm_up(self, ops: list[Op]) -> None:
        """One whole cycle; the project it leaves is kept for the CLI runs."""
        super().warm_up(ops)
        shutil.rmtree(self.final, ignore_errors=True)
        shutil.copytree(self.project, self.final)

    def cycle(self) -> list[Op]:
        simple = {"hist": self.op_hist, "per": self.op_per, "migrate": self.op_migrate}
        return [
            Op(spec.kind, simple.get(spec.kind) or functools.partial(self.op_release, spec.working_set),
               spec.expected, spec.records)
            for spec in self.inputs.ops
        ]

    def op_hist(self) -> str:
        return per.render_per_report(per.parse_history_file(self.inputs.hist))

    def op_release(self, working_set: list[str]) -> str:
        """``escher release``: load, parse the working set, release, save."""
        repo = repository.load_repository(self.project)
        schemas = {}
        for text in working_set:
            parsed = schema.parse_schema(text)
            schemas[parsed.name] = parsed
        repo, report = repository.release(repo, schemas)
        if not report.noop:
            repository.save_repository(repo, self.project)
        return report.render()

    def op_per(self) -> str:
        """``escher per --project``: load, then the report over the latest release."""
        repo = repository.load_repository(self.project)
        names = sorted(repo.latest_release().schemas)
        return per.render_per_report([per.history_from_repository(repo, name) for name in names])

    def op_migrate(self) -> str:
        """``escher migrate --to-release <latest>`` of the ledger file."""
        repo = repository.load_repository(self.project)
        targets = {name: s.version for name, s in repo.latest_release().schemas.items()}
        graph = objects.deserialize(self.inputs.ledger_eso)
        return objects.serialize(objects.retrieve(graph, repo, targets, self.currency))

    def cli(self) -> Cli:
        out = self.work / "cli-out.eso"
        argv = self.cli_argv(str(self.ledger), "--project", str(self.final), "--to-release",
                             str(self.inputs.final_release), "--inputs",
                             f"LEDGER.currency={generate.quote(self.inputs.currency)}", "--out", str(out))
        return Cli(argv, out, self.inputs.ledger_expected, self.inputs.ledger_records)


WORKLOADS = {w.name: w for w in (BankBulk, ChainSmall, ReleaseCycle)}


def run_cli(cli: Cli, env: dict[str, str]) -> tuple[float, float, str]:
    """Wall seconds and peak RSS (MB, from the child's own rusage) of one
    ``escher migrate`` subprocess, and its outcome."""
    cli.out.unlink(missing_ok=True)
    with open(os.devnull, "wb") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cli.argv, stdout=sink, stderr=sink, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        return wall, usage.ru_maxrss / 1024, f"EXIT {proc.returncode}"
    return wall, usage.ru_maxrss / 1024, cli.out.read_text(encoding="utf-8")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it: the
    eleventh-largest sample, as (value, percentile, samples beyond). With
    fewer than eleven samples none qualifies; the maximum is reported with
    zero samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10

