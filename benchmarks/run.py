"""Run escher's benchmark and print its metrics.

    python3 benchmarks/run.py --workload chain_small --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --seed 1            # every workload, each in a fresh process

``--trace 0`` runs the timed loop for ``--seconds`` seconds with tracing off
and prints the end-to-end metrics, every time rescaled to the speed at which
a fixed reference loop takes ``REFERENCE_S``. ``--trace 1`` runs a fixed
share of the workload untraced, then the same share traced, and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Spans of a traced run are
written to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("bank_bulk", "chain_small", "release_cycle")
SETUP_REPEATS = 7
REFERENCE_S = 0.002  # the reference loop's time at the reference speed
PROBE_EVERY_S = 0.05  # interval of the reference loop's timer in the timed loop
PROBES_BEFORE = 3  # probes before an operation that rescale it, with those inside it
SIDE_PROBE_REPS = 10  # reference loops just before and just after each set-up or subprocess run

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cli_migrate_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "objects.deserialize.s": "s",
    "objects.deserialize.records_per_s": "records/s",
    "objects.serialize.s": "s",
    "objects.retrieve.s": "s",
    "objects.retrieve.self_s": "s",
    "objects.retrieve.records_per_s": "records/s",
    "objects.retrieve.plan_lookups_per_key": "ratio",
    "repository.class_history.s": "s",
    "repository.class_history.share_of_retrieve": "ratio",
    "repository.class_history.calls_per_record": "calls/record",
    "repository.schema_for.s": "s",
    "repository.handlers_for.calls": "count",
    "objects.interpret_transformer.s": "s",
    "objects.interpret_transformer.calls_per_record": "calls/record",
    "objects.eval_invariant.s": "s",
    "repository.load_repository.s": "s",
    "repository.load_repository.parses_per_distinct_schema": "ratio",
    "schema.parse_schema.s": "s",
    "transformer.parse_transformer.s": "s",
    "repository.content_digest.s": "s",
    "repository.release.s": "s",
    "smo.diff_schemas.s": "s",
    "transformer.generate_transformer.s": "s",
    "transformer.render_transformer.s": "s",
    "repository.save_repository.s": "s",
    "repository.save_repository.useful_write_ratio": "ratio",
    "per.parse_history_file.s": "s",
    "per.transitive_closure.s": "s",
    "per.transitive_closure.calls": "count",
    "per.render_per_report.s": "s",
    "cli.migrate.s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.missing_spans": "count",
}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tally:
    """Outcomes checked against the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def check(self, what: str, got: str, expected: str) -> bool:
        self.attempted += 1
        if got == expected:
            return True
        self.failed += 1
        if len(self.wrong) < 5:
            self.wrong.append(f"{what}: got {got[:160]!r}, expected {expected[:160]!r}")
        return False


def run_op(op, tally: Tally, label: str) -> tuple[float, float, bool]:
    """When one operation started and ended, and whether its outcome is correct."""
    from workloads import outcome

    t0 = time.perf_counter()
    got = outcome(op)
    t1 = time.perf_counter()
    return t0, t1, tally.check(label, got, op.expected)


def run_ops(ops, tally: Tally, label: str, tracer=None) -> float:
    """Operations back to back, one client; returns the busy seconds."""
    busy = 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        t0, t1, _ = run_op(op, tally, f"{label} op {index} ({op.kind})")
        busy += t1 - t0
    return busy


def spread_out(tasks: list[list]) -> list:
    """Merge task lists so that each list's tasks sit evenly over the run."""
    placed = [((i + 0.5) / len(group), task) for group in tasks for i, task in enumerate(group)]
    return [task for _, task in sorted(placed, key=lambda pair: pair[0])]


PROBE_WORDS = tuple(" ".join(f"attr_{i}: LIST[INTEGER] -- note {i * 7 % 13}" for i in range(60)).split()) * 5


def word_kind(word: str) -> str:
    return "name" if word[0].isalpha() else "sym"


def reference_loop() -> None:
    """Fixed interpreter work that runs no escher code: the speed probe. Like
    the program it calls functions, formats strings and fills a list and a
    dict, but the only object it makes that the garbage collector tracks is
    one list per pass, so it neither triggers nor pays for collections of
    the program's heap."""
    for _ in range(2):
        words = [f"{word}:{i}" for i, word in enumerate(PROBE_WORDS)]
        counts: dict[str, int] = {}
        for word in words:
            counts[word] = counts.get(word_kind(word), 0) + len(word)


def probe(reps: int) -> list[float]:
    """Times of ``reps`` back-to-back reference loops, in seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return times


def at_reference(seconds: float, probes: list[float]) -> float:
    """Wall seconds rescaled to the reference speed, at which the reference
    loop takes REFERENCE_S; ``probes`` are loop times taken next to them."""
    return seconds * REFERENCE_S / statistics.median(probes)


def probed(task):
    """Run ``task`` between two probes; its result and the probes."""
    before = probe(SIDE_PROBE_REPS)
    result = task()
    return result, before + probe(SIDE_PROBE_REPS)


class Sampler:
    """Times the reference loop every PROBE_EVERY_S from a SIGALRM handler.
    The handler runs in the main thread between bytecodes, so most probes
    land inside operations and share their state of the machine: caches
    full of the operation's data as well as the CPU's speed of the moment.
    Probes taken just before and after a long operation missed both."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []  # start and end of each probe

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.spans.append((t0, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, first: int, t0: float, t1: float) -> tuple[float, float]:
        """The wall seconds of an operation from t0 to t1 without the probes
        inside it, and the same at the reference speed, rescaled by those
        probes and the PROBES_BEFORE before them."""
        inside = sum(end - start for start, end in self.spans[first:] if t0 <= start and end <= t1)
        wall = t1 - t0 - inside
        near = [end - start for start, end in self.spans[max(0, first - PROBES_BEFORE):]]
        return wall, at_reference(wall, near)


def timed(wl, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    """The closed loop, one client, for ``seconds`` of operations. Rates are
    medians over windows of operations. The set-up and subprocess
    measurements are spread over the same interval, between windows, so
    that all metrics of a run see the same machine.

    Every time is rescaled to the reference speed by the reference loop:
    an operation's by the Sampler's probes inside it and just before it, a
    set-up or subprocess run's by probes just before and just after it. The
    subprocesses run with the timer stopped; probes of the operations
    around them tracked them worse. The wall figures are printed as notes."""
    from workloads import run_cli, tail

    ops = wl.cycle()
    wl.warm_up(ops)
    cli = wl.cli()
    setup: list[tuple[float, list[float]]] = []  # wall seconds, probes around them
    clis: list[tuple[float, float, list[float]]] = []  # wall seconds, peak RSS, probes around them

    def measure_setup() -> None:
        setup.append(probed(wl.setup_once))

    def measure_cli() -> None:
        (wall, rss, got), around = probed(lambda: run_cli(cli, wl.env))
        tally.check("escher migrate subprocess", got, cli.expected)
        clis.append((wall, rss, around))

    side = spread_out([[measure_setup] * SETUP_REPEATS, [measure_cli] * wl.cli_repeats])
    total_side = len(side)
    latencies: list[float] = []  # wall seconds of every operation
    scaled: list[float] = []  # the same at the reference speed
    windows: list[list] = []  # per window: operations, records, wall seconds, seconds at the reference speed
    sampler = Sampler()
    busy = 0.0
    try:
        while busy < seconds:
            wl.reset()
            for index, op in enumerate(ops):
                if index % wl.window_ops == 0:
                    sampler.stop()
                    while side and len(side) > total_side * (1 - busy / seconds):
                        side.pop(0)()
                    if busy >= seconds and not wl.whole_cycles:
                        break
                    for _ in range(PROBES_BEFORE):
                        sampler.sample()
                    sampler.start()
                    windows.append([0, 0, 0.0, 0.0])
                first = len(sampler.spans)
                t0, t1, ok = run_op(op, tally, f"op {index} ({op.kind})")
                wall, at_ref = sampler.rescale(first, t0, t1)
                latencies.append(wall)
                scaled.append(at_ref)
                busy += wall
                window = windows[-1]
                window[0] += 1
                window[1] += op.records if ok else 0
                window[2] += wall
                window[3] += at_ref
    finally:
        sampler.stop()
    for task in side:
        task()

    tail_ms, tail_p, beyond = tail(scaled)
    probes = [end - start for start, end in sampler.spans]
    setup_s = [at_reference(s, around) for s, around in setup]
    cli_s = [at_reference(wall, around) for wall, _, around in clis]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "records_per_s": statistics.median([ratio(records, at_ref) for _, records, _, at_ref in windows]),
        "ops_per_s": statistics.median([ratio(n, at_ref) for n, _, _, at_ref in windows]),
        "op_p50_ms": statistics.median(scaled) * 1000,
        "op_tail_ms": tail_ms * 1000,
        "cli_migrate_s": statistics.median(cli_s),
        "peak_rss_mb": statistics.median([rss for _, rss, _ in clis]),
    }
    notes = [
        f"{len(scaled)} operations in {len(windows)} windows, {busy:.3f} s busy, "
        f"{sum(w[1] for w in windows)} records migrated correctly",
        f"reference loop: {len(probes)} probes in the timed loop, quartiles "
        + " ".join(f"{q * 1000:.4f}" for q in statistics.quantiles(probes, n=4))
        + f" ms; times are rescaled to {REFERENCE_S * 1000:g} ms",
        "wall figures: records_per_s {:.6g} ops_per_s {:.6g} op_p50_ms {:.6g} setup_s {:.6g} "
        "cli_migrate_s {:.6g}".format(
            statistics.median([ratio(records, wall) for _, records, wall, _ in windows]),
            statistics.median([ratio(n, wall) for n, _, wall, _ in windows]),
            statistics.median(latencies) * 1000,
            statistics.median([s for s, _ in setup]),
            statistics.median([wall for wall, _, _ in clis])),
        f"setup_s median of {len(setup)}: " + " ".join(f"{s:.4f}" for s in setup_s),
        f"op_tail_ms is p{tail_p:.2f} with {beyond} samples beyond it (n={len(scaled)})",
        f"escher migrate subprocess, {cli.records} records, median of {len(clis)}: "
        + " ".join(f"{s:.3f} s / {rss:.1f} MB" for s, (_, rss, _) in zip(cli_s, clis)),
    ]
    return metrics, notes


def traced(wl, tally: Tally, out_dir: Path) -> tuple[dict, list[str]]:
    """A fixed share of the workload untraced, then traced."""
    from spans import Tracer
    from workloads import run_cli

    ops = wl.cycle()[: wl.trace_ops]
    wl.warm_up(ops)
    ops = [wl.setup_op()] + ops
    wl.reset()
    plain_s = run_ops(ops, tally, "untraced")

    tracer = Tracer()
    tracer.install()
    try:
        wl.reset()
        traced_s = run_ops(ops, tally, "traced", tracer)
    finally:
        tracer.uninstall()
    cli = wl.cli()
    cli_s, _, got = run_cli(cli, wl.env)
    tally.check("escher migrate subprocess", got, cli.expected)
    tracer.write(out_dir / f"spans-{wl.name}-seed{wl.seed}.tsv")

    s = tracer.summary()
    c = tracer.counts

    def get(span: str, key: str = "s") -> float:
        return s.get(span, {}).get(key, 0)

    retrieve_s = get("objects.retrieve")
    records = c["retrieve.records"]
    in_retrieve = [name for name in s if name != "objects.retrieve" and s[name]["in_retrieve_calls"]]
    metrics = {
        "objects.deserialize.s": get("objects.deserialize"),
        "objects.deserialize.records_per_s": ratio(c["deserialize.records"], get("objects.deserialize")),
        "objects.serialize.s": get("objects.serialize"),
        "objects.retrieve.s": retrieve_s,
        "objects.retrieve.self_s": get("objects.retrieve", "self_s"),
        "objects.retrieve.records_per_s": ratio(records, retrieve_s),
        "objects.retrieve.plan_lookups_per_key": ratio(
            get("repository.handlers_for", "in_retrieve_calls"), tracer.plan_keys()),
        "repository.class_history.s": get("repository.class_history"),
        "repository.class_history.share_of_retrieve": ratio(
            get("repository.class_history", "in_retrieve_s"), retrieve_s),
        "repository.class_history.calls_per_record": ratio(
            get("repository.class_history", "in_retrieve_calls"), records),
        "repository.schema_for.s": get("repository.schema_for"),
        "repository.handlers_for.calls": get("repository.handlers_for", "calls"),
        "objects.interpret_transformer.s": get("objects.interpret_transformer"),
        "objects.interpret_transformer.calls_per_record": ratio(
            get("objects.interpret_transformer", "calls"), c["retrieve.migrated"]),
        "objects.eval_invariant.s": get("objects.eval_invariant"),
        "repository.load_repository.s": get("repository.load_repository"),
        "repository.load_repository.parses_per_distinct_schema": ratio(c["load.parses"], c["load.distinct_schemas"]),
        "schema.parse_schema.s": get("schema.parse_schema"),
        "transformer.parse_transformer.s": get("transformer.parse_transformer"),
        "repository.content_digest.s": get("repository.content_digest"),
        "repository.release.s": get("repository.release"),
        "smo.diff_schemas.s": get("smo.diff_schemas"),
        "transformer.generate_transformer.s": get("transformer.generate_transformer"),
        "transformer.render_transformer.s": get("transformer.render_transformer"),
        "repository.save_repository.s": get("repository.save_repository"),
        "repository.save_repository.useful_write_ratio": ratio(c["save.useful_writes"], c["save.writes"]),
        "per.parse_history_file.s": get("per.parse_history_file"),
        "per.transitive_closure.s": get("per.transitive_closure"),
        "per.transitive_closure.calls": get("per.transitive_closure", "calls"),
        "per.render_per_report.s": get("per.render_per_report"),
        "cli.migrate.s": cli_s,
        "trace.overhead_ratio": ratio(traced_s, plain_s),
        "trace.missing_spans": len(tracer.missing),
    }
    direct = sorted(name for name, entry in s.items() if entry["below_retrieve_calls"])
    notes = [
        f"{len(ops)} operations, untraced {plain_s:.3f} s, traced {traced_s:.3f} s, {len(tracer.start)} spans",
        f"retrieve: {records} records, {c['retrieve.migrated']} migrated, {tracer.plan_keys()} distinct plan keys",
        f"spans directly below retrieve: {', '.join(direct) or 'none'}",
        f"class_history calls inside retrieve: {get('repository.class_history', 'in_retrieve_calls')}",
        f"spans inside retrieve: {', '.join(sorted(in_retrieve)) or 'none'}",
        f"files written by save_repository: {c['save.writes']}, with changed bytes: {c['save.useful_writes']}",
        f"missing spans: {', '.join(tracer.missing) or 'none'}",
    ]
    predicted = getattr(wl, "predicted_class_history", None)
    if predicted is not None:
        notes.append(f"class_history calls predicted by the generator (hops + 1 per migrated record, "
                     f"1 per gate-only record): {predicted(wl.trace_ops)}")
    return metrics, notes


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        if args.trace:
            metrics, notes = traced(wl, tally, ROOT / ".bench_out")
        else:
            metrics, notes = timed(wl, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_rate {ratio(tally.failed, tally.attempted):.6g} ratio "
          f"({tally.failed} of {tally.attempted} outcomes differ from the oracle)")
    for wrong in tally.wrong:
        print(f"# wrong outcome: {wrong}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh interpreter; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "escher" / "__init__.py").is_file():
        print(f"error: no escher sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
