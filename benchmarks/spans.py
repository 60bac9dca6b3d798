"""Timing spans around escher's layers, installed from outside the program.

Each wrapper replaces a module or class attribute at the name escher's own
callers resolve at call time, so nothing under ``src/`` changes and the
untraced run executes the unmodified program. A name that a later refactor
removes is reported as a missing span instead of failing the run.

Spans are kept in flat arrays (name, parent, operation, start, end) and are
written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module[:class], attribute, span name). A span name may be installed at
# several attributes: parse_schema is resolved both by load_repository
# (through escher.repository) and by the benchmark's working-set parse.
LAYERS = [
    ("escher.objects", "deserialize", "objects.deserialize"),
    ("escher.objects", "serialize", "objects.serialize"),
    ("escher.objects", "retrieve", "objects.retrieve"),
    ("escher.objects", "interpret_transformer", "objects.interpret_transformer"),
    ("escher.objects", "eval_invariant", "objects.eval_invariant"),
    ("escher.repository:Repository", "class_history", "repository.class_history"),
    ("escher.repository:Repository", "schema_for", "repository.schema_for"),
    ("escher.repository:Repository", "handlers_for", "repository.handlers_for"),
    ("escher.repository", "load_repository", "repository.load_repository"),
    ("escher.repository", "release", "repository.release"),
    ("escher.repository", "save_repository", "repository.save_repository"),
    ("escher.repository", "parse_schema", "schema.parse_schema"),
    ("escher.schema", "parse_schema", "schema.parse_schema"),
    ("escher.repository", "parse_transformer", "transformer.parse_transformer"),
    ("escher.repository", "content_digest", "repository.content_digest"),
    ("escher.repository", "diff_schemas", "smo.diff_schemas"),
    ("escher.repository", "generate_transformer", "transformer.generate_transformer"),
    ("escher.repository", "render_transformer", "transformer.render_transformer"),
    ("escher.per", "parse_history_file", "per.parse_history_file"),
    ("escher.per", "transitive_closure", "per.transitive_closure"),
    ("escher.per", "render_per_report", "per.render_per_report"),
]

_MISSING = object()


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


def _argument(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.op_id = 0
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._plan_keys: set[tuple[str, int, int]] = set()
        self._load_texts: set[str] = set()

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def inside(self, span: str) -> bool:
        wanted = self._ids.get(span)
        return any(self.name[i] == wanted for i in self._stack[1:])

    # -- wrappers ----------------------------------------------------------

    def wrap(self, span: str, fn, before=None, after=None, around=None):
        """``before(args, kwargs)`` and ``after(result)`` run outside the
        timed interval; ``around()`` is a context entered inside it."""
        nid = self._id(span)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            self.start[idx] = clock()
            try:
                if around is None:
                    result = fn(*args, **kwargs)
                else:
                    with around():
                        result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "objects.deserialize": {"after": self._after_deserialize},
            "objects.retrieve": {"before": self._before_retrieve},
            "repository.load_repository": {"before": self._before_load, "after": self._after_load},
            "repository.save_repository": {"around": self._counting_writes},
            "schema.parse_schema": {"before": self._before_parse_schema},
        }
        for target, attribute, span in LAYERS:
            owner = _resolve(target)
            original = _MISSING if owner is None else owner.__dict__.get(attribute, _MISSING)
            if original is _MISSING:
                self._id(span)
                self.missing.append(f"{target}.{attribute}")
                continue
            setattr(owner, attribute, self.wrap(span, original, **hooks.get(span, {})))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # -- counters at layer boundaries ---------------------------------------

    def _after_deserialize(self, graph) -> None:
        self.counts["deserialize.records"] += len(graph.records)

    def _before_retrieve(self, args: tuple, kwargs: dict) -> None:
        graph = _argument(args, kwargs, 0, "graph")
        targets = _argument(args, kwargs, 2, "target_versions")
        self.counts["retrieve.records"] += len(graph.records)
        for record in graph.records:
            target = targets.get(record.class_name, record.version)
            if target != record.version:
                self.counts["retrieve.migrated"] += 1
                self._plan_keys.add((record.class_name, record.version, target))

    def _before_load(self, args: tuple, kwargs: dict) -> None:
        self._load_texts = set()

    def _after_load(self, repo) -> None:
        self.counts["load.distinct_schemas"] += len(self._load_texts)

    def _before_parse_schema(self, args: tuple, kwargs: dict) -> None:
        if self.inside("repository.load_repository"):
            self.counts["load.parses"] += 1
            self._load_texts.add(_argument(args, kwargs, 0, "source"))

    @contextmanager
    def _counting_writes(self):
        """Count files save_repository writes, and those whose bytes change.
        The comparison's own time is subtracted from the save span."""
        original = Path.write_text
        counts = self.counts

        def write_text(path, data, encoding=None, errors=None, newline=None):
            t0 = time.perf_counter_ns()
            try:
                changed = path.read_bytes() != data.encode(encoding or "utf-8")
            except FileNotFoundError:
                changed = True
            counts["save.writes"] += 1
            counts["save.useful_writes"] += changed
            counts["save.probe_ns"] += time.perf_counter_ns() - t0
            return original(path, data, encoding=encoding, errors=errors, newline=newline)

        Path.write_text = write_text
        try:
            yield
        finally:
            Path.write_text = original

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, calls and
        seconds inside an ``objects.retrieve`` span, and calls directly
        below one."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0] * n
        in_retrieve = [False] * n
        retrieve = self._ids.get("objects.retrieve")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += duration[i]
                in_retrieve[i] = in_retrieve[p] or self.name[p] == retrieve
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "in_retrieve_calls": 0, "in_retrieve_s": 0.0,
                      "below_retrieve_calls": 0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["s"] += duration[i] / 1e9
            entry["self_s"] += (duration[i] - children[i]) / 1e9
            if in_retrieve[i]:
                entry["in_retrieve_calls"] += 1
                entry["in_retrieve_s"] += duration[i] / 1e9
                if self.name[self.parent[i]] == retrieve:
                    entry["below_retrieve_calls"] += 1
        save = out.get("repository.save_repository")
        if save is not None:
            save["s"] -= self.counts["save.probe_ns"] / 1e9
            save["self_s"] -= self.counts["save.probe_ns"] / 1e9
        return out

    def plan_keys(self) -> int:
        return len(self._plan_keys)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if len(self.start) else 0
        with path.open("w", encoding="utf-8") as out:
            out.write("span\tname\tparent\top\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}\t"
                          f"{self.start[i] - base}\t{self.end[i] - base}\n")
