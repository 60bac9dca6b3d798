"""On-disk project state: releases, class version histories, handlers.

Project layout:

    project/
      escher.manifest
      releases/<n>/<CLASS>.esc
      handlers/<CLASS>/<from>_to_<to>.est

The manifest is line-oriented (``release <n>``, ``class <NAME> version <v>``,
``transformer <CLASS> <from> <to> <digest>``). A release bumps a class's
version tag by exactly one when the class actually changed, keeps it
otherwise, and generates forward transformer stubs for changed classes
without ever overwriting an existing handler file.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from ._lex import line_int
from .errors import (
    FormatError,
    OverwriteRefused,
    ParseError,
    UnknownClass,
    UnknownVersion,
    VersionTagTamper,
)
from .schema import ClassSchema, parse_schema, render_schema, type_equal
from .smo import diff_schemas
from .transformer import (
    ObjectTransformer,
    generate_transformer,
    parse_transformer,
    render_transformer,
)


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Release:
    number: int
    schemas: Mapping[str, ClassSchema]  # one version per class per release

    def __post_init__(self) -> None:
        if self.number < 1:
            raise ValueError(f"release numbers start at 1, got {self.number}")
        # A read-only copy, so a Repository's history index cannot go stale.
        object.__setattr__(self, "schemas", MappingProxyType(dict(self.schemas)))
        for name, schema in self.schemas.items():
            if schema.name != name:
                raise ValueError(f"release entry {name!r} holds schema named {schema.name!r}")


@dataclass(frozen=True)
class RegisteredTransformer:
    transformer: ObjectTransformer
    text: str
    digest: str
    dirty: bool = False  # produced this session; safe to write out
    user_modified: bool = False  # on-disk content drifted from the manifest digest


_NO_HISTORY: Mapping[int, ClassSchema] = MappingProxyType({})


@dataclass(frozen=True)
class Repository:
    project_name: str
    releases: tuple[Release, ...] = ()
    handlers: Mapping[str, Mapping[tuple[int, int], RegisteredTransformer]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for position, release in enumerate(self.releases, start=1):
            if release.number != position:
                raise ValueError(
                    f"release numbers must increase by 1: expected {position}, got {release.number}"
                )
        # {class: {version: schema}}, built once: ``releases`` is a tuple, so
        # the index cannot go stale. Tags only stay or rise by one, so the
        # last key of a history is the class's latest tag.
        histories: dict[str, dict[int, ClassSchema]] = {}
        for release in self.releases:
            for name, schema in release.schemas.items():
                history = histories.setdefault(name, {})
                last = next(reversed(history), None)
                if last is not None and schema.version not in (last, last + 1):
                    raise ValueError(
                        f"version tag of {name} jumps from {last} to {schema.version}"
                    )
                history[schema.version] = schema
        object.__setattr__(
            self, "_histories", {name: MappingProxyType(h) for name, h in histories.items()}
        )
        # Handlers are copied into read-only views, so the transformer index
        # and the remembered hop paths below cannot go stale: a changed
        # handler set is a new Repository.
        handlers = {name: MappingProxyType(dict(e)) for name, e in self.handlers.items()}
        object.__setattr__(self, "handlers", MappingProxyType(handlers))
        for class_name, entries in handlers.items():
            history = self.class_history(class_name)
            for from_version, to_version in entries:
                for v in (from_version, to_version):
                    if v not in history:
                        raise UnknownVersion(class_name, v)
        object.__setattr__(self, "_transformers", {
            name: MappingProxyType({pair: entry.transformer for pair, entry in entries.items()})
            for name, entries in handlers.items()
        })
        # {(class, start, goal, allow_composition): version path or None}
        object.__setattr__(self, "_paths", {})

    def latest_release(self) -> Release | None:
        return self.releases[-1] if self.releases else None

    def class_history(self, class_name: str) -> Mapping[int, ClassSchema]:
        """Read-only {version: schema} of one class; a version tagged in
        several releases maps to the schema of the latest one."""
        return self._histories.get(class_name, _NO_HISTORY)

    def latest_version(self, class_name: str) -> int | None:
        return next(reversed(self.class_history(class_name)), None)

    def schema_for(self, class_name: str, version: int) -> ClassSchema:
        history = self.class_history(class_name)
        if not history:
            raise UnknownClass(class_name)
        if version not in history:
            raise UnknownVersion(class_name, version)
        return history[version]

    def handlers_for(self, class_name: str) -> Mapping[tuple[int, int], ObjectTransformer] | None:
        """Read-only {(from, to): transformer} of one class, or None when the
        class has no handler set."""
        return self._transformers.get(class_name)

    def hop_path(
        self, class_name: str, start: int, goal: int, allow_composition: bool
    ) -> tuple[int, ...] | None:
        """Version sequence from ``start`` to ``goal`` along the class's
        transformers (see ``_shortest_path``), or None; each is found once per
        Repository."""
        key = (class_name, start, goal, allow_composition)
        if key not in self._paths:
            path = _shortest_path(
                self._transformers.get(class_name, {}).keys(), start, goal, allow_composition
            )
            self._paths[key] = None if path is None else tuple(path)
        return self._paths[key]

    def transformer_pairs(self, class_name: str) -> frozenset[tuple[int, int]]:
        return frozenset(self.handlers.get(class_name, {}))


def _shortest_path(
    edges: Iterable[tuple[int, int]], start: int, goal: int, allow_composition: bool
) -> list[int] | None:
    """Version sequence along registered transformers, or None.

    Ties between equal-length paths break toward the lexicographically
    smallest version sequence.
    """
    edge_set = set(edges)
    if (start, goal) in edge_set:
        return [start, goal]
    if not allow_composition:
        return None
    forward: dict[int, list[int]] = {}
    backward: dict[int, list[int]] = {}
    for a, b in edge_set:
        forward.setdefault(a, []).append(b)
        backward.setdefault(b, []).append(a)
    # distance-to-goal by reverse BFS, then greedy smallest-next-version walk
    dist = {goal: 0}
    frontier = [goal]
    while frontier:
        nxt: list[int] = []
        for node in frontier:
            for prev in backward.get(node, []):
                if prev not in dist:
                    dist[prev] = dist[node] + 1
                    nxt.append(prev)
        frontier = nxt
    if start not in dist:
        return None
    path = [start]
    node = start
    while node != goal:
        candidates = [v for v in forward.get(node, []) if dist.get(v) == dist[node] - 1]
        node = min(candidates)
        path.append(node)
    return path


def empty_repository(project_name: str) -> Repository:
    return Repository(project_name)


# ---------------------------------------------------------------------------
# The release operation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReleaseReport:
    noop: bool
    number: int
    classes: tuple[tuple[str, int], ...] = ()  # (name, version) in the new release
    bumped: tuple[tuple[str, int, int], ...] = ()
    added: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    stubs: tuple[tuple[str, int, int], ...] = ()

    def render(self) -> str:
        if self.noop:
            return "no-op\n"
        lines = [f"release {self.number}"]
        lines += [f"class {name} version {version}" for name, version in self.classes]
        lines += [f"stub {name} {a} {b}" for name, a, b in self.stubs]
        lines += [f"removed class {name}" for name in self.removed]
        return "\n".join(lines) + "\n"


def schemas_equivalent(a: ClassSchema, b: ClassSchema) -> bool:
    """Same generic parameters, attribute sequence (modulo default
    attachment), and invariant; version tags are not compared."""
    if a.generic_params != b.generic_params:
        return False
    if len(a.attributes) != len(b.attributes):
        return False
    for attr_a, attr_b in zip(a.attributes, b.attributes):
        if attr_a.name != attr_b.name or not type_equal(attr_a.declared_type, attr_b.declared_type):
            return False
    return a.invariant == b.invariant


def release(
    repo: Repository, working_set: dict[str, ClassSchema]
) -> tuple[Repository, ReleaseReport]:
    """Compare the working set against the latest release and cut a new one.

    Changed classes get their tag bumped by 1 and a forward transformer stub
    (previous -> new version) unless one is already registered; unchanged
    classes keep their tag; new classes enter at tag 1. An unchanged working
    set is a no-op.
    """
    previous = repo.latest_release()
    new_schemas: dict[str, ClassSchema] = {}
    bumped: list[tuple[str, int, int]] = []
    added: list[str] = []
    for name in sorted(working_set):
        schema = working_set[name]
        if schema.name != name:
            raise ValueError(f"working-set entry {name!r} holds schema named {schema.name!r}")
        last_version = repo.latest_version(name)
        if last_version is None:
            if schema.version != 1:
                raise VersionTagTamper(name)
            new_schemas[name] = schema
            added.append(name)
            continue
        last_schema = repo.schema_for(name, last_version)
        changed = not schemas_equivalent(last_schema, schema)
        if schema.version == last_version:
            pass
        elif schema.version == last_version + 1 and changed:
            pass
        else:
            raise VersionTagTamper(name)
        if changed:
            new_schemas[name] = schema.with_version(last_version + 1)
            bumped.append((name, last_version, last_version + 1))
        else:
            new_schemas[name] = last_schema
    removed = tuple(
        sorted(name for name in (previous.schemas if previous else {}) if name not in working_set)
    )
    if not bumped and not added and not removed:
        return repo, ReleaseReport(noop=True, number=previous.number if previous else 0)

    number = (previous.number if previous else 0) + 1
    handlers = {**repo.handlers}  # the Repository constructor copies each entry
    stubs: list[tuple[str, int, int]] = []
    for name, old_version, new_version in bumped:
        entries = handlers.get(name, {})
        if (old_version, new_version) in entries:
            continue  # never overwrite an existing transformer
        transformation = diff_schemas(repo.schema_for(name, old_version), new_schemas[name])
        stub = generate_transformer(transformation)
        text = render_transformer(stub)
        handlers[name] = {
            **entries,
            (old_version, new_version): RegisteredTransformer(
                stub, text, content_digest(text), dirty=True
            ),
        }
        stubs.append((name, old_version, new_version))
    new_repo = Repository(
        repo.project_name, repo.releases + (Release(number, new_schemas),), handlers
    )
    report = ReleaseReport(
        noop=False,
        number=number,
        classes=tuple((name, new_schemas[name].version) for name in sorted(new_schemas)),
        bumped=tuple(bumped),
        added=tuple(added),
        removed=removed,
        stubs=tuple(stubs),
    )
    return new_repo, report


def register_transformer(
    repo: Repository, t: ObjectTransformer, *, overwrite: bool = False
) -> Repository:
    """Add a transformer (either direction) to its class's handler set."""
    history = repo.class_history(t.class_name)
    for v in (t.from_version, t.to_version):
        if v not in history:
            raise UnknownVersion(t.class_name, v)
    pair = (t.from_version, t.to_version)
    entries = dict(repo.handlers.get(t.class_name, {}))
    if pair in entries and not overwrite:
        raise OverwriteRefused(t.class_name, t.from_version, t.to_version)
    text = render_transformer(t)
    entries[pair] = RegisteredTransformer(t, text, content_digest(text), dirty=True)
    return Repository(repo.project_name, repo.releases, {**repo.handlers, t.class_name: entries})


# ---------------------------------------------------------------------------
# Disk format
# ---------------------------------------------------------------------------

_MANIFEST = "escher.manifest"
_RELEASE_RE = re.compile(r"release\s+(\d+)\s*\Z")
_CLASS_RE = re.compile(r"class\s+([A-Za-z_][A-Za-z0-9_]*)\s+version\s+(\d+)\s*\Z")
_TRANSFORMER_RE = re.compile(
    r"transformer\s+([A-Za-z_][A-Za-z0-9_]*)\s+(\d+)\s+(\d+)\s+([0-9a-f]+)\s*\Z"
)
_HANDLER_FILE_RE = re.compile(r"(\d+)_to_(\d+)\.est\Z")


def render_manifest(repo: Repository) -> str:
    lines: list[str] = []
    for rel in repo.releases:
        lines.append(f"release {rel.number}")
        for name in sorted(rel.schemas):
            lines.append(f"class {name} version {rel.schemas[name].version}")
    for class_name in sorted(repo.handlers):
        for (a, b) in sorted(repo.handlers[class_name]):
            entry = repo.handlers[class_name][(a, b)]
            lines.append(f"transformer {class_name} {a} {b} {entry.digest}")
    return "\n".join(lines) + "\n" if lines else ""


def load_repository(project_dir: str | Path) -> Repository:
    """Read a project directory back into memory.

    The manifest is authoritative for releases; handler files are picked up
    from disk even when unlisted, so a hand-written ``.est`` dropped into
    ``handlers/<CLASS>/`` is immediately usable. An unlisted handler file
    naming a version the manifest lacks is skipped: it is the stub of a save
    cut short before its manifest. Each distinct ``.esc`` text is parsed
    once, and releases holding the same text share its schema. One memo of
    parsed lines serves every ``.esc`` and ``.est`` parse of the call, so
    each distinct line is parsed once. A ParseError names its file.
    """
    project_dir = Path(project_dir)
    manifest_path = project_dir / _MANIFEST
    manifest_digests: dict[tuple[str, int, int], str] = {}
    releases: list[tuple[int, dict[str, ClassSchema]]] = []  # (number, schemas)
    parsed: dict[str, ClassSchema] = {}  # {.esc text: schema}, for this call only
    # parsed lines, for this call only: ``.est`` statements keyed by their
    # text, ``.esc`` lines by (production, text, ...) tuples
    memo: dict = {}
    for lineno, raw in enumerate(manifest_path.read_text(encoding="utf-8").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("--"):
            continue
        if m := _RELEASE_RE.match(line):
            releases.append((line_int(m.group(1), lineno), {}))
            continue
        if m := _CLASS_RE.match(line):
            if not releases:
                raise FormatError(lineno, "class line before any release line")
            name, version = m.group(1), line_int(m.group(2), lineno)
            number, schemas = releases[-1]
            path = project_dir / "releases" / str(number) / f"{name}.esc"
            text = path.read_text(encoding="utf-8")
            schema = parsed.get(text)
            if schema is None:
                with naming(f"releases/{number}/{name}.esc"):
                    schema = parsed[text] = parse_schema(text, memo)
            if schema.name != name or schema.version != version:
                raise FormatError(
                    lineno, f"{path} does not match manifest entry {name} version {version}"
                )
            schemas[name] = schema
            continue
        if m := _TRANSFORMER_RE.match(line):
            key = (m.group(1), line_int(m.group(2), lineno), line_int(m.group(3), lineno))
            manifest_digests[key] = m.group(4)
            continue
        raise FormatError(lineno, f"unrecognized manifest line {line!r}")

    released = {(name, s.version) for _, schemas in releases for name, s in schemas.items()}
    handlers: dict[str, dict[tuple[int, int], RegisteredTransformer]] = {}
    handlers_dir = project_dir / "handlers"
    if handlers_dir.is_dir():
        for class_dir in sorted(p for p in handlers_dir.iterdir() if p.is_dir()):
            entries: dict[tuple[int, int], RegisteredTransformer] = {}
            skipped = False
            for est in sorted(class_dir.glob("*.est")):
                m = _HANDLER_FILE_RE.match(est.name)
                if m is None:
                    raise FormatError(0, f"handler file {est} is not named <from>_to_<to>.est")
                pair = (line_int(m.group(1), 0), line_int(m.group(2), 0))
                recorded = manifest_digests.get((class_dir.name, *pair))
                if recorded is None and any((class_dir.name, v) not in released for v in pair):
                    skipped = True
                    continue
                text = est.read_text(encoding="utf-8")
                with naming(f"handlers/{class_dir.name}/{est.name}"):
                    t = parse_transformer(text, memo)
                if t.class_name != class_dir.name or (t.from_version, t.to_version) != pair:
                    raise FormatError(0, f"handler file {est} disagrees with its header")
                digest = content_digest(text)
                entries[pair] = RegisteredTransformer(
                    t, text, digest, user_modified=recorded is not None and recorded != digest
                )
            if entries or not skipped:  # a class whose only files are skipped has no handler set
                handlers[class_dir.name] = entries
    try:
        return Repository(
            project_dir.name,
            tuple(Release(number, schemas) for number, schemas in releases),
            handlers,
        )
    except ValueError as err:  # release numbering or version tags
        raise FormatError(0, f"{manifest_path}: {err}") from err


@contextmanager
def naming(name: str):
    """Name the file ``name`` in a ParseError raised inside."""
    try:
        yield
    except ParseError as err:
        err.path = name
        raise


def replace_file(path: Path, text: str) -> None:
    """Write ``text`` beside ``path``, flush it to disk, rename it over
    ``path`` and flush the directory, so that the rename survives a power
    loss: a reader sees the old file or the whole new one, never a part."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(text)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save_repository(repo: Repository, project_dir: str | Path) -> None:
    """Write release schemas, handler files, and then the manifest, each
    through ``replace_file``.

    A release schema is written only when its file is missing or holds other
    bytes, so a file the manifest lists is never rewritten with the same
    content; each distinct schema object is rendered once per call, as
    releases share the schema of an unchanged class. Handler files produced
    in this session (``dirty``) are written out; anything else on disk is
    left untouched unless missing entirely, so user edits survive. The
    manifest goes last, so a save cut short leaves the old manifest in place
    instead of one that names files never written.
    """
    project_dir = Path(project_dir)
    project_dir.mkdir(parents=True, exist_ok=True)
    rendered: dict[int, str] = {}  # id of a schema -> its text
    for rel in repo.releases:
        rel_dir = project_dir / "releases" / str(rel.number)
        rel_dir.mkdir(parents=True, exist_ok=True)
        for name in sorted(rel.schemas):
            path = rel_dir / f"{name}.esc"
            schema = rel.schemas[name]
            text = rendered.get(id(schema))
            if text is None:
                text = rendered[id(schema)] = render_schema(schema)
            try:
                unchanged = path.read_bytes() == text.encode("utf-8")
            except FileNotFoundError:
                unchanged = False
            if not unchanged:
                replace_file(path, text)
    for class_name in sorted(repo.handlers):
        class_dir = project_dir / "handlers" / class_name
        class_dir.mkdir(parents=True, exist_ok=True)
        for (a, b), entry in sorted(repo.handlers[class_name].items()):
            path = class_dir / f"{a}_to_{b}.est"
            if entry.dirty or not path.exists():
                replace_file(path, entry.text)
    replace_file(project_dir / _MANIFEST, render_manifest(repo))


@contextmanager
def project_lock(project_dir: str | Path, timeout: float = 10.0):
    """Advisory exclusive lock; concurrent invocations wait then give up.

    The holder keeps an exclusive ``flock`` on ``escher.lock`` while it holds
    the lock, and writes its PID there. The ``flock`` alone decides who holds
    the lock: the kernel frees the ``flock`` of a holder that dies, so its
    file is only stale text, which the next ``flock`` holder writes over.
    Only a ``flock`` holder writes or removes the file, so two waiters never
    both hold the lock.
    """
    path = Path(project_dir) / "escher.lock"
    deadline = time.monotonic() + timeout
    while True:
        fd = os.open(path, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            pass
        else:
            if _names_this_file(path, fd):
                break
            os.close(fd)  # the holder before removed it
            continue
        os.close(fd)
        if time.monotonic() > deadline:
            raise OSError(f"project is locked by another process ({path})")
        time.sleep(0.05)
    try:
        os.ftruncate(fd, 0)
        os.pwrite(fd, str(os.getpid()).encode(), 0)
        yield
    finally:
        path.unlink(missing_ok=True)  # before the flock goes with the close
        os.close(fd)


def _names_this_file(path: Path, fd: int) -> bool:
    try:
        return os.stat(path).st_ino == os.fstat(fd).st_ino
    except FileNotFoundError:
        return False

