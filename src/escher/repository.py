"""On-disk project state: releases, class version histories, handlers.

Project layout:

    project/
      escher.manifest
      releases/<n>/<CLASS>.esc           one per class version, in the release that first tagged it
      handlers/<CLASS>/<from>_to_<to>.est

The manifest is line-oriented (``release <n>``, ``class <NAME> version <v>``,
``transformer <CLASS> <from> <to> <digest>``). A release bumps a class's
version tag by exactly one when the class actually changed, keeps it
otherwise, and generates forward transformer stubs for changed classes
without ever overwriting an existing handler file.

Every project file is a ``StoredFile``: its text, whether this session
made it, the digest the manifest records for it, and the schema or
transformer it holds. A released class version never changes, so a
Repository holds one ``StoredFile`` per (class, version), and a release is
its version tags over that table. A loaded project parses and hashes no file
up front: the manifest and the handler file names give every class's version
tags and every class's transformer pairs, a file is parsed the first time a
command asks for its schema or transformer, and its digest is computed only
when a save renders the manifest or ``user_modified`` is asked.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping

from ._lex import BLANKS, IDENT, INT, line_format, line_int
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
class StoredFile:
    """One project file: a class version's ``.esc`` text or a handler's
    ``.est`` text, and the schema or transformer the text holds, which
    ``parse`` gives on first use."""

    text: str
    dirty: bool = False  # made this session; the next save writes it out
    recorded: str | None = None  # the manifest's digest of the file, where it lists one
    parse: Callable[[], ClassSchema | ObjectTransformer] = field(
        kw_only=True, compare=False, repr=False
    )

    @cached_property
    def value(self) -> ClassSchema | ObjectTransformer:
        return self.parse()

    @cached_property
    def digest(self) -> str:
        return content_digest(self.text)

    @property
    def user_modified(self) -> bool:
        """The file differs from the one the manifest recorded."""
        return self.recorded is not None and self.recorded != self.digest


def _made(value: ClassSchema | ObjectTransformer, render: Callable[[Any], str]) -> StoredFile:
    """A class version or handler made in this session, which the next save
    writes out."""
    return StoredFile(render(value), dirty=True, parse=lambda: value)


class ReleaseSchemas(Mapping[str, ClassSchema]):
    """Read-only {class: schema} of one release: its version tags, known
    without a parse, over a {(class, version): StoredFile} table."""

    def __init__(
        self, versions: dict[str, int], table: Mapping[tuple[str, int], StoredFile]
    ) -> None:
        self.versions: Mapping[str, int] = MappingProxyType(versions)
        self._table = table

    def __getitem__(self, name: str) -> ClassSchema:
        return self._table[name, self.versions[name]].value  # a KeyError for a class it lacks

    def __contains__(self, name: object) -> bool:
        return name in self.versions

    def __iter__(self) -> Iterator[str]:
        return iter(self.versions)

    def __len__(self) -> int:
        return len(self.versions)

    def __repr__(self) -> str:
        return f"ReleaseSchemas(versions={dict(self.versions)})"


@dataclass(frozen=True)
class Release:
    number: int
    schemas: Mapping[str, ClassSchema]  # one version per class per release

    def __post_init__(self) -> None:
        if self.number < 1:
            raise ValueError(f"release numbers start at 1, got {self.number}")
        if isinstance(self.schemas, ReleaseSchemas):
            return
        # A read-only copy, so a Repository's history index cannot go stale.
        schemas = dict(self.schemas)
        for name, schema in schemas.items():
            if schema.name != name:
                raise ValueError(f"release entry {name!r} holds schema named {schema.name!r}")
        versions = {name: schema.version for name, schema in schemas.items()}
        table = {(name, s.version): _made(s, render_schema) for name, s in schemas.items()}
        object.__setattr__(self, "schemas", ReleaseSchemas(versions, table))

    @property
    def versions(self) -> Mapping[str, int]:
        """{class: version tag}, known without a parse."""
        return self.schemas.versions


_NO_HISTORY: Mapping[int, ClassSchema] = MappingProxyType({})


@dataclass(frozen=True)
class Repository:
    project_name: str
    releases: tuple[Release, ...] = ()
    handlers: Mapping[str, Mapping[tuple[int, int], StoredFile]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for position, release in enumerate(self.releases, start=1):
            if release.number != position:
                raise ValueError(
                    f"release numbers must increase by 1: expected {position}, got {release.number}"
                )
        # {class: {version: number of the release that first tagged it}} and
        # the one {(class, version): StoredFile} table, built once from the
        # releases: ``releases`` is a tuple, so neither can go stale. Tags
        # only stay or rise by one, so the last key of a class's entry is its
        # latest tag. Releases that share a table share its entries, so only
        # the entries of separately built releases are compared.
        versions: dict[str, dict[int, int]] = {}
        table: dict[tuple[str, int], StoredFile] = {}
        for release in self.releases:
            for name, version in release.versions.items():
                where = versions.setdefault(name, {})
                last = next(reversed(where), None)
                if last is not None and version not in (last, last + 1):
                    raise ValueError(f"version tag of {name} jumps from {last} to {version}")
                entry = release.schemas._table[name, version]
                first = table.setdefault((name, version), entry)
                where.setdefault(version, release.number)
                if first is not entry and first.value != entry.value:
                    raise ValueError(
                        f"release {release.number} holds another schema of {name} version {version}"
                    )
        object.__setattr__(self, "_versions", versions)
        object.__setattr__(self, "_table", table)
        # Handlers are copied into read-only views, so the indexes below
        # cannot go stale: a changed handler set is a new Repository.
        handlers = {name: MappingProxyType(dict(e)) for name, e in self.handlers.items()}
        object.__setattr__(self, "handlers", MappingProxyType(handlers))
        for class_name, entries in handlers.items():
            known = versions.get(class_name, {})
            for pair in entries:
                for v in pair:
                    if v not in known:
                        raise UnknownVersion(class_name, v)
        # Filled on first use for a class: {class: read-only {version:
        # schema}}, {class: read-only {(from, to): transformer}}, and
        # {(class, start, goal): version path or None}.
        object.__setattr__(self, "_histories", {})
        object.__setattr__(self, "_transformers", {})
        object.__setattr__(self, "_paths", {})

    def latest_release(self) -> Release | None:
        return self.releases[-1] if self.releases else None

    def class_history(self, class_name: str) -> Mapping[int, ClassSchema]:
        """Read-only {version: schema} of one class. The first call for a
        class parses its schemas."""
        history = self._histories.get(class_name)
        if history is None:
            versions = self._versions.get(class_name)
            if versions is None:
                return _NO_HISTORY
            history = self._histories[class_name] = MappingProxyType({
                version: self._table[class_name, version].value for version in versions
            })
        return history

    def class_versions(self, class_name: str) -> Collection[int]:
        """The version tags of one class, oldest first, known without a parse."""
        return self._versions.get(class_name, {}).keys()

    def latest_version(self, class_name: str) -> int | None:
        return next(reversed(self.class_versions(class_name)), None)

    def schema_for(self, class_name: str, version: int) -> ClassSchema:
        history = self.class_history(class_name)
        if not history:
            raise UnknownClass(class_name)
        if version not in history:
            raise UnknownVersion(class_name, version)
        return history[version]

    def handlers_for(self, class_name: str) -> Mapping[tuple[int, int], ObjectTransformer] | None:
        """Read-only {(from, to): transformer} of one class, or None when the
        class has no handler set. The first call for a class parses its
        handlers."""
        transformers = self._transformers.get(class_name)
        if transformers is None and class_name in self.handlers:
            transformers = self._transformers[class_name] = MappingProxyType({
                pair: entry.value for pair, entry in self.handlers[class_name].items()
            })
        return transformers

    def hop_path(self, class_name: str, start: int, goal: int) -> tuple[int, ...] | None:
        """Version sequence from ``start`` to ``goal`` along the class's
        transformers (see ``_shortest_path``), or None; each is found once per
        Repository."""
        key = (class_name, start, goal)
        if key not in self._paths:
            path = _shortest_path(self.handlers.get(class_name, {}).keys(), start, goal)
            self._paths[key] = None if path is None else tuple(path)
        return self._paths[key]

    def transformer_pairs(self, class_name: str) -> frozenset[tuple[int, int]]:
        return frozenset(self.handlers.get(class_name, {}))


def breadth_first(
    edges: Iterable[tuple[int, int]], starts: Iterable[int] | None = None
) -> dict[int, dict[int, int]]:
    """{start: {version: parent}}: each version reachable over ``edges``
    from a start in ``starts`` (by default each version with an edge out),
    the start its own parent. The walk visits successors in ascending order
    and keeps the first parent it finds. Hop paths and PER's closure are both
    read off it, so PER counts exactly the pairs a migration can cross."""
    successors: dict[int, list[int]] = {}
    for a, b in sorted(set(edges)):
        successors.setdefault(a, []).append(b)
    walks: dict[int, dict[int, int]] = {}
    for start in successors if starts is None else starts:
        parent = walks[start] = {start: start}
        queue = [start]
        for node in queue:  # the queue grows while it is read, in breadth-first order
            for succ in successors.get(node, ()):
                if succ not in parent:
                    parent[succ] = node
                    queue.append(succ)
    return walks


def _shortest_path(edges: Iterable[tuple[int, int]], start: int, goal: int) -> list[int] | None:
    """Version sequence along registered transformers, or None.

    Ties between equal-length paths break toward the lexicographically
    smallest version sequence, the path ``breadth_first`` walks.
    """
    parent = breadth_first(edges, (start,))[start]
    if goal not in parent:
        return None
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


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

    A class whose tag is its latest one and whose rendering is the text
    stored for that version is unchanged without a parse, since
    ``parse_schema(render_schema(s)) == s``. Every other class is compared
    with its parsed latest schema. An unchanged class keeps its tag, so only
    a new version adds a schema to the table.
    """
    previous = repo.latest_release()
    versions: dict[str, int] = {}  # the new release's tags
    made: dict[tuple[str, int], StoredFile] = {}  # its new versions
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
            versions[name] = 1
            made[name, 1] = _made(schema, render_schema)
            added.append(name)
            continue
        stored = repo._table[name, last_version]
        versions[name] = last_version
        if schema.version == last_version and render_schema(schema) == stored.text:
            continue
        changed = not schemas_equivalent(stored.value, schema)
        if schema.version != last_version and not (schema.version == last_version + 1 and changed):
            raise VersionTagTamper(name)
        if changed:
            versions[name] = new = last_version + 1
            made[name, new] = _made(schema.with_version(new), render_schema)
            bumped.append((name, last_version, new))
    removed = tuple(
        sorted(name for name in (previous.versions if previous else {}) if name not in working_set)
    )
    if not bumped and not added and not removed:
        return repo, ReleaseReport(noop=True, number=previous.number if previous else 0)

    number = (previous.number if previous else 0) + 1
    table = {**repo._table, **made}
    handlers = {**repo.handlers}  # the Repository constructor copies each entry
    stubs: list[tuple[str, int, int]] = []
    for name, old_version, new_version in bumped:
        entries = handlers.get(name, {})
        if (old_version, new_version) in entries:
            continue  # never overwrite an existing transformer
        transformation = diff_schemas(table[name, old_version].value, table[name, new_version].value)
        stub = generate_transformer(transformation)
        handlers[name] = {**entries, (old_version, new_version): _made(stub, render_transformer)}
        stubs.append((name, old_version, new_version))
    new_release = Release(number, ReleaseSchemas(versions, table))
    new_repo = Repository(repo.project_name, repo.releases + (new_release,), handlers)
    report = ReleaseReport(
        noop=False,
        number=number,
        classes=tuple(sorted(versions.items())),
        bumped=tuple(bumped),
        added=tuple(added),
        removed=removed,
        stubs=tuple(stubs),
    )
    return new_repo, report


def register_transformer(
    repo: Repository, t: ObjectTransformer, *, overwrite: bool = False
) -> Repository:
    """Add a transformer (either direction) to its class's handler set. The
    new Repository raises UnknownVersion for a version the class lacks."""
    pair = (t.from_version, t.to_version)
    entries = dict(repo.handlers.get(t.class_name, {}))
    if pair in entries and not overwrite:
        raise OverwriteRefused(t.class_name, t.from_version, t.to_version)
    entries[pair] = _made(t, render_transformer)
    return Repository(repo.project_name, repo.releases, {**repo.handlers, t.class_name: entries})


# ---------------------------------------------------------------------------
# Disk format
# ---------------------------------------------------------------------------

_MANIFEST = "escher.manifest"
_RELEASE_RE = line_format("release", f"({INT})")
_CLASS_RE = line_format("class", f"({IDENT})", "version", f"({INT})")
_TRANSFORMER_RE = line_format("transformer", f"({IDENT})", f"({INT})", f"({INT})", "([0-9a-f]+)")
_HANDLER_FILE_RE = re.compile(rf"({INT})_to_({INT})\.est\Z")


def render_manifest(repo: Repository) -> str:
    lines: list[str] = []
    for rel in repo.releases:
        lines.append(f"release {rel.number}")
        for name in sorted(rel.versions):
            lines.append(f"class {name} version {rel.versions[name]}")
    for class_name in sorted(repo.handlers):
        for (a, b) in sorted(repo.handlers[class_name]):
            entry = repo.handlers[class_name][(a, b)]
            lines.append(f"transformer {class_name} {a} {b} {entry.digest}")
    return "\n".join(lines) + "\n" if lines else ""


def load_repository(project_dir: str | Path) -> Repository:
    """Read a project directory back, parsing and hashing no file.

    The manifest is authoritative for releases; handler files are picked up
    from disk even when unlisted, so a hand-written ``.est`` dropped into
    ``handlers/<CLASS>/`` is immediately usable. An unlisted handler file
    naming a version the manifest lacks is skipped: it is the stub of a save
    cut short before its manifest. The load reads the manifest, every
    handler file, and each class version's file once, from the release that
    first tagged the version; a copy in a later release is never read. It
    checks the manifest, the release numbering, the version tags and the
    handler file names. A schema or handler is parsed the first time a
    command asks for it, and a ParseError names its file. A handler keeps the
    digest its manifest line records, and is hashed only when a save or
    ``user_modified`` asks for its own digest.
    """
    project_dir = Path(project_dir)
    root = os.fspath(project_dir)  # plain strings below: a load joins hundreds of paths
    manifest_path = project_dir / _MANIFEST
    table: dict[tuple[str, int], StoredFile] = {}
    manifest_digests: dict[tuple[str, int, int], str] = {}
    releases: list[tuple[int, dict[str, int]]] = []  # (number, versions)
    for lineno, raw in enumerate(read_text(os.fspath(manifest_path)).split("\n"), start=1):
        line = raw.strip(BLANKS)
        if not line or line.startswith("--"):
            continue
        if m := _RELEASE_RE.match(line):
            releases.append((line_int(m.group(1), lineno), {}))
            continue
        if m := _CLASS_RE.match(line):
            if not releases:
                raise FormatError(lineno, "class line before any release line")
            name, version = m.group(1), line_int(m.group(2), lineno)
            number, versions = releases[-1]
            versions[name] = version
            if (name, version) not in table:
                path = f"releases/{number}/{name}.esc"
                text = read_text(f"{root}/{path}")
                parse = functools.partial(_parsed_schema, path, text, name, version)
                table[name, version] = StoredFile(text, parse=parse)
            continue
        if m := _TRANSFORMER_RE.match(line):
            key = (m.group(1), line_int(m.group(2), lineno), line_int(m.group(3), lineno))
            manifest_digests[key] = m.group(4)
            continue
        raise FormatError(lineno, f"unrecognized manifest line {line!r}")

    handlers: dict[str, dict[tuple[int, int], StoredFile]] = {}
    if os.path.isdir(f"{root}/handlers"):
        class_names = (  # not a directory a save is building (``_write_directory``)
            e.name for e in os.scandir(f"{root}/handlers") if e.is_dir() and e.name[0] != "."
        )
        for class_name in sorted(class_names):
            entries: dict[tuple[int, int], StoredFile] = {}
            skipped = False
            for file_name in sorted(n for n in os.listdir(f"{root}/handlers/{class_name}")
                                    if n.endswith(".est")):
                relative = f"handlers/{class_name}/{file_name}"
                m = _HANDLER_FILE_RE.match(file_name)
                if m is None:
                    raise FormatError(
                        0, f"handler file {project_dir / relative} is not named <from>_to_<to>.est"
                    )
                pair = (line_int(m.group(1), 0), line_int(m.group(2), 0))
                recorded = manifest_digests.get((class_name, *pair))
                if recorded is None and any((class_name, v) not in table for v in pair):
                    skipped = True
                    continue
                text = read_text(f"{root}/{relative}")
                parse = functools.partial(_parsed_transformer, relative, text, class_name, pair)
                entries[pair] = StoredFile(text, recorded=recorded, parse=parse)
            if entries or not skipped:  # a class whose only files are skipped has no handler set
                handlers[class_name] = entries
    try:
        return Repository(
            project_dir.name,
            tuple(Release(number, ReleaseSchemas(versions, table)) for number, versions in releases),
            handlers,
        )
    except ValueError as err:  # release numbering or version tags
        raise FormatError(0, f"{manifest_path}: {err}") from err


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``. ``os.read`` is called until it
    returns nothing, since a signal may cut one read short."""
    fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as err:  # such as reading a directory, which names no file
        err.filename = path
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def read_text(path: str) -> str:
    """The file at ``path`` as text-mode ``open()`` reads it: decoded as
    UTF-8, with each ``\\r\\n`` and then each lone ``\\r`` read as ``\\n``.
    Every file escher reads goes through it: the project's files and the
    CLI's ``.esc``, ``.eso`` and ``.hist`` inputs."""
    text = _read_bytes(path).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _parsed_schema(path: str, text: str, name: str, version: int) -> ClassSchema:
    with naming(path):
        schema = parse_schema(text)
    if schema.name != name or schema.version != version:
        raise FormatError(0, f"{path} does not match manifest entry {name} version {version}")
    return schema


def _parsed_transformer(
    path: str, text: str, class_name: str, pair: tuple[int, int]
) -> ObjectTransformer:
    with naming(path):
        t = parse_transformer(text)
    if t.class_name != class_name or (t.from_version, t.to_version) != pair:
        raise FormatError(0, f"handler file {path} disagrees with its header")
    return t


@contextmanager
def naming(name: str):
    """Name the file ``name`` in a ParseError raised inside."""
    try:
        yield
    except ParseError as err:
        err.path = name
        raise


def replace_file(path: str | Path, text: str) -> None:
    """Write ``text`` beside ``path``, flush it to disk, rename it over
    ``path`` and flush the directory, so that the rename survives a power
    loss: a reader sees the old file or the whole new one, never a part."""
    _write(path, text)
    _sync_directory(os.path.dirname(os.path.abspath(path)))


def _write(path: str | Path, text: str) -> None:
    """``replace_file`` short of the directory flush, which the caller owes."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(text)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _sync_directory(path: str) -> None:
    directory = os.open(path, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _write_directory(path: str, files: dict[str, str]) -> None:
    """Create the directory ``path`` holding ``files`` ({name: text}) at
    once: build it beside ``path``, flush it, and rename it into place."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    os.mkdir(tmp)
    try:
        for file_name, text in files.items():
            _write(f"{tmp}/{file_name}", text)
        _sync_directory(tmp)
        os.replace(tmp, path)
    except BaseException:
        for file_name in os.listdir(tmp):  # ``_write`` removed its own temp file
            os.unlink(f"{tmp}/{file_name}")
        os.rmdir(tmp)
        raise


def _make_directory(path: str, created: list[str]) -> str:
    """``path`` as a directory, creating it and any missing parent; each one
    created is appended to ``created``, parents first."""
    if not os.path.isdir(path):
        _make_directory(os.path.dirname(path), created)
        os.mkdir(path)
        created.append(path)
    return path


def save_repository(repo: Repository, project_dir: str | Path) -> None:
    """Write class version files, handler files, and then the manifest.

    Each class version has one file, in ``releases/<n>`` of the release that
    first tagged it, and each handler is a file in ``handlers/<CLASS>``. One
    rule serves every such directory: one the project lacks is built beside
    its place and renamed there whole (``_write_directory``), so a save cut
    short never leaves a part of one; in one the project has, a file is
    written only when it was made in this session (``dirty``) or is missing,
    from the text the load read. A file on disk is never read back, so user
    edits survive.

    Each file is renamed into place once flushed. Then each directory that
    gained or changed an entry is flushed once: those of the written files,
    and the parent of each directory the save created or renamed into place.
    The manifest goes last through ``replace_file``, so a save cut short
    leaves the old manifest in place instead of one that names files never
    written or directory entries never flushed.
    """
    root = os.path.abspath(project_dir)  # plain strings below, as in load_repository
    directories: dict[str, dict[str, StoredFile]] = {}  # {directory: {file name: file}}
    for rel in repo.releases:
        for name, version in sorted(rel.versions.items()):
            if repo._versions[name][version] == rel.number:  # the release that first tagged it
                files = directories.setdefault(f"releases/{rel.number}", {})
                files[f"{name}.esc"] = repo._table[name, version]
    for class_name in sorted(repo.handlers):
        directories[f"handlers/{class_name}"] = {
            f"{a}_to_{b}.est": entry for (a, b), entry in sorted(repo.handlers[class_name].items())
        }
    created: list[str] = []
    _make_directory(root, created)
    changed: dict[str, None] = {}  # directories that gained or changed an entry, in order
    for relative, files in directories.items():
        directory = f"{root}/{relative}"
        if not os.path.isdir(directory):
            parent = _make_directory(os.path.dirname(directory), created)
            _write_directory(directory, {name: entry.text for name, entry in files.items()})
            changed[parent] = None
            continue
        for name, entry in files.items():
            path = f"{directory}/{name}"
            if entry.dirty or not os.path.exists(path):
                _write(path, entry.text)
                changed[directory] = None
    for directory in reversed(created):
        changed[os.path.dirname(directory)] = None
    for directory in changed:
        _sync_directory(directory)
    replace_file(Path(root, _MANIFEST), render_manifest(repo))


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

