"""A loaded project parses a schema or handler only when a command asks for
it, and a save leaves a project that loads as the one before or after it,
wherever it is cut short."""

from __future__ import annotations

import functools
import itertools
import os
import random
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import BANK_V2_TEXT, FIXTURES, OTHER_V2, run_cli

from escher import repository
from escher.errors import EscherError, FormatError
from escher.repository import (
    Release,
    ReleaseSchemas,
    Repository,
    StoredFile,
    empty_repository,
    load_repository,
    release,
    save_repository,
)
from escher.schema import (
    Attribute,
    ClassSchema,
    ClassType,
    Detachable,
    GenericDerivation,
    InvariantExpr,
    parse_schema,
    render_schema,
)
from escher.transformer import parse_transformer
from helpers import random_schema, random_schema_pair, write_old_layout

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def random_project(rng: random.Random) -> Repository:
    """Three releases of two classes built from ``random_schema_pair``: P
    changes in release 2, Q in release 3, each with its generated stub."""
    (p1, p2), (q1, q2) = (
        tuple(replace(s, name=name) for s in random_schema_pair(rng)) for name in ("P", "Q")
    )
    repo, _ = release(empty_repository("random"), {"P": p1, "Q": q1})
    repo, _ = release(repo, {"P": p2.with_version(1), "Q": q1})
    repo, _ = release(repo, {"P": repo.latest_release().schemas["P"], "Q": q2.with_version(1)})
    return repo


def force_parse(repo: Repository) -> Repository:
    """``repo`` once every schema and handler it holds is parsed, so that a
    file that does not parse raises here."""
    for rel in repo.releases:
        dict(rel.schemas)
    for entries in repo.handlers.values():
        for entry in entries.values():
            entry.value
    return repo


def parsed_one_by_one(project: Path) -> Repository:
    """The project with every file parsed on its own, apart from the parses
    a load shares: each version's file from the release that first tagged it."""
    manifest = load_repository(project)  # only its versions, texts and pairs are read
    first: dict[tuple[str, int], ClassSchema] = {}
    releases = []
    for rel in manifest.releases:
        for name, version in rel.versions.items():
            if (name, version) not in first:
                path = project / "releases" / str(rel.number) / f"{name}.esc"
                first[name, version] = parse_schema(path.read_text(encoding="utf-8"))
        releases.append(Release(rel.number, {
            name: first[name, version] for name, version in rel.versions.items()
        }))
    handlers = {
        name: {
            pair: StoredFile(entry.text, recorded=entry.recorded,
                             parse=functools.partial(parse_transformer, entry.text))
            for pair, entry in entries.items()
        }
        for name, entries in manifest.handlers.items()
    }
    return Repository(manifest.project_name, tuple(releases), handlers)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(["P", "Q", "ABSENT"]))
def test_a_lazy_load_equals_a_project_parsed_file_by_file(tmp_path_factory, seed, order):
    project = tmp_path_factory.mktemp("lazy") / "random"
    save_repository(random_project(random.Random(seed)), project)
    lazy, separate = load_repository(project), parsed_one_by_one(project)
    for name in order:  # the first use of a class parses it, in any order
        assert lazy.handlers_for(name) == separate.handlers_for(name)
        assert lazy.class_history(name) == separate.class_history(name)
        for version in separate.class_history(name):
            assert lazy.schema_for(name, version) == separate.schema_for(name, version)
        for start, goal in itertools.product((1, 2, 3), (1, 2, 3)):
            assert lazy.hop_path(name, start, goal) == separate.hop_path(name, start, goal)
    assert lazy.releases == separate.releases
    assert lazy == separate


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_old_and_new_layouts_load_and_run_alike(tmp_path_factory, seed):
    """A project saved in the layout older saves wrote, with every class in
    every release, and the same project saved now, with one file per class
    version, load equal and give the same command outputs."""
    repo = random_project(random.Random(seed))
    base = tmp_path_factory.mktemp("layouts")
    old, new = base / "old" / "random", base / "new" / "random"
    write_old_layout(repo, old)
    save_repository(repo, new)
    first: dict[tuple[str, int], str] = {}  # the release that first tagged each version
    for rel in repo.releases:
        for name, version in rel.versions.items():
            first.setdefault((name, version), f"releases/{rel.number}/{name}.esc")
    assert sorted(str(p.relative_to(new)) for p in new.glob("releases/*/*.esc")) == sorted(
        first.values())
    assert load_repository(old) == load_repository(new)
    with pytest.MonkeyPatch.context() as monkeypatch:
        written, replace_ = [], os.replace
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: written.append(Path(dst)) or replace_(src, dst))
        save_repository(load_repository(old), old)
    assert written == [old / "escher.manifest"]

    objects = base / "objects.eso"
    objects.write_text("ESCHER-OBJECTS 1\nobj 0 P version 1\nend\nobj 1 Q version 1\nend\n",
                       encoding="utf-8")
    working = base / "work"
    working.mkdir()
    latest = repo.latest_release().schemas
    changed = latest["P"].with_attributes(
        latest["P"].attributes + (Attribute("added", ClassType("INTEGER")),))
    for schema in (changed, latest["Q"]):
        (working / f"{schema.name}.esc").write_text(render_schema(schema), encoding="utf-8")
    for args in (("per",), ("migrate", str(objects), "--to-release", "3"), ("release", str(working))):
        assert run_cli(*args, "--project", str(old)) == run_cli(*args, "--project", str(new)), args
    assert load_repository(old) == load_repository(new)


@pytest.fixture
def parses(monkeypatch) -> list[str]:
    """The files repository parses, as ``schema <text>`` and ``handler
    <text>`` entries."""
    seen: list[str] = []
    parse_schema_, parse_transformer_ = repository.parse_schema, repository.parse_transformer

    def schema(source):
        seen.append(f"schema {source}")
        return parse_schema_(source)

    def transformer(source):
        seen.append(f"handler {source}")
        return parse_transformer_(source)

    monkeypatch.setattr(repository, "parse_schema", schema)
    monkeypatch.setattr(repository, "parse_transformer", transformer)
    return seen


def files(project: Path, *relatives: str) -> list[str]:
    return sorted(
        f"{'schema' if r.endswith('.esc') else 'handler'} "
        + (project / r).read_text(encoding="utf-8")
        for r in relatives
    )


def test_a_command_parses_only_the_files_it_needs(two_class_project, tmp_path, parses):
    project = two_class_project
    assert run_cli("per", "--project", str(project))[0] == 0
    assert parses == []

    bank_file = str(FIXTURES / "bank_account_v1.eso")
    code, out, _ = run_cli("migrate", bank_file, "--to-release", "2", "--project", str(project))
    assert code == 0
    assert sorted(parses) == files(
        project, "releases/1/BANK_ACCOUNT.esc", "releases/2/BANK_ACCOUNT.esc",
        "handlers/BANK_ACCOUNT/1_to_2.est",
    )
    parses.clear()

    working = tmp_path / "work"
    working.mkdir()
    (working / "BANK_ACCOUNT.esc").write_text(BANK_V2_TEXT, encoding="utf-8")
    (working / "OTHER.esc").write_text("version 2\n" + OTHER_V2.replace("REAL", "STRING"),
                                       encoding="utf-8")
    expected = files(project, "releases/2/OTHER.esc")
    code, out, _ = run_cli("release", str(working), "--project", str(project))
    assert (code, out.splitlines()[-1]) == (0, "stub OTHER 2 3")
    assert sorted(parses) == expected  # BANK_ACCOUNT renders as its stored text


def test_migrate_and_per_hash_no_project_file(two_class_project, monkeypatch):
    """A load keeps the digests its manifest records, and neither command
    asks whether a handler was edited."""
    hashed: list[str] = []
    digest = repository.content_digest
    monkeypatch.setattr(repository, "content_digest", lambda text: hashed.append(text) or digest(text))
    project, bank_file = str(two_class_project), str(FIXTURES / "bank_account_v1.eso")
    assert run_cli("per", "--project", project)[0] == 0
    assert run_cli("migrate", bank_file, "--to-release", "2", "--project", project)[0] == 0
    assert hashed == []
    entry = load_repository(project).handlers["BANK_ACCOUNT"][1, 2]
    assert not entry.user_modified and len(hashed) == 1  # hashed when asked


def test_an_unchanged_working_set_parses_no_stored_schema(two_class_project, tmp_path, parses):
    project, working = two_class_project, tmp_path / "work"
    shutil.copytree(project / "releases" / "2", working)
    assert run_cli("release", str(working), "--project", str(project))[:2] == (0, "no-op\n")
    assert parses == []


def test_a_save_after_a_release_reads_no_file_and_writes_only_what_it_made(
    two_class_project, monkeypatch
):
    project = two_class_project
    repo = load_repository(project)
    working_set = dict(repo.latest_release().schemas)
    working_set["OTHER"] = parse_schema("version 2\n" + OTHER_V2.replace("REAL", "STRING"))
    repo, _ = release(repo, working_set)
    events: list[str] = []
    read, replace_ = repository._read_bytes, os.replace

    def counting(schema):
        events.append(f"render {schema.name}")
        return render_schema(schema)

    monkeypatch.setattr(repository, "render_schema", counting)
    monkeypatch.setattr(repository, "_read_bytes", lambda path: events.append(path) or read(path))
    monkeypatch.setattr(os, "replace", lambda src, dst: events.append(
        f"write {os.path.relpath(dst, project)}".replace(str(os.getpid()), "PID"))
        or replace_(src, dst))
    save_repository(repo, project)
    assert events == [
        # a new release directory is built beside its place, then renamed there;
        # BANK_ACCOUNT keeps its tag, so it has no file there
        "write releases/.3.PID.tmp/OTHER.esc", "write releases/3",
        "write handlers/OTHER/2_to_3.est",
        "write escher.manifest",
    ]
    assert not (project / "releases" / "3" / "BANK_ACCOUNT.esc").exists()


def toggle_markers(schema: ClassSchema) -> ClassSchema:
    """``schema`` with each unmarked class-typed attribute made explicitly
    ``detachable`` and each explicitly ``detachable`` one unmarked: an
    equivalent schema that renders differently."""
    def toggled(attr: Attribute) -> Attribute:
        t = attr.declared_type
        if isinstance(t, (ClassType, GenericDerivation)):
            return Attribute(attr.name, Detachable(t))
        if isinstance(t, Detachable):
            return Attribute(attr.name, t.inner)
        return attr
    return schema.with_attributes(tuple(toggled(a) for a in schema.attributes))


# Ways a stored ``.esc`` file may differ from ``render_schema``'s text. A load
# turns CRLF into LF, so that file reads as rendered.
STORED_FORMS = {
    "rendered": lambda text: text,
    "commented": lambda text: "-- kept by hand\n" + text,
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "extra blanks": lambda text: text.replace(": ", " :  ").replace("\n", " \n"),
    "explicit detachable": lambda text: render_schema(toggle_markers(parse_schema(text))),
    "garbled": lambda text: text.replace("end\n", "ned\n"),
    "retagged": lambda text: re.sub("[0-9]+", lambda m: str(int(m.group()) + 1), text, count=1),
}


def edited(rng: random.Random, name: str, latest: ClassSchema | None, edit: str):
    """The working-set entry of class ``name`` under ``edit``, or None."""
    if edit == "absent":
        return None
    if latest is None:
        return replace(random_schema(rng), name=name, version=1 + (edit == "bumped"))
    if edit == "changed":  # one attribute dropped or added; the tag kept or raised by one
        kept = list(latest.attributes)
        if kept and rng.random() < 0.5:
            del kept[rng.randrange(len(kept))]
        else:
            kept.insert(rng.randint(0, len(kept)), Attribute("added", ClassType("INTEGER")))
        changed = replace(latest, attributes=tuple(kept), invariant=InvariantExpr())
        return changed.with_version(latest.version + rng.randint(0, 1))
    if edit == "bumped":  # unchanged, so a tag tamper
        return latest.with_version(latest.version + 1)
    return toggle_markers(latest) if edit == "toggled" else latest


def parsed_without_texts(project: Path) -> Repository:
    """The project with a stored text that no rendering equals, so that
    ``release`` compares each class by parsed schema; a file that does not
    parse raises when it is looked up, as in the loaded project."""
    loaded = load_repository(project)
    table = {
        key: StoredFile("", parse=lambda entry=entry: entry.value)
        for key, entry in loaded._table.items()
    }
    releases = tuple(
        Release(rel.number, ReleaseSchemas(dict(rel.versions), table)) for rel in loaded.releases
    )
    return Repository(loaded.project_name, releases, loaded.handlers)


def released(repo: Repository, working_set: dict[str, ClassSchema]):
    try:
        return release(repo, working_set)
    except EscherError as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    forms=st.lists(st.sampled_from(sorted(STORED_FORMS)), min_size=4, max_size=4),
    # "same" twice, so that more examples cut a release instead of failing on a tag
    edits=st.lists(st.sampled_from(["same", "same", "toggled", "changed", "bumped", "absent"]),
                   min_size=3, max_size=3),
)
def test_a_release_by_stored_text_equals_a_release_by_parsed_schema(
    tmp_path_factory, seed, forms, edits
):
    rng = random.Random(seed)
    built = random_project(rng)
    project = tmp_path_factory.mktemp("texts") / "random"
    save_repository(built, project)
    stored = sorted((project / "releases").glob("*/*.esc"))
    for path, form in zip(stored, forms):
        path.write_bytes(STORED_FORMS[form](path.read_text(encoding="utf-8")).encode("utf-8"))
    latest = built.latest_release().schemas
    working_set = {}
    for name, edit in zip(("P", "Q", "R"), edits):
        schema = edited(rng, name, latest.get(name), edit)
        if schema is not None:
            working_set[name] = schema

    got = released(load_repository(project), working_set)
    expected = released(parsed_without_texts(project), working_set)
    if isinstance(expected[0], type):  # the same error
        assert got == expected
        return
    (got_repo, got_report), (expected_repo, expected_report) = got, expected
    assert got_report == expected_report
    assert got_repo.handlers == expected_repo.handlers
    assert got_repo.releases[-1] == expected_repo.releases[-1]
    if not {"garbled", "retagged"} & set(forms):  # equality parses every release
        assert got_repo == expected_repo
    if not got_report.noop:  # only the new versions are for the save to write
        made = {key for key, entry in got_repo._table.items() if entry.dirty}
        assert made == {(name, b) for name, _, b in got_report.bumped} | {
            (name, 1) for name in got_report.added
        }


def test_a_to_target_is_checked_against_version_tags_only(two_class_project, parses):
    project, bank_file = str(two_class_project), str(FIXTURES / "bank_account_v1.eso")
    code, _, _ = run_cli("migrate", bank_file, "--to", "BANK_ACCOUNT=2", "--to", "OTHER=2",
                         "--project", project)
    assert code == 0
    assert run_cli("migrate", bank_file, "--to", "OTHER=3", "--project", project)[:2] == (
        1, "UnknownVersion OTHER 3\n"
    )
    assert [p for p in parses if "class OTHER" in p] == []


def test_a_file_that_disagrees_with_its_name_fails_when_first_parsed(two_class_project):
    project = two_class_project
    (project / "releases" / "1" / "OTHER.esc").write_text(
        "version 2\nclass OTHER feature\n  x: INTEGER\nend\n", encoding="utf-8"
    )
    stub = project / "handlers" / "OTHER" / "1_to_2.est"
    stub.write_text(stub.read_text(encoding="utf-8").replace("from 1 to 2", "from 2 to 1"),
                    encoding="utf-8")
    repo = load_repository(project)
    assert repo.latest_version("OTHER") == 2 and repo.transformer_pairs("OTHER") == {(1, 2)}
    assert repo.schema_for("BANK_ACCOUNT", 1).version == 1
    with pytest.raises(FormatError, match="releases/1/OTHER.esc does not match manifest entry "
                                          "OTHER version 1"):
        repo.class_history("OTHER")
    with pytest.raises(FormatError, match="handler file handlers/OTHER/1_to_2.est disagrees "
                                          "with its header"):
        repo.handlers_for("OTHER")
    with pytest.raises(FormatError):  # every time it is asked for
        repo.schema_for("OTHER", 2)


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------


class Recorder:
    """Records ``os.fsync`` and ``os.replace`` calls, and raises OSError at
    call number ``cut`` when one is given."""

    def __init__(self, monkeypatch, cut: int | None = None):
        self.events: list[tuple[str, object]] = []
        self.cut = cut
        fsync, replace_ = os.fsync, os.replace

        def syncing(fd):
            self._call(("fsync", os.fstat(fd).st_ino))
            return fsync(fd)

        def replacing(src, dst):
            self._call(("replace", Path(dst)))
            return replace_(src, dst)

        monkeypatch.setattr(os, "fsync", syncing)
        monkeypatch.setattr(os, "replace", replacing)

    def _call(self, event) -> None:
        if len(self.events) == self.cut:
            raise OSError("cut")
        self.events.append(event)


def named(events, project: Path) -> list[tuple[str, str]]:
    """Events with inodes and paths given as paths relative to ``project``,
    this process's id as ``PID``."""
    inodes = {p.stat().st_ino: p for p in [project, *project.rglob("*")]}
    return [
        (kind, str((inodes[x] if kind == "fsync" else x).relative_to(project))
         .replace(str(os.getpid()), "PID"))
        for kind, x in events
    ]


def test_a_save_syncs_each_directory_once_before_the_manifest(tmp_path, monkeypatch):
    project = tmp_path / "one"
    repo, _ = release(empty_repository("one"), {"A": parse_schema("class A feature x: INTEGER end")})
    save_repository(repo, project)
    newer, report = release(load_repository(project),
                            {"A": parse_schema("class A feature x: REAL end")})
    assert report.stubs == (("A", 1, 2),)
    recorder = Recorder(monkeypatch)
    save_repository(newer, project)
    assert named(recorder.events, project) == [
        # a new release or handler directory is built beside its place, then renamed there
        ("fsync", "releases/2/A.esc"), ("replace", "releases/.2.PID.tmp/A.esc"),
        ("fsync", "releases/2"), ("replace", "releases/2"),
        ("fsync", "handlers/A/1_to_2.est"), ("replace", "handlers/.A.PID.tmp/1_to_2.est"),
        ("fsync", "handlers/A"), ("replace", "handlers/A"),
        # the parents of the directories renamed into place, then of those created
        ("fsync", "releases"), ("fsync", "handlers"), ("fsync", "."),
        ("fsync", "escher.manifest"), ("replace", "escher.manifest"), ("fsync", "."),
    ]
    recorder.events.clear()
    save_repository(load_repository(project), project)  # nothing changed: the manifest alone
    assert named(recorder.events, project) == [
        ("fsync", "escher.manifest"), ("replace", "escher.manifest"), ("fsync", "."),
    ]


# Working sets: A and B; then A changes (a stub); then B changes and C
# arrives (a stub in a new handler directory, and a new class).
WORKING_SETS = [
    {"A": "class A feature x: INTEGER end", "B": "class B feature y: REAL end"},
    {"A": "class A feature x: REAL end", "B": "class B feature y: REAL end"},
    {"A": "class A feature x: REAL end", "B": "class B feature y: STRING end",
     "C": "class C feature z: BOOLEAN end"},
]


def cut_release(repo: Repository, texts: dict[str, str]) -> Repository:
    """``escher release`` of a working set written at each class's latest tag."""
    working = {
        name: parse_schema(text).with_version(repo.latest_version(name) or 1)
        for name, text in texts.items()
    }
    repo, report = release(repo, working)
    assert not report.noop
    return repo


@pytest.mark.parametrize("step", [1, 2], ids=["second-release", "third-release"])
def test_a_save_cut_at_any_write_or_sync_leaves_the_project_before_or_after(
    tmp_path, monkeypatch, step
):
    repo = empty_repository("proj")
    for texts in WORKING_SETS[:step]:
        repo = cut_release(repo, texts)
    base = tmp_path / "before" / "proj"
    save_repository(repo, base)

    def newer() -> Repository:
        return cut_release(load_repository(base), WORKING_SETS[step])

    after = tmp_path / "after" / "proj"
    shutil.copytree(base, after)
    recorder = Recorder(monkeypatch)
    save_repository(newer(), after)
    calls = len(recorder.events)
    monkeypatch.undo()
    before_repo, after_repo = (force_parse(load_repository(p)) for p in (base, after))
    assert before_repo != after_repo

    outcomes = set()
    for cut in range(calls):
        project = tmp_path / f"cut{cut}" / "proj"
        shutil.copytree(base, project)
        saving = newer()
        Recorder(monkeypatch, cut)
        with pytest.raises(OSError, match="cut"):
            save_repository(saving, project)
        monkeypatch.undo()
        left = force_parse(load_repository(project))
        assert left in (before_repo, after_repo), cut
        outcomes.add(left == after_repo)
        assert not list(project.rglob(".*.tmp"))
    assert outcomes == {False, True}  # only a cut after the manifest's rename keeps the release
