from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from escher import repository
from escher.errors import (
    FormatError,
    OverwriteRefused,
    UnknownClass,
    UnknownVersion,
    VersionTagTamper,
)
from escher.repository import (
    Release,
    Repository,
    content_digest,
    empty_repository,
    load_repository,
    project_lock,
    register_transformer,
    release,
    render_manifest,
    save_repository,
    schemas_equivalent,
)
from escher.schema import parse_schema, render_schema
from escher.transformer import parse_transformer, render_transformer
from conftest import run_cli
from helpers import random_repository, write_old_layout


def test_first_release_assigns_tag_one(bank_v1):
    repo, report = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1})
    assert not report.noop
    assert report.number == 1
    assert repo.latest_version("BANK_ACCOUNT") == 1
    assert report.stubs == ()  # new classes get no transformer


def test_changed_class_bumps_and_generates_stub(bank_v1, bank_v2):
    repo, _ = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1})
    repo, report = release(repo, {"BANK_ACCOUNT": bank_v2.with_version(1)})
    assert report.number == 2
    assert report.bumped == (("BANK_ACCOUNT", 1, 2),)
    assert report.stubs == (("BANK_ACCOUNT", 1, 2),)
    stub = repo.handlers["BANK_ACCOUNT"][(1, 2)].value
    assert stub.required_inputs == {"balance"}
    assert repo.latest_version("BANK_ACCOUNT") == 2


def test_unchanged_working_set_is_noop(bank_v1):
    repo, _ = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1})
    repo2, report = release(repo, {"BANK_ACCOUNT": bank_v1})
    assert report.noop
    assert repo2 is repo


def test_pre_bumped_tag_is_accepted(bank_v1, bank_v2):
    repo, _ = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1})
    repo, report = release(repo, {"BANK_ACCOUNT": bank_v2})  # already carries tag 2
    assert report.bumped == (("BANK_ACCOUNT", 1, 2),)


def test_version_tag_tamper(bank_v1, bank_v2):
    with pytest.raises(VersionTagTamper):
        release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1.with_version(5)})
    repo, _ = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1})
    with pytest.raises(VersionTagTamper):
        release(repo, {"BANK_ACCOUNT": bank_v2.with_version(3)})
    with pytest.raises(VersionTagTamper):
        # tag bumped but nothing changed
        release(repo, {"BANK_ACCOUNT": bank_v1.with_version(2)})


def test_new_class_alongside_existing(bank_v1):
    repo, _ = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1})
    log = parse_schema("class LOG feature line: STRING end")
    repo, report = release(repo, {"BANK_ACCOUNT": bank_v1, "LOG": log})
    assert report.number == 2
    assert report.added == ("LOG",)
    assert repo.latest_version("LOG") == 1
    assert "LOG" not in repo.handlers


def test_class_removal_triggers_release(bank_v1):
    log = parse_schema("class LOG feature line: STRING end")
    repo, _ = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1, "LOG": log})
    repo, report = release(repo, {"BANK_ACCOUNT": bank_v1})
    assert not report.noop
    assert report.removed == ("LOG",)
    assert "LOG" not in repo.latest_release().schemas
    assert repo.latest_version("LOG") == 1  # history survives in release 1


def test_marker_equivalent_rewrite_does_not_bump(bank_v1):
    repo, _ = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1})
    rewritten = parse_schema(
        "class BANK_ACCOUNT feature\n"
        "  info: detachable STRING\n"
        "  tot_deposits: INTEGER\n"
        "  tot_withdrawals: INTEGER\n"
        "invariant\n"
        "  valid_account: tot_deposits > tot_withdrawals\n"
        "end"
    )
    assert schemas_equivalent(bank_v1, rewritten)
    _, report = release(repo, {"BANK_ACCOUNT": rewritten})
    assert report.noop


def test_existing_transformer_is_never_regenerated(bank_v1, bank_v2, hand_fixed_transformer):
    repo, _ = release(empty_repository("p"), {"BANK_ACCOUNT": bank_v1})
    repo = Repository(
        repo.project_name,
        repo.releases,
        {"BANK_ACCOUNT": {}},
    )
    # pretend the 1->2 transformer was hand-registered before the release
    repo2, _ = release(repo, {"BANK_ACCOUNT": bank_v2.with_version(1)})
    repo2 = register_transformer(repo2, hand_fixed_transformer, overwrite=True)
    hand_text = repo2.handlers["BANK_ACCOUNT"][(1, 2)].text
    # releasing again with no changes must not touch the handler
    repo3, report = release(repo2, {"BANK_ACCOUNT": bank_v2})
    assert report.noop
    assert repo3.handlers["BANK_ACCOUNT"][(1, 2)].text == hand_text


def test_register_both_directions(bank_repo):
    backwards = parse_transformer(
        "transform BANK_ACCOUNT from 2 to 1\n"
        "  Result.info := convert INTEGER_TO_STRING (oldc.info)\n"
        "  Result.tot_deposits := oldc.balance\n"
        "  Result.tot_withdrawals := 0\n"
        "end\n"
    )
    repo = register_transformer(bank_repo, backwards)
    assert (2, 1) in repo.handlers["BANK_ACCOUNT"]
    assert (1, 2) in repo.handlers["BANK_ACCOUNT"]


def test_register_refuses_silent_overwrite(bank_repo, hand_fixed_transformer):
    with pytest.raises(OverwriteRefused):
        register_transformer(bank_repo, hand_fixed_transformer)
    repo = register_transformer(bank_repo, hand_fixed_transformer, overwrite=True)
    assert repo.handlers["BANK_ACCOUNT"][(1, 2)].value == hand_fixed_transformer


def test_register_unknown_version(bank_repo):
    t = parse_transformer("transform BANK_ACCOUNT from 2 to 9\n  noop\nend\n")
    with pytest.raises(UnknownVersion):
        register_transformer(bank_repo, t)


def test_schema_lookups(bank_repo):
    assert bank_repo.schema_for("BANK_ACCOUNT", 1).version == 1
    assert bank_repo.schema_for("BANK_ACCOUNT", 2).version == 2
    with pytest.raises(UnknownVersion):
        bank_repo.schema_for("BANK_ACCOUNT", 3)
    with pytest.raises(UnknownClass):
        bank_repo.schema_for("NOPE", 1)


# ---------------------------------------------------------------------------
# disk format
# ---------------------------------------------------------------------------


def test_save_load_round_trip(bank_repo_hand_fixed, tmp_path):
    project = tmp_path / "proj"
    save_repository(bank_repo_hand_fixed, project)
    assert (project / "escher.manifest").exists()
    assert (project / "releases" / "1" / "BANK_ACCOUNT.esc").exists()
    assert (project / "handlers" / "BANK_ACCOUNT" / "1_to_2.est").exists()
    loaded = load_repository(project)
    assert loaded.releases == bank_repo_hand_fixed.releases
    assert loaded.transformer_pairs("BANK_ACCOUNT") == {(1, 2)}
    assert (
        loaded.handlers["BANK_ACCOUNT"][(1, 2)].value
        == bank_repo_hand_fixed.handlers["BANK_ACCOUNT"][(1, 2)].value
    )


def test_a_save_cut_short_keeps_the_old_manifest(bank_repo, bank_v2, tmp_path, monkeypatch):
    project = tmp_path / "proj"
    save_repository(bank_repo, project)
    manifest = (project / "escher.manifest").read_text(encoding="utf-8")
    v3 = parse_schema(render_schema(bank_v2).replace("info: INTEGER", "info: STRING"))
    newer, report = release(bank_repo, {"BANK_ACCOUNT": v3})
    assert report.stubs == (("BANK_ACCOUNT", 2, 3),)
    replace = os.replace

    def failing(src, dst):
        if Path(dst).name == "2_to_3.est":
            raise OSError("disk full")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="disk full"):
        save_repository(newer, project)
    monkeypatch.undo()
    assert (project / "releases" / "3" / "BANK_ACCOUNT.esc").exists()  # written before the failure
    assert not (project / "handlers" / "BANK_ACCOUNT" / "2_to_3.est").exists()
    assert (project / "escher.manifest").read_text(encoding="utf-8") == manifest
    loaded = load_repository(project)
    assert loaded.releases == bank_repo.releases
    assert loaded.transformer_pairs("BANK_ACCOUNT") == {(1, 2)}
    assert not list(project.rglob(".*.tmp"))


def _four_release_repo() -> Repository:
    """A and B each change once, C arrives last: 9 version tags, 5 versions,
    so 5 release files."""
    a1 = parse_schema("class A feature\n  x: INTEGER\nend\n")
    a2 = parse_schema("class A feature\n  x: INTEGER\n  y: REAL\nend\n")
    b1 = parse_schema("class B feature\n  n: REAL\nend\n")
    b2 = parse_schema("class B feature\n  n: REAL\n  m: BOOLEAN\nend\n")
    c1 = parse_schema("class C feature\n  s: STRING\nend\n")
    repo, _ = release(empty_repository("four"), {"A": a1, "B": b1})
    for change in ({"A": a2}, {"B": b2}, {"C": c1}):
        repo, _ = release(repo, {**repo.latest_release().schemas, **change})
    return repo


def _snapshot(project: Path) -> dict[str, tuple[bytes, int]]:
    return {
        str(p.relative_to(project)): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(project.rglob("*"))
        if p.is_file()
    }


def _count_parses(monkeypatch) -> list[str]:
    texts: list[str] = []
    parse = repository.parse_schema

    def counting(source):
        texts.append(source)
        return parse(source)

    monkeypatch.setattr(repository, "parse_schema", counting)
    return texts


def test_load_parses_each_distinct_text_once(tmp_path, monkeypatch):
    project = tmp_path / "four"
    repo = _four_release_repo()
    save_repository(repo, project)
    files = sorted((project / "releases").rglob("*.esc"))
    texts = {f.read_text(encoding="utf-8") for f in files}
    assert (len(files), len(texts)) == (5, 5)
    parsed = _count_parses(monkeypatch)
    loaded = load_repository(project)
    assert parsed == []  # a load parses no file
    # the same Repository as one whose every file is parsed on its own
    first = {
        (name, version): parse_schema((project / "releases" / str(number) / f"{name}.esc")
                                      .read_text(encoding="utf-8"))
        for number, name, version in [(1, "A", 1), (1, "B", 1), (2, "A", 2), (3, "B", 2), (4, "C", 1)]
    }
    separately = tuple(
        Release(rel.number, {name: first[name, v] for name, v in rel.versions.items()})
        for rel in loaded.releases
    )
    assert loaded == Repository(loaded.project_name, separately, loaded.handlers)
    assert sorted(parsed) == sorted(texts)  # comparing parsed each distinct text once
    assert loaded.releases == repo.releases
    # releases holding one text share one schema
    assert loaded.releases[0].schemas["B"] is loaded.releases[1].schemas["B"]
    assert loaded.releases[1].schemas["A"] is loaded.releases[3].schemas["A"]


def _count_reads(monkeypatch, project: Path) -> list[str]:
    """The files repository reads, relative to ``project``."""
    reads: list[str] = []
    read = repository._read_bytes

    def counting(path):
        reads.append(os.path.relpath(path, project))
        return read(path)

    monkeypatch.setattr(repository, "_read_bytes", counting)
    return reads


def test_a_load_reads_the_manifest_the_handlers_and_one_file_per_version(tmp_path, monkeypatch):
    project = tmp_path / "four"
    write_old_layout(_four_release_repo(), project)  # 9 release files
    reads = _count_reads(monkeypatch, project)
    load_repository(project)
    assert reads == [
        "escher.manifest",
        "releases/1/A.esc", "releases/1/B.esc", "releases/2/A.esc", "releases/3/B.esc",
        "releases/4/C.esc",
        "handlers/A/1_to_2.est", "handlers/B/1_to_2.est",
    ]


@pytest.mark.parametrize("later", [b"class C feature\n  x: INTEGER\n  y: REAL\nend\n",
                                   b"class C feature\xff\nend\n"], ids=["edited", "not UTF-8"])
def test_load_reads_a_version_from_the_release_that_first_tagged_it(tmp_path, monkeypatch, later):
    first = "class C feature\n  x: INTEGER\nend\n"
    _write_project(
        tmp_path,
        "release 1\nclass C version 1\nrelease 2\nclass C version 1\n",
        {"1/C.esc": first},
    )
    (tmp_path / "releases" / "2").mkdir()
    (tmp_path / "releases" / "2" / "C.esc").write_bytes(later)  # never read
    reads, parsed = _count_reads(monkeypatch, tmp_path), _count_parses(monkeypatch)
    loaded = load_repository(tmp_path)
    assert (reads, parsed) == (["escher.manifest", "releases/1/C.esc"], [])
    assert loaded.class_history("C") == {1: parse_schema(first)}
    assert loaded.releases[1].schemas["C"] is loaded.releases[0].schemas["C"]
    assert parsed == [first]


def test_saving_an_unchanged_project_writes_no_file(tmp_path, monkeypatch):
    project = tmp_path / "four"
    save_repository(_four_release_repo(), project)
    for path in project.rglob("*"):
        if path.is_file():
            os.utime(path, ns=(10**18, 10**18))  # no rewrite can leave this mtime
    before = _snapshot(project)
    written: list[Path] = []
    replace = os.replace

    def counting(src, dst):
        written.append(Path(dst))
        return replace(src, dst)

    loaded = load_repository(project)
    monkeypatch.setattr(os, "replace", counting)
    save_repository(loaded, project)
    assert written == [project / "escher.manifest"]
    after = _snapshot(project)
    manifest = "escher.manifest"  # written last on every save, with the same bytes
    assert after.pop(manifest)[0] == before.pop(manifest)[0]
    assert after == before


def test_save_writes_a_missing_version_file_and_keeps_an_edited_one(tmp_path):
    project = tmp_path / "four"
    save_repository(_four_release_repo(), project)
    repo = load_repository(project)  # nothing in it is dirty, so nothing is rewritten
    expected = _snapshot(project)
    releases = project / "releases"
    altered, deleted = releases / "1" / "A.esc", releases / "4" / "C.esc"
    edit = altered.read_text(encoding="utf-8") + "-- edited\n"
    altered.write_text(edit, encoding="utf-8")  # after the load, as a handler edit may be
    deleted.unlink()
    for path in project.rglob("*.es[ct]"):
        os.utime(path, ns=(10**18, 10**18))
    save_repository(repo, project)
    after = _snapshot(project)
    key = str(deleted.relative_to(project))
    assert after[key][0] == expected[key][0]  # the text the load read
    assert after[key][1] != 10**18
    assert altered.read_text(encoding="utf-8") == edit
    untouched = [p for p in project.rglob("*.es[ct]") if p != deleted]
    assert len(untouched) == 6 and all(p.stat().st_mtime_ns == 10**18 for p in untouched)


def _text_mode(path: Path) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


@pytest.mark.parametrize("ends", [["\r\n"], ["\r"], ["\r\n", "\r", "\n", "\r\r\n"]],
                         ids=["CRLF", "lone CR", "mixed"])
def test_a_load_reads_newlines_as_text_mode_open_does(bank_project, ends):
    paths = [bank_project / "releases" / "2" / "BANK_ACCOUNT.esc",
             bank_project / "handlers" / "BANK_ACCOUNT" / "1_to_2.est"]
    for path in paths:
        lines = path.read_text(encoding="utf-8").split("\n")
        path.write_bytes("".join(
            line + ends[i % len(ends)] for i, line in enumerate(lines)
        ).encode("utf-8"))
    esc, est = (_text_mode(path) for path in paths)
    repo = load_repository(bank_project)
    assert repo._table["BANK_ACCOUNT", 2].text == esc
    entry = repo.handlers["BANK_ACCOUNT"][(1, 2)]
    assert (entry.text, entry.digest) == (est, content_digest(est))
    assert repo.schema_for("BANK_ACCOUNT", 2) == parse_schema(esc)


def test_a_release_file_not_in_utf8_is_an_io_error(bank_project):
    (bank_project / "releases" / "1" / "BANK_ACCOUNT.esc").write_bytes(b"version 1\xff\n")
    code, out, err = run_cli("per", "--project", str(bank_project))
    assert (code, out) == (2, "")
    assert err.startswith("io error: input is not UTF-8 text")


def test_a_listed_directory_fails_as_text_mode_open_does(bank_project):
    path = bank_project / "releases" / "1" / "BANK_ACCOUNT.esc"
    path.unlink()
    path.mkdir()
    with pytest.raises(IsADirectoryError) as by_open:
        _text_mode(path)
    with pytest.raises(IsADirectoryError) as by_load:
        load_repository(bank_project)
    assert str(by_load.value) == str(by_open.value)


def test_load_and_save_read_whole_files_through_short_reads(bank_project, monkeypatch):
    whole = load_repository(bank_project)
    read, replace_, written = os.read, os.replace, []
    monkeypatch.setattr(os, "read", lambda fd, size: read(fd, 1))
    cut = load_repository(bank_project)
    assert {key: e.text for key, e in cut._table.items()} == {
        key: e.text for key, e in whole._table.items()
    }
    assert cut == whole
    monkeypatch.setattr(os, "replace", lambda src, dst: written.append(dst) or replace_(src, dst))
    save_repository(cut, bank_project)  # every file is there, so none is written
    assert [Path(p).name for p in written] == ["escher.manifest"]


def test_release_schemas_are_a_read_only_copy(bank_v1, bank_v2):
    given = {"BANK_ACCOUNT": bank_v1}
    rel = Release(1, given)
    given["BANK_ACCOUNT"] = bank_v2.with_version(1)
    assert rel.schemas["BANK_ACCOUNT"] is bank_v1
    with pytest.raises(TypeError):
        rel.schemas["BANK_ACCOUNT"] = bank_v1  # type: ignore[index]
    assert rel == Release(1, {"BANK_ACCOUNT": bank_v1})
    assert rel != Release(1, {})


def test_manifest_golden(bank_repo, bank_v1, bank_v2):
    digest = bank_repo.handlers["BANK_ACCOUNT"][(1, 2)].digest
    assert render_manifest(bank_repo) == (
        "release 1\n"
        "class BANK_ACCOUNT version 1\n"
        "release 2\n"
        "class BANK_ACCOUNT version 2\n"
        f"transformer BANK_ACCOUNT 1 2 {digest}\n"
    )
    assert digest == hashlib.sha256(
        bank_repo.handlers["BANK_ACCOUNT"][(1, 2)].text.encode()
    ).hexdigest()


def test_release_is_deterministic_on_disk(bank_v1, bank_v2, tmp_path):
    def build(target: Path) -> dict[str, bytes]:
        repo, _ = release(empty_repository(target.name), {"BANK_ACCOUNT": bank_v1})
        repo, _ = release(repo, {"BANK_ACCOUNT": bank_v2.with_version(1)})
        save_repository(repo, target)
        return {
            str(p.relative_to(target)): p.read_bytes()
            for p in sorted(target.rglob("*"))
            if p.is_file()
        }

    first = build(tmp_path / "one")
    second = build(tmp_path / "two")
    assert first == second


def test_user_modified_handler_detected_and_preserved(bank_project_stub):
    handler = bank_project_stub / "handlers" / "BANK_ACCOUNT" / "1_to_2.est"
    hand_written = (
        "transform BANK_ACCOUNT from 1 to 2\n"
        "  Result.info := convert STRING_TO_INTEGER (oldc.info)\n"
        "  Result.balance := oldc.tot_deposits - oldc.tot_withdrawals\n"
        "end\n"
    )
    handler.write_text(hand_written, encoding="utf-8")
    repo = load_repository(bank_project_stub)
    entry = repo.handlers["BANK_ACCOUNT"][(1, 2)]
    assert entry.user_modified
    assert entry.text == hand_written
    save_repository(repo, bank_project_stub)  # must not clobber the edit
    assert handler.read_text(encoding="utf-8") == hand_written


def test_a_handler_the_manifest_does_not_list_is_not_user_modified(bank_project_stub):
    handlers = bank_project_stub / "handlers" / "BANK_ACCOUNT"
    (handlers / "2_to_1.est").write_text("transform BANK_ACCOUNT from 2 to 1\nend\n", encoding="utf-8")
    entries = load_repository(bank_project_stub).handlers["BANK_ACCOUNT"]
    assert (entries[2, 1].recorded, entries[2, 1].user_modified) == (None, False)
    assert not entries[1, 2].user_modified


def test_a_save_cut_at_the_manifest_loads_as_the_project_before(
    bank_repo, bank_v2, tmp_path, monkeypatch
):
    project = tmp_path / "proj"
    other = parse_schema("class OTHER feature\n  x: INTEGER\nend\n")
    before, _ = release(bank_repo, {"BANK_ACCOUNT": bank_v2.with_version(2), "OTHER": other})
    save_repository(before, project)
    v3 = parse_schema(render_schema(bank_v2).replace("info: INTEGER", "info: STRING"))
    newer, report = release(before, {
        "BANK_ACCOUNT": v3, "OTHER": parse_schema("class OTHER feature\n  x: REAL\nend\n"),
    })
    assert report.stubs == (("BANK_ACCOUNT", 2, 3), ("OTHER", 1, 2))
    replace_file = repository.replace_file

    def failing(path, text):
        if path.name == "escher.manifest":
            raise OSError("disk full")
        return replace_file(path, text)

    monkeypatch.setattr(repository, "replace_file", failing)
    with pytest.raises(OSError, match="disk full"):
        save_repository(newer, project)
    monkeypatch.undo()
    assert (project / "handlers" / "BANK_ACCOUNT" / "2_to_3.est").exists()
    assert (project / "handlers" / "OTHER" / "1_to_2.est").exists()
    loaded = load_repository(project)
    assert loaded.releases == before.releases
    assert {name: set(entries) for name, entries in loaded.handlers.items()} == {
        "BANK_ACCOUNT": {(1, 2)}
    }
    assert loaded.handlers_for("OTHER") is None
    save_repository(newer, project)  # the retried save completes the release
    assert load_repository(project).releases == newer.releases
    assert load_repository(project).transformer_pairs("OTHER") == {(1, 2)}


def test_unlisted_handler_file_is_picked_up(bank_project_stub):
    backwards = (
        "transform BANK_ACCOUNT from 2 to 1\n"
        "  Result.info := convert INTEGER_TO_STRING (oldc.info)\n"
        "end\n"
    )
    path = bank_project_stub / "handlers" / "BANK_ACCOUNT" / "2_to_1.est"
    path.write_text(backwards, encoding="utf-8")
    repo = load_repository(bank_project_stub)
    assert repo.transformer_pairs("BANK_ACCOUNT") == {(1, 2), (2, 1)}


def test_repository_invariants():
    with pytest.raises(ValueError):
        Repository("p", (Release(2, {}),))  # numbers start at 1
    good = parse_schema("class C feature x: INTEGER end")
    with pytest.raises(ValueError):
        Repository(
            "p",
            (Release(1, {"C": good}), Release(2, {"C": good.with_version(3)})),
        )  # tag jumps by 2
    other = parse_schema("class C feature x: REAL end")
    with pytest.raises(ValueError, match="release 2 holds another schema of C version 1"):
        Repository("p", (Release(1, {"C": good}), Release(2, {"C": other})))
    same = parse_schema("class C feature x: INTEGER end")  # equal, not the same object
    assert Repository("p", (Release(1, {"C": good}), Release(2, {"C": same}))).class_history(
        "C") == {1: good}


def test_class_history_matches_a_scan_of_the_releases():
    for seed in range(300):
        repo = random_repository(random.Random(seed))
        for name in ("NODE", "ITEM", "CELL", "ABSENT"):
            scanned = {}
            for rel in repo.releases:  # the first release tagging a version holds it
                if name in rel.schemas:
                    scanned.setdefault(rel.schemas[name].version, rel.schemas[name])
            history = repo.class_history(name)
            assert dict(history) == scanned, (seed, name)
            assert repo.latest_version(name) == (max(scanned) if scanned else None)
            with pytest.raises(TypeError):
                history[1] = parse_schema(f"class {name} feature end")  # type: ignore[index]


def test_history_index_is_not_a_field(bank_repo):
    assert replace(bank_repo) == bank_repo
    assert "_histories" not in repr(bank_repo)
    schema = bank_repo.schema_for("BANK_ACCOUNT", 2)
    assert schema.attribute_set == frozenset(schema.attribute_names())
    assert replace(schema) == schema
    assert "attribute_set" not in repr(schema)


def test_handlers_are_read_only(bank_repo, hand_fixed_transformer):
    entries = bank_repo.handlers["BANK_ACCOUNT"]
    for mapping, key in ((bank_repo.handlers, "BANK_ACCOUNT"), (entries, (1, 2))):
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]  # type: ignore[index]
        with pytest.raises(AttributeError):
            mapping.pop(key)  # type: ignore[attr-defined]
    # the dicts a Repository is built from are copied, not shared
    given = {"BANK_ACCOUNT": dict(entries)}
    repo = Repository("bank", bank_repo.releases, given)
    given["BANK_ACCOUNT"].clear()
    given.clear()
    assert repo.handlers == bank_repo.handlers
    assert repo.handlers_for("BANK_ACCOUNT") == {(1, 2): entries[(1, 2)].value}
    assert "_paths" not in repr(repo) and "_transformers" not in repr(repo)


def _write_project(project: Path, manifest: str, schemas: dict[str, str]) -> None:
    for relative, text in schemas.items():
        path = project / "releases" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (project / "escher.manifest").write_text(manifest, encoding="utf-8")


def test_manifest_release_zero_is_a_format_error(tmp_path):
    _write_project(tmp_path, "release 0\n", {})
    with pytest.raises(FormatError, match="escher.manifest: release numbers start at 1, got 0"):
        load_repository(tmp_path)


def test_manifest_out_of_order_releases_are_a_format_error(tmp_path):
    _write_project(tmp_path, "release 1\nrelease 3\n", {})
    with pytest.raises(FormatError, match="escher.manifest: release numbers must increase by 1"):
        load_repository(tmp_path)


def test_manifest_version_tag_jump_is_a_format_error(tmp_path):
    _write_project(
        tmp_path,
        "release 1\nclass C version 1\nrelease 2\nclass C version 3\n",
        {"1/C.esc": "class C feature end", "2/C.esc": "version 3 class C feature end"},
    )
    with pytest.raises(FormatError, match="escher.manifest: version tag of C jumps from 1 to 3"):
        load_repository(tmp_path)


def test_project_lock_clears_a_lock_left_by_a_dead_process(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its PID names no process now
    (tmp_path / "escher.lock").write_text(str(child.pid), encoding="ascii")
    started = time.monotonic()
    with project_lock(tmp_path, timeout=5.0):
        assert (tmp_path / "escher.lock").read_text(encoding="ascii") == str(os.getpid())
    assert time.monotonic() - started < 1.0
    assert not (tmp_path / "escher.lock").exists()


# Holds the lock until its stdin closes.
LOCK_HOLDER = """\
import sys
from escher.repository import project_lock
with project_lock(sys.argv[1], timeout=30.0):
    print("held", flush=True)
    sys.stdin.read()
"""


def test_project_lock_waits_for_a_live_holder(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(repository.__file__).parents[1])}
    holder = subprocess.Popen(
        [sys.executable, "-c", LOCK_HOLDER, str(tmp_path)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert holder.stdout.readline() == "held\n"
        with pytest.raises(OSError, match="locked by another process"):
            with project_lock(tmp_path, timeout=0.2):
                pass
        assert (tmp_path / "escher.lock").read_text(encoding="ascii") == str(holder.pid)
    finally:
        holder.communicate(timeout=60)
    assert holder.returncode == 0
    with project_lock(tmp_path, timeout=5.0):  # free once the holder is gone
        pass


def test_project_lock_takes_a_lock_naming_a_live_process_without_its_flock(tmp_path):
    (tmp_path / "escher.lock").write_text(str(os.getppid()), encoding="ascii")  # a reused PID
    started = time.monotonic()
    with project_lock(tmp_path, timeout=5.0):
        assert (tmp_path / "escher.lock").read_text(encoding="ascii") == str(os.getpid())
    assert time.monotonic() - started < 1.0


def test_replace_file_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    target = tmp_path / "f.txt"
    target.write_text("old", encoding="utf-8")
    events: list[tuple[str, int | None]] = []
    fsync, replace = os.fsync, os.replace

    def syncing(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        return fsync(fd)

    def replacing(src, dst):
        events.append(("replace", None))
        return replace(src, dst)

    monkeypatch.setattr(os, "fsync", syncing)
    monkeypatch.setattr(os, "replace", replacing)
    repository.replace_file(target, "new")
    assert target.read_text(encoding="utf-8") == "new"
    assert events[-2:] == [("replace", None), ("fsync", tmp_path.stat().st_ino)]


# Waits for the go file, so that the contenders meet the stale lock at once,
# then holds the lock for a moment; a second holder meanwhile fails to create
# the marker and exits with FileExistsError.
LOCK_CONTENDER = """\
import os, sys, time
from escher.repository import project_lock
project, marker, go = sys.argv[1:]
deadline = time.monotonic() + 30.0
while not os.path.exists(go):
    if time.monotonic() > deadline:
        sys.exit("no go file")
    time.sleep(0.001)
with project_lock(project, timeout=30.0):
    os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    time.sleep(0.05)
    os.unlink(marker)
"""


def test_processes_that_meet_a_stale_lock_never_both_hold_it(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its PID names no process now
    env = {**os.environ, "PYTHONPATH": str(Path(repository.__file__).parents[1])}
    for round_ in range(3):
        (tmp_path / "escher.lock").write_text(str(child.pid), encoding="ascii")
        go = tmp_path / f"go{round_}"
        argv = [sys.executable, "-c", LOCK_CONTENDER, str(tmp_path), str(tmp_path / "held"), str(go)]
        contenders = [  # more than the two cores a CI runner has
            subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True) for _ in range(3)
        ]
        time.sleep(0.3)  # all started and waiting
        go.touch()
        for contender in contenders:
            _, err = contender.communicate(timeout=60)
            assert contender.returncode == 0, err
        assert not (tmp_path / "escher.lock").exists()


def test_a_save_writes_one_file_per_version_and_renders_none(tmp_path, monkeypatch):
    repo = _four_release_repo()
    rendered: list[object] = []

    def counting(schema):
        rendered.append(schema)
        return render_schema(schema)

    monkeypatch.setattr(repository, "render_schema", counting)
    project = tmp_path / "four"
    save_repository(repo, project)
    assert rendered == []  # a release renders each version it makes
    files = {str(p.relative_to(project)): p.read_text(encoding="utf-8")
             for p in project.rglob("*.esc")}
    assert files == {
        f"releases/{number}/{name}.esc": render_schema(repo.schema_for(name, version))
        for number, name, version in [(1, "A", 1), (1, "B", 1), (2, "A", 2), (3, "B", 2), (4, "C", 1)]
    }


def test_a_failing_write_of_a_listed_release_file_keeps_its_old_bytes(tmp_path, monkeypatch):
    project = tmp_path / "four"
    repo = _four_release_repo()  # made in this session, so each save writes its files
    save_repository(repo, project)
    listed = project / "releases" / "1" / "A.esc"
    old = listed.read_text(encoding="utf-8") + "-- edited\n"
    listed.write_text(old, encoding="utf-8")

    def failing(fd):  # its temp file is written, but not yet renamed over it
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing)  # the first write of the save is A.esc
    with pytest.raises(OSError, match="disk full"):
        save_repository(repo, project)
    monkeypatch.undo()
    assert listed.read_text(encoding="utf-8") == old
    assert not list(project.rglob("*.tmp"))


def test_render_schema_files_round_trip(bank_repo_hand_fixed, tmp_path):
    project = tmp_path / "proj"
    save_repository(bank_repo_hand_fixed, project)
    text = (project / "releases" / "2" / "BANK_ACCOUNT.esc").read_text(encoding="utf-8")
    schema = parse_schema(text)
    assert schema == bank_repo_hand_fixed.schema_for("BANK_ACCOUNT", 2)
    assert render_schema(schema) == text


def test_content_digest_stability(hand_fixed_transformer):
    text = render_transformer(hand_fixed_transformer)
    assert content_digest(text) == content_digest(text)
    assert len(content_digest(text)) == 64
