from __future__ import annotations

import os

import pytest
from conftest import (
    BANK_OBJECT_TEXT,
    BANK_V1_TEXT,
    BANK_V2_TEXT,
    FIXTURES,
    HAND_FIXED_TEXT,
    OTHER_V2,
    run_cli,
)
from escher.objects import deserialize
from escher.repository import empty_repository, register_transformer, release, save_repository
from escher.schema import parse_schema, render_schema
from escher.transformer import parse_transformer

V1 = str(FIXTURES / "bank_account_v1.esc")
V2 = str(FIXTURES / "bank_account_v2.esc")
OBJ = str(FIXTURES / "bank_account_v1.eso")

DIFF_GOLDEN = (
    "smo type_changed info STRING -> INTEGER\n"
    "smo removed tot_deposits INTEGER\n"
    "smo removed tot_withdrawals INTEGER\n"
    "smo added balance INTEGER\n"
)


def test_parse_valid_file():
    code, out, _ = run_cli("parse", V1)
    assert code == 0
    assert out == BANK_V1_TEXT


def test_parse_duplicate_attribute(tmp_path):
    bad = tmp_path / "bad.esc"
    bad.write_text("class C feature x: INTEGER x: STRING end", encoding="utf-8")
    code, out, _ = run_cli("parse", str(bad))
    assert code == 1
    assert out.splitlines()[0] == "DuplicateAttribute x"


def test_parse_a_generic_parameter_named_as_an_attribute(tmp_path):
    bad = tmp_path / "clash.esc"
    bad.write_text("class C [G] feature\n  G: INTEGER\nend\n", encoding="utf-8")
    code, out, err = run_cli("parse", str(bad))
    assert code == 1
    assert out.splitlines()[0] == (
        f"ParseError {bad} line 2 column 3: name 'G' is both a generic parameter and an attribute"
    )
    assert "Traceback" not in out + err


def test_parse_oversized_literal_is_a_parse_error(tmp_path):
    big = tmp_path / "big.esc"
    big.write_text(
        "class C feature a: INTEGER invariant big: a > " + "1" * 5000 + " end", encoding="utf-8"
    )
    code, out, err = run_cli("parse", str(big))
    assert code == 1
    assert out.splitlines()[0] == (
        f"ParseError {big} line 1 column 47: integer literal outside the 64-bit range"
    )
    assert "Traceback" not in out + err


def test_parse_oversized_version_header_is_a_parse_error(tmp_path):
    big = tmp_path / "big.esc"
    big.write_text("version " + "9" * 5000 + "\nclass C feature end", encoding="utf-8")
    code, out, err = run_cli("parse", str(big))
    assert code == 1
    assert out.splitlines()[0] == f"ParseError {big} line 1 column 9: version tag too large"
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "body, column",
    [(" + ".join(["a"] * 5000) + " > 0", 439), ("(" * 3000 + "a > 0" + ")" * 3000, 141)],
    ids=["5000-terms", "3000-parentheses"],
)
def test_parse_too_deep_an_invariant_is_a_parse_error(tmp_path, body, column):
    deep = tmp_path / "deep.esc"
    deep.write_text(f"class C feature a: INTEGER invariant c: {body} end", encoding="utf-8")
    code, out, err = run_cli("parse", str(deep))
    assert code == 1
    assert out.splitlines()[0] == (
        f"ParseError {deep} line 1 column {column}: expression nested deeper than 100 levels"
    )
    assert "Traceback" not in out + err


def test_migrate_with_oversized_transformer_version_is_a_parse_error(bank_project):
    handler = bank_project / "handlers" / "BANK_ACCOUNT" / "1_to_2.est"
    text = handler.read_text(encoding="utf-8")
    handler.write_text(text.replace("from 1 to 2", "from " + "9" * 5000 + " to 2"), encoding="utf-8")
    code, out, err = run_cli("migrate", OBJ, "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out.splitlines()[0] == (
        "ParseError handlers/BANK_ACCOUNT/1_to_2.est line 1 column 29: version tag too large"
    )
    assert "Traceback" not in out + err


def test_migrate_through_an_unknown_converter_fails_when_a_record_reaches_it(bank_project):
    handler = bank_project / "handlers" / "BANK_ACCOUNT" / "1_to_2.est"
    text = handler.read_text(encoding="utf-8")
    handler.write_text(text.replace("STRING_TO_INTEGER", "NO_SUCH"), encoding="utf-8")
    code, out, err = run_cli("migrate", OBJ, "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out.splitlines()[0] == "UnknownConverter NO_SUCH"
    assert "Traceback" not in out + err


def test_migrate_with_release_zero_in_the_manifest_is_a_format_error(bank_project):
    (bank_project / "escher.manifest").write_text("release 0\n", encoding="utf-8")
    code, out, err = run_cli("migrate", OBJ, "--to-release", "1", "--project", str(bank_project))
    assert code == 1
    first = out.splitlines()[0]
    assert first.startswith("FormatError 0 ") and "escher.manifest" in first
    assert first.endswith("release numbers start at 1, got 0")
    assert "Traceback" not in out + err


BIG = "9" * 5000


@pytest.mark.parametrize(
    "header",
    [f"obj {BIG} BANK_ACCOUNT version 1", f"obj 0 BANK_ACCOUNT version {BIG}"],
    ids=["id", "version"],
)
def test_migrate_oversized_number_in_an_object_header_is_a_format_error(bank_project, header):
    text = BANK_OBJECT_TEXT.replace("obj 0 BANK_ACCOUNT version 1", header)
    obj = bank_project / "big.eso"
    obj.write_text(text, encoding="utf-8")
    code, out, err = run_cli("migrate", str(obj), "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out.splitlines()[0] == "FormatError 2 number too large: 5000 digits"
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "field, first_line",
    [
        (f"tot_deposits: INTEGER = {BIG}",
         "FormatError 3 line 3, column 27: integer literal outside the 64-bit range"),
        (f"owner: PERSON = ref {BIG}",
         "FormatError 3 line 3, column 23: number too large: 5000 digits"),
    ],
    ids=["integer", "ref"],
)
def test_migrate_oversized_number_in_an_object_field_is_a_format_error(bank_project, field, first_line):
    text = BANK_OBJECT_TEXT.replace("tot_deposits: INTEGER = 100", field)
    obj = bank_project / "big.eso"
    obj.write_text(text, encoding="utf-8")
    code, out, err = run_cli("migrate", str(obj), "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out.splitlines()[0] == first_line
    assert "Exceeds the limit" not in out + err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "old, new",
    [
        ("release 1", f"release {BIG}"),
        ("class BANK_ACCOUNT version 1", f"class BANK_ACCOUNT version {BIG}"),
        ("transformer BANK_ACCOUNT 1 2", f"transformer BANK_ACCOUNT {BIG} 2"),
    ],
    ids=["release", "class", "transformer"],
)
def test_migrate_oversized_number_in_the_manifest_is_a_format_error(bank_project, old, new):
    manifest = bank_project / "escher.manifest"
    lines = manifest.read_text(encoding="utf-8").split("\n")
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(old))
    manifest.write_text("\n".join(lines).replace(old, new, 1), encoding="utf-8")
    code, out, err = run_cli("migrate", OBJ, "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out.splitlines()[0] == f"FormatError {lineno} number too large: 5000 digits"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("line", [f"versions {BIG}", f"tf {BIG} 1"], ids=["versions", "tf"])
def test_per_oversized_number_in_a_history_file_is_a_format_error(tmp_path, line):
    hist = tmp_path / "big.hist"
    hist.write_text(f"class C\nversions 2\n{line}\n", encoding="utf-8")
    code, out, err = run_cli("per", str(hist))
    assert code == 1
    assert out.splitlines()[0] == "FormatError 3 number too large: 5000 digits"
    assert "Traceback" not in out + err


# (file, text replaced, its replacement with a non-ASCII decimal digit, command,
# first output line): such a digit is read as no digit, so each file gets
# the error it gives any other stray character. Where the text replaced is
# None, the replacement names a copy of the file.
NON_ASCII_DIGITS = [
    ("in.esc", "version 1", "version ١", "parse",
     "ParseError {tmp}/in.esc line 1 column 9: unexpected character '١'"),
    ("project/handlers/BANK_ACCOUNT/1_to_2.est", "from 1", "from १", "migrate",
     "ParseError handlers/BANK_ACCOUNT/1_to_2.est line 1 column 29: unexpected character '१'"),
    ("in.eso", "obj 0", "obj ０", "migrate",
     "FormatError 2 expected 'obj <id> <CLASS> version <v>', got 'obj ０ BANK_ACCOUNT version 1'"),
    ("in.eso", "INTEGER = 100", "INTEGER = ١٠٠", "migrate",
     "FormatError 3 line 3, column 27: unexpected character '١'"),
    ("project/escher.manifest", "release 1", "release ١", "migrate",
     "FormatError 1 unrecognized manifest line 'release ١'"),
    ("in.hist", "versions 5", "versions ٥", "per",
     "FormatError 2 unrecognized history line 'versions ٥'"),
    ("project/handlers/BANK_ACCOUNT/1_to_2.est", None,
     "project/handlers/BANK_ACCOUNT/١_to_٢.est", "migrate",
     "FormatError 0 handler file {project}/handlers/BANK_ACCOUNT/١_to_٢.est "
     "is not named <from>_to_<to>.est"),
]


@pytest.mark.parametrize(
    "file, old, new, command, first_line", NON_ASCII_DIGITS,
    ids=[".esc", ".est", ".eso header", ".eso field", "manifest", ".hist", "handler file name"],
)
def test_a_non_ascii_digit_is_no_digit_in_any_file_format(
    tmp_path, bank_project, file, old, new, command, first_line
):
    bank_project.rename(tmp_path / "project")
    for name, text in [("in.esc", BANK_V1_TEXT), ("in.eso", BANK_OBJECT_TEXT),
                       ("in.hist", (FIXTURES / "arraylist.hist").read_text(encoding="utf-8"))]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    path = tmp_path / file
    text = path.read_text(encoding="utf-8")
    if old is None:
        (tmp_path / new).write_text(text, encoding="utf-8")
    else:
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
    argv = {
        "parse": ["parse", str(tmp_path / "in.esc")],
        "migrate": ["migrate", str(tmp_path / "in.eso"), "--to-release", "2",
                    "--project", str(tmp_path / "project")],
        "per": ["per", str(tmp_path / "in.hist")],
    }[command]
    code, out, err = run_cli(*argv)
    expected = first_line.format(tmp=tmp_path, project=tmp_path / "project")
    assert (code, out.splitlines()[0]) == (1, expected)
    assert "Traceback" not in out + err


# (file, first word of the line edited, where the blank goes, command, first
# output line when the blank is not one): space, tab and carriage return
# separate words in every format, and any other whitespace character gets the
# format's usual error at the line that holds it.
EST = "project/handlers/BANK_ACCOUNT/1_to_2.est"
EST_ERROR = ("ParseError handlers/BANK_ACCOUNT/1_to_2.est line {line} column {column}: "
             "unexpected character {blank}")
ESO_HEADER_ERROR = "FormatError {line} expected 'obj <id> <CLASS> version <v>', got {stripped}"
MANIFEST_ERROR = "FormatError {line} unrecognized manifest line {stripped}"
HIST_ERROR = "FormatError {line} unrecognized history line {stripped}"
BLANK_LINES = [
    ("in.eso", "obj", "between", "migrate", ESO_HEADER_ERROR),
    ("in.eso", "obj", "end", "migrate", ESO_HEADER_ERROR),
    ("in.eso", "end", "end", "migrate",
     "FormatError {line} line {line}, column {column}: unexpected character {blank}"),
    ("project/escher.manifest", "release", "between", "migrate", MANIFEST_ERROR),
    ("project/escher.manifest", "release", "end", "migrate", MANIFEST_ERROR),
    ("project/escher.manifest", "class", "between", "migrate", MANIFEST_ERROR),
    ("project/escher.manifest", "class", "end", "migrate", MANIFEST_ERROR),
    ("project/escher.manifest", "transformer", "between", "migrate", MANIFEST_ERROR),
    ("project/escher.manifest", "transformer", "end", "migrate", MANIFEST_ERROR),
    ("in.hist", "class", "between", "per", "FormatError {line} expected a class line, got {stripped}"),
    ("in.hist", "class", "end", "per", "FormatError {line} expected a class line, got {stripped}"),
    ("in.hist", "versions", "between", "per", HIST_ERROR),
    ("in.hist", "versions", "end", "per", HIST_ERROR),
    ("in.hist", "tf", "between", "per", HIST_ERROR),
    ("in.hist", "tf", "end", "per", HIST_ERROR),
    (EST, "Result.balance", "between", "migrate", EST_ERROR),
    (EST, "Result.balance", "end", "migrate", EST_ERROR),
    (EST, "end", "end", "migrate", EST_ERROR),
]


@pytest.mark.parametrize("blank", [" ", "\t", "\u00a0", "\u3000", "\x0b", "\x0c"],
                         ids=["space", "tab", "no-break", "ideographic", "vtab", "formfeed"])
@pytest.mark.parametrize(
    "file, word, where, command, first_line", BLANK_LINES,
    ids=[f"{f.rsplit('.', 1)[1]}-{w}-{where}" for f, w, where, _, _ in BLANK_LINES],
)
def test_only_space_tab_and_carriage_return_separate_words_in_a_line_format(
    tmp_path, bank_project, blank, file, word, where, command, first_line
):
    bank_project.rename(tmp_path / "project")
    (tmp_path / "in.eso").write_text(BANK_OBJECT_TEXT, encoding="utf-8")
    (tmp_path / "in.hist").write_text((FIXTURES / "arraylist.hist").read_text(encoding="utf-8"),
                                      encoding="utf-8")
    path = tmp_path / file
    lines = path.read_text(encoding="utf-8").split("\n")
    index = next(i for i, line in enumerate(lines) if line.lstrip(" ").startswith(word))
    indent = len(lines[index]) - len(lines[index].lstrip(" "))
    if where == "between":
        lines[index] = lines[index][:indent] + lines[index][indent:].replace(" ", blank, 1)
    else:
        lines[index] += blank
    path.write_text("\n".join(lines), encoding="utf-8")
    argv = {
        "migrate": ["migrate", str(tmp_path / "in.eso"), "--to-release", "2",
                    "--project", str(tmp_path / "project")],
        "per": ["per", str(tmp_path / "in.hist")],
    }[command]
    code, out, err = run_cli(*argv)
    assert "Traceback" not in out + err
    if blank in " \t":
        assert code == 0, out
        return
    expected = first_line.format(
        line=index + 1, column=lines[index].index(blank, indent) + 1, blank=repr(blank),
        stripped=repr(lines[index].strip(" ")),
    )
    assert (code, out.splitlines()[0]) == (1, expected)


def test_a_repeated_double_dash_is_a_usage_error():
    code, out, err = run_cli("gen", "--", "a.esc", "b.esc", "--")
    assert (code, out) == (2, "")
    assert "'--' may be given only once" in err


def test_parse_missing_file():
    code, _, err = run_cli("parse", "no_such_file.esc")
    assert code == 2
    assert "io error" in err


def test_diff_golden():
    code, out, _ = run_cli("diff", V1, V2)
    assert code == 0
    assert out == DIFF_GOLDEN


def test_diff_identical_files():
    code, out, _ = run_cli("diff", V1, V1)
    assert code == 0
    assert out == (
        "smo no_change info STRING\n"
        "smo no_change tot_deposits INTEGER\n"
        "smo no_change tot_withdrawals INTEGER\n"
    )


def test_diff_mismatched_classes(tmp_path):
    other = tmp_path / "other.esc"
    other.write_text("class OTHER feature end", encoding="utf-8")
    code, out, _ = run_cli("diff", V1, str(other))
    assert code == 1
    assert out.startswith("MismatchedClassIdentity")


def test_gen_writes_parseable_transformer(tmp_path):
    out_file = tmp_path / "1_to_2.est"
    code, out, _ = run_cli("gen", V1, V2, str(out_file))
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("transform BANK_ACCOUNT from 1 to 2\n")
    assert "Result.balance := input balance" in text


def test_gen_backwards_stub(tmp_path):
    out_file = tmp_path / "2_to_1.est"
    code, _, _ = run_cli("gen", V2, V1, str(out_file))
    assert code == 0
    assert "transform BANK_ACCOUNT from 2 to 1" in out_file.read_text(encoding="utf-8")


def test_gen_between_files_of_one_version_is_a_usage_error(tmp_path):
    out_file = tmp_path / "1_to_1.est"
    code, out, err = run_cli("gen", V1, V1, str(out_file))
    assert code == 2
    assert err == "error: both class files carry version 1; a transformer changes it\n"
    assert "Traceback" not in out + err
    assert not out_file.exists()


BROKEN_ESC = "class B feature\n  x:\nend\n"
BROKEN_LINE = "line 3 column 1: keyword 'end' cannot be used as an identifier"


@pytest.mark.parametrize("command", [["diff"], ["gen", "out.est"]])
def test_diff_and_gen_name_the_class_file_of_a_parse_error(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "B.esc").write_text(BROKEN_ESC, encoding="utf-8")
    code, out, err = run_cli(command[0], V1, "B.esc", *command[1:])
    assert code == 1
    assert out.splitlines()[0] == f"ParseError B.esc {BROKEN_LINE}"
    assert "Traceback" not in out + err
    assert not (tmp_path / "out.est").exists()


def test_check_names_the_class_file_of_a_parse_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "B.esc").write_text(BROKEN_ESC, encoding="utf-8")
    code, out, err = run_cli("check", OBJ, "B.esc")
    assert code == 1
    assert out.splitlines()[0] == f"ParseError B.esc {BROKEN_LINE}"
    assert "Traceback" not in out + err


def test_release_names_the_class_file_of_a_parse_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "proj").mkdir()
    (tmp_path / "ws").mkdir()
    (tmp_path / "ws" / "A.esc").write_text(BANK_V1_TEXT, encoding="utf-8")
    (tmp_path / "ws" / "B.esc").write_text(BROKEN_ESC, encoding="utf-8")
    code, out, err = run_cli("release", "ws", "--project", "proj")
    assert code == 1
    assert out.splitlines()[0] == f"ParseError ws/B.esc {BROKEN_LINE}"
    assert "Traceback" not in out + err
    assert list((tmp_path / "proj").iterdir()) == []


def test_a_failing_gen_write_leaves_the_old_output(tmp_path, monkeypatch):
    out_file = tmp_path / "out" / "1_to_2.est"
    out_file.parent.mkdir()
    out_file.write_bytes(b"earlier stub\r\n\xff")

    def failing(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", failing)
    code, out, err = run_cli("gen", V1, V2, str(out_file))
    assert code == 2
    assert "io error: disk gone" in err
    assert out_file.read_bytes() == b"earlier stub\r\n\xff"
    assert [p.name for p in out_file.parent.iterdir()] == [out_file.name]  # no temp file left


def test_release_and_noop(tmp_path):
    project = tmp_path / "proj"
    project.mkdir()
    working = tmp_path / "work"
    working.mkdir()
    (working / "BANK_ACCOUNT.esc").write_text(BANK_V1_TEXT, encoding="utf-8")
    code, out, _ = run_cli("release", str(working), "--project", str(project))
    assert code == 0
    assert out == "release 1\nclass BANK_ACCOUNT version 1\n"
    code, out, _ = run_cli("release", str(working), "--project", str(project))
    assert code == 0
    assert out == "no-op\n"
    # evolve the class: release 2 with a stub
    (working / "BANK_ACCOUNT.esc").write_text(BANK_V2_TEXT.replace("version 2", "version 1"), encoding="utf-8")
    code, out, _ = run_cli("release", str(working), "--project", str(project))
    assert code == 0
    assert out == "release 2\nclass BANK_ACCOUNT version 2\nstub BANK_ACCOUNT 1 2\n"
    assert (project / "handlers" / "BANK_ACCOUNT" / "1_to_2.est").exists()


def test_migrate_hand_fixed(bank_project):
    code, out, _ = run_cli("migrate", OBJ, "--to-release", "2", "--project", str(bank_project))
    assert code == 0
    assert out == (
        "ESCHER-OBJECTS 1\n"
        "obj 0 BANK_ACCOUNT version 2\n"
        "  balance: INTEGER = 70\n"
        "  info: INTEGER = 42\n"
        "end\n"
    )


def test_migrate_invariant_violation(bank_project_stub):
    code, out, _ = run_cli(
        "migrate", OBJ,
        "--to-release", "2",
        "--inputs", "BANK_ACCOUNT.balance=0",
        "--project", str(bank_project_stub),
    )
    assert code == 1
    assert out.splitlines()[0] == "InvariantViolation BANK_ACCOUNT 0 valid_account"


def test_migrate_no_assert_emits_corrupt_object(bank_project_stub):
    code, out, _ = run_cli(
        "migrate", OBJ,
        "--to-release", "2",
        "--inputs", "BANK_ACCOUNT.balance=0",
        "--no-assert",
        "--project", str(bank_project_stub),
    )
    assert code == 0
    graph = deserialize(out)
    assert graph.records[0].fields["balance"] == 0  # the corrupt object


@pytest.mark.parametrize("handler, inputs", [
    (None, ["--inputs", "A.p=Void"]),  # the generated stub, fed Void
    ("transform A from 1 to 2\n  Result.x := oldc.x\nend\n", []),  # p left to its default
], ids=["stub", "hand-edited"])
def test_migrate_refuses_a_void_attached_attribute(tmp_path, handler, inputs):
    project = tmp_path / "proj"
    project.mkdir()
    for number, body in [(1, "  x: INTEGER\n"), (2, "  x: INTEGER\n  p: attached A\n")]:
        working = tmp_path / f"w{number}"
        working.mkdir()
        (working / "A.esc").write_text(f"class A feature\n{body}end\n", encoding="utf-8")
        assert run_cli("release", str(working), "--project", str(project))[0] == 0
    if handler is not None:
        (project / "handlers" / "A" / "1_to_2.est").write_text(handler, encoding="utf-8")
    records = tmp_path / "a.eso"
    records.write_text("ESCHER-OBJECTS 1\nobj 0 A version 1\n  x: INTEGER = 5\nend\n",
                       encoding="utf-8")
    command = ["migrate", str(records), "--to-release", "2", *inputs, "--project", str(project)]
    assert run_cli(*command)[:2] == (1, "AttachmentViolation p\n")
    code, out, _ = run_cli(*command, "--no-assert")
    assert code == 0
    assert deserialize(out).records[0].fields == {"x": 5, "p": None}


def test_migrate_missing_transformer(bank_project):
    handler = bank_project / "handlers" / "BANK_ACCOUNT" / "1_to_2.est"
    handler.unlink()
    manifest = bank_project / "escher.manifest"
    manifest.write_text(
        "\n".join(
            line for line in manifest.read_text(encoding="utf-8").splitlines()
            if not line.startswith("transformer")
        ) + "\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli("migrate", OBJ, "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out.splitlines()[0] == "TransformationMissing BANK_ACCOUNT 1 2"


def test_migrate_missing_handler(bank_project):
    import shutil

    shutil.rmtree(bank_project / "handlers")
    manifest = bank_project / "escher.manifest"
    manifest.write_text(
        "\n".join(
            line for line in manifest.read_text(encoding="utf-8").splitlines()
            if not line.startswith("transformer")
        ) + "\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli("migrate", OBJ, "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out.splitlines()[0] == "HandlerMissing BANK_ACCOUNT"


def test_migrate_to_class_version(bank_project):
    code, out, _ = run_cli(
        "migrate", OBJ, "--to", "BANK_ACCOUNT=2", "--project", str(bank_project)
    )
    assert code == 0
    assert "obj 0 BANK_ACCOUNT version 2" in out


def test_migrate_string_input(tmp_path, bank_project_stub):
    obj = tmp_path / "in.eso"
    obj.write_text(BANK_OBJECT_TEXT.replace('"42"', '"oops"'), encoding="utf-8")
    code, out, _ = run_cli(
        "migrate", str(obj),
        "--to-release", "2",
        "--inputs", "BANK_ACCOUNT.balance=99",
        "--project", str(bank_project_stub),
    )
    assert code == 1
    assert out.splitlines()[0].startswith("ConversionFailure STRING_TO_INTEGER")


def test_migrate_of_a_string_with_a_non_ascii_digit_is_a_conversion_failure(tmp_path, bank_project):
    obj = tmp_path / "in.eso"
    obj.write_text(BANK_OBJECT_TEXT.replace('"42"', '"٣٤"'), encoding="utf-8")
    code, out, err = run_cli("migrate", str(obj), "--to-release", "2", "--project", str(bank_project))
    assert (code, out, err) == (1, 'ConversionFailure STRING_TO_INTEGER "٣٤"\n', "")


def test_a_carriage_return_in_a_string_survives_migrate_then_check(tmp_path):
    """The CLI reads files with universal newlines, so a raw carriage
    return in a written STRING would read back as a line break."""
    v1 = parse_schema("version 1\nclass S feature\n  x: INTEGER\nend\n")
    v2 = parse_schema("version 2\nclass S feature\n  x: INTEGER\n  t: STRING\nend\n")
    repo, _ = release(empty_repository("cr"), {"S": v1})
    repo, _ = release(repo, {"S": v2.with_version(1)})
    save_repository(repo, tmp_path / "project")
    (tmp_path / "in.eso").write_text(
        "ESCHER-OBJECTS 1\nobj 0 S version 1\n  x: INTEGER = 1\nend\n", encoding="utf-8"
    )
    (tmp_path / "S.esc").write_text(render_schema(v2), encoding="utf-8")
    out = tmp_path / "out.eso"
    code, _, err = run_cli("migrate", str(tmp_path / "in.eso"), "--inputs", 'S.t="a\rb"',
                           "--to-release", "2", "--project", str(tmp_path / "project"),
                           "--out", str(out))
    assert (code, err) == (0, "")
    assert '  t: STRING = "a\\rb"\n' in out.read_text(encoding="utf-8")
    assert run_cli("check", str(out), str(tmp_path / "S.esc")) == (0, "ok S 0\n", "")
    assert deserialize(out.read_text(encoding="utf-8")).records[0].fields["t"] == "a\rb"


def test_migrate_multi_hop_and_strict_direct(tmp_path):
    from test_objects import make_chain_repo
    from escher.repository import save_repository

    repo, _ = make_chain_repo(3)
    project = tmp_path / "chain"
    save_repository(repo, project)
    obj = tmp_path / "chain.eso"
    obj.write_text(
        "ESCHER-OBJECTS 1\nobj 0 CHAIN version 1\n  f1: INTEGER = 1\nend\n", encoding="utf-8"
    )
    args = [
        "migrate", str(obj), "--to", "CHAIN=3",
        "--inputs", "CHAIN.f2=2", "--inputs", "CHAIN.f3=3",
        "--project", str(project),
    ]
    code, out, _ = run_cli(*args)
    assert code == 0
    assert "obj 0 CHAIN version 3" in out
    code, out, _ = run_cli(*args, "--strict-direct")
    assert code == 1
    assert out.splitlines()[0] == "TransformationMissing CHAIN 1 3"


def test_migrate_out_file(bank_project, tmp_path):
    (tmp_path / "out").mkdir()
    out_path = tmp_path / "out" / "migrated.eso"
    code, out, _ = run_cli(
        "migrate", OBJ, "--to-release", "2", "--project", str(bank_project),
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""  # the file holds the output, written once
    _, stdout_only, _ = run_cli("migrate", OBJ, "--to-release", "2", "--project", str(bank_project))
    assert out_path.read_text(encoding="utf-8") == stdout_only
    assert [p.name for p in out_path.parent.iterdir()] == [out_path.name]  # no temp file left


@pytest.mark.parametrize(
    "edit",
    [lambda text: text.replace("\n", "\r\n"), lambda text: text.replace("\n  ", "\n\t"),
     lambda text: text.replace("\n  info", "\n\n  info")],
    ids=["crlf", "tab-indent", "blank-line"],
)
def test_migrate_reads_a_non_canonical_layout_as_the_original(bank_project, tmp_path, edit):
    original = (FIXTURES / "bank_account_v1.eso").read_text(encoding="utf-8")
    variant = tmp_path / "variant.eso"
    variant.write_bytes(edit(original).encode("utf-8"))
    assert variant.read_bytes() != original.encode("utf-8")
    outputs = []
    for source in (OBJ, str(variant)):
        out_path = tmp_path / f"out{len(outputs)}.eso"
        code, out, _ = run_cli(
            "migrate", source, "--to-release", "2", "--project", str(bank_project),
            "--out", str(out_path),
        )
        assert (code, out) == (0, "")
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_a_failing_migrate_leaves_the_out_file_as_it_was(bank_project_stub, tmp_path):
    (tmp_path / "out").mkdir()
    out_path = tmp_path / "out" / "migrated.eso"
    out_path.write_bytes(b"earlier output\r\n\xff")
    code, out, _ = run_cli(
        "migrate", OBJ, "--to-release", "2", "--project", str(bank_project_stub),
        "--out", str(out_path),
    )
    assert code == 1
    assert out.splitlines()[0] == "MissingInput balance"
    assert out_path.read_bytes() == b"earlier output\r\n\xff"
    assert [p.name for p in out_path.parent.iterdir()] == [out_path.name]


def test_per_arraylist_fixture():
    code, out, _ = run_cli("per", str(FIXTURES / "arraylist.hist"))
    assert code == 0
    assert out == "per ArrayList = 0.20\n"


def test_per_java_util_fixture():
    code, out, _ = run_cli("per", str(FIXTURES / "java_util.hist"))
    assert code == 0
    lines = out.splitlines()
    assert "per ArrayList = 0.20" in lines
    assert "per Vector = 1.00" in lines
    assert lines[-1] == "release per = 0.48"


def test_per_project(bank_project):
    code, out, _ = run_cli("per", "--project", str(bank_project))
    assert code == 0
    assert out == "per BANK_ACCOUNT = 0.50\n"


@pytest.mark.parametrize(
    "relative, old, new, first_line",
    [
        ("releases/2/BANK_ACCOUNT.esc", "balance: INTEGER", "balance INTEGER",
         "ParseError releases/2/BANK_ACCOUNT.esc line 3 column 11: found 'INTEGER'"),
        ("handlers/BANK_ACCOUNT/1_to_2.est", " - oldc.tot_withdrawals", " -",
         "ParseError handlers/BANK_ACCOUNT/1_to_2.est line 3 column 40: found ''"),
        ("releases/2/BANK_ACCOUNT.esc", "BANK_ACCOUNT feature", "BANK_ACCOUNT [info] feature",
         "ParseError releases/2/BANK_ACCOUNT.esc line 4 column 3: "
         "name 'info' is both a generic parameter and an attribute"),
    ],
)
def test_a_parse_error_in_a_project_names_its_file(bank_project, relative, old, new, first_line):
    path = bank_project / relative
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    # per needs only version tags and transformer pairs, so it parses no file
    assert run_cli("per", "--project", str(bank_project))[:2] == (0, "per BANK_ACCOUNT = 0.50\n")
    code, out, err = run_cli("migrate", OBJ, "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out.splitlines()[0] == first_line
    assert "Traceback" not in out + err


def test_check_pass(tmp_path, bank_project):
    migrated = tmp_path / "migrated.eso"
    run_cli(
        "migrate", OBJ, "--to-release", "2", "--project", str(bank_project),
        "--out", str(migrated),
    )
    code, out, _ = run_cli("check", str(migrated), V2)
    assert code == 0
    assert out == "ok BANK_ACCOUNT 0\n"


def test_check_fails(tmp_path):
    obj = tmp_path / "bad.eso"
    obj.write_text(
        "ESCHER-OBJECTS 1\n"
        "obj 0 BANK_ACCOUNT version 2\n"
        "  balance: INTEGER = 0\n"
        "  info: INTEGER = 1\n"
        "end\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli("check", str(obj), V2)
    assert code == 1
    assert out.splitlines()[0] == "InvariantViolation BANK_ACCOUNT 0 valid_account"


def test_check_names_a_failing_record_on_its_first_line(tmp_path):
    obj = tmp_path / "two.eso"
    obj.write_text(
        "ESCHER-OBJECTS 1\n"
        "obj 0 BANK_ACCOUNT version 2\n  balance: INTEGER = 5\n  info: INTEGER = 1\nend\n"
        "obj 1 BANK_ACCOUNT version 2\n  balance: INTEGER = 0\n  info: INTEGER = 1\nend\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli("check", str(obj), V2)
    assert (code, out) == (1, "InvariantViolation BANK_ACCOUNT 1 valid_account\n")


def test_check_v1_object_against_v1_schema():
    code, out, _ = run_cli("check", OBJ, V1)
    assert code == 0
    assert out == "ok BANK_ACCOUNT 0\n"


def test_check_skips_a_record_stored_at_another_version_of_the_class(tmp_path):
    # the record would pass v2's invariant, the v1 file would miss its attribute
    obj = tmp_path / "v1.eso"
    obj.write_text("ESCHER-OBJECTS 1\nobj 0 BANK_ACCOUNT version 1\n  balance: INTEGER = 5\nend\n",
                   encoding="utf-8")
    assert run_cli("check", str(obj), V2) == (0, "", "")
    assert run_cli("check", OBJ, V2) == (0, "", "")


@pytest.mark.parametrize("newline, indent, line_reads", [("\r\n", "  ", 0), ("\n", "\t", 0)],
                         ids=["CRLF", "tab-indented"])
def test_the_cli_reads_a_crlf_object_file_as_blocks(tmp_path, monkeypatch, newline, indent, line_reads):
    """Universal newlines turn CRLF into LF before ``deserialize`` sees the
    text, and the block reader takes any blank indent, so neither layout
    reaches the line reader."""
    from escher import objects

    calls = []
    read_record = objects._read_record
    monkeypatch.setattr(objects, "_read_record", lambda *args: calls.append(1) or read_record(*args))
    obj = tmp_path / "copy.eso"
    obj.write_bytes(BANK_OBJECT_TEXT.replace("\n  ", "\n" + indent).replace("\n", newline).encode())
    assert run_cli("check", str(obj), V1) == (0, "ok BANK_ACCOUNT 0\n", "")
    assert len(calls) == line_reads


def test_usage_errors_exit_2(bank_project):
    code, _, _ = run_cli("definitely-not-a-command")
    assert code == 2
    code, _, err = run_cli("migrate", OBJ, "--to-release", "9", "--project", str(bank_project))
    assert code == 2
    assert "release 9" in err
    code, _, _ = run_cli("migrate", OBJ, "--to", "HUH", "--project", str(bank_project))
    assert code == 2


@pytest.mark.parametrize(
    "version", ["9" * 5000, "\u00b2"], ids=["5000-digits", "superscript-two"]
)
def test_migrate_to_an_unconvertible_version_is_a_usage_error(bank_project, version):
    code, out, err = run_cli(
        "migrate", OBJ, "--to", f"BANK_ACCOUNT={version}", "--project", str(bank_project)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --to wants CLASS=V, got ")
    assert "Traceback" not in err


def test_migrate_to_an_empty_class_name_is_a_usage_error(bank_project):
    code, out, err = run_cli("migrate", OBJ, "--to", "=2", "--project", str(bank_project))
    assert code == 2
    assert out == ""
    assert err == "error: --to wants CLASS=V, got '=2'\n"


def test_migrate_to_a_class_the_project_lacks_is_unknown(bank_project):
    code, out, _ = run_cli("migrate", OBJ, "--to", "NOPE=2", "--project", str(bank_project))
    assert code == 1
    assert out == "UnknownClass NOPE\n"


def test_parse_too_deep_a_type_is_a_parse_error(tmp_path):
    deep = tmp_path / "deep.esc"
    deep.write_text("class DEEP feature a: " + "LIST[" * 500 + "INTEGER" + "]" * 500 + " end", encoding="utf-8")
    code, out, err = run_cli("parse", str(deep))
    assert code == 1
    # the 101st "[" opens at column 23 + 5 * 100 + 4
    assert out.splitlines()[0] == (
        f"ParseError {deep} line 1 column 527: type expression nested deeper than 100 levels"
    )
    assert "Traceback" not in out + err


def test_the_format_flag_is_gone():
    code, out, err = run_cli("diff", V1, V2, "--format", "text")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --format text" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("check", OBJ, V1), "--no-assert"),
        (("parse", V1), "--project p"),
        (("diff", V1, V2), "--strict-direct"),
        (("release", "ws"), "--no-assert"),
    ],
    ids=["check-no-assert", "parse-project", "diff-strict-direct", "release-no-assert"],
)
def test_a_command_refuses_an_option_it_does_not_read(argv, option):
    code, out, err = run_cli(*argv, *option.split(" "))
    assert (code, out) == (2, "")
    assert err.startswith("usage: escher ")
    assert err.endswith(f"error: unrecognized arguments: {option}\n")
    assert "Traceback" not in err


def test_migrate_to_a_version_the_class_never_had_is_unknown(bank_project):
    code, out, err = run_cli("migrate", OBJ, "--to", "BANK_ACCOUNT=9", "--project", str(bank_project))
    assert code == 1
    assert out == "UnknownVersion BANK_ACCOUNT 9\n"
    assert err == ""


@pytest.mark.parametrize(
    "literal, reason",
    [
        ("99999999999999999999", "line 1, column 1: integer literal outside the 64-bit range"),
        (f"ref {BIG}", "line 1, column 5: number too large: 5000 digits"),
    ],
    ids=["integer", "ref"],
)
def test_migrate_bad_inputs_value_names_its_entry(bank_project_stub, literal, reason):
    code, out, err = run_cli(
        "migrate", OBJ, "--to-release", "2",
        "--inputs", "BANK_ACCOUNT.balance=0",
        "--inputs", f"BANK_ACCOUNT.info={literal}",
        "--project", str(bank_project_stub),
    )
    assert code == 1
    assert out.splitlines()[0] == f"FormatError 1 --inputs BANK_ACCOUNT.info: {reason}"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("reads_owner", [True, False], ids=["read", "unread"])
def test_migrate_refuses_a_ref_input_past_the_file_read_or_not(tmp_path, bank_project, reads_owner):
    project = bank_project
    if reads_owner:  # a v2 with an ``owner``, which the handler takes from the input
        repo, _ = release(empty_repository("owned"), {"BANK_ACCOUNT": parse_schema(BANK_V1_TEXT)})
        v2 = BANK_V2_TEXT.replace("  info: INTEGER\n", "  info: INTEGER\n  owner: BANK_ACCOUNT\n")
        repo, _ = release(repo, {"BANK_ACCOUNT": parse_schema(v2)})
        handler = HAND_FIXED_TEXT.replace("end\n", "  Result.owner := input owner\nend\n")
        repo = register_transformer(repo, parse_transformer(handler), overwrite=True)
        project = tmp_path / "owned"
        save_repository(repo, project)
    code, out, err = run_cli(
        "migrate", OBJ, "--to-release", "2",
        "--inputs", "BANK_ACCOUNT.owner=ref 99",
        "--project", str(project),
    )
    assert (code, out) == (1, "DanglingReference 99\n")
    assert "Traceback" not in err


def test_migrate_duplicate_field_name_is_a_format_error_at_its_line(tmp_path, bank_project):
    obj = tmp_path / "dup.eso"
    obj.write_text(
        BANK_OBJECT_TEXT.replace('  info: STRING = "42"\n', '  info: STRING = "42"\n  info: STRING = "7"\n'),
        encoding="utf-8",
    )
    code, out, err = run_cli("migrate", str(obj), "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out == "FormatError 6 duplicate field name 'info' in record 0\n"
    assert "Traceback" not in out + err


def test_migrate_non_finite_real_is_a_format_error(tmp_path, bank_project):
    obj = tmp_path / "inf.eso"
    obj.write_text(
        BANK_OBJECT_TEXT + "obj 1 PERSON version 1\n  height: REAL = 1.0e999\nend\n",
        encoding="utf-8",
    )
    code, out, err = run_cli("migrate", str(obj), "--to-release", "2", "--project", str(bank_project))
    assert code == 1
    assert out.splitlines()[0] == "FormatError 8 line 8, column 18: real literal out of range"
    assert "Traceback" not in out + err


def test_migrate_non_utf8_file_exits_2(tmp_path, bank_project):
    obj = tmp_path / "latin1.eso"
    obj.write_bytes(BANK_OBJECT_TEXT.replace('"42"', '"\xff"').encode("latin-1"))
    code, out, err = run_cli("migrate", str(obj), "--to-release", "2", "--project", str(bank_project))
    assert code == 2
    assert out == ""
    assert "io error: input is not UTF-8 text" in err


def _real_project(tmp_path, new_class: str, hand_written: str | None = None):
    """Release ``class C feature x: ...`` then ``new_class``, with the
    generated 1 -> 2 stub or ``hand_written`` in its place."""
    repo = empty_repository("reals")
    old = "class C feature x: STRING end" if hand_written is None else "class C feature x: REAL end"
    repo, _ = release(repo, {"C": parse_schema(old)})
    repo, _ = release(repo, {"C": parse_schema(new_class)})
    if hand_written is not None:
        repo = register_transformer(repo, parse_transformer(hand_written), overwrite=True)
    project = tmp_path / "reals"
    save_repository(repo, project)
    return str(project)


def _migrate_one(tmp_path, project: str, record: str) -> tuple[int, str, str]:
    obj = tmp_path / "c.eso"
    obj.write_text(f"ESCHER-OBJECTS 1\n{record}end\n", encoding="utf-8")
    return run_cli("migrate", str(obj), "--to-release", "2", "--project", project)


def test_migrate_string_to_real_past_the_float_range_is_a_conversion_failure(tmp_path):
    project = _real_project(tmp_path, "class C feature x: REAL end")
    code, out, err = _migrate_one(tmp_path, project, 'obj 0 C version 1\n  x: STRING = "1e999"\n')
    assert code == 1
    assert out == 'ConversionFailure STRING_TO_REAL "1e999"\n'
    assert "Traceback" not in out + err


def test_migrate_real_overflow_is_an_evaluation_error_or_an_invariant_mismatch(tmp_path):
    project = _real_project(
        tmp_path,
        "class C feature x: REAL invariant big: x * 1.0e300 > 0.0 end",
        "transform C from 1 to 2\n  Result.x := oldc.x * 1.0e300\nend\n",
    )
    code, out, err = _migrate_one(tmp_path, project, "obj 0 C version 1\n  x: REAL = 1.0e300\n")
    assert (code, out) == (1, "EvaluationError 0 real overflow\n")
    assert "Traceback" not in out + err
    code, out, err = _migrate_one(tmp_path, project, "obj 0 C version 2\n  x: REAL = 1.0e300\n")
    assert (code, out) == (1, "TypeMismatchInInvariant big\n")
    assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# A command parses only the project files it needs
# ---------------------------------------------------------------------------

GARBLED = {
    "releases/1/OTHER.esc": "class OTHER feature\n  x:\nend\n",
    "handlers/OTHER/1_to_2.est": "transform OTHER from 1 to 2\n  Result.x := oldc.x +\nend\n",
}
OTHER_OBJECT = "ESCHER-OBJECTS 1\nobj 0 OTHER version 1\n  x: INTEGER = 3\nend\n"


@pytest.mark.parametrize("relative", sorted(GARBLED))
def test_a_garbled_file_fails_only_the_command_that_needs_it(two_class_project, tmp_path, relative):
    project = two_class_project
    (project / relative).write_text(GARBLED[relative], encoding="utf-8")
    code, out, _ = run_cli("per", "--project", str(project))
    assert (code, out) == (0, "per BANK_ACCOUNT = 0.50\nper OTHER = 0.50\nrelease per = 0.50\n")
    code, out, _ = run_cli("migrate", OBJ, "--to-release", "2", "--project", str(project))
    assert code == 0 and "obj 0 BANK_ACCOUNT version 2" in out  # OTHER is not in the file
    other = tmp_path / "other.eso"
    other.write_text(OTHER_OBJECT, encoding="utf-8")
    code, out, err = run_cli("migrate", str(other), "--to-release", "2", "--project", str(project))
    assert code == 1
    assert out.splitlines()[0].startswith(f"ParseError {relative} line ")
    assert "Traceback" not in out + err

    working = tmp_path / "work"
    working.mkdir()
    (working / "BANK_ACCOUNT.esc").write_text(BANK_V2_TEXT, encoding="utf-8")
    (working / "OTHER.esc").write_text("version 2\n" + OTHER_V2.replace("REAL", "STRING"), encoding="utf-8")
    code, out, _ = run_cli("release", str(working), "--project", str(project))
    assert (code, out) == (
        0, "release 3\nclass BANK_ACCOUNT version 2\nclass OTHER version 3\nstub OTHER 2 3\n"
    )
    assert (project / relative).read_text(encoding="utf-8") == GARBLED[relative]  # left as read


def test_migrate_reports_the_manifest_then_the_object_file_then_project_files(
    two_class_project, tmp_path
):
    """A load reads the manifest, the object file is parsed whole, and a
    project file is parsed when migration first reaches its class."""
    project = two_class_project
    (project / "handlers" / "OTHER" / "1_to_2.est").write_text(
        GARBLED["handlers/OTHER/1_to_2.est"], encoding="utf-8"
    )
    bad = tmp_path / "bad.eso"
    bad.write_text(OTHER_OBJECT.replace("x: INTEGER = 3", "x INTEGER = 3"), encoding="utf-8")
    argv = ["migrate", str(bad), "--to-release", "2", "--project", str(project)]
    code, out, _ = run_cli(*argv)
    assert code == 1
    assert out.splitlines()[0].startswith("FormatError 3 ")  # the object file, not the handler
    manifest = project / "escher.manifest"
    manifest.write_text(manifest.read_text(encoding="utf-8") + "bogus\n", encoding="utf-8")
    code, out, _ = run_cli(*argv)
    assert code == 1
    assert out.splitlines()[0] == "FormatError 9 unrecognized manifest line 'bogus'"
