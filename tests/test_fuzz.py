"""Fuzz the ``.esc``, ``.est``, ``.eso`` and ``.hist`` readers through the CLI.

Token soup (keywords, names, numbers, strings, operators and stray
characters of both languages), and valid files with a few pieces inserted,
deleted or replaced, go through ``escher parse``, and the same
text goes into a small project, once as a release's ``.esc`` and once as a
handler's ``.est``, run through ``escher per --project``. Object files made
the same way from ``.eso`` words and ``serialize`` outputs go through
``escher check`` and ``escher migrate``, and history files through
``escher per``. Argument lists made from valid invocations of every
command, with subcommands, flags, ``--to`` and ``--inputs`` items and file
paths inserted, deleted or replaced, go through ``main`` itself. Whatever
the text or the arguments, the CLI ends in one of its documented outcomes:
exit 0, exit 1 with the name of an ``escher.errors`` class first, or exit 2.
An exception that escapes ``main`` fails the test with its traceback.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    BANK_OBJECT_TEXT,
    BANK_V1_TEXT,
    BANK_V2_TEXT,
    HAND_FIXED_TEXT,
    run_cli,
)
from escher import errors  # noqa: E402
from escher.objects import serialize  # noqa: E402
from escher.repository import (  # noqa: E402
    empty_repository,
    register_transformer,
    release,
    save_repository,
)
from escher.schema import parse_schema  # noqa: E402
from escher.transformer import parse_transformer  # noqa: E402
from helpers import random_graph  # noqa: E402

WORDS = [
    # .esc
    "class", "feature", "end", "invariant", "version", "attached", "detachable",
    "and", "or", "not", "Void", "true", "false",
    "INTEGER", "REAL", "BOOLEAN", "STRING", "ARRAY", "LIST", "TABLE", "C", "G", "x", "y",
    # .est
    "transform", "from", "to", "Result", "oldc", "input", "convert", "require_attached",
    "STRING_TO_INTEGER", "INTEGER_TO_REAL", "REAL_TO_STRING", "NO_SUCH_CONVERTER",
]
OPS = [":=", "/=", "//", "<=", ">=", "->", ":", "[", "]", "(", ")", ",", ";", "=", "<", ">",
       "+", "-", "*", ".", "--", '"']
NUMBERS = ["0", "1", "2", "3", "-1", "9223372036854775808", "1" * 5000, "1.5", "1.0e999",
           "2.5e-400", "1.", ".5"]
STRINGS = ['""', '"a"', '"\\n"', '"\\q"', '"é"', '"unterminated']
SPACES = [" ", "\n", "\t", "  ", "\r\n", " -- comment\n"]
PREFIXES = ["", "class C feature\n", "version 2\nclass C feature\n  x: INTEGER\n",
            "transform C from 1 to 2\n", "transform C from 1 to 2\n  Result.x := "]

TEMPLATES = [
    "version 1\nclass C [G] feature\n  x: INTEGER\n  y: detachable LIST [G]\n  z: REAL\n"
    "  s: attached STRING\ninvariant\n  pos: x > 0 and not (z < 1.5)\n"
    "  named: s /= Void or x // 2 = 1\nend\n",
    "class C feature\n  x: INTEGER\nend\n",
    "transform C from 1 to 2\n  Result.x := convert INTEGER_TO_STRING (oldc.x)\nend\n",
    "transform C from 1 to 2\n  require_attached Result.x\n  Result.x := input x\n"
    "  Result.y := oldc.x * (2 + -1) // 3\nend\n",
]


def mutate(template: str, edits: list[tuple[int, str, str]]) -> str:
    """Insert, delete or replace space-separated pieces of a valid file."""
    pieces = template.split(" ")
    for position, action, token in edits:
        if action == "insert":
            pieces.insert(position % (len(pieces) + 1), token)
        elif pieces:
            index = position % len(pieces)
            if action == "delete":
                del pieces[index]
            else:
                pieces[index] = token
    return " ".join(pieces)


def soup_of(words: list[str], prefixes: list[str], templates: list[str]):
    """Token soup (``words`` and the shared pieces) after one of
    ``prefixes``, or one of ``templates`` with a few pieces edited."""
    tokens = st.one_of(
        st.sampled_from(words),
        st.sampled_from(OPS),
        st.sampled_from(NUMBERS),
        st.sampled_from(STRINGS),
        st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=3),
    )
    return st.one_of(
        st.builds(
            lambda prefix, parts: prefix + "".join(word + space for word, space in parts),
            st.sampled_from(prefixes),
            st.lists(st.tuples(tokens, st.sampled_from(SPACES)), max_size=40),
        ),
        st.builds(
            mutate,
            st.sampled_from(templates),
            st.lists(
                st.tuples(
                    st.integers(0, 60),
                    st.sampled_from(["insert", "delete", "replace"]),
                    st.one_of(st.sampled_from(words + OPS + NUMBERS + STRINGS), tokens),
                ),
                max_size=3,
            ),
        ),
    )


soups = soup_of(WORDS, PREFIXES, TEMPLATES)

ERROR_NAMES = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.EscherError)
}
C_V1 = "class C feature\n  x: INTEGER\nend\n"
C_V2 = "version 2\nclass C feature\n  x: STRING\nend\n"
C_V1_OBJECT = "ESCHER-OBJECTS 1\nobj 0 C version 1\n  x: INTEGER = 7\nend\n"


def assert_documented(code: int, out: str) -> None:
    if code == 1:
        first = out.split(maxsplit=1)[0] if out.strip() else ""
        assert first in ERROR_NAMES, out
    else:
        assert code in (0, 2), (code, out)


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@settings(max_examples=300, deadline=None)
@given(soups)
def test_token_soup_ends_in_a_documented_outcome(text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root / "soup.esc", text)
        assert_documented(*run_cli("parse", str(root / "soup.esc"))[:2])

        # per reads only version tags and pairs; migrate parses the files
        write(root / "c.eso", C_V1_OBJECT)
        esc_project = root / "esc_project"
        write(esc_project / "escher.manifest", "release 1\nclass C version 1\n")
        write(esc_project / "releases" / "1" / "C.esc", text)
        assert_documented(*run_cli("per", "--project", str(esc_project))[:2])
        assert_documented(*run_cli("migrate", str(root / "c.eso"), "--project", str(esc_project))[:2])

        est_project = root / "est_project"
        write(est_project / "escher.manifest",
              "release 1\nclass C version 1\nrelease 2\nclass C version 2\n")
        write(est_project / "releases" / "1" / "C.esc", C_V1)
        write(est_project / "releases" / "2" / "C.esc", C_V2)
        write(est_project / "handlers" / "C" / "1_to_2.est", text)
        assert_documented(*run_cli("per", "--project", str(est_project))[:2])
        assert_documented(*run_cli("migrate", str(root / "c.eso"), "--to", "C=2",
                                   "--project", str(est_project))[:2])


ESO_WORDS = [
    "ESCHER-OBJECTS", "obj", "end", "version", "ref", "Void", "true", "false",
    "INTEGER", "REAL", "BOOLEAN", "STRING", "NONE", "BANK_ACCOUNT", "PERSON", "NODE",
    "tot_deposits", "tot_withdrawals", "info", "balance", "f0", "ESCHER-OBJECTS 1\n",
    "  ", ":", "=", "\nend\n",
]
ESO_PREFIXES = ["", "ESCHER-OBJECTS 1\n", "ESCHER-OBJECTS 1\nobj 0 BANK_ACCOUNT version 1\n"]
ESO_TEMPLATES = [
    BANK_OBJECT_TEXT,
    BANK_OBJECT_TEXT + "obj 1 BANK_ACCOUNT version 1\n  tot_deposits: INTEGER = 5\n"
    '  tot_withdrawals: INTEGER = 9\n  info: STRING = "x"\nend\n',
    *(serialize(random_graph(random.Random(seed))) for seed in range(3)),
]
HIST_WORDS = ["class", "versions", "tf", "ArrayList", "A", "B", "--"]
HIST_PREFIXES = ["", "class A\n", "class A\nversions 3\n"]
HIST_TEMPLATES = [
    "class ArrayList\nversions 5\ntf 1 2\ntf 1 3\ntf 2 1\n",
    "class A\nversions 1\nclass B\nversions 3\ntf 3 1\ntf 1 2\n",
]


@pytest.fixture(scope="module")
def bank_files(tmp_path_factory) -> Path:
    """The two BANK_ACCOUNT class files and a project of both releases with
    the hand-fixed handler, written once for the module."""
    root = tmp_path_factory.mktemp("bank")
    write(root / "v1.esc", BANK_V1_TEXT)
    write(root / "v2.esc", BANK_V2_TEXT)
    repo = empty_repository("bank")
    repo, _ = release(repo, {"BANK_ACCOUNT": parse_schema(BANK_V1_TEXT)})
    repo, _ = release(repo, {"BANK_ACCOUNT": parse_schema(BANK_V2_TEXT).with_version(1)})
    repo = register_transformer(repo, parse_transformer(HAND_FIXED_TEXT), overwrite=True)
    save_repository(repo, root / "project")
    return root


@settings(max_examples=300, deadline=None)
@given(text=soup_of(ESO_WORDS, ESO_PREFIXES, ESO_TEMPLATES))
def test_object_file_soup_ends_in_a_documented_outcome(bank_files, text):
    with tempfile.TemporaryDirectory() as tmp:
        eso = Path(tmp) / "soup.eso"
        write(eso, text)
        for schema in ("v1.esc", "v2.esc"):
            assert_documented(*run_cli("check", str(eso), str(bank_files / schema))[:2])
        assert_documented(*run_cli(
            "migrate", str(eso), "--project", str(bank_files / "project"), "--to", "BANK_ACCOUNT=2"
        )[:2])


@settings(max_examples=300, deadline=None)
@given(soup_of(HIST_WORDS, HIST_PREFIXES, HIST_TEMPLATES))
def test_history_file_soup_ends_in_a_documented_outcome(text):
    with tempfile.TemporaryDirectory() as tmp:
        hist = Path(tmp) / "soup.hist"
        write(hist, text)
        assert_documented(*run_cli("per", str(hist))[:2])


# Placeholders for paths relative to one example's directory, a copy of
# ``cli_files``; ``OUT`` and ``GONE`` are not there yet.
PATHS = {
    "V1": "v1.esc", "V2": "v2.esc", "ESO": "bank.eso", "HIST": "bank.hist",
    "EST": "project/handlers/BANK_ACCOUNT/1_to_2.est", "PROJECT": "project",
    "WORK": "work", "ROOT": ".", "OUT": "out.eso", "GONE": "gone/none.esc",
}
ARGV_TEMPLATES = [
    "parse V1",
    "diff V1 V2",
    "gen V1 V2 OUT",
    "release WORK --project PROJECT",
    "migrate ESO --project PROJECT --to BANK_ACCOUNT=2",
    "migrate ESO --project PROJECT --to-release 2 --out OUT --no-assert --strict-direct",
    "migrate ESO --project PROJECT --to BANK_ACCOUNT=2 --inputs BANK_ACCOUNT.balance=5",
    "per HIST",
    "per --project PROJECT",
    "check ESO V1",
    "check ESO V2",
    "parse EST",
    "migrate ESO --project PROJECT --to NOBODY=1",
]
ARGV_PIECES = [
    "parse", "diff", "gen", "release", "migrate", "per", "check", "help", "",
    "--project", "--no-assert", "--strict-direct", "--to-release", "--to", "--inputs",
    "--out", "--help", "-h", "--", "-", "--bogus", "--to=BANK_ACCOUNT=1",
    "0", "1", "2", "3", "-1", "99999999999999999999", "٣",
    "BANK_ACCOUNT=1", "BANK_ACCOUNT=3", "BANK_ACCOUNT=", "=2", "NOBODY=1", "BANK_ACCOUNT=²",
    "BANK_ACCOUNT.balance=7", "BANK_ACCOUNT.info=\"x\"", "BANK_ACCOUNT.balance=Void",
    "BANK_ACCOUNT.balance=1.0e999", "BANK_ACCOUNT.balance=", "BANK_ACCOUNT=5", ".x=1",
    *PATHS,
]


@pytest.fixture(scope="module")
def cli_files(bank_files, tmp_path_factory) -> Path:
    """``bank_files`` with an object file, a history file and a working set."""
    root = tmp_path_factory.mktemp("cli") / "files"
    shutil.copytree(bank_files, root)
    write(root / "bank.eso", BANK_OBJECT_TEXT)
    write(root / "bank.hist", HIST_TEMPLATES[0])
    write(root / "work" / "BANK_ACCOUNT.esc", BANK_V2_TEXT)
    return root


@settings(max_examples=400, deadline=None)
@given(
    template=st.sampled_from(ARGV_TEMPLATES),
    edits=st.lists(
        st.tuples(
            st.integers(0, 20),
            st.sampled_from(["insert", "delete", "replace"]),
            st.sampled_from(ARGV_PIECES),
        ),
        max_size=3,
    ),
)
def test_argv_ends_in_a_documented_outcome(cli_files, template, edits):
    argv = mutate(template, edits).split(" ")  # no piece holds a space
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(cli_files, Path(tmp) / "cli")
        os.chdir(Path(tmp) / "cli")  # so that any argument read as a path names a file here
        try:
            code, out, _ = run_cli(*(PATHS.get(a, a) for a in argv))
        finally:
            os.chdir(cwd)
    event(f"exit {code}")
    assert_documented(code, out)
