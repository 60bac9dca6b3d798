"""Fuzz the ``.esc`` and ``.est`` readers through the CLI.

Token soup (keywords, names, numbers, strings, operators and stray
characters of both languages), and valid files with a few pieces inserted,
deleted or replaced, go through ``escher parse``, and the same
text goes into a small project, once as a release's ``.esc`` and once as a
handler's ``.est``, run through ``escher per --project``. Whatever the text,
the CLI ends in one of its documented outcomes: exit 0, exit 1 with the name
of an ``escher.errors`` class first, or exit 2. An exception that escapes
``main`` fails the test with its traceback.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import run_cli  # noqa: E402
from escher import errors  # noqa: E402

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

tokens = st.one_of(
    st.sampled_from(WORDS),
    st.sampled_from(OPS),
    st.sampled_from(NUMBERS),
    st.sampled_from(STRINGS),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=3),
)
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


soups = st.one_of(
    st.builds(
        lambda prefix, parts: prefix + "".join(word + space for word, space in parts),
        st.sampled_from(PREFIXES),
        st.lists(st.tuples(tokens, st.sampled_from(SPACES)), max_size=40),
    ),
    st.builds(
        mutate,
        st.sampled_from(TEMPLATES),
        st.lists(
            st.tuples(
                st.integers(0, 60),
                st.sampled_from(["insert", "delete", "replace"]),
                st.one_of(st.sampled_from(WORDS + OPS + NUMBERS + STRINGS), tokens),
            ),
            max_size=3,
        ),
    ),
)

ERROR_NAMES = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.EscherError)
}
C_V1 = "class C feature\n  x: INTEGER\nend\n"
C_V2 = "version 2\nclass C feature\n  x: STRING\nend\n"


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

        esc_project = root / "esc_project"
        write(esc_project / "escher.manifest", "release 1\nclass C version 1\n")
        write(esc_project / "releases" / "1" / "C.esc", text)
        assert_documented(*run_cli("per", "--project", str(esc_project))[:2])

        est_project = root / "est_project"
        write(est_project / "escher.manifest",
              "release 1\nclass C version 1\nrelease 2\nclass C version 2\n")
        write(est_project / "releases" / "1" / "C.esc", C_V1)
        write(est_project / "releases" / "2" / "C.esc", C_V2)
        write(est_project / "handlers" / "C" / "1_to_2.est", text)
        assert_documented(*run_cli("per", "--project", str(est_project))[:2])
