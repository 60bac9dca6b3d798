"""Shared tokenizer for the class, transformer, and object file syntaxes,
and the blank rule of every file format the tool reads: ``BLANKS`` separate
words, and any other whitespace character is an ``unexpected character``
here and the usual error of a line format (``line_format``). The literal
shapes ``INT``, ``REAL`` and ``STRING`` and the escape set ``_ESCAPES`` are
stated here once, for the tokenizer, the ``.eso`` block reader and the
string conversions alike.

Line comments start with ``--`` and run to end of line. Two-hyphen comments
win over a bare minus, so ``a--b`` lexes as ``a`` followed by a comment
(matching the source language the syntax imitates).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import FormatError, ParseError

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"  # an identifier, in every syntax the tool reads
IDENT_RE = re.compile(IDENT + r"\Z")
BLANKS = " \t\r"  # what separates words, in every file format the tool reads
# The literal shapes, which every reader of a number or a string builds on.
INT = "[0-9]+"  # a digit is an ASCII 0-9
EXPONENT = f"[eE][+-]?{INT}"
REAL = rf"{INT}\.{INT}(?:{EXPONENT})?"  # the dot tells a real from an integer
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r"}  # the escape set
_REVERSE_ESCAPES = {char: "\\" + code for code, char in _ESCAPES.items()}
STRING = rf'"(?:[^"\\\n]|\\[{re.escape("".join(_ESCAPES))}])*"'  # as escape_string writes it


def line_format(*words: str) -> re.Pattern[str]:
    """The regex of a line whose ``words``, regex fragments, are separated
    by blanks; it matches the line stripped of ``BLANKS``."""
    return re.compile(f"[{BLANKS}]+".join(words) + r"\Z")


# Each group is named after the token kind it makes; SKIP and NL make none,
# and BAD, any other character, is an error.
_TOKEN_RE = re.compile(
    rf"""
    (?P<SKIP>--[^\n]*|[{BLANKS}]+)
  | (?P<NL>\n)
  | (?P<REAL>{REAL})
  | (?P<INT>{INT})
  | (?P<IDENT>{IDENT})
  | (?P<STRING>"(?:\\.|[^"\\\n])*")  # any escape, so that unescape_string names a bad one
  | (?P<OP>:=|/=|//|<=|>=|->|[:\[\](),;=<>+\-*.])
  | (?P<BAD>.)
    """,
    re.VERBOSE,
)

_ESCAPE_RE = re.compile(r"\\(.?)", re.DOTALL)


class Token(NamedTuple):
    kind: str  # IDENT | INT | REAL | STRING | OP | EOF
    text: str
    line: int
    column: int


def unescape_string(text: str, line: int, column: int) -> str:
    """Decode the payload of a double-quoted literal (quotes included)."""
    body = text[1:-1]
    if "\\" not in body:
        return body

    def decode(m: re.Match[str]) -> str:
        if m.group(1) not in _ESCAPES:
            raise ParseError(f"unknown escape in string literal {text}", line, column)
        return _ESCAPES[m.group(1)]

    return _ESCAPE_RE.sub(decode, body)


_ESCAPE_TABLE = str.maketrans(_REVERSE_ESCAPES)


def escape_string(value: str) -> str:
    """The double-quoted literal of ``value``, which ``unescape_string`` reads back."""
    if '"' in value or "\\" in value or "\n" in value or "\r" in value:
        value = value.translate(_ESCAPE_TABLE)
    return '"' + value + '"'


def line_int(digits: str, line: int) -> int:
    """The value of a digit run a line-format regex captured; a run longer
    than ``int()`` converts is a FormatError at ``line``."""
    try:
        return int(digits)
    except ValueError:
        raise FormatError(line, f"number too large: {len(digits)} digits") from None


def tokenize(source: str, *, start_line: int = 1, start_column: int = 1) -> list[Token]:
    """Lex ``source`` into tokens, dropping comments and whitespace. Its first
    character is at ``start_line`` and ``start_column``.

    A trailing EOF token is always appended so parsers can peek safely.
    """
    tokens: list[Token] = []
    new = tuple.__new__  # a Token without the NamedTuple constructor's call
    line = start_line
    line_start = 1 - start_column
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NL":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        if kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        tokens.append(new(Token, (kind, m.group(), line, col)))
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list ending in EOF, with one-token lookahead."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self.depth = 0  # levels open: expression parentheses, a type's [ and ,

    def peek(self) -> Token:
        return self._tokens[self._pos]

    # The methods below index the list themselves rather than call ``peek``:
    # a parse makes several of these calls per token.
    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def at(self, text: str) -> bool:
        """Whether the next token is the keyword or operator ``text``; no
        token of another kind can carry its text."""
        return self._tokens[self._pos].text == text

    def at_ident(self) -> bool:
        return self._tokens[self._pos].kind == "IDENT"

    def expect(self, text: str) -> Token:
        tok = self._tokens[self._pos]
        if tok.text != text:
            raise ParseError(f"found {tok.text!r}", tok.line, tok.column, expected=repr(text))
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ParseError(f"found {tok.text!r}", tok.line, tok.column, expected="an identifier")
        return self.next()

    def error(self, message: str, expected: str | None = None) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column, expected=expected)
