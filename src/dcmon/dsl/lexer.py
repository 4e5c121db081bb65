"""Tokenizer for policy source."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import ParseError

IDENT = "ident"
INT = "int"
STRING = "string"
PUNCT = "punct"
EOF = "eof"

_TWO_CHAR = ("->", ":=", "==", "!=", "<=", ">=", "&&", "||", "*.")
_ONE_CHAR = "{}(),;.|!<>+-*/="

SIDE_TAGS = {"applicationside": "ApplicationSide", "globalside": "GlobalSide"}


def _is_ident_start(c: str) -> bool:
    return c == "_" or ("a" <= c <= "z") or ("A" <= c <= "Z")


def _is_ident_char(c: str) -> bool:
    return _is_ident_start(c) or ("0" <= c <= "9")


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int

    @property
    def span(self):
        return (self.line, self.col)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def error(msg: str) -> ParseError:
        return ParseError(line, col, msg)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        start_line, start_col = line, col
        if _is_ident_start(c):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append(Token(IDENT, text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if _is_digit(c):
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            tokens.append(Token(INT, text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            value, consumed = _scan_string(text, i, line, col)
            tokens.append(Token(STRING, value, start_line, start_col))
            col += consumed
            i += consumed
            continue
        if text.startswith("...", i):
            tokens.append(Token(PUNCT, "...", start_line, start_col))
            i += 3
            col += 3
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token(PUNCT, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR:
            tokens.append(Token(PUNCT, c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise error(f"unexpected character {c!r}")

    tokens.append(Token(EOF, "", line, col))
    return tokens


# the character after a backslash -> the character it stands for
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
# the escape that `escape_string` writes for each of those characters; a raw
# carriage return would read back from a file as a line break
_ESCAPED = {c: "\\" + e for e, c in _ESCAPES.items()}


def _scan_string(text: str, i: int, line: int, col: int):
    """Returns (decoded value, source characters consumed)."""
    j = i + 1
    out: List[str] = []
    n = len(text)
    while j < n:
        c = text[j]
        if c == '"':
            return "".join(out), j + 1 - i
        if c == "\n":
            break
        if c == "\\":
            if j + 1 >= n or text[j + 1] not in _ESCAPES:
                raise ParseError(line, col + (j - i), "invalid escape in string literal")
            out.append(_ESCAPES[text[j + 1]])
            j += 2
            continue
        out.append(c)
        j += 1
    raise ParseError(line, col, "unterminated string literal")


def escape_string(value: str) -> str:
    """`value` as a string literal that `_scan_string` reads back."""
    return '"' + "".join(_ESCAPED.get(c, c) for c in value) + '"'


def side_tag(tok: Token) -> Optional[str]:
    if tok.kind == IDENT:
        return SIDE_TAGS.get(tok.text.lower())
    return None
