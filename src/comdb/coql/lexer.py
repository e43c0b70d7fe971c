"""Tokenizer for queries and concept definitions.

Longest match wins, so '<-*->' never splits into '<-' '*' '->'.  Keywords
are case-insensitive; identifiers keep their case.  Strings take single or
double quotes with the quote doubled to escape itself.  '//' starts a line
comment.  A number literal may take a minus sign right before its digits
and an exponent ('-3', '-1.5', '1e4', '1E+4'); one with a fraction or an
exponent is a DECIMAL.  The arrow wins where both could start: 'x <-3' is
'x', '<-', '3', so a comparison with a negative number is written 'x < -3'.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from ..errors import LexError

KEYWORDS = {
    "CONCEPT", "IDENTITY", "ENTITY", "GIVEN", "GET",
    "WHERE", "AND", "OR", "NOT", "COUNT", "SUM", "NULL",
}

# longest first; '=' normalizes to '==' and '<-*-*>' to '<-*->'
OPERATORS = (
    ("<-*-*>", "INFER", "<-*->"),
    ("<-*->", "INFER", "<-*->"),
    ("*->", "STAR_ARROW", "*->"),
    ("<-*", "LSTAR", "<-*"),
    ("->", "ARROW", "->"),
    ("<-", "LARROW", "<-"),
    ("<=", "LE", "<="),
    (">=", "GE", ">="),
    ("==", "EQ", "=="),
    ("!=", "NE", "!="),
    ("<", "LT", "<"),
    (">", "GT", ">"),
    ("=", "EQ", "=="),
    ("|", "PIPE", "|"),
    ("(", "LPAREN", "("),
    (")", "RPAREN", ")"),
    (",", "COMMA", ","),
    (".", "DOT", "."),
    (";", "SEMI", ";"),
)


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.value!r})"


# int() is stricter than str.isdigit (which admits superscripts and the like)
_DIGITS = "0123456789"


def _digit_at(text: str, i: int) -> bool:
    return i < len(text) and text[i] in _DIGITS


def _digits(text: str, i: int) -> int:
    """The end of the run of digits starting at i."""
    while _digit_at(text, i):
        i += 1
    return i


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if ch in "'\"":
            quote = ch
            start_line, start_col = line, col
            advance(1)
            chunks: list[str] = []
            while True:
                if i >= n:
                    raise LexError("unterminated string", start_line, start_col)
                if text[i] == quote:
                    if i + 1 < n and text[i + 1] == quote:
                        chunks.append(quote)
                        advance(2)
                        continue
                    advance(1)
                    break
                chunks.append(text[i])
                advance(1)
            tokens.append(Token("STRING", "".join(chunks), start_line, start_col))
            continue
        if ch in _DIGITS or (ch == "-" and _digit_at(text, i + 1)):
            start_line, start_col = line, col
            j = _digits(text, i + 1)
            kind = "INTEGER"
            if text.startswith(".", j) and _digit_at(text, j + 1):
                j, kind = _digits(text, j + 1), "DECIMAL"
            if text[j:j + 1] in ("e", "E"):
                k = j + 1 + text.startswith(("+", "-"), j + 1)
                if _digit_at(text, k):
                    j, kind = _digits(text, k), "DECIMAL"
            try:
                value: object = int(text[i:j]) if kind == "INTEGER" else Decimal(text[i:j])
            except (ValueError, ArithmeticError):  # past int's digit limit or Decimal's exponent
                raise LexError("number literal out of range", line, col) from None
            advance(j - i)
            tokens.append(Token(kind, value, start_line, start_col))
            continue
        if _is_ident_start(ch):
            start_line, start_col = line, col
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            advance(j - i)
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(upper, upper, start_line, start_col))
            else:
                tokens.append(Token("IDENT", word, start_line, start_col))
            continue
        for op, kind, canon in OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(kind, canon, line, col))
                advance(len(op))
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", None, line, col))
    return tokens


def split_statements(text: str) -> list[str]:
    """Split a script on top-level semicolons, respecting strings and comments.

    Returned statements keep their original text (positions in errors are
    relative to each statement).  Empty statements are dropped.
    """
    parts: list[str] = []
    buf: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "'\"":
            quote = ch
            buf.append(ch)
            i += 1
            while i < n:
                buf.append(text[i])
                if text[i] == quote:
                    if i + 1 < n and text[i + 1] == quote:
                        buf.append(text[i + 1])
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                buf.append(text[i])
                i += 1
            continue
        if ch == ";":
            parts.append("".join(buf))
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return [p for p in (s.strip() for s in parts) if not _only_comments(p)]


def _only_comments(fragment: str) -> bool:
    # a fragment holding nothing but whitespace and // comments is no statement
    i, n = 0, len(fragment)
    while i < n:
        if fragment[i].isspace():
            i += 1
        elif fragment.startswith("//", i):
            while i < n and fragment[i] != "\n":
                i += 1
        else:
            return False
    return True
