"""Tokenizer for queries and concept definitions.

Longest match wins, so '<-*->' never splits into '<-' '*' '->'.  Keywords
are case-insensitive; identifiers keep their case.  Strings take single or
double quotes with the quote doubled to escape itself.  '//' starts a line
comment.  A number literal may take a minus sign right before its digits
and an exponent ('-3', '-1.5', '1e4', '1E+4'); one with a fraction or an
exponent is a DECIMAL.  The arrow wins where both could start: 'x <-3' is
'x', '<-', '3', so a comparison with a negative number is written 'x < -3'.

One regular expression scans the text; its alternatives are tried in order
at each position, and the last one takes any single character that starts
no token: a quote that opens no closed string, or a character outside the
language.  Either raises at once; resuming the scan past a bad quote would
try every later quote as a string start, in quadratic time.  Each string
alternative is the unrolled loop "quote, run of other characters, (doubled
quote, run)*", which backtracks in linear time.
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import NamedTuple

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


class Token(NamedTuple):
    kind: str
    value: object
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.value!r})"


# builds a Token without the Python-level __new__ that NamedTuple writes
_new = tuple.__new__
_OPS = {op: (kind, canon) for op, kind, canon in OPERATORS}
# a string closed by its quote
_STRINGS = ("'[^']*(?:''[^']*)*'", '"[^"]*(?:""[^"]*)*"')
_COMMENT = r"//[^\n]*"
_TOKEN = re.compile(
    # \w is str.isalnum() or '_', and \d is str.isdecimal()
    r"(?P<word>[^\W\d]\w*)"
    rf"|(?P<op>{'|'.join(re.escape(op) for op, _, _ in OPERATORS)})"
    rf"|(?P<skip>(?:[ \t\r\n]|{_COMMENT})+)"
    # int() is stricter than \d (which admits other scripts' digits)
    r"|(?P<number>-?[0-9]+(?P<frac>\.[0-9]+)?(?P<exp>[eE][+-]?[0-9]+)?)"
    # the lookahead keeps "''" from closing a string at its first quote
    rf"|(?P<string>{_STRINGS[0]}(?!')|{_STRINGS[1]}(?!\"))"
    r"|(?P<other>.)",
    re.DOTALL,
)
# what a semicolon splitting statements may not stand in: a string, closed
# or running to the end, and a comment
_PIECE = re.compile(rf"{_STRINGS[0]}?|{_STRINGS[1]}?|{_COMMENT}|;")
# a comment ends only at a line end, so the pieces part one way and a failed
# match backtracks in linear time
_ONLY_COMMENTS = re.compile(rf"(?:\s|{_COMMENT}(?![^\n]))*")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # the index where the current line starts
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start()
        column = start - line_start + 1
        if kind == "word":
            word = m.group()
            # past ASCII, \w also admits digits and numerals that start no word
            if word[0] > "\x7f" and not word[0].isalpha():
                raise LexError(f"unexpected character {word[0]!r}", line, column)
            upper = word.upper()
            if upper in KEYWORDS:
                append(_new(Token, (upper, upper, line, column)))
            else:
                append(_new(Token, ("IDENT", word, line, column)))
        elif kind == "op":
            op_kind, canon = _OPS[m.group()]
            append(_new(Token, (op_kind, canon, line, column)))
        elif kind == "number":
            literal = m.group()
            try:
                if m.start("frac") < 0 and m.start("exp") < 0:
                    append(_new(Token, ("INTEGER", int(literal), line, column)))
                else:
                    append(_new(Token, ("DECIMAL", Decimal(literal), line, column)))
            except (ValueError, ArithmeticError):  # past int's digit limit or Decimal's exponent
                raise LexError("number literal out of range", line, column) from None
        elif kind == "other":
            ch = m.group()
            if ch in "'\"":
                raise LexError("unterminated string", line, column)
            raise LexError(f"unexpected character {ch!r}", line, column)
        else:  # skipped text or a string, either of which may hold line breaks
            end = m.end()
            if kind == "string":
                body = m.group()
                value = body[1:-1].replace(body[0] * 2, body[0])
                append(_new(Token, ("STRING", value, line, column)))
            breaks = text.count("\n", start, end)
            if breaks:
                line += breaks
                line_start = text.rindex("\n", start, end) + 1
    append(Token("EOF", None, line, len(text) - line_start + 1))
    return tokens


def split_statements(text: str) -> list[str]:
    """Split a script on top-level semicolons, respecting strings and comments.

    Returned statements keep their original text (positions in errors are
    relative to each statement).  Empty statements are dropped.
    """
    parts: list[str] = []
    start = 0
    for m in _PIECE.finditer(text):
        if m.group() == ";":
            parts.append(text[start:m.start()])
            start = m.end()
    parts.append(text[start:])
    return [p for p in (s.strip() for s in parts) if not _only_comments(p)]


def _only_comments(fragment: str) -> bool:
    # a fragment holding nothing but whitespace and // comments is no statement
    return _ONLY_COMMENTS.fullmatch(fragment) is not None
