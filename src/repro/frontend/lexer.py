"""Tokenizer for the mini-C language.

One compiled master pattern with a named group per token class (space,
newline, comments, words, integers, operators) is matched at the current
position; ``tokenize`` dispatches on the group that matched.  The language
is ASCII-only: any other character is a :class:`LexerError` with its line
and column.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

KEYWORDS = {
    "int", "void", "if", "else", "while", "for", "return", "break", "continue",
}

# Multi-character operators must be listed before their prefixes.
OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
    "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",",
]

# One alternative per token class, tried in order: comments before the ``/``
# operator, and ``OPERATORS`` longest first.  Numbers and words are ASCII
# only, so a non-ASCII character matches no alternative.
_TOKEN = re.compile("|".join([
    r"(?P<space>[ \t\r]+)",
    r"(?P<newline>\n)",
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<int>[0-9]+)",
    r"(?P<line_comment>//[^\n]*)",
    r"(?P<block_comment>/\*)",
    "(?P<op>{})".format("|".join(re.escape(op) for op in OPERATORS)),
]))


class FrontendError(Exception):
    """A source the frontend rejects.

    :func:`~repro.frontend.lowering.compile_source` sets ``unit`` to the
    name of the module it was compiling, so a run over several sources can
    say which one failed.  The subclasses' reductions carry it through
    pickle (pool workers ship exceptions back).
    """

    unit: Optional[str] = None


class LexerError(FrontendError):
    """Raised on malformed input text."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__("{} (line {}, column {})".format(message, line, column))
        self.message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        # Round-trips through pickle (pool workers ship exceptions).
        return (type(self), (self.message, self.line, self.column), vars(self))


class Token(NamedTuple):
    """One lexical token."""

    kind: str        # "int", "ident", "keyword", "op", "eof"
    text: str
    line: int
    column: int

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text


def tokenize(source: str) -> List[Token]:
    """Convert ``source`` into a token list terminated by an ``eof`` token."""
    tokens: List[Token] = []
    match = _TOKEN.match
    line, line_start = 1, 0
    index = 0
    length = len(source)
    while index < length:
        m = match(source, index)
        if m is None:
            raise LexerError("unexpected character {!r}".format(source[index]),
                             line, index - line_start + 1)
        kind = m.lastgroup
        end = m.end()
        if kind == "newline":
            line += 1
            line_start = end
        elif kind == "line_comment":
            if end == length:
                break  # the eof token sits where a final comment starts
        elif kind == "block_comment":
            close = source.find("*/", end)
            if close == -1:
                raise LexerError("unterminated block comment", line, index - line_start + 1)
            end = close + 2
            newlines = source.count("\n", index, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", index, end) + 1
        elif kind != "space":
            text = m.group()
            if kind == "word":
                kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, index - line_start + 1))
        index = end
    tokens.append(Token("eof", "", line, index - line_start + 1))
    return tokens
