"""Tokenizer for the mini-C language."""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional

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


class LexerError(Exception):
    """Raised on malformed input text."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__("{} (line {}, column {})".format(message, line, column))
        self.message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        # Round-trips through pickle (pool workers ship exceptions).
        return (type(self), (self.message, self.line, self.column))


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
    line, column = 1, 1
    index = 0
    length = len(source)

    def error(message: str) -> LexerError:
        return LexerError(message, line, column)

    while index < length:
        ch = source[index]
        # Whitespace.
        if ch in " \t\r":
            index += 1
            column += 1
            continue
        if ch == "\n":
            index += 1
            line += 1
            column = 1
            continue
        # Comments.
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise error("unterminated block comment")
            skipped = source[index:end + 2]
            newlines = skipped.count("\n")
            if newlines:
                line += newlines
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            index = end + 2
            continue
        # Numbers.
        if ch.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            text = source[start:index]
            tokens.append(Token("int", text, line, column))
            column += len(text)
            continue
        # Identifiers and keywords.
        if ch.isalpha() or ch == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += len(text)
            continue
        # Operators and punctuation.
        matched: Optional[str] = None
        for op in OPERATORS:
            if source.startswith(op, index):
                matched = op
                break
        if matched is None:
            raise error("unexpected character {!r}".format(ch))
        tokens.append(Token("op", matched, line, column))
        index += len(matched)
        column += len(matched)
    tokens.append(Token("eof", "", line, column))
    return tokens
