"""A mini-C frontend.

The paper's motivating programs (Figure 1) and its Csmith-generated
workloads are C code.  This package provides a small C-like language — just
enough to express those programs — together with a lexer (one compiled
master regex), a recursive descent parser, and a lowering pass that produces
our SSA IR (a local scalar whose address is never taken goes straight to
SSA values; arrays and address-taken locals live in ``alloca`` slots).
Source text is ASCII: a non-ASCII character, even a digit or letter, is a
:class:`LexerError` with its line and column.

Supported subset: ``int``/``void`` types with arbitrary pointer depth,
function definitions and calls, local declarations (including fixed-size
arrays), assignments and compound assignments, arithmetic / comparison /
logical operators, array indexing, pointer dereference, ``if``/``else``,
``while``, ``for``, ``break``, ``continue``, ``return`` and a built-in
``malloc``.
"""

from repro.frontend.lexer import FrontendError, LexerError, Token, tokenize
from repro.frontend.parser import ParseError, parse_program
from repro.frontend.lowering import LoweringError, compile_source, lower_program
from repro.frontend import ast

__all__ = [
    "FrontendError",
    "LexerError",
    "Token",
    "tokenize",
    "ParseError",
    "parse_program",
    "LoweringError",
    "compile_source",
    "lower_program",
    "ast",
]
