"""Token-mutation fuzz of the spec corpus.

Each mutant deletes, duplicates or replaces one token of a spec source.
Every mutant must either compile or be rejected with a frontend diagnostic
(:class:`LexerError`, :class:`ParseError` or :class:`LoweringError`); an IR
:class:`~repro.ir.verifier.VerificationError` or any other exception means
lowering accepted an ill-typed program.  Mutants are built on token lists
and fed to the parser directly, so the run stays short.
"""

import random

from repro.frontend import LexerError, LoweringError, ParseError, tokenize
from repro.frontend.lowering import lower_program
from repro.frontend.parser import Parser
from repro.synth.workloads import spec_sources

SEED = 1
MUTANTS = 600
FRONTEND_ERRORS = (LexerError, ParseError, LoweringError)


def _mutants(seed, count):
    """``(name, operation, position, tokens)`` per mutant."""
    corpus = [(name, tokenize(source)) for name, source in spec_sources()]
    rng = random.Random(seed)
    for _ in range(count):
        name, tokens = rng.choice(corpus)
        tokens = list(tokens)
        # The last token is the end-of-file marker; it stays in place.
        position = rng.randrange(len(tokens) - 1)
        operation = rng.choice(("delete", "duplicate", "replace"))
        if operation == "delete":
            del tokens[position]
        elif operation == "duplicate":
            tokens.insert(position, tokens[position])
        else:
            tokens[position] = tokens[rng.randrange(len(tokens) - 1)]
        yield name, operation, position, tokens


def test_token_mutants_compile_or_raise_a_frontend_error():
    compiled = rejected = 0
    escaped = []
    for name, operation, position, tokens in _mutants(SEED, MUTANTS):
        try:
            lower_program(Parser(tokens).parse_program(), name)
        except FRONTEND_ERRORS:
            rejected += 1
        except Exception as error:  # noqa: BLE001 - the failure under test
            escaped.append((name, operation, position,
                            "{}: {}".format(type(error).__name__, error)))
        else:
            compiled += 1
    assert escaped == []
    # The fuzz exercises both outcomes, not only parse errors.
    assert compiled > 0 and rejected > 0
