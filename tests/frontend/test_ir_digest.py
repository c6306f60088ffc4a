"""Pin the frontend's output: the printed IR of the synthetic corpora.

Value names, call-graph fingerprints, store keys and every verdict follow
from the printed IR, so a faster lexer, lowering or mem2reg must leave it
byte-identical.  The digest changes only with an intentional IR change, and
that change is recorded in CHANGES.md together with the new digest.
"""

import hashlib

from repro.frontend import compile_source
from repro.ir import print_module
from repro.synth import build_testsuite_sources, spec_sources

IR_DIGEST = "ad8f98d59b5bb6a4dbd10228bea90a90874b91351b888e574da00ceebdededcb"


def test_printed_ir_of_spec_and_testsuite_corpora_is_pinned():
    corpus = list(spec_sources()) + list(build_testsuite_sources(60))
    assert len(corpus) == 76
    digest = hashlib.sha256()
    for name, text in corpus:
        digest.update(print_module(compile_source(text, module_name=name)).encode("utf-8"))
    assert digest.hexdigest() == IR_DIGEST
