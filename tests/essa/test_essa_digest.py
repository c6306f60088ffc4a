"""Pin the e-SSA output: the printed IR of the converted synthetic corpora.

Copy placement and copy names feed the less-than constraints, call-graph
fingerprints, store keys and ``equivalent_names`` truncation, so a faster
conversion must leave the printed e-SSA form byte-identical.  The digest
changes only with an intentional IR change, and that change is recorded in
CHANGES.md together with the new digest.
"""

import hashlib

from repro.essa import convert_to_essa
from repro.frontend import compile_source
from repro.ir import print_module
from repro.synth import build_testsuite_sources, spec_sources

ESSA_DIGEST = "e6b36866b730dc8d14500dd21265349acc8123c8f835b8d57f0f290c848a8819"


def test_printed_essa_of_spec_and_testsuite_corpora_is_pinned():
    corpus = list(spec_sources()) + list(build_testsuite_sources(60))
    assert len(corpus) == 76
    digest = hashlib.sha256()
    sigma = split = 0
    for name, text in corpus:
        module = compile_source(text, module_name=name)
        for function in module.defined_functions():
            info = convert_to_essa(function)
            sigma += len(info.sigma_copies)
            split += len(info.subtraction_copies)
        digest.update(print_module(module).encode("utf-8"))
    assert (sigma, split) == (3604, 337)
    assert digest.hexdigest() == ESSA_DIGEST
