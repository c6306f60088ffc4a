"""Pin the less-than facts of the synthetic corpora.

The LT sets are what every NoAlias verdict of the strict-inequality
analysis rests on, so a change to how the analysis is assembled (range
plumbing, constraint generation, caching) must leave them identical.  The
digest covers every non-empty LT set of the 76 spec and test-suite programs,
keyed by ``(function, value name)``, under the module solve with the paper's
interprocedural pseudo-φs.  It changes only with an intentional change to
the analysis, and that change is recorded in CHANGES.md with the new digest.
"""

import hashlib
import json

from repro.core import LessThanAnalysis
from repro.frontend import compile_source
from repro.synth import build_testsuite_sources, spec_sources

LT_DIGEST = "83793eca85fde98735f3ef644c7b64e39ddab31f6a1d91b04b81bb7225bcaf96"
LT_FACTS = 11265


def _key(value):
    return [value.function.name, value.name]


def test_lt_facts_of_spec_and_testsuite_corpora_are_pinned():
    corpus = list(spec_sources()) + list(build_testsuite_sources(60))
    assert len(corpus) == 76
    digest = hashlib.sha256()
    facts = 0
    for name, text in corpus:
        module = compile_source(text, module_name=name)
        analysis = LessThanAnalysis(module)
        sets = sorted([_key(value), sorted(_key(member) for member in members)]
                      for value, members in analysis.lt_sets.items() if members)
        facts += sum(len(members) for _value, members in sets)
        digest.update(json.dumps([name, sets]).encode("utf-8"))
    assert facts == LT_FACTS
    assert digest.hexdigest() == LT_DIGEST
