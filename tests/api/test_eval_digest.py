"""Pin the ``repro eval --json`` output of the synthetic workloads.

Byte-identical ``eval --json`` is the contract under which code may be
deleted or restructured: verdicts, counts and persisted statistics of the
spec and test-suite collections must not move.  The digests change only
with an intentional change to the analysis, recorded in CHANGES.md with
the new digest.  The worker count comes from the environment, so a run with
``REPRO_WORKERS=2`` checks the pooled path against the same digests.
"""

import hashlib

import pytest

from repro.api.cli import main

EVAL_DIGESTS = {
    ("spec", 16):
        "c58a64c3ef1414e63f4b64f8a491ca371d223d97bc965a09407e16b374ad31f9",
    ("testsuite", 60):
        "86b2bf99bc4d88fef127989bb8055c0c877fe0b1833bce0446c8e612987cf506",
}


@pytest.mark.parametrize("synth,count", sorted(EVAL_DIGESTS),
                         ids=["spec16", "testsuite60"])
def test_eval_json_of_synthetic_workloads_is_pinned(capsys, synth, count):
    argv = ["eval", "--synth", synth, "--count", str(count), "--seed", "7",
            "--json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        EVAL_DIGESTS[(synth, count)]
