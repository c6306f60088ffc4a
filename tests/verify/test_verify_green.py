"""The self-check suite is green on every correct pipeline.

The certificate checkers must accept whatever the solvers produce — the
acceptance set of the verifier: the synthetic SPEC profiles, the hand-built
helper modules, and a 40-seed fuzz corpus.
"""

import pytest

from tests.helpers import (
    build_counting_loop_module,
    build_diamond_module,
    build_figure3_module,
    build_straightline_module,
    build_two_index_loop_module,
)
from repro.core.sraa import StrictInequalityAliasAnalysis
from repro.frontend import compile_source
from repro.synth import generate_random_module, spec_sources
from repro.verify import CATEGORIES, verify_alias_analysis

FUZZ_SEEDS = 40


def _verify_module(module):
    sraa = StrictInequalityAliasAnalysis(module)
    return verify_alias_analysis(sraa)


@pytest.mark.parametrize("builder", [
    build_straightline_module,
    build_diamond_module,
    build_counting_loop_module,
    build_two_index_loop_module,
    build_figure3_module,
])
def test_helper_modules_verify_clean(builder):
    module, _function = builder()
    report = _verify_module(module)
    assert report.ok, report.summary()
    assert report.checks_run() > 0


def test_every_spec_profile_verifies_clean():
    for name, source in spec_sources():
        module = compile_source(source, module_name=name)
        report = _verify_module(module)
        assert report.ok, (name, [d.format() for d in report.errors[:5]])
        # A profile without range and LT checks would be vacuous coverage.
        assert report.checked["range"] > 0, name
        assert report.checked["lt"] > 0, name


# The solvers' one configuration: FIFO worklist pops over scalar interval
# transfer functions.
@pytest.mark.parametrize("kernel", ["scalar"])
@pytest.mark.parametrize("order", ["fifo"])
def test_fuzz_corpus_verifies_under_kernel_and_order(kernel, order):
    failures = []
    for seed in range(FUZZ_SEEDS):
        module = generate_random_module(seed, pointer_depth=2)
        report = _verify_module(module)
        if not report.ok:
            failures.append((seed, [d.format() for d in report.errors[:3]]))
    assert not failures, failures


def test_report_counts_every_category():
    module, _function = build_two_index_loop_module()
    report = _verify_module(module)
    for category in CATEGORIES:
        assert report.checked[category] > 0, category


def test_report_dict_round_trip_preserves_everything():
    from repro.verify import VerificationReport

    module, _function = build_two_index_loop_module()
    report = _verify_module(module)
    clone = VerificationReport.from_dict(report.as_dict())
    assert clone.as_dict() == report.as_dict()
    assert clone.summary() == report.summary()
