"""Mutation tests: the verifier must *fail* on seeded bugs.

A checker that never fires proves nothing.  Each test corrupts one solved
artifact the way a real solver bug would — widening a stored interval,
dropping a σ-copy, forging a less-than edge, corrupting a memoized
equivalence class into a bogus NoAlias — and asserts the matching checker
category reports an error-severity diagnostic naming the offending
function and value.
"""

from tests.helpers import build_two_index_loop_module
from repro.alias.aaeval import collect_pointer_values
from repro.core.sraa import StrictInequalityAliasAnalysis
from repro.ir.instructions import Copy
from repro.rangeanalysis.interval import Interval
from repro.verify import verify_alias_analysis


def _prepared():
    module, function = build_two_index_loop_module()
    sraa = StrictInequalityAliasAnalysis(module)
    return module, function, sraa


def _errors(report, category):
    return [d for d in report.errors if d.category == category]


def test_widened_interval_is_caught_at_its_users():
    _module, function, sraa = _prepared()
    ranges = sraa.analysis.ranges[function]
    phi = next(v for v in ranges.ranges if getattr(v, "name", "") == "i")
    assert ranges.ranges[phi] != Interval.top()
    ranges.ranges[phi] = Interval.top()
    report = verify_alias_analysis(sraa)
    assert not report.ok
    findings = _errors(report, "range")
    # Widening %i is a precision loss, not unsoundness at %i itself: a wider
    # interval still includes its own transfer output.  The inconsistency
    # surfaces at %i's *users*, whose stored (tight) results no longer
    # include their recomputed (now wide) transfer outputs.
    assert findings, [d.format() for d in report.errors]
    assert all(d.function == function.name for d in findings)
    assert all(d.value for d in findings)
    assert any("not inductive" in d.message for d in findings)


def test_dropped_sigma_is_caught_by_the_essa_linter():
    _module, function, sraa = _prepared()
    sigma = next(i for i in function.instructions()
                 if isinstance(i, Copy) and i.kind == "sigma")
    for use in list(sigma.uses):
        use.user.set_operand(use.index, sigma.source)
    sigma.parent.instructions.remove(sigma)
    sigma.parent = None
    report = verify_alias_analysis(sraa)
    assert not report.ok
    findings = _errors(report, "essa")
    assert findings, [d.format() for d in report.errors]
    assert all(d.function == function.name for d in findings)
    assert any("missing the σ-copy" in d.message for d in findings)
    # The diagnostic names the un-split operand so the bug is actionable.
    assert any(d.value for d in findings)


def test_forged_lt_edge_is_caught_by_the_certificate():
    _module, function, sraa = _prepared()
    analysis = sraa.analysis
    target = next(v for v in analysis.lt_sets
                  if getattr(v, "name", "") == "i")
    other = next(v for v in analysis.lt_sets if v is not target)
    analysis.lt_sets[target] = analysis.lt_sets[target] | {other}
    report = verify_alias_analysis(sraa)
    assert not report.ok
    findings = _errors(report, "lt")
    assert findings, [d.format() for d in report.errors]
    assert any(d.value == "i" for d in findings)
    assert any(d.function == function.name for d in findings)
    assert any("does not justify" in d.message
               or "no constraint targets" in d.message for d in findings)


def test_forged_noalias_is_caught_by_the_verdict_audit():
    _module, function, sraa = _prepared()
    disambiguator = sraa.disambiguator
    pointers = collect_pointer_values(function)
    victim = pointers[0]
    # Corrupt the memoized class info: pretend the LT union of victim's
    # equivalence class contains another pointer, forging a NoAlias.
    names, lt_union = disambiguator._class_info(victim)
    disambiguator._names[victim] = (
        names, frozenset(set(lt_union) | {pointers[1]}))
    report = verify_alias_analysis(sraa)
    assert not report.ok
    findings = _errors(report, "verdict")
    assert findings, [d.format() for d in report.errors]
    assert all(d.function == function.name for d in findings)
    assert all(d.value for d in findings)
    assert any("NoAlias" in d.message for d in findings)


def test_clean_pipeline_stays_green_after_the_mutation_runs():
    # Guard against mutation tests poisoning shared state (interned
    # intervals, memo tables): a fresh pipeline still verifies clean.
    _module, _function, sraa = _prepared()
    assert verify_alias_analysis(sraa).ok
