"""The ``REPRO_VERIFY`` knob through the engine and the Session facade.

``post`` verifies every unit wherever it runs, in-process or in a pool
worker; the report comes back in the unit payload and the coordinator
counts it once, raises on error findings and pops it, so it never leaks
into verdict output.  ``Session.verify()`` is the programmatic surface, and
``statistics()`` exposes the accumulated ``[verify]`` counters.
"""

import json
import os

import pytest

from repro.api import ReproConfig, Session
from repro.verify import COUNTERS

SOURCE = """
int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""


@pytest.fixture(autouse=True)
def fresh_counters():
    COUNTERS.reset()
    yield
    COUNTERS.reset()


def _verdict_map(result):
    return {label: result.verdicts(label) for label in result.labels}


def test_post_mode_verifies_in_process_solves():
    with Session(ReproConfig(verify="post", workers=0)) as session:
        session.run_workload([("m", SOURCE)], specs=(("lt",),), store=False)
    assert COUNTERS.runs >= 1
    assert COUNTERS.checks > 0
    assert COUNTERS.errors == 0


def test_serial_post_run_counts_each_unit_once():
    units = [("m{}".format(i), SOURCE) for i in range(3)]
    with Session(ReproConfig(verify="post", workers=0)) as session:
        results = session.run_workload(units, specs=(("lt",),), store=False)
        assert COUNTERS.runs == len(units)
        module = session.compile(SOURCE, name="e").module
        evaluated = session.evaluate(module, specs=(("lt",),))
    assert COUNTERS.runs == len(units) + 1
    for result in results + [evaluated]:
        assert "verify" not in result.payload


def test_off_mode_runs_no_checks():
    with Session(ReproConfig(verify="off", workers=0)) as session:
        session.run_workload([("m", SOURCE)], specs=(("lt",),), store=False)
    assert COUNTERS.runs == 0


def test_post_mode_does_not_change_verdicts():
    with Session(ReproConfig(verify="off", workers=0)) as session:
        plain = session.run_workload([("m", SOURCE)], store=False)
    with Session(ReproConfig(verify="post", workers=0)) as session:
        checked = session.run_workload([("m", SOURCE)], store=False)
    assert _verdict_map(plain[0]) == _verdict_map(checked[0])
    assert plain[0].statistics.as_dict() == checked[0].statistics.as_dict()


# Pooled verification used to be the ``paranoid`` mode; ``post`` does it
# now, and the test keeps its name.
def test_paranoid_pool_ships_reports_to_the_coordinator():
    units = [("m{}".format(i), SOURCE) for i in range(3)]
    with Session(ReproConfig(verify="post", workers=2)) as session:
        pooled = session.run_workload(units, specs=(("lt",),), store=False)
    # Each unit was verified in a worker, and the coordinator absorbed each
    # report once...
    assert os.getpid() not in {result["pid"] for result in pooled}
    assert COUNTERS.runs == len(units)
    assert COUNTERS.checks > 0
    assert COUNTERS.errors == 0
    # ...and popped it, so the payload is the unverified one.
    with Session(ReproConfig(verify="off", workers=2)) as session:
        plain = session.run_workload(units, specs=(("lt",),), store=False)
    assert COUNTERS.runs == len(units)
    for verified, unverified in zip(pooled, plain):
        assert "verify" not in verified.payload
        assert verified.payload["labels"] == unverified.payload["labels"]
        assert (verified.payload["statistics"]
                == unverified.payload["statistics"])


@pytest.mark.parametrize("pooled,context", [
    (False, "REPRO_VERIFY=post: "),
    (True, "REPRO_VERIFY=post (worker pid 123): "),
], ids=["serial", "pooled"])
def test_absorb_verify_counts_once_and_raises_on_errors(pooled, context):
    from repro.engine.driver import _absorb_verify
    from repro.verify import VerificationReport, VerifyError

    report = VerificationReport()
    report.add("verdict", "error", "f", "p", "forged NoAlias")
    payload = {"verify": report.as_dict(), "pid": 123}
    with pytest.raises(VerifyError) as raised:
        _absorb_verify(payload, pooled=pooled)
    assert str(raised.value).startswith(context)
    assert "verify" not in payload
    assert (COUNTERS.runs, COUNTERS.errors) == (1, 1)


def test_session_verify_and_statistics_counters():
    with Session() as session:
        unit = session.compile(SOURCE, name="m")
        report = unit.analyze().verify()
        assert report.ok
        assert report.functions == 1
        merged = session.verify()
        assert merged.ok
        stats = session.statistics()
    assert stats["verify"]["runs"] == COUNTERS.runs
    assert stats["verify"]["errors"] == 0
    assert stats["verify"]["checks"] > 0


def test_verify_report_is_json_serializable():
    with Session() as session:
        report = session.compile(SOURCE, name="m").analyze().verify()
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["functions"] == 1
    assert payload["diagnostics"] == []
