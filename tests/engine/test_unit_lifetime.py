"""Every unit ends its own life: reference counting frees it.

An engine work unit releases its module and empties its private analysis
cache once the payload (plain data) exists, and ``Session.update_source``
releases the module its previous call compiled for the same name.  So with
the cycle collector off, running units leaves nothing for a collection to
find.  The collector is paused for each unit and restored afterwards; the
modules a caller owns are never released.
"""

import gc
import re
import weakref

import pytest

from repro.api import Session
from repro.frontend import FrontendError, compile_source
from repro.ir.printer import print_module
from repro.synth import spec_sources

SOURCE = """
void ins_sort(int* v, int N) {
  int i, j;
  for (i = 0; i < N - 1; i++) {
    for (j = i + 1; j < N; j++) {
      if (v[i] > v[j]) {
        int tmp = v[i];
        v[i] = v[j];
        v[j] = tmp;
      }
    }
  }
}
int sum(int* v, int n) {
  int total = 0;
  int k;
  for (k = 0; k < n; k++) { total = total + v[k]; }
  ins_sort(v, n);
  return total;
}
"""

SPECS = (("basicaa",), ("lt",), ("basicaa", "lt"))


@pytest.fixture
def collector_off():
    """The collector disabled; restored afterwards.  Tests empty it with
    ``gc.collect()`` right before the work they account for."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _bump_literals(source, count):
    """``source`` with its first ``count`` integer literals incremented."""
    return re.sub(r"\b\d+\b", lambda match: str(int(match.group()) + 1),
                  source, count=count)


@pytest.mark.parametrize("kind", ["aaeval", "lessthan-stats", "print-ir"])
def test_serial_units_leave_no_cyclic_garbage(collector_off, kind):
    sources = spec_sources()
    with Session(workers=0) as session:
        gc.collect()
        results = session.run_workload(sources, kind=kind, specs=SPECS,
                                       workers=0, store=False)
        assert len(results) == 16
        assert gc.collect() == 0


def test_update_source_edits_leave_no_cyclic_garbage(collector_off):
    name, source = spec_sources()[0]
    with Session(workers=0) as session:
        gc.collect()
        session.update_source(name, source, SPECS)
        assert gc.collect() == 0
        for count in range(1, 6):
            update = session.update_source(
                name, _bump_literals(source, count), SPECS)
            assert update.refresh.dirty
            assert gc.collect() == 0


def test_release_frees_a_module_by_reference_counting(collector_off):
    gc.collect()
    module = compile_source(SOURCE, module_name="m")
    function = module.get_function("sum")
    probes = [weakref.ref(module), weakref.ref(function),
              weakref.ref(function.blocks[0]),
              weakref.ref(function.blocks[-1].instructions[-1])]
    del function
    module.release()
    assert module.functions == [] and module.globals == []
    del module
    assert [probe() for probe in probes] == [None] * len(probes)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored_after_a_unit(enabled):
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with Session(workers=0) as session:
            session.run_workload([("ok", SOURCE)], workers=0, store=False)
            assert gc.isenabled() is enabled
            with pytest.raises(FrontendError):
                session.run_workload([("bad", "int f(int x) { return x +; }\n")],
                                     workers=0, store=False)
            assert gc.isenabled() is enabled
            session.update_source("m", SOURCE, SPECS)
            assert gc.isenabled() is enabled
            with pytest.raises(FrontendError):
                session.update_source("m", "int f( {\n", SPECS)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_modules_the_caller_owns_are_never_released():
    with Session(workers=0) as session:
        unit = session.compile(SOURCE, name="owned")
        first = unit.evaluate(SPECS)
        passed = compile_source(SOURCE, module_name="passed")
        evaluated = session.evaluate(passed, SPECS)
        # Engine units and update_source edits in between must not touch
        # either module.
        session.run_workload([("other", SOURCE)], workers=0, store=False)
        session.update_source("owned", SOURCE, SPECS)
        session.update_source("owned", _bump_literals(SOURCE, 1), SPECS)

        assert "define" in unit.print_ir() and "ins_sort" in unit.print_ir()
        assert "ins_sort" in print_module(passed)
        again = unit.evaluate(SPECS)
        assert again.verdicts("lt") == first.verdicts("lt")
        assert (session.evaluate(passed, SPECS).verdicts("basicaa+lt")
                == evaluated.verdicts("basicaa+lt"))
        assert unit.disambiguate().queries > 0
