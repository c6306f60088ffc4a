"""Tests for work units (one per program) and spec labels."""

import pickle

import pytest

from repro.engine.workunit import DEFAULT_SPECS, WorkUnit, spec_label


def test_spec_label():
    assert spec_label(("basicaa",)) == "basicaa"
    assert spec_label(("basicaa", "lt")) == "basicaa+lt"


def test_work_unit_is_picklable_and_frozen():
    unit = WorkUnit("aaeval", "p", "int main() {}")
    clone = pickle.loads(pickle.dumps(unit))
    assert clone == unit
    assert clone.specs == DEFAULT_SPECS
    with pytest.raises(Exception):
        unit.name = "other"
