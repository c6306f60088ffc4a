"""The production pipeline has one solver per fixpoint and no pass framework.

The dense range solver and the constraint-keyed LT solver live in
:mod:`repro.verify.reference`; the production constructors take no solver
selector, and a plain run never imports the references.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core import LessThanAnalysis
from repro.core.lessthan.solver import ConstraintSolver
from repro.rangeanalysis import RangeAnalysis
from repro.synth import kernel_module

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: runs one kernel through a serial workload and reports which reference
#: and pass-framework modules the run imported.
PROBE = """
import json, sys
from repro.api import Session
from repro.synth.kernels import KERNEL_SOURCES
with Session(workers=0, store_path=None) as session:
    session.run_workload([("ins_sort", KERNEL_SOURCES["ins_sort"])])
print(json.dumps(sorted(name for name in sys.modules
                        if name == "repro.verify.reference"
                        or name.startswith("repro.passes."))))
"""


def test_solver_selectors_are_gone():
    module = kernel_module("ins_sort")
    function = module.get_function("ins_sort")
    with pytest.raises(TypeError):
        RangeAnalysis(function, solver="dense")
    with pytest.raises(TypeError):
        ConstraintSolver([], strategy="constraint")
    with pytest.raises(TypeError):
        LessThanAnalysis(module, solver_strategy="constraint")
    with pytest.raises(TypeError):
        LessThanAnalysis(module, interprocedural=False)
    with pytest.raises(TypeError):
        RangeAnalysis(function, previous=None)


def test_plain_run_imports_no_reference_or_pass_framework():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                            text=True, env=env, timeout=120, check=True)
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert loaded == ["repro.passes.analysis_cache"]
