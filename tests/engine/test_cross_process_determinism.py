"""Cross-process determinism: the engine's foundational invariant.

Sharded evaluation is only sound because compiling the same source text in
any process yields bit-identical IR (deterministic frontend, mem2reg and
e-SSA conversion) and therefore bit-identical alias verdicts.  These tests
compile the same Csmith-seeded workload in two *separate* subprocesses
(``maxtasksperchild=1`` forces distinct worker processes) and compare
printed IR and per-pair verdict streams against each other and against the
parent process.
"""

import pytest

from repro.api import Session
from repro.frontend import compile_source
from repro.ir.printer import print_module
from repro.synth import CsmithConfig, RandomProgramGenerator
from repro.synth.workloads import compose_source

SPECS = (("basicaa",), ("lt",), ("basicaa", "lt"))


@pytest.fixture
def session():
    with Session() as session:
        yield session


def _csmith_source(seed: int = 2024) -> str:
    config = CsmithConfig(seed=seed, pointer_depth=3, statement_count=12,
                          loop_count=2, chain_loops=1, chain_length=4)
    return RandomProgramGenerator(config).generate_source()


def test_two_subprocesses_compile_identical_ir(session):
    source = _csmith_source()
    units = [("csmith_p", source), ("csmith_p", source)]
    results = session.run_workload(units, kind="print-ir", workers=2,
                                   max_tasks_per_child=1)
    first, second = (result.payload for result in results)
    assert first["pid"] != second["pid"], "expected two distinct processes"
    assert first["ir"] == second["ir"]
    # The parent's compilation matches the children's too.
    parent_ir = print_module(compile_source(source, module_name="csmith_p"))
    assert parent_ir == first["ir"]


def test_two_subprocesses_agree_on_verdicts(session):
    source = _csmith_source(seed=77)
    units = [("csmith_v", source), ("csmith_v", source)]
    results = session.run_workload(units, specs=SPECS, workers=2,
                                   max_tasks_per_child=1)
    first, second = results
    assert first.payload["pid"] != second.payload["pid"]
    assert first.payload["labels"] == second.payload["labels"]
    # And the serial in-process evaluation agrees with both.
    serial = session.run_workload([("csmith_v", source)], specs=SPECS,
                                  workers=0)[0]
    assert serial.payload["labels"] == first.payload["labels"]


def test_composed_workload_program_is_deterministic_across_processes(session):
    source = compose_source("det", ["vector_add"], [(13, 12, 2, 2)])
    units = [("det", source), ("det", source)]
    results = session.run_workload(units, kind="print-ir", workers=2,
                                   max_tasks_per_child=1)
    assert results[0].payload["ir"] == results[1].payload["ir"]


def test_store_payloads_transfer_across_processes(session, tmp_path):
    """Entries persisted by one run warm a parallel run in fresh processes,
    with bit-identical verdict streams."""
    source = _csmith_source(seed=9)
    store_path = str(tmp_path / "store.sqlite")
    cold = session.run_workload([("warmed", source)], specs=SPECS, workers=0,
                                store=store_path)[0]
    warm = session.run_workload([("warmed", source), ("warmed", source)],
                                specs=SPECS, workers=2, max_tasks_per_child=1,
                                store=store_path)
    for result in warm:
        assert result.store_hits > 0
        assert result.store_misses == 0
        assert result.payload["labels"] == cold.payload["labels"]
