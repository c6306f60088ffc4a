"""Unit tests for constraint objects and the worklist solver in isolation.

These tests build small constraint systems by hand (mirroring Example 3.4 /
3.5 of the paper) without going through IR, so that the solver's behaviour is
pinned down independently of constraint generation.
"""

import pytest

from repro.core.lessthan.constraints import (
    InitConstraint,
    IntersectionConstraint,
    TOP,
    UnionConstraint,
)
from repro.core.lessthan.solver import ConstraintSolver
from repro.verify.reference import ConstraintKeyedSolver
from repro.ir import INT
from repro.ir.values import Value


def var(name):
    return Value(INT, name)


def test_union_constraint_evaluation():
    x, y, z = var("x"), var("y"), var("z")
    constraint = UnionConstraint(x, [y], [z])
    assert constraint.evaluate({z: frozenset({y})}) == frozenset({y})
    assert constraint.evaluate({z: frozenset()}) == frozenset({y})
    assert constraint.evaluate({z: TOP}) is TOP
    assert "LT(x)" in constraint.describe()


def test_intersection_constraint_evaluation():
    x, a, b = var("x"), var("a"), var("b")
    s, t = var("s"), var("t")
    constraint = IntersectionConstraint(x, [a, b])
    state = {a: frozenset({s, t}), b: frozenset({t})}
    assert constraint.evaluate(state) == frozenset({t})
    # TOP behaves as the identity of intersection.
    assert constraint.evaluate({a: TOP, b: frozenset({s})}) == frozenset({s})
    assert constraint.evaluate({a: TOP, b: TOP}) is TOP


def test_init_constraint_is_empty():
    x = var("x")
    assert InitConstraint(x).evaluate({}) == frozenset()


def test_solver_simple_chain():
    # x1 = x0 + 1 ; x2 = x1 + 1  =>  LT(x1) = {x0}, LT(x2) = {x0, x1}
    x0, x1, x2 = var("x0"), var("x1"), var("x2")
    constraints = [
        InitConstraint(x0),
        UnionConstraint(x1, [x0], [x0]),
        UnionConstraint(x2, [x1], [x1]),
    ]
    solution = ConstraintSolver(constraints).solve()
    assert solution[x0] == frozenset()
    assert solution[x1] == frozenset({x0})
    assert solution[x2] == frozenset({x0, x1})


def test_solver_example_3_5_from_the_paper():
    """The constraint system of Example 3.4 solves to the sets of Example 3.5."""
    names = ["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x1f", "x1t", "x4f", "x4t"]
    v = {name: var(name) for name in names}
    constraints = [
        InitConstraint(v["x0"]),
        UnionConstraint(v["x1"], [v["x0"]], [v["x0"]]),
        IntersectionConstraint(v["x2"], [v["x1"], v["x3"]]),
        UnionConstraint(v["x3"], [v["x2"]], [v["x2"]]),
        InitConstraint(v["x4"]),
        UnionConstraint(v["x5"], [v["x4"]], [v["x2"]]),
        UnionConstraint(v["x1t"], [v["x4t"]], [v["x4t"], v["x1"]]),
        UnionConstraint(v["x1f"], [], [v["x1"]]),
        # Example 3.4 of the paper prints this constraint with an
        # intersection, but rule 5 of Figure 7 (and the solution given in
        # Example 3.5, LT(x4f) = {x0}) requires the union form.
        UnionConstraint(v["x4f"], [], [v["x1f"], v["x4"]]),
        UnionConstraint(v["x4t"], [], [v["x4"]]),
        IntersectionConstraint(v["x6"], [v["x3"], v["x4t"], v["x4"]]),
    ]
    solution = ConstraintSolver(constraints).solve()
    expect = {
        "x0": set(), "x4": set(), "x4t": set(), "x6": set(),
        "x1": {"x0"}, "x2": {"x0"}, "x4f": {"x0"}, "x1f": {"x0"},
        "x3": {"x0", "x2"}, "x5": {"x0", "x4"}, "x1t": {"x0", "x4t"},
    }
    for name, expected_names in expect.items():
        got = {value.name for value in solution[v[name]]}
        assert got == expected_names, "LT({}) = {} != {}".format(name, got, expected_names)


def test_solver_statistics_are_populated():
    x0, x1 = var("x0"), var("x1")
    solver = ConstraintSolver([InitConstraint(x0), UnionConstraint(x1, [x0], [x0])])
    solver.solve()
    stats = solver.statistics
    assert stats.constraint_count == 2
    assert stats.worklist_pops >= 2
    assert stats.pops_per_constraint >= 1.0
    assert stats.solve_time_seconds >= 0.0
    assert stats.as_dict()["constraints"] == 2


def test_solver_handles_cyclic_union_through_phi():
    # Loop: i = phi(0-init, inc); inc = i + 1.  LT(i) must stay empty and
    # LT(inc) must contain i, with no infinite growth.
    init, i, inc = var("init"), var("i"), var("inc")
    constraints = [
        InitConstraint(init),
        IntersectionConstraint(i, [init, inc]),
        UnionConstraint(inc, [i], [i]),
    ]
    solution = ConstraintSolver(constraints).solve()
    assert solution[i] == frozenset()
    assert solution[inc] == frozenset({i})


def test_unconstrained_cycle_degenerates_to_empty():
    a, b = var("a"), var("b")
    constraints = [
        IntersectionConstraint(a, [b]),
        IntersectionConstraint(b, [a]),
    ]
    solution = ConstraintSolver(constraints).solve()
    assert solution[a] == frozenset()
    assert solution[b] == frozenset()


def _example_systems():
    """The constraint systems of the tests above, rebuilt fresh per call."""
    x0, x1, x2 = var("x0"), var("x1"), var("x2")
    chain = [
        InitConstraint(x0),
        UnionConstraint(x1, [x0], [x0]),
        UnionConstraint(x2, [x1], [x1]),
    ]
    init, i, inc = var("init"), var("i"), var("inc")
    cycle = [
        InitConstraint(init),
        IntersectionConstraint(i, [init, inc]),
        UnionConstraint(inc, [i], [i]),
    ]
    a, b = var("a"), var("b")
    degenerate = [
        IntersectionConstraint(a, [b]),
        IntersectionConstraint(b, [a]),
    ]
    return {"chain": chain, "cycle": cycle, "degenerate": degenerate}


def test_sparse_and_constraint_strategies_agree():
    for name, constraints in _example_systems().items():
        sparse = ConstraintSolver(constraints).solve()
        legacy = ConstraintKeyedSolver(constraints).solve()
        assert sparse == legacy, name


def test_sparse_statistics_prove_the_reduction():
    constraints = _example_systems()["cycle"]
    solver = ConstraintSolver(constraints)
    solver.solve()
    stats = solver.statistics
    # Every constraint is visited at least once (the seed pass)...
    assert stats.worklist_pops >= stats.constraint_count
    # ...the worklist is keyed by variable...
    assert stats.variable_pops > 0
    # ...and the dict shape carries the new counters.
    as_dict = stats.as_dict()
    for key in ("variable_pops", "coalesced_pushes", "skip_ratio"):
        assert key in as_dict
    assert 0.0 <= stats.skip_ratio <= 1.0


def test_sparse_never_evaluates_more_than_legacy():
    for name, constraints in _example_systems().items():
        sparse = ConstraintSolver(constraints)
        legacy = ConstraintKeyedSolver(constraints)
        sparse.solve()
        legacy.solve()
        assert sparse.statistics.worklist_pops <= legacy.statistics.worklist_pops, name


def test_strategy_selection_via_environment(monkeypatch):
    # There is one production solver: a REPRO_LT_SOLVER left in the
    # environment does not reroute it, and the old keyword is gone.
    monkeypatch.setenv("REPRO_LT_SOLVER", "constraint")
    solver = ConstraintSolver(_example_systems()["cycle"])
    solver.solve()
    # Only the variable-keyed worklist pops variables.
    assert solver.statistics.variable_pops > 0
    with pytest.raises(TypeError):
        ConstraintSolver([], strategy="constraint")
