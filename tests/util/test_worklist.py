"""Unit tests for the shared worklist machinery.

The FIFO :class:`Worklist` and the :class:`SolverInfo` counter struct.
"""

from repro.util import Worklist
from repro.util.worklist import SolverInfo


def test_fifo_order():
    wl = Worklist([1, 2, 3])
    assert wl.pop() == 1
    assert wl.pop() == 2
    assert wl.pop() == 3
    assert not wl


def test_duplicate_suppression():
    wl = Worklist()
    assert wl.push("a") is True
    assert wl.push("a") is False
    assert len(wl) == 1
    wl.pop()
    # After popping, the same item may be queued again.
    assert wl.push("a") is True


def test_extend_counts_new_items():
    wl = Worklist([1])
    added = wl.extend([1, 2, 3])
    assert added == 2
    assert len(wl) == 3


def test_contains_tracks_pending_only():
    wl = Worklist([1])
    assert 1 in wl
    wl.pop()
    assert 1 not in wl


def test_pop_and_push_counters():
    wl = Worklist()
    wl.push(1)
    wl.push(2)
    wl.pop()
    wl.pop()
    wl.push(1)
    assert wl.pushes == 3
    assert wl.pops == 2


def test_priority_worklist_coalesces_duplicate_pushes():
    # The coalesced-push bookkeeping of the rank-free priority worklist is
    # the FIFO Worklist's own.
    wl = Worklist()
    assert wl.push("a") is True
    assert wl.push("a") is False
    assert wl.coalesced == 1
    assert len(wl) == 1
    assert "a" in wl
    wl.pop()
    assert "a" not in wl
    # After a pop the same item may be scheduled again.
    assert wl.push("a") is True
    assert wl.pushes == 2
    assert wl.coalesced == 1


# -- SolverInfo ---------------------------------------------------------------------

def _info():
    return SolverInfo(evaluations=10, widenings=2, narrowings=3,
                      sccs=4, cyclic_sccs=1, pops=12)


def test_solver_info_merge_sums_everything():
    other = SolverInfo(evaluations=1, widenings=1, narrowings=1,
                       sccs=1, cyclic_sccs=1, pops=6)
    merged = _info().merge(other)
    assert merged.evaluations == 11
    assert merged.widenings == 3
    assert merged.narrowings == 4
    assert merged.sccs == 5
    assert merged.cyclic_sccs == 2
    assert merged.pops == 18


def test_solver_info_merge_is_commutative_and_lossless():
    a, b = _info(), SolverInfo(evaluations=3, pops=1)
    assert a.merge(b) == b.merge(a)
    assert a.merge(SolverInfo()) == a


def test_solver_info_dict_round_trip():
    original = _info()
    rebuilt = SolverInfo.from_dict(original.as_dict())
    assert rebuilt == original
    assert rebuilt.as_dict() == original.as_dict()
    assert SolverInfo.from_dict({}) == SolverInfo()
