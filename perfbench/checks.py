"""Percentiles, output digests and the independent output oracle."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

#: a tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_SAMPLES = 10


def rank(count: int, percent: int) -> int:
    """The 1-based nearest rank of the ``percent``-th percentile."""
    return max(1, (percent * count + 99) // 100)


def min_samples(percent: int) -> int:
    """The fewest samples that leave :data:`TAIL_SAMPLES` beyond the
    ``percent``-th percentile."""
    count = 1
    while count - rank(count, percent) < TAIL_SAMPLES:
        count += 1
    return count


def percentile(samples: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile; refuses when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    count = len(samples)
    position = rank(count, percent)
    if count - position < TAIL_SAMPLES:
        raise ValueError("p{} of {} samples has only {} beyond it".format(
            percent, count, count - position))
    return sorted(samples)[position - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def digest(data: object) -> str:
    """SHA-256 of ``data`` as canonical JSON (independent of hash seeds)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_record(result) -> Dict[str, object]:
    """Verdict codes and counts per spec label of one aa-eval result."""
    return {label: {"counts": result.evaluation(label).as_dict(),
                    "codes": result.verdicts(label)}
            for label in result.labels}


def lessthan_record(result) -> Dict[str, object]:
    """The counters of one ``lessthan-stats`` result that must repeat."""
    return {field: result[field]
            for field in ("instructions", "constraints", "worklist_pops")}


def _value_key(value) -> List[str]:
    function = getattr(value, "function", None)
    return [getattr(function, "name", "") or "", value.name or str(value)]


def lt_sets_digest(analysis) -> str:
    """Digest of a solved :class:`LessThanAnalysis`' LT sets."""
    return digest(sorted(
        [_value_key(value), sorted(_value_key(member) for member in members)]
        for value, members in analysis.lt_sets.items() if members))


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

def _oracle_unit(name: str, source: str, problems: List[str]):
    """Compile ``source`` in a fresh session and run the ``repro.verify``
    audit: SSA/σ lint, range and LT fixpoint certificates, and a
    first-principles re-justification of every NoAlias."""
    from repro.api import ReproConfig, Session

    session = Session(ReproConfig(workers=0, store_path=None, verify="off",
                                  trace=None))
    unit = session.compile(source, name)
    report = unit.verify()
    if not report.ok:
        problems.append("{}: verify audit failed: {}".format(
            name, report.summary()))
    return unit


def audit_verdicts(name: str, source: str, record: Dict[str, object]) -> List[str]:
    """Check one program's aa-eval verdicts against the oracle.

    The ``lt`` stream must say NoAlias exactly where the audited
    disambiguator proves a pair disjoint, and ``basicaa+lt`` must be the
    chain of the ``basicaa`` and ``lt`` streams.
    """
    problems: List[str] = []
    unit = _oracle_unit(name, source, problems)
    expected: Dict[str, List[str]] = {}
    for pair in unit.disambiguate():
        expected.setdefault(pair.function, []).append("N" if pair.no_alias else "M")
    basicaa = record["basicaa"]["codes"]
    lt = record["lt"]["codes"]
    chain = record["basicaa+lt"]["codes"]
    for function, codes in lt.items():
        if codes != "".join(expected.get(function, ())):
            problems.append("{}:{}: lt verdicts differ from the audited "
                            "disambiguator".format(name, function))
        joined = "".join(first if first != "M" else second
                         for first, second in zip(basicaa[function], codes))
        if chain[function] != joined:
            problems.append("{}:{}: basicaa+lt is not the chain of basicaa "
                            "and lt".format(name, function))
    return problems


def audit_lessthan(name: str, source: str, record: Dict[str, object]):
    """Check one ``lessthan-stats`` result against the oracle; returns
    ``(problems, LT-set digest)``."""
    problems: List[str] = []
    unit = _oracle_unit(name, source, problems)
    analysis = unit.lessthan()
    if analysis.constraint_count() != record["constraints"]:
        problems.append("{}: {} constraints, the audited analysis has {}".format(
            name, record["constraints"], analysis.constraint_count()))
    return problems, lt_sets_digest(analysis)
