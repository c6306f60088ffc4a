"""The coordinator: worker pools and the store life cycle.

:class:`repro.api.session.Session` drives everything here:
:func:`_run_units` evaluates work units — one per program — fanned out
over ``multiprocessing`` workers (or run in-process when ``workers <= 1`` —
the serial fallback needs no subprocesses, which keeps the tier-1 test
suite self-contained).  The pooled path is a *streaming* driver: unit
payloads are consumed with ``imap_unordered`` as they land, store
write-back overlaps with still-running units, an optional observer sees
every payload immediately, and a sort on the input index restores
deterministic output order.

The session passes every setting in as an argument: the worker count,
the store handle (opened with its byte budget), and the class limit and
verify mode, which travel to the workers on each
:class:`~repro.engine.workunit.WorkUnit`.  Nothing here reads a global
config.  Under ``verify="post"`` every unit's report comes back in its
payload, serial or pooled, and :func:`_absorb_verify` counts and judges it
once.

Workers only ever *read* the store; freshly computed entries return to the
coordinator inside each payload and are written back here, keeping the
writer count at one regardless of the worker count.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.api.config import ConfigError
from repro.alias.aaeval import AliasEvaluation
from repro.core.disambiguation import DisambiguationStatistics
from repro.engine import worker as worker_module
from repro.engine.store import AnalysisStore
from repro.engine.workunit import WorkUnit
from repro.obs import TRACER
from repro.verify import COUNTERS, VerificationReport


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _source_root() -> str:
    # Where this process imported ``repro`` from; spawned workers get it
    # prepended to sys.path so they can import the package too.
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class UnitResult:
    """A coordinator-side view of one work unit's payload."""

    def __init__(self, payload: Dict[str, object]) -> None:
        self.payload = payload

    @property
    def name(self) -> str:
        return self.payload["name"]

    @property
    def kind(self) -> str:
        return self.payload.get("kind", "aaeval")

    @property
    def instructions(self) -> int:
        return int(self.payload.get("instructions", 0))

    # -- aaeval payloads ----------------------------------------------------------
    def evaluation(self, label: str) -> AliasEvaluation:
        counts = self.payload["labels"][label]["counts"]
        return AliasEvaluation.from_dict(counts)

    @property
    def labels(self) -> List[str]:
        return list(self.payload.get("labels", {}))

    def verdicts(self, label: str) -> Dict[str, str]:
        """Per-function verdict code strings (bit-identity comparisons)."""
        return dict(self.payload["labels"][label].get("verdicts", {}))

    @property
    def statistics(self) -> DisambiguationStatistics:
        return DisambiguationStatistics.from_dict(
            self.payload.get("statistics", {}))

    @property
    def store_hits(self) -> int:
        return int(self.payload.get("store_hits", 0))

    @property
    def store_misses(self) -> int:
        return int(self.payload.get("store_misses", 0))

    def __getitem__(self, key: str) -> object:
        return self.payload[key]

    def __repr__(self) -> str:
        return "<UnitResult {} kind={}>".format(self.name, self.kind)


UnitLike = Union[WorkUnit, Tuple[str, str], object]


def _check_members(specs: Sequence[Sequence[str]]) -> None:
    """Raise :class:`~repro.api.config.ConfigError` on a member that is not
    a key of :data:`repro.engine.worker.MEMBERS`."""
    for spec in specs:
        for member in spec:
            if member not in worker_module.MEMBERS:
                raise ConfigError(
                    "spec member {!r} is not one of {}".format(
                        member, "/".join(worker_module.MEMBERS)))


def _normalize_units(units: Sequence[UnitLike], kind: str,
                     specs: Sequence[Sequence[str]], class_limit: int,
                     verify: str) -> List[WorkUnit]:
    """One :class:`WorkUnit` per unit, each carrying ``class_limit`` and
    ``verify``; an unknown spec member fails here, before any unit runs."""
    spec_tuple = tuple(tuple(spec) for spec in specs)
    _check_members(spec_tuple)
    normalized: List[WorkUnit] = []
    for unit in units:
        if isinstance(unit, WorkUnit):
            _check_members(unit.specs)
            normalized.append(dataclasses.replace(
                unit, class_limit=class_limit, verify=verify))
        elif isinstance(unit, tuple) and len(unit) == 2:
            name, source = unit
            normalized.append(WorkUnit(kind, name, source, spec_tuple,
                                       class_limit, verify))
        elif hasattr(unit, "name") and hasattr(unit, "source"):
            # WorkloadProgram and friends.
            normalized.append(WorkUnit(kind, unit.name, unit.source,
                                       spec_tuple, class_limit, verify))
        else:
            raise TypeError("cannot build a WorkUnit from {!r}".format(unit))
    return normalized


def _absorb_telemetry(payload: Dict[str, object]) -> None:
    """Merge a pool payload's shipped span buffer onto the coordinator tracer.

    Workers attach ``spans`` (their drained buffer) and ``span_epoch``
    (their wall-clock anchor) to every payload when tracing is on; the
    coordinator rebases the timestamps and files the spans under a
    ``worker-<pid>`` lane.  The fields are popped
    unconditionally so verdict output never carries timing data.
    """
    spans = payload.pop("spans", None)
    epoch = payload.pop("span_epoch", None)
    if spans:
        lane = "worker-{}".format(payload.get("pid", "?"))
        TRACER.absorb_shard(spans, lane, epoch)


def _absorb_verify(payload: Dict[str, object], pooled: bool = False) -> None:
    """Count and judge a payload's verification report (coordinator-side).

    Under ``verify="post"`` every unit attaches its report to its payload,
    wherever it ran.  This one function pops the field, so verdict output
    never carries verification data, records the report into
    :data:`repro.verify.COUNTERS` once and raises :class:`~repro.verify.
    VerifyError` on error findings, naming the worker when ``pooled``.
    """
    shipped = payload.pop("verify", None)
    if shipped is None:
        return
    report = VerificationReport.from_dict(shipped)
    COUNTERS.record(report)
    context = "REPRO_VERIFY=post"
    if pooled:
        context += " (worker pid {})".format(payload.get("pid", "?"))
    report.raise_if_failed(context)


def _write_back(store: Optional[AnalysisStore],
                payload: Dict[str, object]) -> None:
    """Persist one payload's freshly computed entries (coordinator-side).

    Also applies the payload's *touched keys* — store hits recorded by a
    read-only worker-side store — promoting those entries to the current
    generation so eviction approximates LRU rather than FIFO.
    """
    entries = payload.pop("new_entries", None)
    touched = payload.pop("touched_keys", None)
    if store is None or store.readonly:
        return
    if touched:
        store.touch_many(touched)
    if entries:
        store.put_many(entries)


def _run_units(units: List[WorkUnit], workers: int,
               store: Optional[AnalysisStore],
               max_tasks_per_child: Optional[int] = None,
               on_payload=None) -> List[Dict[str, object]]:
    """Execute ``units`` (serial or streamed over a pool).

    The pooled path streams: results are consumed with ``imap_unordered``
    as workers finish, so store write-back (and the caller's ``on_payload``
    observer) overlaps with still-in-flight units instead of waiting for
    the slowest one.  Each task carries its input index and the collected
    results are sorted by it afterwards, so the returned payload order is
    deterministic — identical to the serial path — regardless of worker
    scheduling.
    """
    if workers <= 1 or len(units) <= 1:
        payloads = []
        for unit in units:
            payload = worker_module.run_work_unit(unit, store=store)
            _absorb_verify(payload)
            _write_back(store, payload)
            payloads.append(payload)
            if on_payload is not None:
                on_payload(payload)
        return payloads
    store_spec = None
    if store is not None:
        store_spec = (store.path, store.version)
    context = multiprocessing.get_context(_start_method())
    pool = context.Pool(processes=workers,
                        initializer=worker_module.initialize_worker,
                        initargs=(_source_root(), TRACER.enabled),
                        maxtasksperchild=max_tasks_per_child)
    arrived: List[Tuple[int, Dict[str, object]]] = []
    try:
        tasks = [(index, unit, store_spec)
                 for index, unit in enumerate(units)]
        for index, payload in pool.imap_unordered(
                worker_module.execute, tasks, chunksize=1):
            _absorb_telemetry(payload)
            _absorb_verify(payload, pooled=True)
            _write_back(store, payload)
            arrived.append((index, payload))
            if on_payload is not None:
                on_payload(payload)
    finally:
        pool.close()
        pool.join()
    arrived.sort(key=lambda item: item[0])
    return [payload for _index, payload in arrived]
