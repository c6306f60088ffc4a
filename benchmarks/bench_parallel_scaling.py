"""Parallel scaling and warm-store speedup of the execution engine.

The evaluation workload is embarrassingly parallel — one independent
``aa-eval`` unit per benchmark program — and a pure function of the source
text.  This figure measures both halves of the engine's contract on the
Figure-11 workload (the largest programs of the test-suite-like
collection):

* **sharding** — the same workload fanned out over worker processes must
  beat the serial in-process run by at least 2x at four workers (asserted
  only when the machine actually has multiple CPUs: parallel speedup on a
  single core is physically impossible, and that is a property of the host,
  not of the engine).  One run takes a fraction of a second, so serial and
  sharded runs alternate for ``REPETITIONS`` pairs and the gate reads the
  median of the per-pair speedups, which a slow phase of a shared host
  does not move;
* **persistence** — a second run against a warm analysis store must beat
  the serial run by at least 5x, because warm units skip compilation and
  analysis entirely;
* **determinism** — per-pair verdict streams must be bit-identical across
  the serial, sharded, cold-store and warm-store runs (asserted always).

Thresholds can be adjusted for noisy shared runners via
``REPRO_MIN_PARALLEL_SPEEDUP`` / ``REPRO_MIN_WARM_SPEEDUP``.
"""

import os
import time
from statistics import median

from harness import full_scale, print_table, write_results

from repro.api import Session, env_float, env_int
from repro.core.disambiguation import DisambiguationStatistics
from repro.synth import build_testsuite_sources

#: the Figure-11 workload: the largest programs of the collection.
POOL_COUNT = 100
PROGRAM_COUNT = 32 if full_scale() else 10
WORKERS = env_int("REPRO_SCALING_WORKERS", 4)
SPECS = (("basicaa",), ("lt",), ("basicaa", "lt"))

#: alternating serial/sharded pairs the sharding gate takes its median over.
REPETITIONS = 7

MIN_PARALLEL_SPEEDUP = env_float("REPRO_MIN_PARALLEL_SPEEDUP", 2.0)
MIN_WARM_SPEEDUP = env_float("REPRO_MIN_WARM_SPEEDUP", 5.0)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _timed(session, **kwargs):
    start = time.perf_counter()
    results = session.run_workload(**kwargs)
    return time.perf_counter() - start, results


def _verdict_map(results):
    """``(program, label, function) -> verdict codes`` for bit-identity checks."""
    verdicts = {}
    for result in results:
        for label in result.labels:
            for function_name, codes in result.verdicts(label).items():
                verdicts[(result.name, label, function_name)] = codes
    return verdicts


def test_parallel_scaling_and_warm_store(benchmark, tmp_path):
    sources = build_testsuite_sources(count=POOL_COUNT, base_seed=11)[-PROGRAM_COUNT:]
    store_path = str(tmp_path / "analysis_store.sqlite")
    session = Session()

    # store=False: the baselines must stay persistence-free even when the
    # REPRO_STORE environment switch is set.
    serial_times, sharded_times = [], []
    runs = []
    for _ in range(REPETITIONS):
        serial_seconds, serial = _timed(session, units=sources, specs=SPECS,
                                        workers=0, store=False)
        sharded_seconds, sharded = _timed(session, units=sources, specs=SPECS,
                                          workers=WORKERS, store=False)
        serial_times.append(serial_seconds)
        sharded_times.append(sharded_seconds)
        runs += [("serial", serial), ("sharded", sharded)]
        print("pair {}: serial {:.3f} s, sharded {:.3f} s, {:.2f}x".format(
            len(serial_times), serial_seconds, sharded_seconds,
            serial_seconds / sharded_seconds))
    serial_seconds = median(serial_times)
    sharded_seconds = median(sharded_times)
    cold_seconds, cold = _timed(session, units=sources, specs=SPECS,
                                workers=WORKERS, store=store_path)
    warm_seconds, warm = _timed(session, units=sources, specs=SPECS,
                                workers=WORKERS, store=store_path)

    # --- bit-identical verdicts across every execution mode -----------------
    reference = _verdict_map(serial)
    for mode, results in runs + [("cold-store", cold), ("warm-store", warm)]:
        assert _verdict_map(results) == reference, \
            "{} verdicts differ from the serial run".format(mode)

    # --- per-program rows (with merged disambiguation statistics) -----------
    rows = []
    for result in serial:
        statistics = result.statistics
        rows.append({
            "benchmark": result.name,
            "instructions": result.instructions,
            "queries": result.evaluation("basicaa").total_queries,
            "BA+LT": result.evaluation("basicaa+lt").no_alias,
            "disamb_queries": statistics.queries,
            "largest_class": statistics.largest_class,
            "truncated_classes": statistics.truncated_classes,
        })
    merged_statistics = DisambiguationStatistics()
    for result in serial:
        merged_statistics = merged_statistics.merge(result.statistics)
    rows.append({
        "benchmark": "TOTAL",
        "instructions": sum(r.instructions for r in serial),
        "queries": sum(r.evaluation("basicaa").total_queries for r in serial),
        "BA+LT": sum(r.evaluation("basicaa+lt").no_alias for r in serial),
        "disamb_queries": merged_statistics.queries,
        "largest_class": merged_statistics.largest_class,
        "truncated_classes": merged_statistics.truncated_classes,
    })
    print_table("Parallel scaling - workload rows (serial run)", rows)

    parallel_speedup = median(
        serial_time / sharded_time if sharded_time else 0.0
        for serial_time, sharded_time in zip(serial_times, sharded_times))
    warm_speedup = serial_seconds / warm_seconds if warm_seconds else 0.0
    warm_hits = sum(result.store_hits for result in warm)
    summary = [
        {"mode": "serial", "workers": 0, "seconds": round(serial_seconds, 3),
         "speedup": 1.0},
        {"mode": "sharded", "workers": WORKERS,
         "seconds": round(sharded_seconds, 3),
         "speedup": round(parallel_speedup, 2)},
        {"mode": "cold-store", "workers": WORKERS,
         "seconds": round(cold_seconds, 3),
         "speedup": round(serial_seconds / cold_seconds, 2) if cold_seconds else 0.0,
         "store_hits": sum(result.store_hits for result in cold),
         "store_misses": sum(result.store_misses for result in cold)},
        {"mode": "warm-store", "workers": WORKERS,
         "seconds": round(warm_seconds, 3),
         "speedup": round(warm_speedup, 2),
         "store_hits": warm_hits,
         "store_misses": sum(result.store_misses for result in warm)},
    ]
    print_table("Parallel scaling - execution modes", summary)
    write_results("parallel_scaling", rows + summary)

    # pytest-benchmark tracks the serial cost of one representative unit.
    benchmark(lambda: session.run_workload(units=sources[:1], specs=SPECS,
                                           workers=0, store=False))

    # --- shape checks -------------------------------------------------------
    # A warm persistent store answers every unit without compiling or
    # analysing anything: >= 5x over the serial run, with hits recorded.
    assert warm_hits > 0, "warm run never hit the store"
    assert warm_speedup >= MIN_WARM_SPEEDUP, \
        "warm store only {:.1f}x faster than serial".format(warm_speedup)
    # Sharding must scale on real hardware: >= 2x at four workers.  A
    # single-CPU host cannot exhibit wall-clock parallel speedup whatever
    # the software does, so there the check reduces to the bit-identity
    # assertions above.
    cpus = _available_cpus()
    if cpus >= 2:
        assert parallel_speedup >= MIN_PARALLEL_SPEEDUP, \
            "only {:.2f}x speedup at {} workers on {} CPUs".format(
                parallel_speedup, WORKERS, cpus)
    else:
        print("single-CPU host: skipping the parallel wall-clock assertion "
              "({:.2f}x observed at {} workers)".format(parallel_speedup, WORKERS))
