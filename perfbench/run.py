"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload spec16 --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics.  Run it
from the repository root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it repeat every metric with its unit, the seed, the output digest and any
problem found.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: imports ``repro`` the way a user's program does and prints the seconds.
_IMPORT_PROBE = ("import time; start = time.perf_counter(); import repro.api; "
                 "repro.api.Session; print(time.perf_counter() - start)")


def import_seconds(repeats: int) -> float:
    """Median time to import ``repro``, each in a fresh interpreter."""
    from checks import median

    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                              env=env, check=True, capture_output=True,
                              text=True, timeout=120)
        samples.append(float(done.stdout.strip()))
    return median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in names:
        parser.error("unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(names)))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: {} holds no repro sources; run from a checkout of the "
              "repository".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import inputs
    import spans
    import workloads
    from checks import median

    run = workloads.Run()
    recorder = spans.Recorder()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.workload == "churn":
            if args.trace:
                workloads.trace_churn(run, args.seed, args.seconds, scratch,
                                      recorder)
            else:
                workloads.measure_churn(run, args.seed, args.seconds, scratch)
        elif args.trace:
            workloads.trace_batch(run, args.workload, args.seed, args.seconds,
                                  recorder)
        else:
            workloads.measure_batch(run, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch)

    if args.trace:
        declared = benchmark["per_layer"]
        out = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out, exist_ok=True)
        recorder.dump(os.path.join(out, "spans-{}-seed{}.json".format(
            args.workload, args.seed)))
    else:
        declared = benchmark["end_to_end"]
        run.metrics["peak_rss_mb"] = run.peak_rss_mb
        run.metrics["setup_s"] = (import_seconds(workloads.SETUP_REPEATS)
                                  + median(run.setup_seconds)) / median(run.slowness)
    mismatched = {metric["name"] for metric in declared} ^ set(run.metrics)
    if mismatched:
        raise RuntimeError("metrics not measured as declared: {}".format(
            sorted(mismatched)))

    if args.seed == inputs.DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as handle:
            committed = json.load(handle).get(args.workload)
        if run.digest != committed:
            run.problems.append("digest {} differs from the committed {}".format(
                run.digest, committed))

    print("workload {} seed {} trace {}".format(args.workload, args.seed,
                                                args.trace))
    print("digest {}".format(run.digest))
    for line in run.lines:
        print(line)
    print("host slowness {:.3f} (median of {}; times below are divided by "
          "it)".format(median(run.slowness), len(run.slowness)))
    for problem in run.problems:
        print("problem: {}".format(problem))
    print("failed_ratio {:.6f} ({} of {} attempted)".format(
        run.failed / run.attempted, run.failed, run.attempted))
    for metric in declared:
        print("{:28s} {:>14.6f} {}".format(metric["name"],
                                           run.metrics[metric["name"]],
                                           metric["unit"]))
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric["name"]: {"value": run.metrics[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
