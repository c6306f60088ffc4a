"""The ``python -m repro`` command line, built on the :class:`Session` facade.

Subcommands:

* ``eval`` — ``aa-eval`` one or more mini-C source files (or a synthetic
  workload) through the execution engine; prints a per-program table,
  optionally writes CSV/JSON.
* ``print-ir`` — compile a source file and print its SSA IR.
* ``check`` — run the self-check suite (IR/e-SSA lint, fixpoint
  certificates, NoAlias verdict audit) over source files or a synthetic
  workload; exit 1 when any error-severity diagnostic is found.
* ``stats`` — solver/disambiguation/cache statistics for one source file.
* ``store`` — inspect or maintain a persistent analysis store
  (``info`` / ``evict`` / ``clear``).

Every subcommand accepts the configuration flags (``--workers``,
``--store``, ``--class-limit``, ...), which become *explicit arguments*
of a :class:`~repro.api.config.ReproConfig` — the top of the precedence
chain, above the ``REPRO_*`` environment.  Invalid values exit with code 2
and the config boundary's actionable message instead of a traceback.

The CLI goes through exactly the same :class:`~repro.api.session.Session`
code path as library callers, so its per-pair verdicts are bit-identical
to the in-process API (asserted by ``tests/api/test_cli.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.config import ConfigError, ReproConfig, VERIFY_MODES
from repro.frontend import FrontendError
from repro.obs import TRACER

DEFAULT_SPEC_STRING = "basicaa,lt,basicaa+lt"


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "configuration",
        "explicit values override REPRO_* environment variables")
    group.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker-process count (0 = serial)")
    group.add_argument("--store", default=None, metavar="PATH",
                       help="persistent analysis-store path")
    group.add_argument("--store-max-mb", type=float, default=None, metavar="MB",
                       help="store byte budget (0 = unbounded)")
    group.add_argument("--class-limit", type=int, default=None, metavar="N",
                       help="equivalence-class truncation limit (0 = unlimited)")
    group.add_argument("--verify", default=None, metavar="MODE",
                       help="self-check every solved unit, serial or pooled "
                            "({})".format("/".join(VERIFY_MODES)))
    group.add_argument("--seed", type=int, default=None, metavar="N",
                       help="base seed of --synth testsuite (the spec "
                            "programs each have their own seed)")
    group.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome trace-event JSON timeline "
                            "(open in about:tracing or Perfetto)")


def _config_from_arguments(args: argparse.Namespace) -> ReproConfig:
    """Build the ``ReproConfig`` from the flags the user actually passed."""
    overrides = {}
    for field, attribute in (
            ("workers", "workers"),
            ("store_path", "store"),
            ("store_max_mb", "store_max_mb"),
            ("class_limit", "class_limit"),
            ("verify", "verify"),
            ("synth_seed", "seed"),
            ("trace", "trace")):
        value = getattr(args, attribute, None)
        if value is not None:
            overrides[field] = value
    return ReproConfig(**overrides)


def _parse_specs(text: str) -> Tuple[Tuple[str, ...], ...]:
    """``"basicaa,lt,basicaa+lt"`` → ``(("basicaa",), ("lt",), ("basicaa", "lt"))``."""
    specs: List[Tuple[str, ...]] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        specs.append(tuple(member.strip() for member in item.split("+")))
    if not specs:
        raise ConfigError("--specs must name at least one analysis")
    return tuple(specs)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _unit_name(path: str) -> str:
    if path == "-":
        return "stdin"
    base = os.path.basename(path)
    return os.path.splitext(base)[0] or base


def _unit_path(args: argparse.Namespace, unit: Optional[str]) -> str:
    """The command-line path unit ``unit`` was read from, else its name."""
    paths = getattr(args, "sources", None) or [getattr(args, "source", None)]
    matches = [path for path in paths
               if path not in (None, "-") and _unit_name(path) == unit]
    return matches[0] if len(matches) == 1 else str(unit)


def _print_table(rows: Sequence[Dict[str, object]]) -> None:
    if not rows:
        print("(no results)")
        return
    headers: List[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    widths = {h: max(len(str(h)), max(len(str(r.get(h, ""))) for r in rows))
              for h in headers}
    print("  ".join(str(h).ljust(widths[h]) for h in headers))
    for row in rows:
        print("  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _collect_units(args: argparse.Namespace, seed: int,
                   command: str = "eval") -> List[Tuple[str, str]]:
    if args.count < 1:
        raise ConfigError("--count must be at least 1, got {}"
                          .format(args.count))
    units: List[Tuple[str, str]] = [(_unit_name(path), _read_source(path))
                                    for path in args.sources]
    if args.synth is not None:
        from repro.synth import build_testsuite_sources, spec_sources

        if args.synth == "testsuite":
            units.extend(build_testsuite_sources(count=args.count,
                                                 base_seed=seed))
        else:
            units.extend(spec_sources()[:args.count])
    if not units:
        raise ConfigError(
            "{} needs at least one source file or --synth testsuite|spec"
            .format(command))
    return units


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.api.session import Session

    if args.json and args.csv:
        raise ConfigError("--json and --csv are mutually exclusive; "
                          "run eval twice for both outputs")
    specs = _parse_specs(args.specs)
    labels = ["+".join(spec) for spec in specs]
    config = _config_from_arguments(args)
    units = _collect_units(args, config.synth_seed)
    with Session(config) as session:
        results = session.run_workload(units, specs=specs)
    if config.trace:
        # Session.close() wrote the timeline; note it on stderr so --json
        # stdout stays byte-identical to an untraced run.
        print("wrote trace {} ({} spans)".format(
            config.trace, len(TRACER.timeline())), file=sys.stderr)

    if args.json:
        payload = {
            "specs": labels,
            "units": [{
                "name": result.name,
                "instructions": result.instructions,
                "labels": {label: {
                    "counts": result.evaluation(label).as_dict(),
                    "verdicts": result.verdicts(label),
                } for label in result.labels},
            } for result in results],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    rows = []
    for result in results:
        row: Dict[str, object] = {
            "benchmark": result.name,
            "instructions": result.instructions,
            "queries": result.evaluation(labels[0]).total_queries,
        }
        for label in labels:
            evaluation = result.evaluation(label)
            row[label] = evaluation.no_alias
            row[label + "%"] = round(100.0 * evaluation.no_alias_ratio, 2)
        rows.append(row)
    if len(rows) > 1:
        total: Dict[str, object] = {
            "benchmark": "TOTAL",
            "instructions": sum(r["instructions"] for r in rows),
            "queries": sum(r["queries"] for r in rows),
        }
        for label in labels:
            no_alias = sum(r[label] for r in rows)
            total[label] = no_alias
            total[label + "%"] = round(
                100.0 * no_alias / max(total["queries"], 1), 2)
        rows.append(total)
    _print_table(rows)
    if args.csv:
        fieldnames = list(rows[0])
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
            writer.writeheader()
            writer.writerows(rows)
        print("wrote {}".format(args.csv))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Lint + certify: the self-check suite as a standalone subcommand.

    Exit status: 0 when every unit verifies clean, 1 when any
    error-severity diagnostic was found, 2 on usage errors — so CI can run
    ``repro check --json`` as a gate.
    """
    from repro.api.session import Session

    config = _config_from_arguments(args)
    units = _collect_units(args, config.synth_seed, command="check")
    unit_reports = []
    with Session(config) as session:
        for name, source in units:
            compiled = session.compile(source, name=name)
            compiled.analyze()
            unit_reports.append((name, compiled.verify()))

    if args.json:
        payload = {
            "ok": all(report.ok for _name, report in unit_reports),
            "units": [{
                "name": name,
                "ok": report.ok,
                "summary": report.summary(),
                "report": report.as_dict(),
            } for name, report in unit_reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload["ok"] else 1

    failed = 0
    total_checks = total_errors = total_warnings = total_functions = 0
    for name, report in unit_reports:
        status = "ok" if report.ok else "FAILED"
        print("{}: {} ({})".format(name, status, report.summary()))
        for diagnostic in report.diagnostics:
            print("  {}".format(diagnostic.format()))
        failed += 0 if report.ok else 1
        total_checks += report.checks_run()
        total_errors += len(report.errors)
        total_warnings += len(report.warnings)
        total_functions += report.functions
    if len(unit_reports) > 1:
        print("TOTAL: {} checks, {} errors, {} warnings over {} functions "
              "in {} units".format(total_checks, total_errors, total_warnings,
                                   total_functions, len(unit_reports)))
    return 1 if failed else 0


def _cmd_print_ir(args: argparse.Namespace) -> int:
    from repro.api.session import Session

    source = _read_source(args.source)
    name = args.name or _unit_name(args.source)
    with Session(_config_from_arguments(args)) as session:
        unit = session.compile(source, name=name)
        if args.essa:
            unit.analyze()
        print(unit.print_ir(), end="")
    return 0


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return "{:.3f}s".format(seconds)
    return "{:.3f}ms".format(seconds * 1e3)


def _print_timings() -> None:
    """The ``stats --timings`` tables, read off the tracer's timeline."""
    timeline = TRACER.timeline()
    print("[timings]")
    if not len(timeline):
        print("  (no spans recorded)")
        return
    rows = [{
        "phase": row["phase"],
        "calls": row["count"],
        "total": _format_seconds(row["total"]),
        "self": _format_seconds(row["self"]),
        "p50": _format_seconds(row["p50"]),
        "p99": _format_seconds(row["p99"]),
    } for row in timeline.timing_rows()]
    _print_table(rows)
    lanes = timeline.lane_summary()
    if len(lanes) > 1:
        print("[lanes]")
        _print_table([{
            "lane": lane,
            "spans": stats["spans"],
            "busy": _format_seconds(stats["busy"]),
            "min": _format_seconds(stats["min"]),
            "max": _format_seconds(stats["max"]),
            "skew": "{:.2f}".format(stats["skew"]),
        } for lane, stats in lanes.items()])


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.api.session import Session
    from repro.rangeanalysis.interval import Interval

    source = _read_source(args.source)
    name = _unit_name(args.source)
    config = _config_from_arguments(args)
    # --timings needs spans even without a --trace file: capture for the
    # duration of the command, and stop even when the command fails.
    capture = (TRACER.capture() if args.timings and not config.trace
               else contextlib.nullcontext())
    with capture, Session(config) as session:
        unit = session.compile(source, name=name)
        report = unit.analyze().disambiguate()
        if session.config.verify != "off":
            # stats analyzes through the session cache, not the engine, so
            # the post-solve hook never fires here; honor the knob directly.
            unit.verify().raise_if_failed(
                "REPRO_VERIFY={}".format(session.config.verify))
        lt_statistics = unit.lessthan().statistics
        range_totals: Dict[str, int] = {}
        for function in unit.module.defined_functions():
            for key, value in (session.cache.ranges(function)
                               .statistics.as_dict().items()):
                range_totals[key] = range_totals.get(key, 0) + value

        print("module {}: {} instructions, {} functions".format(
            name, unit.module.instruction_count(),
            len(list(unit.module.defined_functions()))))
        print()
        print("[less-than solver]")
        for key, value in lt_statistics.as_dict().items():
            print("  {:24s} {}".format(key, value))
        print("[range analysis]")
        for key, value in range_totals.items():
            print("  {:24s} {}".format(key, value))
        print("[solver]")
        for key, value in report.statistics.solver.as_dict().items():
            print("  {:24s} {}".format(key, value))
        intern = Interval.intern_info()
        print("[interval intern]   capacity={}".format(intern["capacity"]))
        for key in ("size", "hits", "misses"):
            print("  {:24s} {}".format(key, intern[key]))
        print("  {:24s} {:.3f}".format("hit_rate", intern["hit_rate"]))
        print("[disambiguation]    class_limit={}".format(
            session.config.class_limit))
        print("  {:24s} {}".format("queries", report.queries))
        print("  {:24s} {}".format("no_alias", report.no_alias_count))
        print("  {:24s} {:.2%}".format("no_alias_ratio", report.no_alias_ratio))
        for key, value in report.statistics.as_dict().items():
            if key not in ("queries", "solver"):
                print("  {:24s} {}".format(key, value))
        statistics = session.statistics()
        print("[cache]")
        cache_stats = session.cache.statistics
        for key, value in statistics["cache"].items():
            if key == "hit_ratio":
                print("  {:24s} {:.2%}".format("hit_rate", value))
            else:
                print("  {:24s} {}".format(key, value))
        for kind in sorted(cache_stats.by_kind):
            counters = cache_stats.by_kind[kind]
            lookups = counters["hits"] + counters["misses"]
            rate = counters["hits"] / lookups if lookups else 0.0
            print("  {:24s} {}/{} ({:.2%})".format(
                kind, counters["hits"], lookups, rate))
        print("[fingerprints]")
        from repro.ir.callgraph import CallGraph

        graph = CallGraph(unit.module)
        components = graph.components()
        recursive = sum(
            1 for component in components
            if len(component) > 1
            or component[0] in graph.callees.get(component[0], []))
        print("  {:24s} {}".format(
            "call_edges",
            sum(len(callees) for callees in graph.callees.values())))
        print("  {:24s} {}".format("call_graph_sccs", len(components)))
        print("  {:24s} {}".format("recursive_sccs", recursive))
        verify_stats = statistics.get("verify", {})
        print("[verify]            mode={}".format(session.config.verify))
        if verify_stats.get("runs"):
            for key, value in verify_stats.items():
                print("  {:24s} {}".format(key, value))
        else:
            print("  (no verification runs — set REPRO_VERIFY=post "
                  "or run 'repro check')")
        if "store" in statistics:
            print("[store]")
            for key, value in statistics["store"].items():
                if key == "hit_rate":
                    print("  {:24s} {:.2%}".format(key, value))
                else:
                    print("  {:24s} {}".format(key, value))
        elif session.config.store_path:
            # This command never evaluates through the engine, so the lazy
            # session store stays unopened; still give the user a [store]
            # section for the path they configured.  Missing and zero-byte
            # files are fresh stores, not errors — say "no data", exit 0.
            print("[store]             path={}".format(session.config.store_path))
            path = session.config.store_path
            if not os.path.exists(path) or os.path.getsize(path) == 0:
                print("  (no data — run an eval with this store to "
                      "populate it)")
            else:
                from repro.engine.store import AnalysisStore

                with AnalysisStore(path, readonly=True) as store_handle:
                    for key, value in store_handle.info().items():
                        print("  {:24s} {}".format(key, value))
        if args.timings:
            _print_timings()
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.engine.store import AnalysisStore

    if not os.path.exists(args.path):
        # Opening a writable store would silently create a fresh file at a
        # mistyped path; fail loudly instead.
        raise ConfigError("no analysis store at {!r}".format(args.path))
    if args.action == "info":
        store = AnalysisStore(args.path, readonly=True)
        try:
            info = store.info()
        finally:
            store.close()
        for key, value in info.items():
            print("{:24s} {}".format(key, value))
        return 0
    if args.action == "evict":
        if args.max_mb is None:
            raise ConfigError("store evict needs --max-mb")
        budget = int(args.max_mb * 1024 * 1024)
        with AnalysisStore(args.path) as store:
            evicted = store.evict(budget)
            remaining = store.size_bytes()
        print("evicted {} entries; {} bytes remain".format(evicted, remaining))
        return 0
    # clear
    with AnalysisStore(args.path) as store:
        entries = len(store)
        store.clear()
    print("cleared {} entries".format(entries))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Pointer disambiguation via strict inequalities "
                    "(CGO 2017 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    eval_parser = subparsers.add_parser(
        "eval", help="aa-eval source files or a synthetic workload")
    eval_parser.add_argument("sources", nargs="*",
                             help="mini-C source files ('-' = stdin)")
    eval_parser.add_argument("--synth", choices=("testsuite", "spec"),
                             default=None,
                             help="add a synthetic workload collection")
    eval_parser.add_argument("--count", type=int, default=8, metavar="N",
                             help="synthetic program count (default 8)")
    eval_parser.add_argument("--specs", default=DEFAULT_SPEC_STRING,
                             help="comma-separated analysis configurations "
                                  "(default {!r})".format(DEFAULT_SPEC_STRING))
    eval_parser.add_argument("--json", action="store_true",
                             help="emit JSON (counts + per-pair verdict codes)")
    eval_parser.add_argument("--csv", default=None, metavar="PATH",
                             help="also write the table as CSV")
    _add_config_arguments(eval_parser)
    eval_parser.set_defaults(handler=_cmd_eval)

    check_parser = subparsers.add_parser(
        "check", help="self-check: IR lint, fixpoint certificates, "
                      "NoAlias verdict audit")
    check_parser.add_argument("sources", nargs="*",
                              help="mini-C source files ('-' = stdin)")
    check_parser.add_argument("--synth", choices=("testsuite", "spec"),
                              default=None,
                              help="also check a synthetic workload collection")
    check_parser.add_argument("--count", type=int, default=8, metavar="N",
                              help="synthetic program count (default 8)")
    check_parser.add_argument("--json", action="store_true",
                              help="emit the full diagnostic report as JSON")
    _add_config_arguments(check_parser)
    check_parser.set_defaults(handler=_cmd_check)

    ir_parser = subparsers.add_parser(
        "print-ir", help="compile one source file and print its SSA IR")
    ir_parser.add_argument("source", help="mini-C source file ('-' = stdin)")
    ir_parser.add_argument("--name", default=None, help="module name")
    ir_parser.add_argument("--essa", action="store_true",
                           help="print the e-SSA form (after live-range splitting)")
    _add_config_arguments(ir_parser)
    ir_parser.set_defaults(handler=_cmd_print_ir)

    stats_parser = subparsers.add_parser(
        "stats", help="solver/disambiguation/cache statistics for one source")
    stats_parser.add_argument("source", help="mini-C source file ('-' = stdin)")
    stats_parser.add_argument("--timings", action="store_true",
                              help="per-phase timing table (total/self time, "
                                   "call counts, p50/p99, per-lane skew)")
    _add_config_arguments(stats_parser)
    stats_parser.set_defaults(handler=_cmd_stats)

    store_parser = subparsers.add_parser(
        "store", help="inspect or maintain a persistent analysis store")
    store_parser.add_argument("action", choices=("info", "evict", "clear"))
    store_parser.add_argument("path", help="store path")
    store_parser.add_argument("--max-mb", type=float, default=None,
                              metavar="MB", help="evict down to this budget")
    store_parser.set_defaults(handler=_cmd_store)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FrontendError as error:
        print("error: {}: {}".format(_unit_path(args, error.unit), error),
              file=sys.stderr)
        return 2
    except (ConfigError, OSError) as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
