"""Pointer Disambiguation via Strict Inequalities — a Python reproduction.

This package reproduces the system described in *Pointer Disambiguation via
Strict Inequalities* (Maalej, Paisante, Ramos, Gonnord, Pereira — CGO 2017):
a sparse "less-than" dataflow analysis over an e-SSA program representation,
used to prove that two pointers cannot alias because one is strictly smaller
than the other.

High-level entry points
-----------------------

* :class:`repro.api.Session` — **the** unified facade: fluent
  ``Session(config).compile(src).analyze().disambiguate()`` pipeline,
  ``Session.evaluate`` / ``Session.run_workload`` over the execution
  engine, one shared analysis cache and store handle.
* :class:`repro.api.ReproConfig` — every knob (workers, store, verify
  mode, truncation, synth seed, trace) as one validated, frozen dataclass
  with the precedence chain *explicit argument > config field > ``REPRO_*``
  env var > default*.
* ``python -m repro`` — the CLI (``eval``, ``check``, ``print-ir``,
  ``stats``, ``store``) over the same facade.
* :class:`repro.core.LessThanAnalysis` — compute strict less-than sets for a
  function or module.
* :class:`repro.core.StrictInequalityAliasAnalysis` — the alias analysis
  built on top of them (``LT`` in the paper's tables).
* :class:`repro.alias.BasicAliasAnalysis`,
  :class:`repro.alias.AndersenAliasAnalysis` — the baselines (``BA``, ``CF``),
  the only analyses besides ``LT`` an ``eval`` spec may name.
* :func:`repro.alias.evaluate_module` — the ``aa-eval`` harness.
* :func:`repro.frontend.compile_source` — compile mini-C sources to the IR.
* :mod:`repro.synth` — synthetic workloads used by the benchmark harness.

See ``examples/quickstart.py`` for a five-minute tour.
"""

__version__ = "1.0.0"

from repro import alias, api, core, essa, ir, pdg, rangeanalysis

__all__ = ["alias", "api", "core", "essa", "ir", "pdg", "rangeanalysis",
           "__version__"]
