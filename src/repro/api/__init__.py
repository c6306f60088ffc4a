"""The unified public facade of the reproduction.

Three layers, built on top of each other:

* :class:`ReproConfig` (:mod:`repro.api.config`) — one frozen, validated
  dataclass holding every knob, with the documented precedence chain
  *explicit argument > config field > ``REPRO_*`` env var > default*;
* :class:`Session` (:mod:`repro.api.session`) — the fluent entry point
  owning one analysis cache, one persistent-store handle and the execution
  engine: ``Session(config).compile(src).analyze().disambiguate()``,
  ``Session.evaluate(...)``, ``Session.run_workload(...)``;
* the ``python -m repro`` CLI (:mod:`repro.api.cli`) — ``eval``,
  ``print-ir``, ``stats`` and ``store`` subcommands over the same facade.

``repro.api.config`` imports nothing from the rest of the package (lower
layers import its defaults and ``ConfigError``), so this ``__init__``
imports it eagerly and loads the session/CLI layers lazily via PEP 562 to
keep the import graph acyclic.
"""

from repro.api.config import (
    ConfigError,
    ReproConfig,
    env_flag,
    env_float,
    env_int,
)

_LAZY = {
    "Session": ("repro.api.session", "Session"),
    "CompiledUnit": ("repro.api.session", "CompiledUnit"),
    "DisambiguationReport": ("repro.api.session", "DisambiguationReport"),
    "UpdateResult": ("repro.api.session", "UpdateResult"),
    "main": ("repro.api.cli", "main"),
}

__all__ = [
    "ConfigError",
    "ReproConfig",
    "Session",
    "CompiledUnit",
    "DisambiguationReport",
    "UpdateResult",
    "env_flag",
    "env_float",
    "env_int",
    "main",
]


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name)) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
