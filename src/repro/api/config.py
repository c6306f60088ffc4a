"""The typed configuration surface of the reproduction.

Every knob of the system — worker count, persistent-store location and
byte budget, equivalence-class truncation, self-checks, synthetic-workload
seeding, tracing — is a field of one frozen dataclass,
:class:`ReproConfig`, resolved through a single documented precedence
chain:

    explicit argument  >  ``ReproConfig`` field  >  ``REPRO_*`` env var  >  default

"Explicit argument" is whatever a caller passes to a :class:`~repro.api.
session.Session` method (or a CLI flag, which the CLI forwards as a
constructor argument); a ``ReproConfig`` field is explicit the moment the
constructor receives it; unset fields fall back to the corresponding
``REPRO_*`` environment variable and finally to the built-in default.

Validation happens *once*, at the ``ReproConfig`` boundary: an invalid
value — ``REPRO_WORKERS=abc``, a negative ``REPRO_STORE_MAX_MB``, an
unknown verify mode — raises :class:`ConfigError` with a message naming
the offending field or environment variable and the accepted values,
instead of the silent fallbacks (or raw ``ValueError`` deep in the stack)
of earlier revisions.

This module is the *only* place in ``src/repro`` that reads ``REPRO_*``
environment variables.  Lower layers (the engine driver, the analysis
store, the disambiguator, the verification hooks) call the
``resolved_*`` functions below, which consult the innermost *active*
config — installed by ``Session`` for the duration of its operations and
re-installed inside worker processes — before falling back to the
environment.  It deliberately imports nothing from the rest of the
package so that any module may depend on it without cycles.

Field ↔ environment-variable map (see the README for the same table):

===================  =======================  ==========================
field                environment variable     default
===================  =======================  ==========================
``workers``          ``REPRO_WORKERS``        ``0`` (serial)
``store_path``       ``REPRO_STORE``          ``None`` (no persistence)
``store_max_mb``     ``REPRO_STORE_MAX_MB``   ``None`` (unbounded)
``class_limit``      ``REPRO_CLASS_LIMIT``    ``64`` (``0`` = unlimited)
``verify``           ``REPRO_VERIFY``         ``"off"``
``synth_seed``       ``REPRO_SYNTH_SEED``     ``7``
``trace``            ``REPRO_TRACE``          ``None`` (tracing disabled)
===================  =======================  ==========================
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional


class ConfigError(ValueError):
    """An invalid configuration value, reported at the config boundary.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working.
    """


class _Unset:
    """Sentinel distinguishing "not passed" from every real value."""

    _instance: Optional["_Unset"] = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unset>"


UNSET = _Unset()

#: self-check modes of the verification pass suite (``repro.verify``):
#: ``off`` skips it, ``post`` re-checks every in-process solve, and
#: ``paranoid`` additionally runs inside pool workers, shipping reports
#: back through the unit payload.
VERIFY_MODES = ("off", "post", "paranoid")

_FALSEY = ("", "0", "false", "no", "off")
_TRUTHY = ("1", "true", "yes", "on")


def _source_label(field: str, env_var: str, from_env: bool) -> str:
    return env_var if from_env else field


def _parse_int(field: str, env_var: str, value: object, from_env: bool,
               minimum: Optional[int] = None) -> int:
    source = _source_label(field, env_var, from_env)
    try:
        parsed = int(str(value).strip())
    except (TypeError, ValueError):
        raise ConfigError(
            "{}={!r} is not an integer (expected e.g. {}=4)".format(
                source, value, source)) from None
    if minimum is not None and parsed < minimum:
        raise ConfigError(
            "{}={!r} must be >= {}".format(source, value, minimum))
    return parsed


def _parse_float(field: str, env_var: str, value: object, from_env: bool,
                 minimum: Optional[float] = None) -> float:
    source = _source_label(field, env_var, from_env)
    try:
        parsed = float(str(value).strip())
    except (TypeError, ValueError):
        raise ConfigError(
            "{}={!r} is not a number (expected e.g. {}=64)".format(
                source, value, source)) from None
    if minimum is not None and parsed < minimum:
        raise ConfigError(
            "{}={!r} must be >= {}".format(source, value, minimum))
    return parsed


def _parse_choice(field: str, env_var: str, value: object, from_env: bool,
                  choices) -> str:
    source = _source_label(field, env_var, from_env)
    parsed = str(value).strip().lower()
    if parsed not in choices:
        raise ConfigError("{}={!r} is not one of {}".format(
            source, value, "/".join(choices)))
    return parsed


def _parse_flag(field: str, env_var: str, value: object, from_env: bool) -> bool:
    if isinstance(value, bool):
        return value
    source = _source_label(field, env_var, from_env)
    parsed = str(value).strip().lower()
    if parsed in _TRUTHY:
        return True
    if parsed in _FALSEY:
        return False
    raise ConfigError("{}={!r} is not a boolean (use 1/0, true/false)".format(
        source, value))


def _env(env_var: str) -> Optional[str]:
    raw = os.environ.get(env_var)
    if raw is None:
        return None
    raw = raw.strip()
    return raw if raw else None


# ---------------------------------------------------------------------------
# Per-field resolution: explicit value > environment > default
# ---------------------------------------------------------------------------

def _resolve_workers(value: object) -> int:
    if isinstance(value, _Unset):
        raw = _env("REPRO_WORKERS")
        if raw is None:
            return 0
        return _parse_int("workers", "REPRO_WORKERS", raw, True, minimum=0)
    return _parse_int("workers", "REPRO_WORKERS", value, False, minimum=0)


def _resolve_store_path(value: object) -> Optional[str]:
    if isinstance(value, _Unset):
        return _env("REPRO_STORE")
    if value is None:
        return None
    path = str(value).strip()
    return path or None


def _resolve_store_max_mb(value: object) -> Optional[float]:
    """``None`` = unbounded; ``0`` also means unbounded (budget disabled)."""
    if isinstance(value, _Unset):
        raw = _env("REPRO_STORE_MAX_MB")
        if raw is None:
            return None
        parsed = _parse_float("store_max_mb", "REPRO_STORE_MAX_MB", raw, True,
                              minimum=0.0)
    elif value is None:
        return None
    else:
        parsed = _parse_float("store_max_mb", "REPRO_STORE_MAX_MB", value,
                              False, minimum=0.0)
    return parsed if parsed > 0 else None


def _resolve_verify(value: object) -> str:
    if isinstance(value, _Unset):
        raw = _env("REPRO_VERIFY")
        if raw is None:
            return "off"
        return _parse_choice("verify", "REPRO_VERIFY", raw, True, VERIFY_MODES)
    return _parse_choice("verify", "REPRO_VERIFY", value, False, VERIFY_MODES)


def _resolve_class_limit(value: object) -> int:
    if isinstance(value, _Unset):
        raw = _env("REPRO_CLASS_LIMIT")
        if raw is None:
            return 64
        return _parse_int("class_limit", "REPRO_CLASS_LIMIT", raw, True,
                          minimum=0)
    return _parse_int("class_limit", "REPRO_CLASS_LIMIT", value, False,
                      minimum=0)


def _resolve_synth_seed(value: object) -> int:
    if isinstance(value, _Unset):
        raw = _env("REPRO_SYNTH_SEED")
        if raw is None:
            return 7
        return _parse_int("synth_seed", "REPRO_SYNTH_SEED", raw, True)
    return _parse_int("synth_seed", "REPRO_SYNTH_SEED", value, False)


def _resolve_trace(value: object) -> Optional[str]:
    """A Chrome trace-event output path; ``None`` disables tracing."""
    if isinstance(value, _Unset):
        return _env("REPRO_TRACE")
    if value is None:
        return None
    path = str(value).strip()
    return path or None


@dataclass(frozen=True)
class ReproConfig:
    """Every knob of the system, resolved and validated at construction.

    Construct with keyword arguments for the fields you want to pin;
    everything else falls back to its ``REPRO_*`` environment variable and
    then to the built-in default, so ``ReproConfig()`` describes exactly
    what the environment requests.  Instances are frozen (hashable,
    picklable, shareable across worker processes); derive variants with
    :meth:`replace`.
    """

    workers: int = UNSET                     # type: ignore[assignment]
    store_path: Optional[str] = UNSET        # type: ignore[assignment]
    store_max_mb: Optional[float] = UNSET    # type: ignore[assignment]
    verify: str = UNSET                      # type: ignore[assignment]
    class_limit: int = UNSET                 # type: ignore[assignment]
    synth_seed: int = UNSET                  # type: ignore[assignment]
    trace: Optional[str] = UNSET             # type: ignore[assignment]

    def __post_init__(self) -> None:
        resolve = object.__setattr__
        resolve(self, "workers", _resolve_workers(self.workers))
        resolve(self, "store_path", _resolve_store_path(self.store_path))
        resolve(self, "store_max_mb", _resolve_store_max_mb(self.store_max_mb))
        resolve(self, "verify", _resolve_verify(self.verify))
        resolve(self, "class_limit", _resolve_class_limit(self.class_limit))
        resolve(self, "synth_seed", _resolve_synth_seed(self.synth_seed))
        resolve(self, "trace", _resolve_trace(self.trace))

    # -- derived views -----------------------------------------------------------
    @property
    def store_max_bytes(self) -> Optional[int]:
        """The store byte budget, or ``None`` when unbounded."""
        if self.store_max_mb is None:
            return None
        return int(self.store_max_mb * 1024 * 1024)

    def replace(self, **changes: object) -> "ReproConfig":
        """A copy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    @contextmanager
    def activate(self) -> Iterator["ReproConfig"]:
        """Make this config the innermost *active* config for a ``with`` block.

        While active, every ``resolved_*`` lookup below answers from this
        config instead of the environment — this is how a
        :class:`~repro.api.session.Session`'s knobs reach code deep in the
        pipeline (class truncation, self-checks) without threading a
        parameter through every layer.
        """
        push_config(self)
        try:
            yield self
        finally:
            pop_config(self)

    def __str__(self) -> str:
        pairs = ", ".join("{}={!r}".format(f.name, getattr(self, f.name))
                          for f in dataclasses.fields(self))
        return "ReproConfig({})".format(pairs)


# ---------------------------------------------------------------------------
# The active-config stack
# ---------------------------------------------------------------------------

_ACTIVE: List[ReproConfig] = []


def active_config() -> Optional[ReproConfig]:
    """The innermost active config, or ``None`` (fall back to the environment)."""
    return _ACTIVE[-1] if _ACTIVE else None


def push_config(config: ReproConfig) -> None:
    _ACTIVE.append(config)


def pop_config(config: ReproConfig) -> None:
    if _ACTIVE and _ACTIVE[-1] is config:
        _ACTIVE.pop()
    elif config in _ACTIVE:  # pragma: no cover - unbalanced exits
        _ACTIVE.remove(config)


def install_config(config: ReproConfig) -> None:
    """Install ``config`` as this process's base config (no pairing pop).

    Worker processes call this from their pool initializer so that the
    coordinator's session config governs truncation and self-checks
    inside every worker, under both the ``fork`` and ``spawn`` start
    methods.
    """
    if not _ACTIVE or _ACTIVE[0] != config:
        _ACTIVE.insert(0, config)


# ---------------------------------------------------------------------------
# Resolution entry points for the lower layers
# ---------------------------------------------------------------------------

def resolved_workers() -> int:
    config = active_config()
    return config.workers if config is not None else _resolve_workers(UNSET)


def resolved_store_path() -> Optional[str]:
    config = active_config()
    return (config.store_path if config is not None
            else _resolve_store_path(UNSET))


def resolved_store_max_bytes() -> Optional[int]:
    config = active_config()
    if config is not None:
        return config.store_max_bytes
    megabytes = _resolve_store_max_mb(UNSET)
    return int(megabytes * 1024 * 1024) if megabytes is not None else None


def resolved_verify() -> str:
    """The self-check mode: ``off``, ``post``, or ``paranoid``."""
    config = active_config()
    return config.verify if config is not None else _resolve_verify(UNSET)


def resolved_class_limit() -> Optional[int]:
    """The equivalence-class truncation limit (``None`` = unlimited)."""
    config = active_config()
    limit = (config.class_limit if config is not None
             else _resolve_class_limit(UNSET))
    return limit if limit > 0 else None


def resolved_synth_seed() -> int:
    config = active_config()
    return (config.synth_seed if config is not None
            else _resolve_synth_seed(UNSET))


# ---------------------------------------------------------------------------
# Validated environment helpers for harness-local knobs
# ---------------------------------------------------------------------------
#
# Benchmark gates keep their thresholds next to the benchmark (they are not
# system knobs), but their parsing lives here so that every ``REPRO_*``
# environment read flows through one validated boundary.

def env_int(env_var: str, default: int, minimum: Optional[int] = None) -> int:
    raw = _env(env_var)
    if raw is None:
        return default
    return _parse_int(env_var, env_var, raw, True, minimum=minimum)


def env_float(env_var: str, default: float,
              minimum: Optional[float] = None) -> float:
    raw = _env(env_var)
    if raw is None:
        return default
    return _parse_float(env_var, env_var, raw, True, minimum=minimum)


def env_flag(env_var: str, default: bool = False) -> bool:
    raw = os.environ.get(env_var)
    if raw is None:
        return default
    return _parse_flag(env_var, env_var, raw, True)
