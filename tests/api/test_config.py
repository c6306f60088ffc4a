"""Tests for the typed ``ReproConfig`` boundary.

The documented precedence chain — explicit argument > ``ReproConfig``
field > ``REPRO_*`` environment variable > default — plus validation:
invalid values raise :class:`ConfigError` with a message naming the
offending source, instead of silently falling back.
"""

import dataclasses
import pickle

import pytest

from repro.api.config import (
    ConfigError,
    ReproConfig,
    env_flag,
    env_float,
    env_int,
)

ALL_VARS = (
    "REPRO_WORKERS", "REPRO_STORE", "REPRO_STORE_MAX_MB", "REPRO_CLASS_LIMIT",
    "REPRO_SYNTH_SEED", "REPRO_FULL", "REPRO_VERIFY",
)


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in ALL_VARS:
        monkeypatch.delenv(name, raising=False)


def test_defaults_without_environment():
    config = ReproConfig()
    assert config.workers == 0
    assert config.store_path is None
    assert config.store_max_mb is None
    assert config.store_max_bytes is None
    assert config.class_limit == 64
    assert config.synth_seed == 7
    assert config.verify == "off"
    # REPRO_FULL is a benchmark-size switch, read by env_flag only.
    assert env_flag("REPRO_FULL") is False


def test_environment_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_STORE", "/tmp/store.sqlite")
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "1.5")
    monkeypatch.setenv("REPRO_CLASS_LIMIT", "8")
    monkeypatch.setenv("REPRO_SYNTH_SEED", "11")
    monkeypatch.setenv("REPRO_FULL", "1")
    monkeypatch.setenv("REPRO_VERIFY", "post")
    config = ReproConfig()
    assert config.workers == 4
    assert config.store_path == "/tmp/store.sqlite"
    assert config.store_max_mb == 1.5
    assert config.store_max_bytes == int(1.5 * 1024 * 1024)
    assert config.class_limit == 8
    assert config.synth_seed == 11
    assert config.verify == "post"
    assert env_flag("REPRO_FULL") is True


def test_explicit_field_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "4")
    monkeypatch.setenv("REPRO_STORE", "/tmp/env-store.sqlite")
    monkeypatch.setenv("REPRO_VERIFY", "post")
    config = ReproConfig(workers=1, store_path=None, verify="off")
    assert config.workers == 1
    assert config.store_path is None  # explicit None disables the env store
    assert config.verify == "off"


def test_zero_budget_means_unbounded():
    assert ReproConfig(store_max_mb=0).store_max_bytes is None
    assert ReproConfig(store_max_mb=2).store_max_bytes == 2 * 1024 * 1024


@pytest.mark.parametrize("env_var,value", [
    ("REPRO_WORKERS", "abc"),
    ("REPRO_WORKERS", "-1"),
    ("REPRO_STORE_MAX_MB", "-5"),
    ("REPRO_STORE_MAX_MB", "lots"),
    ("REPRO_CLASS_LIMIT", "-3"),
    ("REPRO_SYNTH_SEED", "x"),
    ("REPRO_FULL", "maybe"),
    ("REPRO_VERIFY", "always"),
    ("REPRO_VERIFY", "paranoid"),  # retired: post verifies pooled units too
])
def test_invalid_environment_values_raise(monkeypatch, env_var, value):
    monkeypatch.setenv(env_var, value)
    with pytest.raises(ConfigError, match=env_var):
        if env_var == "REPRO_FULL":  # a benchmark switch, not a config field
            env_flag(env_var)
        else:
            ReproConfig()


@pytest.mark.parametrize("field,value", [
    ("workers", "abc"),
    ("workers", -1),
    ("store_max_mb", -0.5),
    ("class_limit", -3),
    ("verify", "always"),
    ("verify", "paranoid"),
])
def test_invalid_explicit_values_name_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        ReproConfig(**{field: value})


def test_replace_revalidates():
    config = ReproConfig(workers=2)
    derived = config.replace(workers=5)
    assert (config.workers, derived.workers) == (2, 5)
    with pytest.raises(ConfigError, match="workers"):
        config.replace(workers=-1)


def test_session_config_reaches_every_reader(monkeypatch, tmp_path):
    """A Session passes its own config, not the environment, to the
    readers of the class limit, the verify mode and the store budget."""
    from repro.api import Session
    from repro.verify import COUNTERS

    monkeypatch.setenv("REPRO_VERIFY", "post")
    monkeypatch.setenv("REPRO_CLASS_LIMIT", "3")
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "5")
    config = ReproConfig(verify="off", class_limit=0, store_max_mb=1,
                         store_path=str(tmp_path / "s.sqlite"))
    COUNTERS.reset()
    with Session(config) as session:
        assert session.cache.class_limit == 0
        assert session.store.max_bytes == 1024 * 1024
        unit = session.compile("int f(int *p) { return p[0]; }")
        assert unit.disambiguator().class_limit is None  # 0 = unlimited
        session.evaluate(unit.module)
    assert COUNTERS.runs == 0  # verify="off" beat REPRO_VERIFY=post


def test_library_calls_below_session_use_the_defaults(monkeypatch, tmp_path):
    """Only ReproConfig reads REPRO_*: the layers below Session take each
    setting as an argument and default to the built-in value."""
    from repro.engine.store import AnalysisStore
    from repro.passes import FunctionAnalysisCache
    from repro.synth import build_testsuite_sources

    default_sources = build_testsuite_sources(count=1)
    monkeypatch.setenv("REPRO_CLASS_LIMIT", "3")
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "1")
    monkeypatch.setenv("REPRO_SYNTH_SEED", "11")
    assert FunctionAnalysisCache().class_limit == 64
    with AnalysisStore(str(tmp_path / "s.sqlite")) as store:
        assert store.max_bytes is None
    assert build_testsuite_sources(count=1) == default_sources
    assert (build_testsuite_sources(count=1, base_seed=11)
            != default_sources)


def test_config_is_hashable_and_picklable():
    config = ReproConfig(workers=2, store_path="/tmp/s.pkl")
    assert hash(config) == hash(ReproConfig(workers=2, store_path="/tmp/s.pkl"))
    assert pickle.loads(pickle.dumps(config)) == config


def test_env_helpers(monkeypatch):
    assert env_int("REPRO_SCALING_WORKERS", 4) == 4
    monkeypatch.setenv("REPRO_SCALING_WORKERS", "2")
    assert env_int("REPRO_SCALING_WORKERS", 4) == 2
    monkeypatch.setenv("REPRO_MIN_SPEEDUP", "2.5")
    assert env_float("REPRO_MIN_SPEEDUP", 5.0) == 2.5
    monkeypatch.setenv("REPRO_MIN_SPEEDUP", "fast")
    with pytest.raises(ConfigError, match="REPRO_MIN_SPEEDUP"):
        env_float("REPRO_MIN_SPEEDUP", 5.0)
    monkeypatch.setenv("REPRO_FULL", "yes")
    assert env_flag("REPRO_FULL") is True


def test_knob_surface_is_seven_fields():
    """One store backend, no benchmark-size switch and one less-than mode:
    none of them is a knob."""
    from repro.api.cli import build_parser

    assert [field.name for field in dataclasses.fields(ReproConfig)] == [
        "workers", "store_path", "store_max_mb", "verify", "class_limit",
        "synth_seed", "trace"]
    with pytest.raises(SystemExit) as raised:
        build_parser().parse_args(["eval", "--store-backend", "sqlite"])
    assert raised.value.code == 2
    for command in (["eval"], ["check"], ["stats", "f.c"]):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(command + ["--intraprocedural"])
        assert raised.value.code == 2
