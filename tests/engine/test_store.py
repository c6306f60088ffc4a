"""Tests for the persistent analysis store (sqlite file, keys, versioning)."""

import os
import sqlite3

import pytest

from repro.engine.store import (
    STORE_VERSION,
    AnalysisStore,
    text_hash,
    unit_key,
)


PAYLOAD = {"counts": {"no_alias": 3, "may_alias": 7}, "codes": "NNNMMMMMMM"}


@pytest.fixture(params=[".sqlite", ".pkl"], ids=["sqlite", "pickle"])
def store_file(request, tmp_path):
    """``store_file(stem)`` — a fresh store path under ``tmp_path``.

    The ``pickle`` ids use ``.pkl``, the suffix that used to select a
    pickled-dict store; such paths now hold sqlite stores like any other.
    """
    return lambda stem: str(tmp_path / (stem + request.param))


def test_round_trip_and_reopen(store_file):
    path = store_file("store")
    with AnalysisStore(path) as store:
        assert store.get("k1") is None
        store.put("k1", PAYLOAD)
        store.put_many([("k2", {"codes": "M"}), ("k3", {"codes": "N"})])
        assert store.get("k1") == PAYLOAD
        assert len(store) == 3
    # A fresh process (modelled by a fresh object) sees the same entries.
    with AnalysisStore(path) as reopened:
        assert reopened.get("k2") == {"codes": "M"}
        assert sorted(reopened.keys()) == ["k1", "k2", "k3"]


def test_hit_miss_counters(store_file):
    with AnalysisStore(store_file("s")) as store:
        store.put("k", PAYLOAD)
        store.get("k")
        store.get("absent")
        assert (store.hits, store.misses) == (1, 1)


def test_version_mismatch_invalidates(store_file):
    path = store_file("store")
    with AnalysisStore(path, version="v1") as store:
        store.put("k1", PAYLOAD)
    # Reopening with a newer version drops every stale entry and restamps.
    with AnalysisStore(path, version="v2") as upgraded:
        assert upgraded.get("k1") is None
        assert len(upgraded) == 0
        upgraded.put("k1", {"codes": "X"})
    with AnalysisStore(path, version="v2") as reopened:
        assert reopened.get("k1") == {"codes": "X"}


def test_readonly_missing_file_is_empty(store_file):
    path = store_file("missing")
    with AnalysisStore(path, readonly=True) as store:
        assert store.get("anything") is None
        assert len(store) == 0
    assert not os.path.exists(path)


def test_zero_byte_file_is_a_fresh_store(tmp_path):
    # touch(1) or an interrupted first write leaves a zero-byte file; it
    # opens as an empty store, read-only and writable.
    path = str(tmp_path / "empty.pickle")
    with open(path, "wb"):
        pass
    with AnalysisStore(path, readonly=True) as reader:
        assert len(reader) == 0
        assert reader.get("anything") is None
    with AnalysisStore(path) as store:
        assert len(store) == 0
        assert store.get("anything") is None
        store.put("k", PAYLOAD)
    with AnalysisStore(path) as reopened:
        assert reopened.get("k") == PAYLOAD


def test_readonly_rejects_writes_and_version_mismatch_misses(store_file):
    path = store_file("store")
    with AnalysisStore(path, version="v1") as store:
        store.put("k1", PAYLOAD)
    with AnalysisStore(path, readonly=True, version="v1") as reader:
        assert reader.get("k1") == PAYLOAD
        with pytest.raises(RuntimeError):
            reader.put("k2", PAYLOAD)
    # A read-only store of the wrong version answers misses but must not
    # clear entries it cannot own.
    with AnalysisStore(path, readonly=True, version="v2") as reader:
        assert reader.get("k1") is None
    with AnalysisStore(path, readonly=True, version="v1") as reader:
        assert reader.get("k1") == PAYLOAD


def test_default_version_is_store_version(tmp_path):
    store = AnalysisStore(str(tmp_path / "s.sqlite"))
    assert store.version == STORE_VERSION
    store.close()


def _is_sqlite_store(path):
    connection = sqlite3.connect(path)
    try:
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'version'").fetchone()
    finally:
        connection.close()
    return row == (STORE_VERSION,)


def test_backend_selection_by_suffix(tmp_path):
    """Every path holds a sqlite store, ``.pkl`` ones included."""
    for name in ("s.pkl", "s.pickle", "s.sqlite"):
        path = str(tmp_path / name)
        with AnalysisStore(path) as store:
            store.put("k", PAYLOAD)
        assert _is_sqlite_store(path)


def test_backend_selection_by_environment(tmp_path, monkeypatch):
    """A stale ``REPRO_STORE_BACKEND`` from the environment is ignored."""
    monkeypatch.setenv("REPRO_STORE_BACKEND", "pickle")
    path = str(tmp_path / "s.db")
    with AnalysisStore(path) as store:
        store.put("k", PAYLOAD)
    assert _is_sqlite_store(path)
    with AnalysisStore(path, readonly=True) as reader:
        assert reader.get("k") == PAYLOAD


def test_unit_key_sensitivity():
    base = unit_key("aaeval", "p", "int main() {}", ["lt"], 64)
    assert unit_key("aaeval", "p", "int main() { return 0; }", ["lt"], 64) != base
    assert unit_key("aaeval", "p", "int main() {}", ["lt", "basicaa"], 64) != base
    assert unit_key("aaeval", "p", "int main() {}", ["lt"], 1) != base
    assert unit_key("aaeval", "p", "int main() {}", ["lt"], None) != base
    assert unit_key("aaeval", "p", "int main() {}", ["lt"], 64) == base


def test_unit_key_is_pinned():
    """Keys are part of the store format: an ``aaeval-10`` store must stay
    warm for every release that keeps the version string.  The key
    derivation is the one ``aaeval-9`` used."""
    assert STORE_VERSION == "aaeval-10"
    assert unit_key("aaeval", "p", "int main() {}", ["lt"], 64) == (
        "unit-4be21b6604b84b7510a6485d5d7c0ae667d5a9d4d8f724cfef5df35df3ccb3b7")


def test_unit_key_label_separator_unambiguous():
    """Labels are digested NUL-terminated, so no label text can collide
    with a differently-split label list (the old ``"|".join`` could)."""
    assert (unit_key("aaeval", "p", "src", ["a|b"], 64)
            != unit_key("aaeval", "p", "src", ["a", "b"], 64))
    assert (unit_key("aaeval", "p", "src", ["a", "b|c"], 64)
            != unit_key("aaeval", "p", "src", ["a|b", "c"], 64))


def _assert_stale_version_never_serves(path, old_version):
    """Entries written under ``old_version`` never serve under the current one.

    A writable open under the current version clears them wholesale; a
    read-only open (shard workers) answers clean misses without crashing
    or clearing entries it does not own.
    """
    with AnalysisStore(path, version=old_version) as old:
        old.put("stale-module-hash-key", PAYLOAD)
    # Read-only first (the worker path): miss cleanly, leave the file alone.
    with AnalysisStore(path, readonly=True) as reader:
        assert reader.version == STORE_VERSION
        assert reader.get("stale-module-hash-key") is None
    with AnalysisStore(path, version=old_version,
                       readonly=True) as reader:
        assert reader.get("stale-module-hash-key") == PAYLOAD
    # Writable open (the coordinator path): drop and restamp.
    with AnalysisStore(path) as upgraded:
        assert upgraded.get("stale-module-hash-key") is None
        assert len(upgraded) == 0
        upgraded.put("fresh-key", PAYLOAD)
    with AnalysisStore(path) as reopened:
        assert reopened.get("fresh-key") == PAYLOAD


#: each retired store version and why it was retired: ``aaeval-4``
#: fingerprint keying, ``aaeval-5`` the SolverInfo shape, ``aaeval-6``
#: counting each lt query once, ``aaeval-7`` σ-refined classification,
#: ``aaeval-8`` whole units only (function entries, no class limit in the
#: unit key), ``aaeval-9`` the integer-only range solve (persisted range
#: counters).
STALE_VERSIONS = ("aaeval-4", "aaeval-5", "aaeval-6", "aaeval-7", "aaeval-8",
                  "aaeval-9")


@pytest.mark.parametrize("old_version", STALE_VERSIONS)
def test_stale_store_version_never_serves(store_file, old_version):
    assert STORE_VERSION == "aaeval-10"
    _assert_stale_version_never_serves(store_file("store"), old_version)


def test_text_hash_is_stable():
    assert text_hash("abc") == text_hash("abc")
    assert text_hash("abc") != text_hash("abd")


# -- growth management ------------------------------------------------------------

def test_generation_advances_per_writable_open(store_file):
    path = store_file("gen")
    with AnalysisStore(path) as store:
        first = store.generation
        assert first >= 1
    with AnalysisStore(path) as store:
        assert store.generation == first + 1
    with AnalysisStore(path, readonly=True) as store:
        # Read-only opens observe the counter without advancing it.
        assert store.generation == first + 1


def test_size_accounting(store_file):
    with AnalysisStore(store_file("size")) as store:
        assert store.size_bytes() == 0
        store.put("k1", PAYLOAD)
        first = store.size_bytes()
        assert first > 0
        store.put("k2", PAYLOAD)
        assert store.size_bytes() == 2 * first  # same payload, same pickle


def test_evict_sweeps_oldest_generations_first(store_file):
    path = store_file("evict")
    with AnalysisStore(path) as store:
        store.put("old_a", PAYLOAD)
        store.put("old_b", PAYLOAD)
        entry_size = store.size_bytes() // 2
    with AnalysisStore(path) as store:
        store.put("new_a", PAYLOAD)
        # Budget for one entry: both old-generation entries must go, the
        # fresh one must survive.
        evicted = store.evict(max_bytes=entry_size)
        assert evicted == 2
        assert sorted(store.keys()) == ["new_a"]
        assert store.evictions == 2
        # Already under budget: a second sweep is a no-op.
        assert store.evict(max_bytes=entry_size) == 0


def test_evict_is_deterministic_within_a_generation(store_file):
    path = store_file("det")
    with AnalysisStore(path) as store:
        for key in ("c", "a", "b", "d"):
            store.put(key, PAYLOAD)
        entry_size = store.size_bytes() // 4
        store.evict(max_bytes=2 * entry_size)
        # Key order breaks ties inside one generation: a and b are swept.
        assert sorted(store.keys()) == ["c", "d"]


def test_put_many_enforces_budget_automatically(store_file):
    path = store_file("auto")
    with AnalysisStore(path) as store:
        store.put("probe", PAYLOAD)
        entry_size = store.size_bytes()
    with AnalysisStore(path,
                       max_bytes=3 * entry_size) as store:
        for index in range(8):
            store.put("k{}".format(index), PAYLOAD)
        assert store.size_bytes() <= 3 * entry_size
        assert store.evictions > 0
    # The budget does not corrupt survivors.
    with AnalysisStore(path, max_bytes=0) as store:
        for key in store.keys():
            assert store.get(key) == PAYLOAD


def test_evict_without_budget_is_a_noop(store_file):
    with AnalysisStore(store_file("nb")) as store:
        store.put("k", PAYLOAD)
        assert store.max_bytes is None
        assert store.evict() == 0
        assert store.keys() == ["k"]


def test_readonly_store_refuses_eviction(store_file):
    path = store_file("ro")
    with AnalysisStore(path) as store:
        store.put("k", PAYLOAD)
    with AnalysisStore(path, readonly=True) as store:
        with pytest.raises(RuntimeError):
            store.evict(max_bytes=1)


def test_default_store_max_bytes_parsing(monkeypatch):
    from repro.api.config import ConfigError, ReproConfig

    monkeypatch.delenv("REPRO_STORE_MAX_MB", raising=False)
    assert ReproConfig().store_max_bytes is None
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "2")
    assert ReproConfig().store_max_bytes == 2 * 1024 * 1024
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "0.5")
    assert ReproConfig().store_max_bytes == 512 * 1024
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "0")
    assert ReproConfig().store_max_bytes is None
    # Invalid values fail loudly at the config boundary (no silent fallback).
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "not-a-number")
    with pytest.raises(ConfigError, match="REPRO_STORE_MAX_MB"):
        ReproConfig()
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "-1")
    with pytest.raises(ConfigError, match="REPRO_STORE_MAX_MB"):
        ReproConfig()


# ---------------------------------------------------------------------------
# LRU approximation: lookups touch entries (generation promotion)
# ---------------------------------------------------------------------------

def test_touch_on_hit_approximates_lru(store_file):
    """A hit promotes the entry, so eviction reclaims cold entries first."""
    path = store_file("lru")
    with AnalysisStore(path) as store:  # generation 1
        store.put("cold", PAYLOAD)
        store.put("hot", PAYLOAD)
    with AnalysisStore(path) as store:  # generation 2
        assert store.get("hot") == PAYLOAD  # touch: hot -> generation 2
        store.put("fresh", PAYLOAD)
        total = store.size_bytes()
        entry = total // 3
        # Budget for two entries: the only generation-1 entry left is the
        # untouched one, so FIFO would also drop "hot"; LRU keeps it.
        evicted = store.evict(max_bytes=total - entry)
        assert evicted == 1
        assert "cold" not in store
        assert "hot" in store
        assert "fresh" in store


def test_touch_without_eviction_is_invisible(store_file):
    """Touching must not change contents, counters or sizes."""
    path = store_file("t")
    with AnalysisStore(path) as store:
        store.put("k", PAYLOAD)
        size = store.size_bytes()
    with AnalysisStore(path) as store:
        assert store.get("k") == PAYLOAD
        assert store.size_bytes() == size
    with AnalysisStore(path) as store:
        assert store.get("k") == PAYLOAD


def test_readonly_reader_records_touched_keys(store_file):
    """The reader half of the writable-reader protocol: hits are logged."""
    path = store_file("ro-touch")
    with AnalysisStore(path) as store:
        store.put_many([("a", PAYLOAD), ("b", PAYLOAD)])
    reader = AnalysisStore(path, readonly=True)
    try:
        assert reader.get("a") == PAYLOAD
        assert reader.get("missing") is None
        assert reader.get("b") == PAYLOAD
        assert reader.touched_keys == ["a", "b"]
        with pytest.raises(RuntimeError):
            reader.touch_many(["a"])
    finally:
        reader.close()


def test_coordinator_applies_reader_touches(store_file):
    """touch_many (the writer half) promotes the shipped keys."""
    path = store_file("apply")
    with AnalysisStore(path) as store:  # generation 1
        store.put_many([("a", PAYLOAD), ("b", PAYLOAD), ("c", PAYLOAD)])
    with AnalysisStore(path) as store:  # generation 2
        store.touch_many(["b"])  # as if a worker reported a hit on "b"
        store.touch_many(["nonexistent"])  # missing keys are no-ops
        total = store.size_bytes()
        entry = total // 3
        evicted = store.evict(max_bytes=entry)  # keep ~one entry
        assert evicted == 2
        assert store.keys() == ["b"]


def test_touches_flush_on_put_many_without_close(store_file):
    """Buffered hits survive a write batch even if close() never runs."""
    path = store_file("no-close")
    with AnalysisStore(path) as store:  # generation 1
        store.put("hot", PAYLOAD)
    store = AnalysisStore(path)  # generation 2, never closed
    assert store.get("hot") == PAYLOAD  # buffered touch
    store.put("other", PAYLOAD)  # flushes the touch with the write batch
    # A second connection sees the promotion already.
    with AnalysisStore(path, max_bytes=0, readonly=True) as reader:
        generations = {key: generation
                       for key, generation, _size in
                       reader._backend.entry_info()}
    assert generations["hot"] == 2
