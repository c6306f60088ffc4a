"""Tests for the persistent analysis store (backends, keys, versioning)."""

import os

import pytest

from repro.engine.store import (
    STORE_VERSION,
    AnalysisStore,
    default_store_max_bytes,
    function_key,
    text_hash,
    unit_key,
)


PAYLOAD = {"counts": {"no_alias": 3, "may_alias": 7}, "codes": "NNNMMMMMMM"}


@pytest.fixture(params=["sqlite", "pickle"])
def backend(request):
    return request.param


def test_round_trip_and_reopen(tmp_path, backend):
    path = str(tmp_path / "store.bin")
    with AnalysisStore(path, backend=backend) as store:
        assert store.get("k1") is None
        store.put("k1", PAYLOAD)
        store.put_many([("k2", {"codes": "M"}), ("k3", {"codes": "N"})])
        assert store.get("k1") == PAYLOAD
        assert len(store) == 3
    # A fresh process (modelled by a fresh object) sees the same entries.
    with AnalysisStore(path, backend=backend) as reopened:
        assert reopened.get("k2") == {"codes": "M"}
        assert sorted(reopened.keys()) == ["k1", "k2", "k3"]


def test_hit_miss_counters(tmp_path, backend):
    with AnalysisStore(str(tmp_path / "s.bin"), backend=backend) as store:
        store.put("k", PAYLOAD)
        store.get("k")
        store.get("absent")
        assert (store.hits, store.misses) == (1, 1)


def test_version_mismatch_invalidates(tmp_path, backend):
    path = str(tmp_path / "store.bin")
    with AnalysisStore(path, version="v1", backend=backend) as store:
        store.put("k1", PAYLOAD)
    # Reopening with a newer version drops every stale entry and restamps.
    with AnalysisStore(path, version="v2", backend=backend) as upgraded:
        assert upgraded.get("k1") is None
        assert len(upgraded) == 0
        upgraded.put("k1", {"codes": "X"})
    with AnalysisStore(path, version="v2", backend=backend) as reopened:
        assert reopened.get("k1") == {"codes": "X"}


def test_readonly_missing_file_is_empty(tmp_path, backend):
    path = str(tmp_path / "missing.bin")
    with AnalysisStore(path, backend=backend, readonly=True) as store:
        assert store.get("anything") is None
        assert len(store) == 0
    assert not os.path.exists(path)


def test_zero_byte_file_is_a_fresh_store(tmp_path):
    # touch(1) or an interrupted first write leaves a zero-byte file; the
    # pickle backend must treat it as empty instead of raising EOFError.
    path = str(tmp_path / "empty.pickle")
    with open(path, "wb"):
        pass
    with AnalysisStore(path, backend="pickle") as store:
        assert len(store) == 0
        assert store.get("anything") is None
        store.put("k", PAYLOAD)
    with AnalysisStore(path, backend="pickle") as reopened:
        assert reopened.get("k") == PAYLOAD


def test_readonly_rejects_writes_and_version_mismatch_misses(tmp_path, backend):
    path = str(tmp_path / "store.bin")
    with AnalysisStore(path, version="v1", backend=backend) as store:
        store.put("k1", PAYLOAD)
    with AnalysisStore(path, backend=backend, readonly=True, version="v1") as reader:
        assert reader.get("k1") == PAYLOAD
        with pytest.raises(RuntimeError):
            reader.put("k2", PAYLOAD)
    # A read-only store of the wrong version answers misses but must not
    # clear entries it cannot own.
    with AnalysisStore(path, backend=backend, readonly=True, version="v2") as reader:
        assert reader.get("k1") is None
    with AnalysisStore(path, backend=backend, readonly=True, version="v1") as reader:
        assert reader.get("k1") == PAYLOAD


def test_default_version_is_store_version(tmp_path):
    store = AnalysisStore(str(tmp_path / "s.sqlite"))
    assert store.version == STORE_VERSION
    store.close()


def test_backend_selection_by_suffix(tmp_path):
    pickle_store = AnalysisStore(str(tmp_path / "s.pkl"))
    sqlite_store = AnalysisStore(str(tmp_path / "s.sqlite"))
    assert pickle_store.backend_name == "pickle"
    assert sqlite_store.backend_name == "sqlite"
    pickle_store.close()
    sqlite_store.close()


def test_backend_selection_by_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_BACKEND", "pickle")
    store = AnalysisStore(str(tmp_path / "s.db"))
    assert store.backend_name == "pickle"
    store.close()


def test_function_key_sensitivity():
    base = function_key("lt", "define i32 @f()", "mhash")
    assert function_key("basicaa", "define i32 @f()", "mhash") != base
    assert function_key("lt", "define i32 @g()", "mhash") != base
    assert function_key("lt", "define i32 @f()", "other") != base
    assert function_key("lt", "define i32 @f()", "mhash") == base


def test_unit_key_sensitivity():
    base = unit_key("aaeval", "p", "int main() {}", ["lt"], True)
    assert unit_key("aaeval", "p", "int main() {}", ["lt"], False) != base
    assert unit_key("aaeval", "p", "int main() { return 0; }", ["lt"], True) != base
    assert unit_key("aaeval", "p", "int main() {}", ["lt", "basicaa"], True) != base
    assert unit_key("aaeval", "p", "int main() {}", ["lt"], True) == base


def test_unit_key_label_separator_unambiguous():
    """Labels are digested NUL-terminated, so no label text can collide
    with a differently-split label list (the old ``"|".join`` could)."""
    assert (unit_key("aaeval", "p", "src", ["a|b"], True)
            != unit_key("aaeval", "p", "src", ["a", "b"], True))
    assert (unit_key("aaeval", "p", "src", ["a", "b|c"], True)
            != unit_key("aaeval", "p", "src", ["a|b", "c"], True))


def _assert_stale_version_never_serves(path, backend, old_version):
    """Entries written under ``old_version`` never serve under the current one.

    A writable open under the current version clears them wholesale; a
    read-only open (shard workers) answers clean misses without crashing
    or clearing entries it does not own.
    """
    with AnalysisStore(path, version=old_version, backend=backend) as old:
        old.put("stale-module-hash-key", PAYLOAD)
    # Read-only first (the worker path): miss cleanly, leave the file alone.
    with AnalysisStore(path, backend=backend, readonly=True) as reader:
        assert reader.version == STORE_VERSION
        assert reader.get("stale-module-hash-key") is None
    with AnalysisStore(path, version=old_version, backend=backend,
                       readonly=True) as reader:
        assert reader.get("stale-module-hash-key") == PAYLOAD
    # Writable open (the coordinator path): drop and restamp.
    with AnalysisStore(path, backend=backend) as upgraded:
        assert upgraded.get("stale-module-hash-key") is None
        assert len(upgraded) == 0
        upgraded.put("fingerprint-key", PAYLOAD)
    with AnalysisStore(path, backend=backend) as reopened:
        assert reopened.get("fingerprint-key") == PAYLOAD


def test_store_version_aaeval4_to_aaeval5_migration(tmp_path, backend):
    """The fingerprint-keying bump: stale ``aaeval-4`` entries never serve,
    also under the versions that came after ``aaeval-5``."""
    assert STORE_VERSION not in ("aaeval-4", "aaeval-5")
    _assert_stale_version_never_serves(str(tmp_path / "store.bin"), backend,
                                       "aaeval-4")


def test_store_version_aaeval5_to_aaeval6_migration(tmp_path, backend):
    """The SolverInfo-shape bump: stale ``aaeval-5`` entries never serve."""
    assert STORE_VERSION == "aaeval-6"
    _assert_stale_version_never_serves(str(tmp_path / "store.bin"), backend,
                                       "aaeval-5")


def test_text_hash_is_stable():
    assert text_hash("abc") == text_hash("abc")
    assert text_hash("abc") != text_hash("abd")


# -- growth management ------------------------------------------------------------

def test_generation_advances_per_writable_open(tmp_path, backend):
    path = str(tmp_path / "gen.bin")
    with AnalysisStore(path, backend=backend) as store:
        first = store.generation
        assert first >= 1
    with AnalysisStore(path, backend=backend) as store:
        assert store.generation == first + 1
    with AnalysisStore(path, backend=backend, readonly=True) as store:
        # Read-only opens observe the counter without advancing it.
        assert store.generation == first + 1


def test_size_accounting(tmp_path, backend):
    with AnalysisStore(str(tmp_path / "size.bin"), backend=backend) as store:
        assert store.size_bytes() == 0
        store.put("k1", PAYLOAD)
        first = store.size_bytes()
        assert first > 0
        store.put("k2", PAYLOAD)
        assert store.size_bytes() == 2 * first  # same payload, same pickle


def test_evict_sweeps_oldest_generations_first(tmp_path, backend):
    path = str(tmp_path / "evict.bin")
    with AnalysisStore(path, backend=backend) as store:
        store.put("old_a", PAYLOAD)
        store.put("old_b", PAYLOAD)
        entry_size = store.size_bytes() // 2
    with AnalysisStore(path, backend=backend) as store:
        store.put("new_a", PAYLOAD)
        # Budget for one entry: both old-generation entries must go, the
        # fresh one must survive.
        evicted = store.evict(max_bytes=entry_size)
        assert evicted == 2
        assert sorted(store.keys()) == ["new_a"]
        assert store.evictions == 2
        # Already under budget: a second sweep is a no-op.
        assert store.evict(max_bytes=entry_size) == 0


def test_evict_is_deterministic_within_a_generation(tmp_path, backend):
    path = str(tmp_path / "det.bin")
    with AnalysisStore(path, backend=backend) as store:
        for key in ("c", "a", "b", "d"):
            store.put(key, PAYLOAD)
        entry_size = store.size_bytes() // 4
        store.evict(max_bytes=2 * entry_size)
        # Key order breaks ties inside one generation: a and b are swept.
        assert sorted(store.keys()) == ["c", "d"]


def test_put_many_enforces_budget_automatically(tmp_path, backend):
    path = str(tmp_path / "auto.bin")
    with AnalysisStore(path, backend=backend) as store:
        store.put("probe", PAYLOAD)
        entry_size = store.size_bytes()
    with AnalysisStore(path, backend=backend,
                       max_bytes=3 * entry_size) as store:
        for index in range(8):
            store.put("k{}".format(index), PAYLOAD)
        assert store.size_bytes() <= 3 * entry_size
        assert store.evictions > 0
    # The budget does not corrupt survivors.
    with AnalysisStore(path, backend=backend, max_bytes=0) as store:
        for key in store.keys():
            assert store.get(key) == PAYLOAD


def test_evict_without_budget_is_a_noop(tmp_path, backend):
    with AnalysisStore(str(tmp_path / "nb.bin"), backend=backend) as store:
        store.put("k", PAYLOAD)
        assert store.max_bytes is None
        assert store.evict() == 0
        assert store.keys() == ["k"]


def test_readonly_store_refuses_eviction(tmp_path, backend):
    path = str(tmp_path / "ro.bin")
    with AnalysisStore(path, backend=backend) as store:
        store.put("k", PAYLOAD)
    with AnalysisStore(path, backend=backend, readonly=True) as store:
        with pytest.raises(RuntimeError):
            store.evict(max_bytes=1)


def test_default_store_max_bytes_parsing(monkeypatch):
    from repro.api.config import ConfigError

    monkeypatch.delenv("REPRO_STORE_MAX_MB", raising=False)
    assert default_store_max_bytes() is None
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "2")
    assert default_store_max_bytes() == 2 * 1024 * 1024
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "0.5")
    assert default_store_max_bytes() == 512 * 1024
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "0")
    assert default_store_max_bytes() is None
    # Invalid values fail loudly at the config boundary (no silent fallback).
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "not-a-number")
    with pytest.raises(ConfigError, match="REPRO_STORE_MAX_MB"):
        default_store_max_bytes()
    monkeypatch.setenv("REPRO_STORE_MAX_MB", "-1")
    with pytest.raises(ConfigError, match="REPRO_STORE_MAX_MB"):
        default_store_max_bytes()


# ---------------------------------------------------------------------------
# LRU approximation: lookups touch entries (generation promotion)
# ---------------------------------------------------------------------------

def test_touch_on_hit_approximates_lru(tmp_path, backend):
    """A hit promotes the entry, so eviction reclaims cold entries first."""
    path = str(tmp_path / "lru.bin")
    with AnalysisStore(path, backend=backend) as store:  # generation 1
        store.put("cold", PAYLOAD)
        store.put("hot", PAYLOAD)
    with AnalysisStore(path, backend=backend) as store:  # generation 2
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


def test_touch_without_eviction_is_invisible(tmp_path, backend):
    """Touching must not change contents, counters or sizes."""
    path = str(tmp_path / "t.bin")
    with AnalysisStore(path, backend=backend) as store:
        store.put("k", PAYLOAD)
        size = store.size_bytes()
    with AnalysisStore(path, backend=backend) as store:
        assert store.get("k") == PAYLOAD
        assert store.size_bytes() == size
    with AnalysisStore(path, backend=backend) as store:
        assert store.get("k") == PAYLOAD


def test_readonly_reader_records_touched_keys(tmp_path, backend):
    """The reader half of the writable-reader protocol: hits are logged."""
    path = str(tmp_path / "ro-touch.bin")
    with AnalysisStore(path, backend=backend) as store:
        store.put_many([("a", PAYLOAD), ("b", PAYLOAD)])
    reader = AnalysisStore(path, backend=backend, readonly=True)
    try:
        assert reader.get("a") == PAYLOAD
        assert reader.get("missing") is None
        assert reader.get("b") == PAYLOAD
        assert reader.touched_keys == ["a", "b"]
        with pytest.raises(RuntimeError):
            reader.touch_many(["a"])
    finally:
        reader.close()


def test_coordinator_applies_reader_touches(tmp_path, backend):
    """touch_many (the writer half) promotes the shipped keys."""
    path = str(tmp_path / "apply.bin")
    with AnalysisStore(path, backend=backend) as store:  # generation 1
        store.put_many([("a", PAYLOAD), ("b", PAYLOAD), ("c", PAYLOAD)])
    with AnalysisStore(path, backend=backend) as store:  # generation 2
        store.touch_many(["b"])  # as if a worker reported a hit on "b"
        store.touch_many(["nonexistent"])  # missing keys are no-ops
        total = store.size_bytes()
        entry = total // 3
        evicted = store.evict(max_bytes=entry)  # keep ~one entry
        assert evicted == 2
        assert store.keys() == ["b"]


def test_touches_flush_on_put_many_without_close(tmp_path, backend):
    """Buffered hits survive a write batch even if close() never runs."""
    path = str(tmp_path / "no-close.bin")
    with AnalysisStore(path, backend=backend) as store:  # generation 1
        store.put("hot", PAYLOAD)
    store = AnalysisStore(path, backend=backend)  # generation 2, never closed
    assert store.get("hot") == PAYLOAD  # buffered touch
    store.put("other", PAYLOAD)  # flushes the touch with the write batch
    if backend == "sqlite":
        # A second connection sees the promotion already.
        with AnalysisStore(path, backend=backend, max_bytes=0,
                           readonly=True) as reader:
            generations = {key: generation
                           for key, generation, _size in
                           reader._backend.entry_info()}
        assert generations["hot"] == 2
    else:
        assert dict((k, g) for k, g, _s in store._backend.entry_info())["hot"] == 2
