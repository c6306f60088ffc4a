"""The persistent analysis store of the execution engine.

``aa-eval`` results are a pure function of the compiled IR: the frontend,
mem2reg and the e-SSA conversion are deterministic, so the same source text
always produces bit-identical IR and bit-identical verdicts.  The
:class:`AnalysisStore` exploits that to persist per-function evaluation
payloads *across processes and across runs*: entries are keyed by a content
hash of the function's (pre-conversion) IR text — plus a call-graph-aware
fingerprint of exactly the module slice the analysis can observe (see
:mod:`repro.ir.callgraph`), so editing one function leaves every unrelated
function's entries warm — and a warm store lets repeated benchmark runs
skip the analysis pipeline entirely.

Two backends provide the same mapping interface:

* **sqlite** (the default) — one file, safe concurrent readers, single
  writer (the coordinator); schema::

      meta(key TEXT PRIMARY KEY, value TEXT)        -- 'version' row
      entries(key TEXT PRIMARY KEY, payload BLOB)   -- pickled payload

* **pickle** — a plain pickled dict, for environments without ``sqlite3``
  (or when the store path ends in ``.pkl`` /
  ``REPRO_STORE_BACKEND=pickle``); written atomically via ``os.replace``.

Invalidation is versioned: the store records a version string
(:data:`STORE_VERSION`, bumped whenever analysis semantics change) and
clears itself on mismatch, so stale results can never leak into a run of
newer code.  Workers open the store read-only; freshly computed payloads
travel back to the coordinator inside the shard result and are written by
the coordinator alone, which keeps the writer count at one.

Growth is managed: every entry records its pickled size and the store
*generation* it was written in (the generation counter advances on each
writable open), so long-lived stores can be swept with
:meth:`AnalysisStore.evict` — oldest generations go first, deterministically
— down to a byte budget.  Set ``REPRO_STORE_MAX_MB`` to have every write
batch enforce the budget automatically.

Eviction approximates **LRU**, not FIFO: a lookup that hits *touches* the
entry, promoting it to the store's current generation, so hot entries
survive sweeps that reclaim cold ones.  A writable store touches directly
(buffered, flushed before any sweep or at close); a read-only store — the
worker side of the engine's single-writer protocol — records the hit keys
in :attr:`AnalysisStore.touched_keys`, which travel back to the
coordinator inside the shard payload and are applied there with
:meth:`AnalysisStore.touch_many`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.api.config import resolved_store_backend, resolved_store_max_bytes

try:  # pragma: no cover - sqlite3 is in the stdlib virtually everywhere
    import sqlite3
except ImportError:  # pragma: no cover
    sqlite3 = None

#: bump when the analysis pipeline's semantics or the key derivation change
#: in a way that makes previously persisted entries stale or unreachable.
#: v2: function-level keys encode the interprocedural mode.
#: v3: entries carry generation and size columns (growth management).
#: v4: persisted statistics payloads carry solver (SolverInfo) counters.
#: v5: function-level keys fold a call-graph-aware *fingerprint* (dependency
#:     or reachable-region, see repro.ir.callgraph) instead of the whole
#:     module's text hash, and unit keys NUL-separate each label.  Migration:
#:     ``aaeval-4`` stores are cleared on the first writable open (their
#:     entries are unreachable under the new derivation anyway); read-only
#:     opens of an old store miss cleanly on every lookup, no crash.
#: v6: persisted SolverInfo counters drop the per-order pop tallies and the
#:     interval-kernel fields (``pops`` is a plain count).  ``aaeval-5``
#:     stores are cleared on the first writable open, as above.
#: v7: the lt disambiguator's persisted ``statistics.queries`` counts each
#:     pair once (every analysis answers a pair once per function, chains
#:     merge the member streams).  ``aaeval-6`` stores are cleared as above.
STORE_VERSION = "aaeval-7"


def default_store_max_bytes() -> Optional[int]:
    """The configured byte budget (``None`` = unbounded).

    Resolution — active :class:`~repro.api.config.ReproConfig` first, the
    ``REPRO_STORE_MAX_MB`` environment variable second — lives in
    :mod:`repro.api.config`; invalid values raise
    :class:`~repro.api.config.ConfigError` there.
    """
    return resolved_store_max_bytes()


def function_key(label: str, function_text: str, fingerprint: str = "") -> str:
    """Content-address one ``(analysis label, function)`` evaluation.

    ``fingerprint`` ties the entry to exactly the slice of the module the
    analysis can observe (see :mod:`repro.ir.callgraph`): the reachable-region
    fingerprint for interprocedural less-than specs (facts flow caller →
    callee, so only the function and its transitive callers matter), the
    dependency fingerprint for intraprocedural specs, or the whole module's
    :func:`text_hash` for module-global analyses (Andersen/Steensgaard unify
    state across every function).  Editing a function now misses only the
    entries whose fingerprint actually covers it.
    """
    digest = hashlib.sha256()
    digest.update(label.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(function_text.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(fingerprint.encode("utf-8"))
    return digest.hexdigest()


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def unit_key(kind: str, name: str, source: str, labels: Sequence[str],
             interprocedural: bool) -> str:
    """Content-address a whole work unit's payload by its *source text*.

    The frontend is deterministic, so the source uniquely determines the IR
    and hence every verdict.  Unit-level entries sit on top of the
    function-level ones as a memo of the merged payload: a fully warm unit
    is answered before compilation even starts, which is what lets repeated
    benchmark runs skip the analysis pipeline entirely.  Function-level
    entries (keyed by IR text via :func:`function_key`) remain the ground
    truth and are what partial warm runs draw from.
    """
    digest = hashlib.sha256()
    # Each label is digested separately (NUL-terminated, like function_key)
    # rather than pre-joined with a printable separator: a joined string
    # cannot distinguish ["a|b"] from ["a", "b"] once a label contains the
    # separator character.
    parts: List[str] = [kind, name, source]
    parts.extend(labels)
    parts.append("ip" if interprocedural else "fn")
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return "unit-" + digest.hexdigest()


class _SqliteBackend:
    """One sqlite file; readers may be concurrent, the writer is single."""

    name = "sqlite"

    def __init__(self, path: str, readonly: bool = False) -> None:
        self.path = path
        self.readonly = readonly
        if readonly:
            # Missing file in read-only mode: behave as an empty store
            # instead of creating one (workers race benchmark start-up).
            if not os.path.exists(path):
                self._connection = None
                return
            uri = "file:{}?mode=ro".format(path.replace("?", "%3f").replace("#", "%23"))
            self._connection = sqlite3.connect(uri, uri=True)
            return
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._connection = sqlite3.connect(path)
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)")
        # Pre-v3 stores lack the generation/size columns; the version bump
        # would clear them anyway, so the old table is simply dropped.
        columns = [row[1] for row in
                   self._connection.execute("PRAGMA table_info(entries)")]
        if columns and "generation" not in columns:
            self._connection.execute("DROP TABLE entries")
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            "key TEXT PRIMARY KEY, payload BLOB, "
            "generation INTEGER NOT NULL DEFAULT 0, "
            "size INTEGER NOT NULL DEFAULT 0)")
        self._connection.commit()

    def get_meta(self, key: str) -> Optional[str]:
        if self._connection is None:
            return None
        try:
            row = self._connection.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        except sqlite3.OperationalError:  # read-only store without schema
            return None
        return row[0] if row else None

    def set_meta(self, key: str, value: str) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value))
        self._connection.commit()

    def get(self, key: str) -> Optional[bytes]:
        if self._connection is None:
            return None
        try:
            row = self._connection.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)).fetchone()
        except sqlite3.OperationalError:
            return None
        return bytes(row[0]) if row else None

    def put_many(self, items: Iterable[Tuple[str, bytes, int]]) -> None:
        self._connection.executemany(
            "INSERT OR REPLACE INTO entries (key, payload, generation, size) "
            "VALUES (?, ?, ?, ?)",
            [(key, blob, generation, len(blob))
             for key, blob, generation in items])
        self._connection.commit()

    def keys(self) -> List[str]:
        if self._connection is None:
            return []
        try:
            return [row[0] for row in
                    self._connection.execute("SELECT key FROM entries")]
        except sqlite3.OperationalError:
            return []

    def size_bytes(self) -> int:
        if self._connection is None:
            return 0
        try:
            row = self._connection.execute(
                "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()
        except sqlite3.OperationalError:
            return 0
        return int(row[0])

    def entry_info(self) -> List[Tuple[str, int, int]]:
        """``(key, generation, size)`` triples, oldest generation first."""
        if self._connection is None:
            return []
        try:
            return [(row[0], int(row[1]), int(row[2])) for row in
                    self._connection.execute(
                        "SELECT key, generation, size FROM entries "
                        "ORDER BY generation, key")]
        except sqlite3.OperationalError:
            return []

    def delete_many(self, keys: Sequence[str]) -> None:
        self._connection.executemany(
            "DELETE FROM entries WHERE key = ?", [(key,) for key in keys])
        self._connection.commit()

    def touch_many(self, keys: Sequence[str], generation: int) -> None:
        """Promote ``keys`` to ``generation`` (missing keys are no-ops)."""
        self._connection.executemany(
            "UPDATE entries SET generation = ? WHERE key = ?",
            [(generation, key) for key in keys])
        self._connection.commit()

    def clear(self) -> None:
        self._connection.execute("DELETE FROM entries")
        self._connection.commit()

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class _PickleBackend:
    """A pickled ``{meta: ..., entries: ...}`` dict, replaced atomically.

    Entry values are ``(blob, generation)`` pairs; pre-v3 files holding bare
    blobs are coerced to generation 0 on load (the version bump clears them
    anyway).
    """

    name = "pickle"

    def __init__(self, path: str, readonly: bool = False) -> None:
        self.path = path
        self.readonly = readonly
        self._dirty = False
        self._meta: Dict[str, str] = {}
        self._entries: Dict[str, Tuple[bytes, int]] = {}
        # A zero-byte file (touch(1), an interrupted first write) is a fresh
        # store, not a corrupt one — loading it would raise EOFError.
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path, "rb") as handle:
                data = pickle.load(handle)
            self._meta = dict(data.get("meta", {}))
            self._entries = {
                key: value if isinstance(value, tuple) else (value, 0)
                for key, value in dict(data.get("entries", {})).items()}
        elif not readonly:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)

    def _flush(self) -> None:
        self._dirty = False
        tmp_path = "{}.tmp.{}".format(self.path, os.getpid())
        with open(tmp_path, "wb") as handle:
            pickle.dump({"meta": self._meta, "entries": self._entries}, handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, self.path)

    def get_meta(self, key: str) -> Optional[str]:
        return self._meta.get(key)

    def set_meta(self, key: str, value: str) -> None:
        self._meta[key] = value
        self._flush()

    def get(self, key: str) -> Optional[bytes]:
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def put_many(self, items: Iterable[Tuple[str, bytes, int]]) -> None:
        # Serialising the whole dict per batch would make the streaming
        # driver's per-unit write-back O(units x store size); entry writes
        # are therefore deferred and flushed once on close.
        self._entries.update(
            (key, (blob, generation)) for key, blob, generation in items)
        self._dirty = True

    def keys(self) -> List[str]:
        return list(self._entries)

    def size_bytes(self) -> int:
        return sum(len(blob) for blob, _generation in self._entries.values())

    def entry_info(self) -> List[Tuple[str, int, int]]:
        """``(key, generation, size)`` triples, oldest generation first."""
        return sorted(
            ((key, generation, len(blob))
             for key, (blob, generation) in self._entries.items()),
            key=lambda item: (item[1], item[0]))

    def delete_many(self, keys: Sequence[str]) -> None:
        for key in keys:
            self._entries.pop(key, None)
        self._dirty = True

    def touch_many(self, keys: Sequence[str], generation: int) -> None:
        """Promote ``keys`` to ``generation`` (missing keys are no-ops)."""
        for key in keys:
            entry = self._entries.get(key)
            if entry is not None and entry[1] != generation:
                self._entries[key] = (entry[0], generation)
                self._dirty = True

    def clear(self) -> None:
        self._entries.clear()
        self._flush()

    def close(self) -> None:
        if self._dirty and not self.readonly:
            self._flush()


def _pick_backend(path: str) -> str:
    explicit = resolved_store_backend()  # active config / REPRO_STORE_BACKEND
    if explicit is not None:
        return explicit
    if path.endswith(".pkl") or path.endswith(".pickle"):
        return "pickle"
    return "sqlite" if sqlite3 is not None else "pickle"


class AnalysisStore:
    """Persistent, content-addressed map ``key -> evaluation payload``.

    ``version`` guards against stale results: on open, a writable store
    whose recorded version differs is cleared and restamped; a read-only
    store with a mismatched version answers every lookup with a miss.

    ``max_bytes`` bounds the store's payload footprint: whenever a write
    batch pushes the total past the budget, the oldest *generations* of
    entries (a generation = one writable open) are swept first, in
    deterministic key order within a generation.  ``None`` defers to the
    ``REPRO_STORE_MAX_MB`` environment switch; ``0`` disables the budget.
    """

    def __init__(self, path: str, version: str = STORE_VERSION,
                 backend: Optional[str] = None, readonly: bool = False,
                 max_bytes: Optional[int] = None) -> None:
        self.path = path
        self.version = version
        self.readonly = readonly
        if max_bytes is None:
            self.max_bytes = default_store_max_bytes()
        else:
            self.max_bytes = max_bytes if max_bytes > 0 else None
        backend_name = backend or _pick_backend(path)
        if backend_name == "pickle" or sqlite3 is None:
            self._backend = _PickleBackend(path, readonly=readonly)
        else:
            self._backend = _SqliteBackend(path, readonly=readonly)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: hit keys recorded by a *read-only* store (the engine ships them
        #: back to the coordinator, which applies :meth:`touch_many`).
        self.touched_keys: List[str] = []
        # Writable stores buffer their own touches and flush them before
        # anything reads generations (eviction) or the store closes.
        self._pending_touches: Set[str] = set()
        stored = self._backend.get_meta("version")
        self._version_ok = stored == version
        if not self._version_ok and not readonly:
            if stored is not None:
                self._backend.clear()
            self._backend.set_meta("version", version)
            self._version_ok = True
        self.generation = int(self._backend.get_meta("generation") or 0)
        if not readonly:
            self.generation += 1
            self._backend.set_meta("generation", str(self.generation))

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the store (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def get(self, key: str) -> Optional[object]:
        """The payload stored under ``key``, or ``None`` on a miss.

        A hit *touches* the entry (LRU approximation): writable stores
        promote it to the current generation, read-only stores record the
        key in :attr:`touched_keys` for the coordinator to apply.
        """
        if not self._version_ok:
            self.misses += 1
            return None
        blob = self._backend.get(key)
        if blob is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.readonly:
            self.touched_keys.append(key)
        else:
            self._pending_touches.add(key)
        return pickle.loads(blob)

    def _flush_touches(self) -> None:
        if self._pending_touches:
            self._backend.touch_many(sorted(self._pending_touches),
                                     self.generation)
            self._pending_touches.clear()

    def touch_many(self, keys: Sequence[str]) -> None:
        """Promote ``keys`` to the current generation (the LRU "use" mark).

        Missing keys are ignored.  This is the writable half of the
        reader-touch protocol: workers read the store read-only, accumulate
        hit keys, and the coordinator — the single writer — applies them.
        """
        if self.readonly:
            raise RuntimeError("analysis store opened read-only")
        if keys:
            self._backend.touch_many(list(keys), self.generation)

    def put(self, key: str, payload: object) -> None:
        self.put_many([(key, payload)])

    def put_many(self, items: Iterable[Tuple[str, object]]) -> None:
        if self.readonly:
            raise RuntimeError("analysis store opened read-only")
        # Piggyback buffered touches on every write batch so recorded hits
        # survive even when the caller never reaches close().
        self._flush_touches()
        encoded = [(key, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                    self.generation)
                   for key, payload in items]
        if encoded:
            self._backend.put_many(encoded)
            if self.max_bytes is not None:
                self.evict(self.max_bytes)

    def size_bytes(self) -> int:
        """Total pickled payload bytes currently stored."""
        return self._backend.size_bytes()

    def evict(self, max_bytes: Optional[int] = None) -> int:
        """Sweep oldest-generation entries until the payload footprint fits.

        Entries written in older store generations go first; within a
        generation the sweep is deterministic (key order).  Returns the
        number of entries evicted.  With no explicit ``max_bytes`` the
        store's configured budget applies (no budget — no eviction).
        """
        if self.readonly:
            raise RuntimeError("analysis store opened read-only")
        if max_bytes is None:
            budget = self.max_bytes
        else:
            # Same contract as the constructor: 0 means "no budget".
            budget = max_bytes if max_bytes > 0 else None
        if budget is None:
            return 0
        self._flush_touches()  # generations must be current before the sweep
        total = self._backend.size_bytes()
        if total <= budget:
            return 0
        victims: List[str] = []
        for key, _generation, size in self._backend.entry_info():
            if total <= budget:
                break
            victims.append(key)
            total -= size
        if victims:
            self._backend.delete_many(victims)
            self.evictions += len(victims)
        return len(victims)

    def keys(self) -> List[str]:
        return self._backend.keys() if self._version_ok else []

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return self._version_ok and self._backend.get(key) is not None

    def clear(self) -> None:
        if self.readonly:
            raise RuntimeError("analysis store opened read-only")
        self._backend.clear()

    def info(self) -> Dict[str, object]:
        """A summary of the store's state (the CLI's ``store info`` view)."""
        if not self.readonly:
            self._flush_touches()
        generations: Dict[int, int] = {}
        for _key, generation, _size in self._backend.entry_info():
            generations[generation] = generations.get(generation, 0) + 1
        return {
            "path": self.path,
            "backend": self.backend_name,
            "version": self._backend.get_meta("version"),
            "version_ok": self._version_ok,
            "generation": self.generation,
            "entries": len(self._backend.keys()),
            "size_bytes": self._backend.size_bytes(),
            "max_bytes": self.max_bytes,
            "entries_per_generation": generations,
        }

    def close(self) -> None:
        if not self.readonly:
            self._flush_touches()
        self._backend.close()

    def __enter__(self) -> "AnalysisStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<AnalysisStore {} backend={} hits={} misses={}>".format(
            self.path, self.backend_name, self.hits, self.misses)
