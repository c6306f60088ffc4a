"""The persistent analysis store of the execution engine.

``aa-eval`` results are a pure function of the source text and the run's
settings: the frontend, mem2reg and the e-SSA conversion are deterministic,
so the same source always produces bit-identical IR and bit-identical
verdicts.  The :class:`AnalysisStore` exploits that to memoize whole work
units *across processes and across runs*: each entry is one unit's merged
payload, keyed by :func:`unit_key` over the unit's kind, name, source text,
spec labels and equivalence-class limit.  A warm store lets repeated
benchmark runs skip compilation and analysis entirely.

The store is one sqlite file — safe concurrent readers, a single writer
(the coordinator); schema::

    meta(key TEXT PRIMARY KEY, value TEXT)        -- 'version' row
    entries(key TEXT PRIMARY KEY, payload BLOB,   -- pickled payload
            generation INTEGER, size INTEGER)

A path that holds something other than a sqlite database is reported as a
:class:`~repro.api.config.ConfigError` naming the path.

Invalidation is versioned: the store records a version string
(:data:`STORE_VERSION`, bumped whenever analysis semantics change) and
clears itself on mismatch, so stale results can never leak into a run of
newer code.  Workers open the store read-only; freshly computed payloads
travel back to the coordinator inside the unit's payload and are written by
the coordinator alone, which keeps the writer count at one.

Growth is managed: every entry records its pickled size and the store
*generation* it was written in (the generation counter advances on each
writable open), so long-lived stores can be swept with
:meth:`AnalysisStore.evict` — oldest generations go first, deterministically
— down to a byte budget.  A store opened with ``max_bytes`` (a session's
``store_max_mb`` / ``REPRO_STORE_MAX_MB``) enforces the budget after
every write batch.

Eviction approximates **LRU**, not FIFO: a lookup that hits *touches* the
entry, promoting it to the store's current generation, so hot entries
survive sweeps that reclaim cold ones.  A writable store touches directly
(buffered, flushed before any sweep or at close); a read-only store — the
worker side of the engine's single-writer protocol — records the hit keys
in :attr:`AnalysisStore.touched_keys`, which travel back to the
coordinator inside the unit payload and are applied there with
:meth:`AnalysisStore.touch_many`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.api.config import ConfigError

#: bump when the analysis pipeline's semantics or the key derivation change
#: in a way that makes previously persisted entries stale or unreachable.
#: v2: function-level keys encode the less-than mode (a switch since removed).
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
#: v8: additions are classified on σ-refined ranges (a function can gain a
#:     split copy and sharper verdicts), and persisted range counters no
#:     longer count split-copy evaluations.  ``aaeval-7`` stores are cleared
#:     as above.
#: v9: function-level entries are gone (the store holds whole units only),
#:     and unit keys fold the equivalence-class limit, which changes
#:     verdicts.  ``aaeval-8`` stores are cleared as above.
#: v10: the range analysis tracks integers only and finalizes values
#:     outside loops in one walk, so the persisted range counters
#:     (``statistics.solver`` evaluations, SCCs, pops) shrink; verdicts are
#:     unchanged.  ``aaeval-9`` stores are cleared as above.
STORE_VERSION = "aaeval-10"


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def unit_key(kind: str, name: str, source: str, labels: Sequence[str],
             class_limit: Optional[int]) -> str:
    """Content-address a whole work unit's payload by its *source text*.

    The frontend is deterministic, so the source uniquely determines the IR;
    the labels and the equivalence-class limit (``0`` or ``None`` =
    unlimited) determine every verdict on top of it.  A hit answers the unit
    before compilation even starts.
    """
    digest = hashlib.sha256()
    # Each part is digested NUL-terminated rather than pre-joined with a
    # printable separator: a joined string cannot distinguish ["a|b"] from
    # ["a", "b"] once a label contains the separator character.
    parts: List[str] = [kind, name, source]
    parts.extend(labels)
    # The one value of a removed mode switch: folding it keeps the key
    # derivation of the stores written before the switch went away.
    parts.append("ip")
    parts.append("limit={}".format(class_limit or 0))
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return "unit-" + digest.hexdigest()


class _SqliteBackend:
    """One sqlite file; readers may be concurrent, the writer is single."""

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

    def create_schema(self) -> None:
        """Create the tables of a writable store."""
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


class AnalysisStore:
    """Persistent, content-addressed map ``key -> evaluation payload``.

    ``version`` guards against stale results: on open, a writable store
    whose recorded version differs is cleared and restamped; a read-only
    store with a mismatched version answers every lookup with a miss.

    ``max_bytes`` bounds the store's payload footprint: whenever a write
    batch pushes the total past the budget, the oldest *generations* of
    entries (a generation = one writable open) are swept first, in
    deterministic key order within a generation.  ``0`` disables the
    budget.
    """

    def __init__(self, path: str, version: str = STORE_VERSION,
                 readonly: bool = False, max_bytes: int = 0) -> None:
        self.path = path
        self.version = version
        self.readonly = readonly
        self.max_bytes = max_bytes if max_bytes > 0 else None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: hit keys recorded by a *read-only* store (the engine ships them
        #: back to the coordinator, which applies :meth:`touch_many`).
        self.touched_keys: List[str] = []
        # Writable stores buffer their own touches and flush them before
        # anything reads generations (eviction) or the store closes.
        self._pending_touches: Set[str] = set()
        self._backend: Optional[_SqliteBackend] = None
        try:
            self._open()
        except sqlite3.DatabaseError as error:
            if self._backend is not None:
                self._backend.close()
            raise ConfigError("{!r} is not an analysis store ({})".format(
                path, error)) from None

    def _open(self) -> None:
        """Connect, set up the schema and check the recorded version.

        Raises :class:`sqlite3.DatabaseError` when the file at the path is
        not a sqlite database.
        """
        self._backend = _SqliteBackend(self.path, readonly=self.readonly)
        if not self.readonly:
            self._backend.create_schema()
        stored = self._backend.get_meta("version")
        self._version_ok = stored == self.version
        if not self._version_ok and not self.readonly:
            if stored is not None:
                self._backend.clear()
            self._backend.set_meta("version", self.version)
            self._version_ok = True
        self.generation = int(self._backend.get_meta("generation") or 0)
        if not self.readonly:
            self.generation += 1
            self._backend.set_meta("generation", str(self.generation))

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
        return "<AnalysisStore {} hits={} misses={}>".format(
            self.path, self.hits, self.misses)
