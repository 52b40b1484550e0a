"""Statement-plan cache: the engine's prepared-statement layer.

One LRU maps statement text to everything the engine can reuse across
executions:

* the parsed AST — a pure function of the text, never invalidated;
* the optimized plan — stamped with the per-table versions of every table
  the statement references (``{table: Table.version}`` at build time);
* for top-level SELECTs, the materialized result rows — stamped the same
  way, so a repeated question with no intervening mutation skips parse,
  plan, optimize *and* execution.

Invalidation is dependency-aware and lazy: a cached plan/result is ignored
(then overwritten) only when the version stamp of a table *it depends on*
has moved.  A write to table A leaves entries that touch only table B
untouched — there is no global epoch.  A dropped table reports no current
version, so entries depending on it can never false-hit, and per-table
stamps are drawn from one database-wide clock, so a dropped-and-recreated
table cannot echo an old stamp either.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.planner import PlanNode

#: Supplies the current version stamp of a table, or None when it no
#: longer exists (``Database.table_version``).
VersionLookup = Callable[[str], "int | None"]


def _stamps_current(
    stamps: Mapping[str, int] | None, version_of: VersionLookup
) -> bool:
    """True when every recorded dependency stamp matches the live table."""
    if stamps is None:
        return False
    return all(version_of(table) == stamp for table, stamp in stamps.items())


class LruCache:
    """Thread-safe LRU mapping with per-entry tags.

    Also used by the NLI prepared-question cache and the clarification
    registry, both of which are hit by concurrent ``NliService.ask()``
    readers — every public method holds an internal lock, because
    ``OrderedDict`` reordering is not safe under free-threaded access.

    An entry may be stored with ``tags``; :meth:`evict_tagged` drops every
    entry carrying one of a set of tags.  ``lock`` is public so an owner
    can make its own state change and a cache update one step to every
    other caller (the prepared cache publishes a layers generation and
    evicts under it); it is reentrant, so the cache's own methods may be
    called holding it.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.lock = threading.RLock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        #: key -> its tags, for tagged entries only.
        self._tags: dict[Hashable, frozenset] = {}
        self.stats = {"hits": 0, "misses": 0}

    def _remove(self, key: Hashable) -> Any:
        """Delete ``key``'s entry and its tags; returns the value."""
        self._tags.pop(key, None)
        return self._data.pop(key)

    def get(
        self,
        key: Hashable,
        default: Any = None,
        accept: Callable[[Any], bool] | None = None,
    ) -> Any:
        """The entry for ``key``, or ``default``.

        ``accept`` may turn a present entry down for this caller (it stays
        cached for others); a refusal counts as a miss.
        """
        with self.lock:
            try:
                value = self._data[key]
            except KeyError:
                self.stats["misses"] += 1
                return default
            if accept is not None and not accept(value):
                self.stats["misses"] += 1
                return default
            self._data.move_to_end(key)
            self.stats["hits"] += 1
            return value

    def put(self, key: Hashable, value: Any, tags: frozenset = frozenset()) -> None:
        with self.lock:
            if key in self._data:
                self._remove(key)
            self._data[key] = value
            if tags:
                self._tags[key] = tags
            while len(self._data) > self.capacity:
                self._remove(next(iter(self._data)))

    def put_if(
        self,
        key: Hashable,
        value: Any,
        condition: Callable[[], bool],
        tags: frozenset = frozenset(),
    ) -> bool:
        """:meth:`put`, only when ``condition()`` holds under the lock."""
        with self.lock:
            if not condition():
                return False
            self.put(key, value, tags)
            return True

    def evict_tagged(self, tags: frozenset) -> int:
        """Drop every entry carrying one of ``tags``; returns how many."""
        with self.lock:
            doomed = [k for k, own in self._tags.items() if not own.isdisjoint(tags)]
            for key in doomed:
                self._remove(key)
            return len(doomed)

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return an entry, or ``default``."""
        with self.lock:
            self._tags.pop(key, None)
            return self._data.pop(key, default)

    def __contains__(self, key: Hashable) -> bool:
        with self.lock:
            return key in self._data

    def __len__(self) -> int:
        with self.lock:
            return len(self._data)

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self.lock:
            dropped = len(self._data)
            self._data.clear()
            self._tags.clear()
            return dropped


class _Entry:
    """Everything cached for one statement text."""

    __slots__ = (
        "statement",
        "plan",
        "has_plan",
        "plan_stamps",
        "columns",
        "rows",
        "result_stamps",
    )

    def __init__(self) -> None:
        self.statement: ast.Statement | None = None
        self.plan: PlanNode | None = None
        self.has_plan = False  # distinguishes "no entry" from a None plan
        #: ``{table: version}`` at plan-build time; None = no plan stored.
        #: An empty dict is valid forever (table-less ``SELECT 1``).
        self.plan_stamps: dict[str, int] | None = None
        self.columns: tuple[str, ...] | None = None
        self.rows: tuple[tuple[Any, ...], ...] | None = None
        self.result_stamps: dict[str, int] | None = None


class PlanCache:
    """LRU cache of parsed/planned/executed statements, keyed by text.

    ``max_result_rows`` bounds the per-entry memory of the materialized
    result layer: larger results are not cached (their AST and plan still
    are), so a handful of ``SELECT * FROM big_table`` statements cannot
    pin multiple copies of the database in memory.
    """

    def __init__(self, capacity: int = 256, max_result_rows: int = 10_000) -> None:
        self._entries: LruCache = LruCache(capacity)
        self.max_result_rows = max_result_rows
        #: Guards the read-check-store sequences and the stats counters —
        #: the engine is shared by concurrent NliService readers.
        self._lock = threading.RLock()
        self.stats = {
            "statement_hits": 0,
            "statement_misses": 0,
            "plan_hits": 0,
            "plan_misses": 0,
            "result_hits": 0,
            "result_misses": 0,
        }

    def _entry(self, text: str, create: bool = False) -> _Entry | None:
        entry = self._entries.get(text)
        if entry is None and create:
            entry = _Entry()
            self._entries.put(text, entry)
        return entry

    # -- parsed statements -------------------------------------------------

    def statement(self, text: str) -> ast.Statement | None:
        with self._lock:
            entry = self._entries.get(text)
            if entry is not None and entry.statement is not None:
                self.stats["statement_hits"] += 1
                return entry.statement
            self.stats["statement_misses"] += 1
            return None

    def store_statement(self, text: str, stmt: ast.Statement) -> None:
        with self._lock:
            entry = self._entry(text, create=True)
            assert entry is not None
            entry.statement = stmt

    # -- optimized plans ---------------------------------------------------

    def plan(
        self, text: str, version_of: VersionLookup
    ) -> tuple[bool, PlanNode | None]:
        """Return ``(hit, plan)`` — the plan may legitimately be None.

        ``version_of`` maps a table name to its current stamp (or None when
        dropped); the hit requires every dependency stamp to match.
        """
        with self._lock:
            entry = self._entries.get(text)
            if (
                entry is not None
                and entry.has_plan
                and _stamps_current(entry.plan_stamps, version_of)
            ):
                self.stats["plan_hits"] += 1
                return True, entry.plan
            self.stats["plan_misses"] += 1
            return False, None

    def store_plan(
        self, text: str, stamps: Mapping[str, int], plan: PlanNode | None
    ) -> None:
        """Cache ``plan`` with its dependency stamps (``{table: version}``)."""
        with self._lock:
            entry = self._entry(text, create=True)
            assert entry is not None
            entry.plan = plan
            entry.has_plan = True
            entry.plan_stamps = dict(stamps)

    # -- materialized results ----------------------------------------------

    def result(
        self, text: str, version_of: VersionLookup
    ) -> tuple[tuple[str, ...], tuple[tuple[Any, ...], ...]] | None:
        with self._lock:
            entry = self._entries.get(text)
            if (
                entry is not None
                and entry.rows is not None
                and _stamps_current(entry.result_stamps, version_of)
            ):
                self.stats["result_hits"] += 1
                assert entry.columns is not None
                return entry.columns, entry.rows
            self.stats["result_misses"] += 1
            return None

    def store_result(
        self,
        text: str,
        stamps: Mapping[str, int],
        columns: list[str],
        rows: list[tuple[Any, ...]],
    ) -> None:
        with self._lock:
            if len(rows) > self.max_result_rows:
                # Also drop any previously cached (now stale) copy: stamps
                # are never reused, so it could never hit again — it would
                # just stay pinned while the entry's statement/plan layers
                # keep it warm in the LRU.
                entry = self._entries.get(text)
                if entry is not None:
                    entry.columns = None
                    entry.rows = None
                    entry.result_stamps = None
                return
            entry = self._entry(text, create=True)
            assert entry is not None
            entry.columns = tuple(columns)
            entry.rows = tuple(rows)
            entry.result_stamps = dict(stamps)

    # -- management --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            for key in self.stats:
                self.stats[key] = 0
