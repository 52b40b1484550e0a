"""Multi-statement transactions installed at the MVCC commit point.

One :class:`TransactionManager` per engine.  ``BEGIN`` pins the current
database state and installs it as the *transaction overlay*: until
COMMIT/ROLLBACK, every ``Database.snapshot()`` call — which is how all
concurrent readers (SELECTs, NLI asks, EXPLAIN) see data — returns a
shared proxy over that pre-transaction view, so nobody outside the
transaction ever observes uncommitted writes.  The transaction's own
statements execute against live storage and see their own effects.

``COMMIT`` first flushes the buffered WAL group (one fsync — the
durability point, taken *outside* the database mutation lock so readers
never stall behind the disk), then atomically clears the overlay and runs
the service-installed ``commit_hook`` (language-layer publish) under one
statement scope — a reader pins either the pre-transaction overlay with
the old layers or the committed state with the new ones, never a mix.

``ROLLBACK`` restores every table from the pinned snapshot
(:meth:`Database.rollback_to` — rows, indexes, statistics, FK state) and
discards the unflushed WAL buffer; nothing ever reached disk.

Works standalone (no storage attached): BEGIN/ROLLBACK then give plain
in-memory transactions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sqlengine.database import Database
    from repro.sqlengine.snapshot import DatabaseSnapshot
    from repro.storage.manager import StorageManager


class TransactionManager:
    """Transaction scope + WAL routing for one engine.

    Thread safety: transaction control and DML are serialized above this
    layer (the service holds its commit lock from BEGIN to
    COMMIT/ROLLBACK), so this class only guards its interaction with the
    database's mutation lock.
    """

    def __init__(self, database: "Database") -> None:
        self.database = database
        #: The durable sink (a StorageManager), attached when a data
        #: directory is configured; None keeps everything in memory.
        self.sink: Optional["StorageManager"] = None
        #: Service-installed publish callback, run inside the COMMIT /
        #: ROLLBACK statement scope (after the overlay clears) so derived
        #: read state (NLI language layers) can never pair a committed
        #: snapshot with pre-commit layers.
        self.commit_hook: Optional[Callable[[], None]] = None
        self._snapshot: Optional["DatabaseSnapshot"] = None
        self._buffer: list[str] = []
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    # -- statement hooks (called by the engine) ------------------------------

    def record(self, sql: str) -> None:
        """Log one successful DML/DDL statement.

        Called *inside* the statement's database scope, so a checkpoint
        rotation (which also holds the scope) can never separate a
        mutation from its WAL record.  Inside a transaction the text is
        buffered in memory — nothing touches disk until COMMIT.
        """
        if self._active:
            self._buffer.append(sql)
        elif self.sink is not None:
            self.sink.append_autocommit(sql)

    def after_statement(self) -> None:
        """Post-statement bookkeeping, called outside any database lock
        (a due checkpoint serializes the snapshot here, off the lock)."""
        if not self._active and self.sink is not None:
            self.sink.maybe_checkpoint()

    # -- transaction control -------------------------------------------------

    def begin(self) -> None:
        if self._active:
            raise TransactionError(
                "a transaction is already open; nested BEGIN is not supported"
            )
        self._snapshot = self.database.begin_overlay()
        self._buffer = []
        self._active = True

    def commit(self) -> None:
        if not self._active:
            raise TransactionError("COMMIT with no open transaction")
        if self.sink is not None and self._buffer:
            # Durability point: one fsync for the whole group, before the
            # overlay clears and without the mutation lock held.
            self.sink.append_group(self._buffer)
        try:
            with self.database.statement_scope():
                self.database.clear_overlay()
                if self.commit_hook is not None:
                    self.commit_hook()
        finally:
            # Drop — never close() — the overlay snapshot: concurrent
            # readers may still hold shared proxies over it; the GC
            # finalizer releases the pins after the last one lets go.
            self._snapshot = None
            self._buffer = []
            self._active = False
        if self.sink is not None:
            self.sink.maybe_checkpoint()

    def rollback(self) -> None:
        if not self._active:
            raise TransactionError("ROLLBACK with no open transaction")
        snapshot = self._snapshot
        try:
            with self.database.statement_scope():
                assert snapshot is not None
                self.database.rollback_to(snapshot)
                self.database.clear_overlay()
                if self.commit_hook is not None:
                    self.commit_hook()
        finally:
            self._snapshot = None
            self._buffer = []
            self._active = False
