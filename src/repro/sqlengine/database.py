"""The database catalog: named tables plus referential-integrity checks."""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import (
    IntegrityError,
    SchemaError,
    TransactionError,
    UnknownTableError,
)
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.statistics import TableStatistics
from repro.sqlengine.table import Table, TableDelta


class Database:
    """A named collection of tables.

    Foreign keys are checked on :meth:`insert` / :meth:`insert_many` and
    (both directions) on :meth:`update_rows` when ``enforce_fk`` is on
    (default).  Bulk loaders may switch it off and call
    :meth:`check_integrity` once at the end.
    """

    def __init__(self, name: str = "db", enforce_fk: bool = True) -> None:
        self.name = name
        self.enforce_fk = enforce_fk
        self._tables: dict[str, Table] = {}
        #: Global monotone clock.  Every mutation anywhere advances it, and
        #: the mutated table's own stamp is set to the new clock value — so
        #: per-table stamps are unique across the database's whole history
        #: (a dropped-and-recreated table can never echo an old stamp).
        self._clock = 0
        self._catalog_version = 0
        #: Zero-arg holders resolving to a live listener or None (weak for
        #: bound methods, strong otherwise) — see add_delta_listener.
        self._delta_listeners: list[Callable[[], Any]] = []
        #: One reentrant mutation lock shared by every table in this
        #: database (installed as each table's ``_write_lock``): snapshot
        #: capture holds it across all tables, so a pinned view is one
        #: atomic cut of the whole database — never a mix of two commits —
        #: and :meth:`statement_scope` holds it across a multi-row
        #: statement so capture cannot land mid-statement.  Writers are
        #: already serialized above (the service's commit lock), so
        #: sharing one lock adds no write-side contention.
        self._mutation_lock = threading.RLock()
        #: While a multi-statement transaction is open, the pre-BEGIN
        #: snapshot is installed here and :meth:`snapshot` hands readers a
        #: shared proxy over it — so nobody outside the transaction ever
        #: observes uncommitted writes.  See ``begin_overlay``.
        self._txn_overlay: "DatabaseSnapshot | None" = None

    # -- schema/DML versioning ------------------------------------------------

    @property
    def version(self) -> int:
        """Derived summary clock: advanced by every DDL/DML mutation.

        Kept as a cheap "did anything change at all" signal; fine-grained
        consumers should use :meth:`table_version` / :meth:`table_versions`
        so a write to one table does not invalidate state derived from
        others.
        """
        return self._clock

    @property
    def catalog_version(self) -> int:
        """Bumped only by CREATE/DROP TABLE (schema-shape changes)."""
        return self._catalog_version

    def table_version(self, name: str) -> int | None:
        """Current stamp of one table, or None when it does not exist."""
        table = self._tables.get(name.lower())
        return None if table is None else table.version

    def table_versions(self) -> dict[str, int]:
        """Snapshot of every table's version stamp."""
        return {name: table.version for name, table in self._tables.items()}

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # -- MVCC snapshots -------------------------------------------------------

    def snapshot(self) -> "DatabaseSnapshot":
        """Pin an immutable, version-stamped view of every table.

        O(number of tables): the view shares live storage until the next
        write, which detaches by copy-on-write — readers on the snapshot
        never block writers and never observe a half-applied statement.
        Release the pins with ``close()`` / a ``with`` block (a GC
        finalizer covers abandoned snapshots).  See ``docs/concurrency.md``.
        """
        from repro.sqlengine.snapshot import DatabaseSnapshot, SharedSnapshot

        overlay = self._txn_overlay
        if overlay is not None:
            # A transaction is in flight: readers get the committed
            # pre-BEGIN view, never the uncommitted live storage.
            return SharedSnapshot(overlay)
        return DatabaseSnapshot(self)

    # -- transaction overlay --------------------------------------------------

    @property
    def txn_overlay(self) -> "DatabaseSnapshot | None":
        """The pre-transaction snapshot while BEGIN..COMMIT is open."""
        return self._txn_overlay

    def begin_overlay(self) -> "DatabaseSnapshot":
        """Pin the current state and install it as the transaction overlay.

        Until :meth:`clear_overlay`, every :meth:`snapshot` call returns a
        shared proxy over this pinned view; direct table access (the
        transaction's own statements) still sees live storage.
        """
        from repro.sqlengine.snapshot import DatabaseSnapshot

        with self._mutation_lock:
            if self._txn_overlay is not None:
                raise TransactionError("a transaction is already open")
            overlay = DatabaseSnapshot(self)
            self._txn_overlay = overlay
            return overlay

    def clear_overlay(self) -> None:
        """Drop the transaction overlay (COMMIT/ROLLBACK epilogue)."""
        with self._mutation_lock:
            self._txn_overlay = None

    def rollback_to(self, snapshot: "DatabaseSnapshot") -> None:
        """Restore every table to ``snapshot``'s captured state (ROLLBACK).

        Tables created since the snapshot are dropped, dropped ones are
        recreated, and changed ones are restored by *cloning* the
        snapshot's captured storage (the snapshot may still be shared by
        concurrent readers).  Version stamps are restored with the data —
        the bytes match what those stamps described, so pre-transaction
        plan-cache entries become valid again — but the global clock is
        never rewound, and the catalog version is bumped unconditionally
        so derived state (NLI language layers, response caches) rebuilds
        from scratch instead of trusting deltas from the rolled-back
        statements.
        """
        with self._mutation_lock:
            for name in [n for n in self._tables if not snapshot.has_table(n)]:
                self._tables[name]._on_mutation = None
                del self._tables[name]
            for captured in snapshot.tables():
                live = self._tables.get(captured.schema.name)
                if live is None:
                    live = Table(captured.schema)
                    live._write_lock = self._mutation_lock
                    live._on_mutation = self._on_table_mutation
                    self._tables[captured.schema.name] = live
                    live.restore_from(captured)
                elif live._version != captured.version:
                    live.restore_from(captured)
            self._tick()
            self._catalog_version += 1

    @property
    def snapshot_pins(self) -> int:
        """Total live storage pins across all tables (observability: a
        healthy idle service reports 0 — snapshots do not leak)."""
        # list() snapshots the catalog atomically so lock-free stats
        # readers cannot trip over a concurrent CREATE/DROP TABLE.
        return sum(table._pinned for table in list(self._tables.values()))

    @contextmanager
    def statement_scope(self) -> Iterator[None]:
        """Hold the mutation lock across several table mutations.

        Each mutation (one bulk INSERT, UPDATE or DELETE) takes the shared
        lock itself; wrapping a group of steps (a checkpoint restore, a
        COMMIT or ROLLBACK epilogue) in this (reentrant) scope guarantees
        no snapshot can be pinned between them, so readers never observe
        a half-applied group.
        """
        with self._mutation_lock:
            yield

    def _on_table_mutation(self, delta: TableDelta) -> int:
        """Table-mutation callback: advance the clock, fan the delta out.

        The mutated table's stamp is assigned *before* listeners run, so a
        listener that queries through the plan cache mid-callback cannot be
        served a pre-mutation materialized result under a stale stamp.
        """
        stamp = self._tick()
        table = self._tables.get(delta.table)
        if table is not None:
            table._version = stamp
        if self._delta_listeners:
            self._broadcast(delta)
        return stamp

    # -- delta listeners ------------------------------------------------------

    def add_delta_listener(self, listener: Callable[[TableDelta], None]) -> None:
        """Subscribe to row-level deltas from every table.

        Bound methods are held weakly (``WeakMethod``), so a forgotten NLI
        does not keep receiving deltas — or leak — once dropped; anything
        else (plain functions, builtin methods) is held strongly.
        """
        try:
            ref: Callable[[], Any] = weakref.WeakMethod(
                listener
            )  # type: ignore[arg-type]
        except TypeError:
            ref = lambda fn=listener: fn  # noqa: E731 - strong holder
        self._delta_listeners.append(ref)

    def _broadcast(self, delta: TableDelta) -> None:
        # Dispatch over a snapshot, then prune dead refs from the *current*
        # list — a listener may subscribe another during its own
        # callback, and overwriting with the snapshot would lose that.
        for ref in list(self._delta_listeners):
            fn = ref()
            if fn is not None:
                fn(delta)
        self._delta_listeners = [
            ref for ref in self._delta_listeners if ref() is not None
        ]

    # -- catalog -------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            if fk.ref_table != schema.name and fk.ref_table not in self._tables:
                raise SchemaError(
                    f"foreign key of {schema.name!r} references unknown table "
                    f"{fk.ref_table!r}"
                )
        table = Table(schema)
        with self._mutation_lock:
            # All tables share the database's mutation lock, so snapshot
            # capture (which holds it) is atomic against every writer.
            table._write_lock = self._mutation_lock
            table._on_mutation = self._on_table_mutation
            table._version = self._tick()
            self._tables[schema.name] = table
            self._catalog_version += 1
        return table

    def drop_table(self, name: str) -> None:
        lowered = name.lower()
        with self._mutation_lock:
            if lowered not in self._tables:
                raise UnknownTableError(f"no table named {name!r}")
            self._tables[lowered]._on_mutation = None
            del self._tables[lowered]
            self._tick()
            self._catalog_version += 1

    def table(self, name: str) -> Table:
        lowered = name.lower()
        if lowered not in self._tables:
            raise UnknownTableError(f"no table named {name!r}")
        return self._tables[lowered]

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def tables(self) -> Iterable[Table]:
        return self._tables.values()

    def schemas(self) -> list[TableSchema]:
        return [t.schema for t in self._tables.values()]

    # -- mutation with FK enforcement ----------------------------------------

    def insert(self, table_name: str, values: Mapping[str, Any] | Sequence[Any]) -> int:
        """Insert one row with FK enforcement; returns its row id."""
        table = self.table(table_name)
        return table.insert(values, self._fk_check(table))

    def insert_many(
        self, table_name: str, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> int:
        """Insert a batch, all or nothing (see :meth:`Table.insert_many`);
        every row's FK values are validated before any row is applied."""
        table = self.table(table_name)
        return table.insert_many(rows, self._fk_check(table))

    def update_rows(
        self,
        table_name: str,
        updates: Iterable[tuple[int, Mapping[str, Any] | Sequence[Any]]],
    ) -> int:
        """Batch row replacement with referential-integrity enforcement.

        Two directions are validated *before* anything mutates (so a
        violation leaves the table untouched, matching the primary-key
        behaviour of :meth:`Table.update_rows`):

        * child side — an updated foreign-key value must match a parent
          row, exactly as on :meth:`insert`;
        * parent side — rewriting a referenced (primary-key) value must
          not strand child rows still pointing at the old value.

        Both reject with the same :class:`IntegrityError` shape as
        INSERT-time FK violations.
        """
        table = self.table(table_name)
        if not self.enforce_fk or not self._fk_involved(table):
            # No outgoing or incoming foreign keys: skip the validation
            # pass entirely (the common case on the DML hot path).
            return table.update_rows(updates)
        prepared = table.prepare_updates(updates)
        self._check_update_fks(table, prepared)
        self._check_no_stranded_children(table, prepared)
        return table.apply_prepared_updates(prepared)

    def update_row(
        self, table_name: str, row_id: int, values: Mapping[str, Any] | Sequence[Any]
    ) -> bool:
        """Single-row convenience over :meth:`update_rows`."""
        return self.update_rows(table_name, [(row_id, values)]) == 1

    def _fk_involved(self, table: Table) -> bool:
        """Does ``table`` have outgoing FKs, or any table referencing it?"""
        if table.schema.foreign_keys:
            return True
        return any(
            fk.ref_table == table.name
            for other in self.tables()
            for fk in other.schema.foreign_keys
        )

    def _fk_check(self, table: Table) -> Callable[[tuple[Any, ...]], None] | None:
        """Row validator for one insert batch into ``table``, or None when
        there is nothing to check.

        Called on each (not-yet-inserted) row in batch order, it checks
        every FK value against its parent.  Each distinct value is looked
        up once per batch.  A self-referencing FK also accepts a key of
        the row itself or of an earlier row in the same batch, as if the
        rows had been inserted one at a time.
        """
        if not self.enforce_fk or not table.schema.foreign_keys:
            return None
        column_index = table.schema.column_index
        checks = [
            (
                fk,
                column_index(fk.column),
                column_index(fk.ref_column) if fk.ref_table == table.name else None,
                set(),  # values known to have a parent in this batch
            )
            for fk in table.schema.foreign_keys
        ]

        def check(row: tuple[Any, ...]) -> None:
            for fk, pos, self_pos, known in checks:
                if self_pos is not None:
                    known.add(row[self_pos])
                value = row[pos]
                if value is None or value in known:
                    continue
                if not self.table(fk.ref_table).lookup_equal(fk.ref_column, value):
                    raise IntegrityError(
                        f"{table.name}.{fk.column}={value!r} has no match in "
                        f"{fk.ref_table}.{fk.ref_column}"
                    )
                known.add(value)

        return check

    def _check_update_fks(
        self,
        table: Table,
        prepared: list[tuple[int, tuple[Any, ...], tuple[Any, ...]]],
    ) -> None:
        """Child-side validation for a batch update.

        Unchanged FK columns are skipped (their values were validated when
        they entered the table).  A self-referencing FK is judged against
        the table's *post-batch* state, so a batch that rewrites a key and
        its in-batch references together (``SET id = id + 100,
        manager_id = manager_id + 100``) is accepted.
        """
        final_values: dict[str, set[Any]] = {}

        def final_column_state(column: str) -> set[Any]:
            values = final_values.get(column)
            if values is None:
                pos = table.schema.column_index(column)
                updating = {row_id for row_id, _, _ in prepared}
                values = {new[pos] for _, new, _ in prepared}
                for row_id, row in table.rows_with_ids():
                    if row_id not in updating:
                        values.add(row[pos])
                final_values[column] = values
            return values

        for fk in table.schema.foreign_keys:
            pos = table.schema.column_index(fk.column)
            self_referencing = fk.ref_table == table.name
            for _, new, old in prepared:
                value = new[pos]
                if value is None or old[pos] == value:
                    continue
                if self_referencing:
                    matched = value in final_column_state(fk.ref_column)
                else:
                    matched = bool(
                        self.table(fk.ref_table).lookup_equal(fk.ref_column, value)
                    )
                if not matched:
                    raise IntegrityError(
                        f"{table.name}.{fk.column}={value!r} has no match in "
                        f"{fk.ref_table}.{fk.ref_column}"
                    )

    def _check_no_stranded_children(
        self,
        table: Table,
        prepared: list[tuple[int, tuple[Any, ...], tuple[Any, ...]]],
    ) -> None:
        """Reject updates that rewrite a referenced value away from its
        children (the ROADMAP-listed FK hole: a parent PK rewrite used to
        strand child rows silently)."""
        incoming = [
            (fk, child)
            for child in self.tables()
            for fk in child.schema.foreign_keys
            if fk.ref_table == table.name
        ]
        if not incoming:
            return
        updating_ids = {row_id for row_id, _, _ in prepared}
        for ref_column in {fk.ref_column for fk, _ in incoming}:
            pos = table.schema.column_index(ref_column)
            rewritten = {
                old[pos]
                for _, new, old in prepared
                if old[pos] is not None and old[pos] != new[pos]
            }
            if not rewritten:
                continue
            # A value only disappears if no row (updated or untouched)
            # still carries it after the batch applies.  With an index on
            # the referenced column (the PK, usually) survival is a probe
            # per rewritten value; otherwise one scan of the parent.
            new_values = {new[pos] for _, new, _ in prepared}
            index = table.hash_index(ref_column)
            if index is not None:
                removed = {
                    value
                    for value in rewritten
                    if value not in new_values
                    # The index still reflects pre-update state, so filter
                    # out the rows being rewritten in this batch.
                    and not any(
                        row_id not in updating_ids
                        for row_id in index.lookup(value)
                    )
                }
            else:
                surviving = set(new_values)
                for row_id, row in table.rows_with_ids():
                    if row_id not in updating_ids:
                        surviving.add(row[pos])
                removed = rewritten - surviving
            if not removed:
                continue
            updated_new = {row_id: new for row_id, new, _ in prepared}
            for fk, child in incoming:
                if fk.ref_column != ref_column:
                    continue
                child_pos = child.schema.column_index(fk.column)
                child_index = (
                    child.hash_index(fk.column) if child is not table else None
                )
                if child_index is not None:
                    # Indexed child FK column: probe per removed value
                    # instead of scanning the child table.
                    for value in removed:
                        if any(
                            child.row_by_id(row_id) is not None
                            for row_id in child_index.lookup(value)
                        ):
                            raise IntegrityError(
                                f"{child.name}.{fk.column}={value!r} has no "
                                f"match in {table.name}.{ref_column}"
                            )
                    continue
                for child_row_id, child_row in child.rows_with_ids():
                    # Self-referencing updates: judge an updated row by its
                    # post-update FK value, not the one being replaced.
                    if child is table and child_row_id in updated_new:
                        child_row = updated_new[child_row_id]
                    value = child_row[child_pos]
                    if value is not None and value in removed:
                        raise IntegrityError(
                            f"{child.name}.{fk.column}={value!r} has no match in "
                            f"{table.name}.{ref_column}"
                        )

    def check_integrity(self) -> list[str]:
        """Full referential-integrity sweep; returns violation messages."""
        problems: list[str] = []
        for table in self._tables.values():
            for fk in table.schema.foreign_keys:
                parent = self.table(fk.ref_table)
                parent_values = set(parent.column_values(fk.ref_column))
                pos = table.schema.column_index(fk.column)
                for row in table.rows():
                    value = row[pos]
                    if value is not None and value not in parent_values:
                        problems.append(
                            f"{table.name}.{fk.column}={value!r} missing in "
                            f"{fk.ref_table}.{fk.ref_column}"
                        )
        return problems

    # -- stats used by the optimizer ------------------------------------------

    def row_count(self, table_name: str) -> int:
        return len(self.table(table_name))

    def statistics(self, table_name: str) -> TableStatistics:
        """The incrementally maintained statistics of one table."""
        return self.table(table_name).statistics

    def summary(self) -> str:
        """Human-readable catalog overview."""
        lines = [f"database {self.name!r}:"]
        for name in self.table_names:
            table = self._tables[name]
            cols = ", ".join(f"{c.name} {c.sql_type}" for c in table.schema.columns)
            lines.append(f"  {name}({cols}) [{len(table)} rows]")
        return "\n".join(lines)
