"""Row storage for one table, with constraint checking and index maintenance.

Rows are stored as tuples in insertion order; deleted slots are tombstoned
(``None``) so row ids remain stable for index entries.

Every table carries its own monotone :attr:`Table.version` stamp, bumped by
insert/update/delete and index DDL.  Consumers (the statement-plan cache,
the NLI's value index) compare per-table stamps instead of one global
counter, so a write to one table never invalidates state derived only from
others.  Mutations also emit a :class:`TableDelta` — the row-level string
values that entered or left TEXT columns — which the owning database
broadcasts to listeners for incremental index maintenance.  Bulk
mutations (batched INSERT via :meth:`Table.insert_many`, batched UPDATE
via :meth:`Table.update_rows`, batched DELETE via
:meth:`Table.delete_rows`) coalesce into **one** delta and one version
bump per statement, and are all-or-nothing: every row is validated
before any is applied.  :meth:`Table.insert_many` is the only insert
path — :meth:`Table.insert` is a one-row batch — and it feeds the
statistics column by column.

Row storage is **copy-on-write for snapshot readers** (MVCC): a pinned
:class:`~repro.sqlengine.snapshot.TableSnapshot` shares the live rows,
indexes and statistics until the next mutation, which first detaches by
cloning them — so snapshot readers never block writers and never observe
a half-applied statement.  See ``docs/concurrency.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import IntegrityError, SchemaError, TypeMismatchError
from repro.sqlengine.indexes import HashIndex, SortedIndex
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.statistics import TableStatistics
from repro.sqlengine.types import STORED_TYPES, SqlType, coerce_value, is_numeric


@dataclass(frozen=True)
class TableDelta:
    """Row-level change record emitted by one table mutation.

    ``added`` / ``removed`` list the ``(column, value)`` string pairs that
    entered or left the table's TEXT columns, which is exactly what the
    NLI's value index and lexicon derive from live data.  ``kind`` is
    ``"dml"`` for row mutations and ``"ddl"`` for index creation (which
    changes plans but not values).
    """

    table: str
    added: tuple[tuple[str, str], ...] = ()
    removed: tuple[tuple[str, str], ...] = ()
    kind: str = "dml"  # dml | ddl


class Table:
    """In-memory table: typed rows + optional secondary indexes.

    >>> from repro.sqlengine.schema import Column
    >>> from repro.sqlengine.types import SqlType
    >>> t = Table(TableSchema("x", [Column("a", SqlType.INT)], primary_key="a"))
    >>> t.insert({"a": 1}); len(t)
    0
    1
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.statistics = TableStatistics(schema)
        self._rows: list[tuple[Any, ...] | None] = []
        self._live_count = 0
        self._hash_indexes: dict[str, HashIndex] = {}
        self._sorted_indexes: dict[str, SortedIndex] = {}
        self._pk_index: HashIndex | None = None
        if schema.primary_key is not None:
            self._pk_index = HashIndex(schema.primary_key)
        #: Positions of TEXT columns, used to extract delta values cheaply.
        self._text_positions: tuple[tuple[int, str], ...] = tuple(
            (i, col.name)
            for i, col in enumerate(schema.columns)
            if col.sql_type is SqlType.TEXT
        )
        #: Per column, the Python type a value already has when coercion
        #: would return it unchanged (see :meth:`_normalise`).
        self._stored_types: tuple[type, ...] = tuple(
            STORED_TYPES[col.sql_type] for col in schema.columns
        )
        #: This table's own version stamp: bumped by every row mutation and
        #: by index DDL.  When the table belongs to a Database, stamps are
        #: drawn from the database's global clock (so stamps stay unique
        #: across drop/recreate); standalone tables count locally.
        self._version = 0
        #: Set by the owning Database: called with the mutation's delta,
        #: returns the new version stamp from the database clock.
        self._on_mutation: Callable[[TableDelta], int] | None = None
        #: MVCC bookkeeping.  ``_pinned`` counts live snapshots sharing the
        #: *current* storage generation; the first mutation while pinned
        #: copies rows/indexes/statistics (copy-on-write) so pinned readers
        #: keep an immutable view.  ``_generation`` identifies the storage
        #: so a late release of an already-detached pin is a no-op.  The
        #: reentrant lock makes "capture a snapshot" and "mutate" mutually
        #: atomic — a snapshot can never observe a half-applied statement.
        #: Tables owned by a Database share ITS mutation lock (installed
        #: by create_table), so a whole-database snapshot is one atomic
        #: cut; standalone tables fall back to a private lock.
        self._write_lock = threading.RLock()
        self._pinned = 0
        self._generation = 0

    # -- snapshot pinning (MVCC) --------------------------------------------

    def capture(self) -> "TableSnapshot":
        """Pin the current storage and return an immutable view of it.

        The view shares the live row list and indexes until the next
        mutation, which detaches by cloning (:meth:`_materialise_for_write`)
        — so capture is O(1) and the snapshot never sees later writes.
        The pin is released via :meth:`TableSnapshot.release` (or its GC
        finalizer), after which the storage may be mutated in place again.
        """
        from repro.sqlengine.snapshot import TableSnapshot

        with self._write_lock:
            self._pinned += 1
            return TableSnapshot(self)

    def _release_pin(self, generation: int) -> None:
        with self._write_lock:
            if generation == self._generation and self._pinned > 0:
                self._pinned -= 1

    def _materialise_for_write(self) -> None:
        """Detach from pinned snapshots before mutating (COW).

        Called under ``_write_lock`` by every mutation.  When no snapshot
        pins the current storage this is a no-op; otherwise rows, indexes
        and statistics are cloned once, the generation moves on, and the
        pinned (old) objects are never touched again.
        """
        if not self._pinned:
            return
        self._rows = list(self._rows)
        self._hash_indexes = {
            name: index.clone() for name, index in self._hash_indexes.items()
        }
        self._sorted_indexes = {
            name: index.clone() for name, index in self._sorted_indexes.items()
        }
        if self._pk_index is not None:
            self._pk_index = self._pk_index.clone()
        self.statistics = self.statistics.clone()
        self._generation += 1
        self._pinned = 0

    def restore_from(self, source: "TableSnapshot") -> None:
        """Reset storage to a pinned snapshot's captured state (ROLLBACK).

        Everything is *eagerly cloned* from the snapshot's captured
        objects — the snapshot may still be shared by any number of
        readers, so the restored table must never alias them.  The
        version stamp is restored too: the data is bit-identical to what
        that stamp described, so plan-cache entries built before the
        rolled-back transaction become valid again.  The generation
        moves on and the pin count resets, making release of any pin
        taken against the pre-restore storage a no-op.
        """
        with self._write_lock:
            self._rows = list(source._rows)
            self._live_count = source._live_count
            self._hash_indexes = {
                name: index.clone() for name, index in source._hash_indexes.items()
            }
            self._sorted_indexes = {
                name: index.clone() for name, index in source._sorted_indexes.items()
            }
            self._pk_index = (
                source._pk_index.clone() if source._pk_index is not None else None
            )
            self.statistics = source.statistics.clone()
            self._version = source._version
            self._generation += 1
            self._pinned = 0

    def _notify_mutation(self, delta: TableDelta) -> None:
        if self._on_mutation is not None:
            self._version = self._on_mutation(delta)
        else:
            self._version += 1

    def _text_values(self, row: tuple[Any, ...]) -> tuple[tuple[str, str], ...]:
        """``(column, value)`` pairs for the row's non-null TEXT cells."""
        return tuple(
            (name, value)
            for pos, name in self._text_positions
            if isinstance((value := row[pos]), str)
        )

    @property
    def version(self) -> int:
        """Monotone stamp bumped by insert/update/delete and index DDL."""
        return self._version

    # -- basics ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self._live_count

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate live rows in insertion order."""
        return (row for row in self._rows if row is not None)

    def rows_with_ids(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        return ((i, row) for i, row in enumerate(self._rows) if row is not None)

    def batch_storage(self) -> tuple[list, "range | list[int]"]:
        """Row storage plus the selection of live positions, for columnar
        scans.  Callers must treat both as read-only — the storage is the
        table's own (with ``None`` tombstones when rows were deleted).
        """
        rows = self._rows
        if self._live_count == len(rows):
            return rows, range(len(rows))
        return rows, [i for i, row in enumerate(rows) if row is not None]

    def row_by_id(self, row_id: int) -> tuple[Any, ...] | None:
        if 0 <= row_id < len(self._rows):
            return self._rows[row_id]
        return None

    # -- mutation ----------------------------------------------------------

    def _normalise(self, values: Mapping[str, Any] | Sequence[Any]) -> tuple[Any, ...]:
        columns = self.schema.columns
        if isinstance(values, Mapping):
            lowered = {key.lower(): val for key, val in values.items()}
            unknown = set(lowered) - set(self.schema.column_names)
            if unknown:
                raise SchemaError(
                    f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
                )
            raw = [lowered.get(col.name) for col in columns]
        else:
            if len(values) != len(columns):
                raise SchemaError(
                    f"table {self.name!r} expects {len(columns)} values, "
                    f"got {len(values)}"
                )
            raw = values
        out = []
        for col, stored, val in zip(columns, self._stored_types, raw):
            if type(val) is not stored:  # anything else may need coercion
                val = coerce_value(val, col.sql_type)
                if val is None and not col.nullable:
                    raise IntegrityError(f"column {self.name}.{col.name} is NOT NULL")
            out.append(val)
        return tuple(out)

    def insert(
        self,
        values: Mapping[str, Any] | Sequence[Any],
        check: Callable[[tuple[Any, ...]], None] | None = None,
    ) -> int:
        """Insert one row (a one-row :meth:`insert_many`); returns its row id."""
        with self._write_lock:
            self.insert_many((values,), check)
            return len(self._rows) - 1

    def insert_many(
        self,
        rows: Iterable[Mapping[str, Any] | Sequence[Any]],
        check: Callable[[tuple[Any, ...]], None] | None = None,
    ) -> int:
        """Insert a batch of rows, all or nothing; returns the number inserted.

        Every row is validated, in order, before any is applied: it is
        normalised, handed to ``check`` (the database's FK validation),
        and its primary key is checked against the table and against the
        batch's earlier rows.  The first failure raises with the table
        untouched.  The apply then detaches from snapshots once, extends
        storage and indexes, feeds statistics column by column, and emits
        **one** coalesced delta and version bump, like a bulk UPDATE or
        DELETE.  The lock is held throughout, so no snapshot can pin a
        half-inserted batch.
        """
        with self._write_lock:
            pk_index = self._pk_index
            pk_pos = (
                None
                if pk_index is None
                else self.schema.column_index(self.schema.primary_key)
            )
            batch: list[tuple[Any, ...]] = []
            batch_keys: set[Any] = set()
            for values in rows:
                row = self._normalise(values)
                if check is not None:
                    check(row)
                if pk_pos is not None:
                    pk_val = row[pk_pos]
                    if pk_val is None:
                        raise IntegrityError(
                            f"primary key {self.name}.{self.schema.primary_key} "
                            "cannot be NULL"
                        )
                    if pk_val in batch_keys or pk_index.lookup(pk_val):
                        raise IntegrityError(
                            f"duplicate primary key {pk_val!r} in table {self.name!r}"
                        )
                    batch_keys.add(pk_val)
                batch.append(row)
            if not batch:
                return 0
            self._materialise_for_write()
            first = len(self._rows)
            self._rows.extend(batch)
            self._live_count += len(batch)
            for index, pos in self._indexes():
                add = index.add
                for row_id, row in enumerate(batch, first):
                    add(row[pos], row_id)
            self.statistics.on_insert_many(batch)
            added = tuple(pair for row in batch for pair in self._text_values(row))
            self._notify_mutation(TableDelta(self.name, added=added))
        return len(batch)

    def delete_row(self, row_id: int) -> bool:
        """Tombstone a row; returns True when a live row was removed."""
        return self.delete_rows([row_id]) == 1

    def delete_rows(self, row_ids: Iterable[int]) -> int:
        """Tombstone a batch of rows, emitting **one** coalesced delta.

        This is the bulk-DELETE path: a statement removing 10k rows
        notifies delta listeners once (with all removed string values),
        instead of enqueuing 10k per-row callbacks, and bumps the table
        version once — exactly like a batched UPDATE.
        """
        with self._write_lock:
            doomed: list[tuple[int, tuple[Any, ...]]] = []
            seen: set[int] = set()
            for row_id in row_ids:
                row = self.row_by_id(row_id)
                if row is None or row_id in seen:
                    continue
                seen.add(row_id)
                doomed.append((row_id, row))
            if not doomed:
                return 0
            self._materialise_for_write()
            removed: list[tuple[str, str]] = []
            for row_id, row in doomed:
                self._unindex_row(row_id, row)
                self._rows[row_id] = None
                self._live_count -= 1
                self.statistics.on_delete(row)
                removed.extend(self._text_values(row))
            self._notify_mutation(TableDelta(self.name, removed=tuple(removed)))
            return len(doomed)

    def update_row(
        self, row_id: int, values: Mapping[str, Any] | Sequence[Any]
    ) -> bool:
        """Replace a row in place, keeping its row id and insertion order.

        Indexes and statistics are maintained; the primary key may change as
        long as the new value does not collide with another live row.
        """
        return self.update_rows([(row_id, values)]) == 1

    def update_rows(
        self, updates: Iterable[tuple[int, Mapping[str, Any] | Sequence[Any]]]
    ) -> int:
        """Replace several rows in place, atomically with respect to errors.

        All values are normalised and the *final* primary-key state is
        validated before anything mutates, so a collision raises with the
        table untouched.  The apply itself is two-phase (unindex all old
        rows, then write+index all new ones), which makes chained updates
        like ``SET id = id + 1`` — where intermediate states would collide
        — come out right.
        """
        return self.apply_prepared_updates(self.prepare_updates(updates))

    def prepare_updates(
        self, updates: Iterable[tuple[int, Mapping[str, Any] | Sequence[Any]]]
    ) -> list[tuple[int, tuple[Any, ...], tuple[Any, ...]]]:
        """Normalise a batch into ``(row_id, new_row, old_row)`` triples.

        Split out so callers that validate before applying (the database's
        FK enforcement) can reuse the normalised rows instead of paying
        for a second normalisation pass.
        """
        prepared: list[tuple[int, tuple[Any, ...], tuple[Any, ...]]] = []
        for row_id, values in updates:
            old = self.row_by_id(row_id)
            if old is None:
                continue
            prepared.append((row_id, self._normalise(values), old))
        return prepared

    def apply_prepared_updates(
        self, prepared: list[tuple[int, tuple[Any, ...], tuple[Any, ...]]]
    ) -> int:
        """Validate final PK state, then two-phase-apply prepared triples."""
        with self._write_lock:
            return self._apply_prepared_updates_locked(prepared)

    def _apply_prepared_updates_locked(
        self, prepared: list[tuple[int, tuple[Any, ...], tuple[Any, ...]]]
    ) -> int:
        if self._pk_index is not None and prepared:
            pk_pos = self.schema.column_index(
                self.schema.primary_key
            )  # type: ignore[arg-type]
            updating = {row_id for row_id, _, _ in prepared}
            seen: set[Any] = set()
            for row_id, new, _ in prepared:
                pk_val = new[pk_pos]
                if pk_val is None:
                    raise IntegrityError(
                        f"primary key {self.name}.{self.schema.primary_key} "
                        "cannot be NULL"
                    )
                if pk_val in seen or any(
                    holder not in updating
                    for holder in self._pk_index.lookup(pk_val)
                ):
                    raise IntegrityError(
                        f"duplicate primary key {pk_val!r} in table {self.name!r}"
                    )
                seen.add(pk_val)
        if prepared:
            self._materialise_for_write()
        for row_id, _, old in prepared:
            self._unindex_row(row_id, old)
        added: list[tuple[str, str]] = []
        removed: list[tuple[str, str]] = []
        for row_id, new, old in prepared:
            self._rows[row_id] = new
            self._index_row(row_id, new)
            self.statistics.on_update(old, new)
            for pos, name in self._text_positions:
                before, after = old[pos], new[pos]
                if before == after:
                    continue
                if isinstance(before, str):
                    removed.append((name, before))
                if isinstance(after, str):
                    added.append((name, after))
        if prepared:
            self._notify_mutation(
                TableDelta(self.name, added=tuple(added), removed=tuple(removed))
            )
        return len(prepared)

    # -- indexes -----------------------------------------------------------

    def _indexes(self) -> list[tuple[HashIndex | SortedIndex, int]]:
        """Every index of the table (PK first) with its column position."""
        column_index = self.schema.column_index
        out: list[tuple[HashIndex | SortedIndex, int]] = []
        if self._pk_index is not None:
            out.append((self._pk_index, column_index(self.schema.primary_key)))
        for indexes in (self._hash_indexes, self._sorted_indexes):
            out.extend((idx, column_index(col)) for col, idx in indexes.items())
        return out

    def _index_row(self, row_id: int, row: tuple[Any, ...]) -> None:
        for index, pos in self._indexes():
            index.add(row[pos], row_id)

    def _unindex_row(self, row_id: int, row: tuple[Any, ...]) -> None:
        for index, pos in self._indexes():
            index.remove(row[pos], row_id)

    def create_hash_index(self, column: str) -> HashIndex:
        col = self.schema.column(column)
        with self._write_lock:
            if col.name in self._hash_indexes:
                return self._hash_indexes[col.name]
            index = HashIndex(col.name)
            pos = self.schema.column_index(col.name)
            for row_id, row in self.rows_with_ids():
                index.add(row[pos], row_id)
            self._materialise_for_write()
            self._hash_indexes[col.name] = index
            # Cached plans without the index are stale; values did not change.
            self._notify_mutation(TableDelta(self.name, kind="ddl"))
            return index

    def create_sorted_index(self, column: str) -> SortedIndex:
        col = self.schema.column(column)
        if not is_numeric(col.sql_type) and col.sql_type.value != "TEXT":
            raise TypeMismatchError(
                f"sorted index unsupported on {col.sql_type} column {col.name!r}"
            )
        with self._write_lock:
            if col.name in self._sorted_indexes:
                return self._sorted_indexes[col.name]
            index = SortedIndex(col.name)
            pos = self.schema.column_index(col.name)
            for row_id, row in self.rows_with_ids():
                index.add(row[pos], row_id)
            self._materialise_for_write()
            self._sorted_indexes[col.name] = index
            # Cached plans without the index are stale; values did not change.
            self._notify_mutation(TableDelta(self.name, kind="ddl"))
            return index

    def hash_index(self, column: str) -> HashIndex | None:
        lowered = column.lower()
        if self._pk_index is not None and lowered == self.schema.primary_key:
            return self._pk_index
        return self._hash_indexes.get(lowered)

    def sorted_index(self, column: str) -> SortedIndex | None:
        return self._sorted_indexes.get(column.lower())

    # -- convenience lookups used by NLI layers -----------------------------

    def lookup_equal(self, column: str, value: Any) -> list[tuple[Any, ...]]:
        """All rows where ``column == value``, via index when available."""
        index = self.hash_index(column)
        pos = self.schema.column_index(column)
        if index is not None:
            out = []
            for row_id in index.lookup(value):
                row = self.row_by_id(row_id)
                if row is not None:
                    out.append(row)
            return out
        return [row for row in self.rows() if row[pos] == value]

    def column_values(self, column: str) -> Iterator[Any]:
        """Iterate the (live) values of one column."""
        pos = self.schema.column_index(column)
        return (row[pos] for row in self.rows())
