"""Bulk loading equals loading one row at a time.

``Table.insert_many`` validates a whole batch, then applies it at once:
storage and indexes extended, statistics fed column by column, one delta
and one version bump.  For every bundled domain and for fleet at 2 000
ships, a database loaded through ``Database.insert_many`` (the path the
dataset builders take) must hold exactly what one loaded row by row with
``Table.insert`` holds: rows and row ids, PK/hash/sorted index contents,
statistics (with the tracked-value budget lowered so columns compress
mid-batch), and value-index lookups.
"""

from __future__ import annotations

import pytest

from repro.datasets import company, events, fleet, geography, saas
from repro.sqlengine import Database
from repro.sqlengine.schema import Column, TableSchema
from repro.sqlengine.statistics import ColumnStats
from repro.sqlengine.types import SqlType, is_numeric
from repro.valueindex import ValueIndex

def _sparse() -> Database:
    """NULLs, floats and booleans, which the bundled domains lack."""
    db = Database()
    columns = [
        Column("id", SqlType.INT, nullable=False),
        Column("x", SqlType.FLOAT),
        Column("tag", SqlType.TEXT),
        Column("flag", SqlType.BOOL),
    ]
    db.create_table(TableSchema("m", columns, primary_key="id"))
    db.insert_many(
        "m",
        (
            (
                i,
                None if i % 3 == 0 else i * 0.5 % 37,
                None if i % 5 == 0 else f"t{i % 40}",
                None if i % 7 == 0 else i % 2 == 0,
            )
            for i in range(400)
        ),
    )
    return db


BUILDERS = {
    "fleet": fleet.build_database,
    "geography": geography.build_database,
    "company": company.build_database,
    "saas": saas.build_database,
    "events": events.build_database,
    "fleet-2000": lambda: fleet.build_database(seed=3, ships=2000),
    "sparse": _sparse,
}


def _load(source: Database, bulk: bool) -> tuple[Database, list[tuple[int, int]]]:
    """Copy ``source`` into a fresh database with a secondary index on
    every non-key column; returns it with, per bulk batch, the number of
    deltas it emitted and the clock ticks it took."""
    db = Database()
    deltas: list = []
    db.add_delta_listener(deltas.append)
    batches = []
    for original in source.tables():
        table = db.create_table(original.schema)
        for column in original.schema.columns:
            if column.name == original.schema.primary_key:
                continue
            if is_numeric(column.sql_type):
                table.create_sorted_index(column.name)
            else:
                table.create_hash_index(column.name)
        rows = list(original.rows())
        if bulk:
            deltas.clear()
            clock = db.version
            db.insert_many(table.name, iter(rows))
            batches.append((len(deltas), db.version - clock))
            assert table.version == db.version
        else:
            for row in rows:
                table.insert(row)
    return db, batches


def _statistics(stats: ColumnStats) -> tuple:
    hist = stats.histogram()
    return (
        stats.distinct,
        stats.null_count,
        stats.non_null_count,
        stats.min_value,
        stats.max_value,
        stats.compressed,
        None if hist is None else (hist.bucket_bounds(), sorted(hist.mcv.items())),
    )


def _contents(db: Database) -> dict:
    out = {}
    for table in db.tables():
        out[table.name] = {
            "rows": list(table.rows_with_ids()),
            "pk": (table._pk_index._buckets, table._pk_index._nulls),
            "hash": {c: (i._buckets, i._nulls) for c, i in table._hash_indexes.items()},
            "sorted": {
                c: (i._keys, i._row_ids, i._nulls)
                for c, i in table._sorted_indexes.items()
            },
            "row_count": table.statistics.row_count,
            "columns": {
                name: _statistics(table.statistics.column(name))
                for name in table.schema.column_names
            },
        }
    return out


@pytest.mark.parametrize("domain", sorted(BUILDERS))
def test_bulk_load_equals_row_by_row(domain, monkeypatch):
    monkeypatch.setattr(ColumnStats, "max_tracked", 24)
    source = BUILDERS[domain]()
    bulk, batches = _load(source, bulk=True)
    single, _ = _load(source, bulk=False)

    assert _contents(bulk) == _contents(single)
    assert any(
        table.statistics.column(name).compressed
        for table in bulk.tables()
        for name in table.schema.column_names
    ), "the lowered budget should compress some column mid-batch"
    # One delta and one clock tick per insert_many call.
    assert batches and all(batch == (1, 1) for batch in batches)

    bulk_index, single_index = ValueIndex(bulk), ValueIndex(single)
    assert bulk_index.stats() == single_index.stats()
    phrases = {
        tuple(value.lower().split())
        for table in single.tables()
        for column in table.schema.columns
        if column.sql_type is SqlType.TEXT
        for value in table.column_values(column.name)
        if value
    }
    for words in sorted(phrases):
        assert bulk_index.lookup(list(words)) == single_index.lookup(list(words))
