"""Checkpoints: a pinned database snapshot serialized to one JSON file.

A checkpoint is written from a :class:`~repro.sqlengine.snapshot.DatabaseSnapshot`
— the MVCC cut is the unit of durability, so the file can never contain
half a statement or a mix of two commits.  Writes go to a temp file in
the same directory, fsync, then :func:`os.replace`: a crash mid-write
leaves only a ``*.tmp`` that recovery ignores, never a torn checkpoint.

The payload records each table's schema (including the comments the NLI
lexicon builder feeds on), its live rows, and the names of its secondary
indexes; restore recreates tables in foreign-key dependency order and
rebuilds indexes and statistics by reinsertion.  Like the WAL, the file
leads with a magic string and a format version so migrations have a hook.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import StorageError
from repro.sqlengine.schema import Column, ForeignKey, TableSchema
from repro.sqlengine.types import SqlType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sqlengine.database import Database
    from repro.sqlengine.snapshot import DatabaseSnapshot

CHECKPOINT_MAGIC = "repro-checkpoint"
#: Current on-disk format; bump alongside a new CHECKPOINT_MIGRATIONS entry.
CHECKPOINT_FORMAT = 1

#: ``{old_format: payload_migrator}`` — rewrites a whole decoded payload
#: from ``old_format`` to ``old_format + 1``.  Empty today (the hook).
CHECKPOINT_MIGRATIONS: dict[int, Callable[[dict[str, Any]], dict[str, Any]]] = {}


def _schema_to_dict(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "columns": [
            {
                "name": col.name,
                "type": col.sql_type.value,
                "nullable": col.nullable,
                "comment": col.comment,
            }
            for col in schema.columns
        ],
        "primary_key": schema.primary_key,
        "foreign_keys": [
            {
                "column": fk.column,
                "ref_table": fk.ref_table,
                "ref_column": fk.ref_column,
            }
            for fk in schema.foreign_keys
        ],
        "comment": schema.comment,
    }


def _schema_from_dict(data: dict[str, Any]) -> TableSchema:
    return TableSchema(
        data["name"],
        [
            Column(
                col["name"],
                SqlType(col["type"]),
                nullable=col.get("nullable", True),
                comment=col.get("comment", ""),
            )
            for col in data["columns"]
        ],
        primary_key=data.get("primary_key"),
        foreign_keys=[
            ForeignKey(fk["column"], fk["ref_table"], fk["ref_column"])
            for fk in data.get("foreign_keys", ())
        ],
        comment=data.get("comment", ""),
    )


def write_checkpoint(
    path: str | os.PathLike[str], snapshot: "DatabaseSnapshot", seq: int
) -> None:
    """Serialize ``snapshot`` to ``path`` atomically (tmp + fsync + rename)."""
    payload: dict[str, Any] = {
        "magic": CHECKPOINT_MAGIC,
        "format": CHECKPOINT_FORMAT,
        "seq": seq,
        "name": snapshot.name,
        "tables": [
            {
                "schema": _schema_to_dict(table.schema),
                "rows": [list(row) for row in table.rows()],
                "hash_indexes": sorted(table._hash_indexes),
                "sorted_indexes": sorted(table._sorted_indexes),
            }
            for table in snapshot.tables()
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Parse and validate one checkpoint file.

    Raises :class:`StorageError` for a newer-than-supported format (the
    caller must not fall back past it silently) and ``ValueError`` /
    ``json.JSONDecodeError`` for corruption (the caller falls back to an
    older checkpoint).
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    fmt = payload.get("format")
    if not isinstance(fmt, int) or fmt > CHECKPOINT_FORMAT:
        raise StorageError(
            f"{Path(path).name}: checkpoint format {fmt!r} is newer than "
            f"supported format {CHECKPOINT_FORMAT}"
        )
    while fmt < CHECKPOINT_FORMAT:
        payload = CHECKPOINT_MIGRATIONS[fmt](payload)
        fmt += 1
    return payload


def _topo_order(tables: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Order table payloads so FK parents come before their children.

    ``create_table`` validates that referenced tables exist, so restore
    must respect dependency order.  Self-references are exempt (as at
    creation time); cycles cannot exist because they could never have
    been created.
    """
    by_name = {t["schema"]["name"]: t for t in tables}
    ordered: list[dict[str, Any]] = []
    done: set[str] = set()

    def visit(name: str) -> None:
        if name in done or name not in by_name:
            return
        done.add(name)
        for fk in by_name[name]["schema"].get("foreign_keys", ()):
            if fk["ref_table"] != name:
                visit(fk["ref_table"])
        ordered.append(by_name[name])

    for name in sorted(by_name):
        visit(name)
    return ordered


def restore_checkpoint(database: "Database", payload: dict[str, Any]) -> int:
    """Replace ``database``'s entire contents with a checkpoint's.

    Returns the number of rows restored.  Each table's rows go in as one
    bulk :meth:`~repro.sqlengine.table.Table.insert_many` through the
    table layer directly (no FK re-validation — the checkpoint was taken
    from a consistent state), under one statement scope so no reader can
    pin a half-restored catalog.
    """
    rows_restored = 0
    with database.statement_scope():
        for name in list(database.table_names):
            database.drop_table(name)
        for tdata in _topo_order(payload["tables"]):
            table = database.create_table(_schema_from_dict(tdata["schema"]))
            rows_restored += table.insert_many(tdata["rows"])
            for column in tdata.get("hash_indexes", ()):
                table.create_hash_index(column)
            for column in tdata.get("sorted_indexes", ()):
                table.create_sorted_index(column)
    return rows_restored
