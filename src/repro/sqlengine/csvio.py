"""CSV load/dump for tables — the engine's bulk interchange format."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterator, TextIO

from repro.errors import SchemaError
from repro.sqlengine.database import Database
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType

_NULL_TOKEN = ""


def _parse_cell(text: str, sql_type: SqlType) -> object:
    if text == _NULL_TOKEN:
        return None
    if sql_type is SqlType.INT:
        return int(text)
    if sql_type is SqlType.FLOAT:
        return float(text)
    if sql_type is SqlType.BOOL:
        return text.strip().lower() in ("true", "t", "1", "yes")
    return text


def load_csv(table: Table, source: str | Path | TextIO, header: bool = True) -> int:
    """Load rows from a CSV file/stream into ``table``; returns row count.

    With ``header=True`` the first line must name the columns (any order);
    otherwise cells must appear in schema order.  Empty cells load as NULL.
    The rows go in as one bulk insert, so a bad row (or header) loads
    nothing: the error is raised with the table untouched.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            return load_csv(table, handle, header=header)

    def rows() -> Iterator[dict[str, object]]:
        columns = list(table.schema.columns)
        order = list(range(len(columns)))
        first = True
        for record in csv.reader(source):
            if not record:
                continue
            if first and header:
                first = False
                names = [cell.strip().lower() for cell in record]
                unknown = set(names) - set(table.schema.column_names)
                if unknown:
                    raise SchemaError(
                        f"CSV header names unknown columns {sorted(unknown)} "
                        f"for table {table.name!r}"
                    )
                order = [names.index(col.name) for col in columns if col.name in names]
                columns = [col for col in columns if col.name in names]
                continue
            first = False
            yield {
                col.name: _parse_cell(record[src], col.sql_type)
                for col, src in zip(columns, order)
            }

    return table.insert_many(rows())


def dump_csv(table: Table, target: str | Path | TextIO | None = None) -> str:
    """Write ``table`` as CSV (header + rows); returns the CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.schema.column_names)
    for row in table.rows():
        writer.writerow(["" if cell is None else cell for cell in row])
    text = buffer.getvalue()
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
    elif target is not None:
        target.write(text)
    return text


def dump_database_csv(database: Database, directory: str | Path) -> list[Path]:
    """Dump every table to ``directory/<table>.csv``; returns written paths."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in database.table_names:
        path = out_dir / f"{name}.csv"
        dump_csv(database.table(name), path)
        written.append(path)
    return written
