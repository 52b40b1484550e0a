"""Reference answers that do not come from the system under test.

Two sources:

* the stored gold answers of ``repro/evaluation/gold/*.jsonl`` — valid
  while the bundled databases are unchanged (read-only workloads, and
  writes that touch only columns no gold statement reads);
* :class:`SqliteOracle` — the same rows loaded into stdlib ``sqlite3``,
  kept in step with every acknowledged write, answering the gold SQL.
  Used where the data is not the bundled data: the scaled database of
  ``big-scan`` and the mutating one of ``mixed-durable``.
"""

from __future__ import annotations

import re
import sqlite3
from typing import Any, Iterable

Answer = frozenset  # of row tuples, floats rounded as ResultSet.answer_set does

#: ``... ORDER BY <key> ASC|DESC LIMIT <n>`` — the only LIMIT shape in the
#: gold sets.  With a tie at the cut the statement has several right
#: answers and sqlite's pick proves nothing about the engine's.
_TOP_N = re.compile(
    r"^SELECT\s+(?:DISTINCT\s+)?.+?\s+(FROM\s+.+\s+ORDER\s+BY\s+(\S+)\s+(ASC|DESC))"
    r"\s+LIMIT\s+(\d+)$",
    re.IGNORECASE | re.DOTALL,
)


def normalise(rows: Iterable[Iterable[Any]]) -> Answer:
    """Order-insensitive answer set; mirrors ``ResultSet.answer_set``."""
    return frozenset(
        tuple(round(cell, 6) if isinstance(cell, float) else cell for cell in row)
        for row in rows
    )


class SqliteOracle:
    """A sqlite mirror of a ``repro`` database.

    ``answer`` returns ``None`` for a statement whose answer is not unique
    at the current data version; callers leave such asks unchecked and
    count them.
    """

    def __init__(self, database: Any) -> None:
        self._con = sqlite3.connect(":memory:")
        for table in database.tables():
            schema = table.schema
            columns = ", ".join(f"{c.name} {c.sql_type.value}" for c in schema.columns)
            self._con.execute(f"CREATE TABLE {schema.name} ({columns})")
            marks = ", ".join("?" * len(schema.columns))
            self._con.executemany(
                f"INSERT INTO {schema.name} VALUES ({marks})", list(table.rows())
            )
        self._version = 0
        self._memo: dict[str, tuple[int, Answer | None]] = {}

    def apply(self, sql: str) -> None:
        """Mirror one acknowledged DML statement."""
        self._con.execute(sql)
        self._version += 1

    def answer(self, sql: str) -> Answer | None:
        cached = self._memo.get(sql)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        result = self._answer(sql)
        self._memo[sql] = (self._version, result)
        return result

    def _answer(self, sql: str) -> Answer | None:
        if re.search(r"\bLIMIT\b", sql, re.IGNORECASE):
            match = _TOP_N.match(sql.strip())
            if match is None:
                return None
            tail, key, _, n = match.groups()
            keys = self._con.execute(
                f"SELECT {key} {tail} LIMIT {int(n) + 1}"
            ).fetchall()
            if len(keys) > int(n) and keys[-1] == keys[-2]:
                return None
        return normalise(self._con.execute(sql).fetchall())

    def why_unusable(self, sql: str) -> str | None:
        """Reason this gold statement cannot serve as a reference, if any."""
        try:
            answer = self.answer(sql)
        except sqlite3.Error as exc:
            return f"sqlite cannot run it: {exc}"
        if answer is None:
            return "answer not unique (ORDER BY ... LIMIT over a tie)"
        return None

    def rows(self, table: str) -> Answer:
        return normalise(self._con.execute(f"SELECT * FROM {table}").fetchall())

    def count(self, table: str) -> int:
        return self._con.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    def close(self) -> None:
        self._con.close()
