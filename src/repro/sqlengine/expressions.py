"""Name scopes and LIKE patterns for the expression compiler
(:mod:`repro.sqlengine.columnar`) and the executor.

A :class:`Scope` maps the qualified column names of a row tuple to their
positions; :func:`like_to_regex` turns a SQL LIKE pattern into a regex.
"""

from __future__ import annotations

import re

from repro.errors import UnknownColumnError


class Scope:
    """Ordered mapping of qualified column names to tuple positions.

    Each entry is ``(binding, column)`` — e.g. ``("s", "name")`` for alias
    ``s``.  Unqualified lookup succeeds only when unambiguous.
    """

    def __init__(self, entries: list[tuple[str, str]]) -> None:
        self.entries = list(entries)
        self._qualified: dict[tuple[str, str], int] = {}
        self._unqualified: dict[str, list[int]] = {}
        for i, (binding, column) in enumerate(self.entries):
            self._qualified[(binding, column)] = i
            self._unqualified.setdefault(column, []).append(i)

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, column: str, table: str | None = None) -> int | None:
        """Position of the column, or None when absent. Raises on ambiguity."""
        if table is not None:
            return self._qualified.get((table.lower(), column.lower()))
        positions = self._unqualified.get(column.lower(), [])
        if not positions:
            return None
        if len(positions) > 1:
            raise UnknownColumnError(f"ambiguous column reference {column!r}")
        return positions[0]

    def merge(self, other: "Scope") -> "Scope":
        return Scope(self.entries + other.entries)


def like_to_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern (% and _) into an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE)
