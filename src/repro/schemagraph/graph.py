"""Schema graph: tables as nodes, foreign keys as edges.

Join-path inference over this graph is what lets a user say "ships in the
pacific fleet" without ever naming the link tables — the system finds the
FK chain itself.  All graph algorithms are implemented here from scratch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import InterpretationError
from repro.sqlengine.database import Database


@dataclass(frozen=True)
class JoinEdge:
    """One foreign-key edge: ``from_table.from_column -> to_table.to_column``."""

    from_table: str
    from_column: str
    to_table: str
    to_column: str

    def reversed(self) -> "JoinEdge":
        return JoinEdge(
            self.to_table, self.to_column, self.from_table, self.from_column
        )

    def describe(self) -> str:
        left = f"{self.from_table}.{self.from_column}"
        return f"{left} = {self.to_table}.{self.to_column}"


class SchemaGraph:
    """Undirected view of a database's FK structure."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._adjacency: dict[str, list[JoinEdge]] = {
            name: [] for name in database.table_names
        }
        for schema in database.schemas():
            for fk in schema.foreign_keys:
                edge = JoinEdge(schema.name, fk.column, fk.ref_table, fk.ref_column)
                self._adjacency[schema.name].append(edge)
                self._adjacency[fk.ref_table].append(edge.reversed())

    @property
    def tables(self) -> list[str]:
        return sorted(self._adjacency)

    def neighbors(self, table: str) -> list[JoinEdge]:
        return list(self._adjacency.get(table, []))

    # -- paths ---------------------------------------------------------------

    def shortest_path(self, source: str, target: str) -> list[JoinEdge]:
        """BFS shortest join path; [] when source == target.

        Raises :class:`InterpretationError` when no path exists.
        """
        if source not in self._adjacency or target not in self._adjacency:
            raise InterpretationError(
                f"unknown table in join inference: {source!r} or {target!r}"
            )
        if source == target:
            return []
        parents: dict[str, JoinEdge] = {}
        visited = {source}
        queue: deque[str] = deque([source])
        while queue:
            current = queue.popleft()
            for edge in self._adjacency[current]:
                nxt = edge.to_table
                if nxt in visited:
                    continue
                visited.add(nxt)
                parents[nxt] = edge
                if nxt == target:
                    return self._rebuild(parents, source, target)
                queue.append(nxt)
        raise InterpretationError(f"no join path between {source!r} and {target!r}")

    @staticmethod
    def _rebuild(
        parents: dict[str, JoinEdge], source: str, target: str
    ) -> list[JoinEdge]:
        path: list[JoinEdge] = []
        node = target
        while node != source:
            edge = parents[node]
            path.append(edge)
            node = edge.from_table
        path.reverse()
        return path

    def distance(self, source: str, target: str) -> int:
        """Number of join hops between two tables (inf -> error)."""
        return len(self.shortest_path(source, target))

    def connected(self, source: str, target: str) -> bool:
        try:
            self.shortest_path(source, target)
            return True
        except InterpretationError:
            return False
