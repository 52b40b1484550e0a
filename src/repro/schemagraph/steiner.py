"""Steiner-tree approximation for join-path inference.

Given the set of tables a question touches (the *terminals*), the join
tree connecting them should be as small as possible — extra tables mean
extra joins and, worse, changed semantics.  Finding the minimum connecting
tree is the Steiner tree problem (NP-hard); the classic 2-approximation
used here grows the tree greedily by repeatedly attaching the terminal
closest to the tree so far (Takahashi–Matsuyama).
"""

from __future__ import annotations

from repro.errors import InterpretationError
from repro.schemagraph.graph import JoinEdge, SchemaGraph


def steiner_join_tree(graph: SchemaGraph, terminals: set[str]) -> list[JoinEdge]:
    """Approximate minimal set of join edges connecting all ``terminals``.

    Returns a deduplicated edge list forming a tree over the terminals
    (possibly through intermediate "Steiner" tables).  Deterministic:
    terminals are processed in sorted order, ties broken alphabetically.

    >>> # terminals of size one need no joins
    """
    missing = [t for t in terminals if t not in graph.tables]
    if missing:
        raise InterpretationError(f"unknown tables in join inference: {missing}")
    ordered = sorted(terminals)
    if len(ordered) <= 1:
        return []

    in_tree: set[str] = {ordered[0]}
    remaining = ordered[1:]
    edges: list[JoinEdge] = []
    edge_keys: set[tuple[str, str, str, str]] = set()

    while remaining:
        # Find the remaining terminal with the shortest path to the tree.
        best: tuple[int, str, list[JoinEdge]] | None = None
        for terminal in remaining:
            candidate: tuple[int, list[JoinEdge]] | None = None
            for anchor in sorted(in_tree):
                try:
                    path = graph.shortest_path(anchor, terminal)
                except InterpretationError:
                    continue
                if candidate is None or len(path) < candidate[0]:
                    candidate = (len(path), path)
            if candidate is None:
                raise InterpretationError(
                    f"table {terminal!r} cannot be joined with {sorted(in_tree)}"
                )
            if (
                best is None
                or candidate[0] < best[0]
                or (candidate[0] == best[0] and terminal < best[1])
            ):
                best = (candidate[0], terminal, candidate[1])
        assert best is not None
        _, chosen, path = best
        for edge in path:
            key = _edge_key(edge)
            if key not in edge_keys:
                edge_keys.add(key)
                edges.append(edge)
            in_tree.add(edge.from_table)
            in_tree.add(edge.to_table)
        in_tree.add(chosen)
        remaining.remove(chosen)
    return edges


def tables_in_tree(edges: list[JoinEdge], terminals: set[str]) -> list[str]:
    """All tables covered by a join tree, terminals included, sorted."""
    tables = set(terminals)
    for edge in edges:
        tables.add(edge.from_table)
        tables.add(edge.to_table)
    return sorted(tables)


def _edge_key(edge: JoinEdge) -> tuple[str, str, str, str]:
    """Direction-insensitive identity of a join edge."""
    forward = (edge.from_table, edge.from_column, edge.to_table, edge.to_column)
    backward = (edge.to_table, edge.to_column, edge.from_table, edge.from_column)
    return min(forward, backward)
