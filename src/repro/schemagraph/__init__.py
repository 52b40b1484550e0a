"""Schema graph and join-path inference (from-scratch graph algorithms)."""

from repro.schemagraph.graph import JoinEdge, SchemaGraph
from repro.schemagraph.steiner import steiner_join_tree, tables_in_tree

__all__ = [
    "JoinEdge",
    "SchemaGraph",
    "steiner_join_tree",
    "tables_in_tree",
]
