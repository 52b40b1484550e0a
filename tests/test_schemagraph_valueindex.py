"""Tests for the schema graph, Steiner join inference and the value index."""

import pytest

from repro.datasets import fleet
from repro.errors import InterpretationError
from repro.schemagraph import SchemaGraph, steiner_join_tree, tables_in_tree
from repro.valueindex import ValueIndex

from tests.conftest import make_library_db


@pytest.fixture(scope="module")
def fleet_db():
    return fleet.build_database()


@pytest.fixture(scope="module")
def fleet_graph(fleet_db):
    return SchemaGraph(fleet_db)


class TestSchemaGraph:
    def test_tables_listed(self, fleet_graph):
        assert "ship" in fleet_graph.tables
        assert "fleet" in fleet_graph.tables

    def test_neighbors_via_fk(self, fleet_graph):
        targets = {edge.to_table for edge in fleet_graph.neighbors("ship")}
        assert {"fleet", "port", "officer", "shiptype", "deployment"} <= targets

    def test_edges_bidirectional(self, fleet_graph):
        from_fleet = {edge.to_table for edge in fleet_graph.neighbors("fleet")}
        assert "ship" in from_fleet

    def test_shortest_path_direct(self, fleet_graph):
        path = fleet_graph.shortest_path("ship", "fleet")
        assert len(path) == 1
        assert path[0].describe() == "ship.fleet_id = fleet.id"

    def test_shortest_path_two_hops(self, fleet_graph):
        path = fleet_graph.shortest_path("fleet", "shiptype")
        assert len(path) == 2
        assert path[0].to_table == "ship" or path[0].from_table == "ship" or True
        assert tables_in_tree(path, {"fleet", "shiptype"}) == [
            "fleet", "ship", "shiptype",
        ]

    def test_same_table_path_empty(self, fleet_graph):
        assert fleet_graph.shortest_path("ship", "ship") == []

    def test_unknown_table_raises(self, fleet_graph):
        with pytest.raises(InterpretationError):
            fleet_graph.shortest_path("ship", "nonexistent")

    def test_disconnected_tables_raise(self):
        db = make_library_db()
        from repro.sqlengine import Column, SqlType, TableSchema

        db.create_table(TableSchema("island", [Column("id", SqlType.INT)]))
        graph = SchemaGraph(db)
        with pytest.raises(InterpretationError):
            graph.shortest_path("author", "island")
        assert not graph.connected("author", "island")

    def test_distance(self, fleet_graph):
        assert fleet_graph.distance("ship", "fleet") == 1
        assert fleet_graph.distance("fleet", "shiptype") == 2


class TestSteiner:
    def test_single_terminal_no_edges(self, fleet_graph):
        assert steiner_join_tree(fleet_graph, {"ship"}) == []

    def test_two_terminals(self, fleet_graph):
        edges = steiner_join_tree(fleet_graph, {"ship", "fleet"})
        assert len(edges) == 1

    def test_three_terminals_star(self, fleet_graph):
        edges = steiner_join_tree(fleet_graph, {"fleet", "shiptype", "port"})
        tables = tables_in_tree(edges, {"fleet", "shiptype", "port"})
        # ship is the Steiner point connecting all three
        assert "ship" in tables
        assert len(edges) == 3

    def test_deterministic(self, fleet_graph):
        a = steiner_join_tree(fleet_graph, {"officer", "fleet", "deployment"})
        b = steiner_join_tree(fleet_graph, {"deployment", "fleet", "officer"})
        assert a == b

    def test_star_tree_tables(self, fleet_graph):
        # fleet, shiptype and port all hang off ship: the tree is the star.
        terminals = {"fleet", "shiptype", "port"}
        edges = steiner_join_tree(fleet_graph, terminals)
        assert tables_in_tree(edges, terminals) == ["fleet", "port", "ship", "shiptype"]

    def test_no_duplicate_edges(self, fleet_graph):
        edges = steiner_join_tree(
            fleet_graph, {"fleet", "shiptype", "port", "officer", "deployment"}
        )
        keys = {(e.from_table, e.from_column, e.to_table, e.to_column) for e in edges}
        assert len(keys) == len(edges)

    def test_unknown_terminal_raises(self, fleet_graph):
        with pytest.raises(InterpretationError):
            steiner_join_tree(fleet_graph, {"ship", "ghost"})


class TestValueIndex:
    @pytest.fixture(scope="class")
    def index(self, fleet_db):
        return ValueIndex(fleet_db)

    def test_single_word_value(self, index):
        hits = index.lookup(["norfolk"])
        assert any(h.table == "port" and h.column == "name" for h in hits)

    def test_multiword_value(self, index):
        hits = index.lookup(["pearl", "harbor"])
        assert any(h.value == "Pearl Harbor" for h in hits)

    def test_case_insensitive(self, index):
        assert index.lookup(["NORFOLK"])

    def test_value_in_multiple_columns(self, index):
        hits = index.lookup(["pacific"])
        columns = {(h.table, h.column) for h in hits}
        assert ("fleet", "name") in columns
        assert len(columns) >= 2  # also ocean columns

    def test_prefix_prefers_longest(self, index):
        matches = index.lookup_prefix(["pearl", "harbor", "ships"])
        assert matches[0][0] == 2  # two-token match first

    def test_stemmed_fallback(self, index):
        hits = index.lookup(["admirals"])
        assert any(h.value == "admiral" and not h.exact for h in hits)

    def test_exact_beats_stemmed(self, index):
        hits = index.lookup(["admiral"])
        assert hits[0].exact

    def test_fuzzy_word(self, index):
        assert index.fuzzy_word("norflk") == "norfolk"
        assert index.fuzzy_word("norfolk") is None  # already known
        assert index.fuzzy_word("zzzzzz") is None

    def test_contains_word(self, index):
        assert index.contains_word("norfolk")
        assert not index.contains_word("pasta")

    def test_numbers_not_indexed(self, index):
        # INT columns are not in the value index (only TEXT)
        assert index.lookup(["3675"]) == []

    def test_stats(self, index):
        stats = index.stats()
        assert stats["phrases"] > 50
        assert stats["max_phrase_len"] >= 2

    def test_max_values_cap(self, fleet_db):
        capped = ValueIndex(fleet_db, max_values_per_column=2)
        assert capped.stats()["phrases"] < ValueIndex(fleet_db).stats()["phrases"]
