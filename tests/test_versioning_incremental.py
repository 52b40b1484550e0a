"""Per-table versioning + incremental value-index/lexicon maintenance.

Covers the dependency-aware invalidation chain end to end:

* ``Table.version`` stamps move independently per table;
* the plan cache keeps entries for table B valid across writes to table A;
* the NLI absorbs interleaved DML through row-level deltas — a freshly
  inserted value resolves immediately with *no* full rebuild, and a
  deleted value stops resolving.
"""

from __future__ import annotations

import pytest

from repro.core import NaturalLanguageInterface
from repro.datasets import fleet

from repro.sqlengine import Database, Engine
from repro.sqlengine.table import TableDelta
from repro.valueindex import ValueIndex

from tests.conftest import make_library_db


class TestTableVersions:
    def test_each_mutation_bumps_only_its_table(self):
        db = make_library_db()
        before = db.table_versions()
        db.insert("author", (9, "New Author", "usa", 1980))
        after = db.table_versions()
        assert after["author"] > before["author"]
        assert after["book"] == before["book"]
        assert after["loan"] == before["loan"]

    def test_update_delete_and_index_ddl_bump(self):
        db = make_library_db()
        engine = Engine(db)
        v0 = db.table_version("book")
        engine.execute("UPDATE book SET pages = 100 WHERE id = 1")
        v1 = db.table_version("book")
        assert v1 > v0
        engine.execute("DELETE FROM book WHERE id = 6")
        v2 = db.table_version("book")
        assert v2 > v1
        db.table("book").create_hash_index("year")
        assert db.table_version("book") > v2

    def test_stamps_unique_across_drop_and_recreate(self):
        db = make_library_db()
        loan_stamp = db.table_version("loan")
        schema = db.table("loan").schema
        db.drop_table("loan")
        assert db.table_version("loan") is None
        recreated = db.create_table(schema)
        # Fresh stamps come from the database-wide clock, so the new table
        # can never echo a stamp the old incarnation already handed out.
        assert recreated.version > loan_stamp

    def test_global_version_still_summarises(self):
        db = make_library_db()
        before = db.version
        db.insert("loan", (9, 1, "lovelace", False))
        assert db.version > before

    def test_standalone_table_counts_locally(self):
        from repro.sqlengine import Column, SqlType, TableSchema
        from repro.sqlengine.table import Table

        table = Table(TableSchema("t", [Column("a", SqlType.INT)]))
        v0 = table.version
        table.insert((1,))
        assert table.version > v0


class TestPlanCacheIsolation:
    def test_write_to_a_keeps_b_results_cached(self):
        engine = Engine(make_library_db())
        books = "SELECT COUNT(*) FROM book"
        engine.execute(books)
        engine.execute(books)
        assert engine.plan_cache.stats["result_hits"] == 1
        # Write to an unrelated table...
        engine.execute("INSERT INTO author VALUES (9, 'New Author', 'usa', 1980)")
        # ...and the cached result for `book` is still served.
        assert engine.execute(books).scalar() == 6
        assert engine.plan_cache.stats["result_hits"] == 2

    def test_write_to_a_invalidates_a(self):
        engine = Engine(make_library_db())
        authors = "SELECT COUNT(*) FROM author"
        assert engine.execute(authors).scalar() == 4
        engine.execute("INSERT INTO author VALUES (9, 'New Author', 'usa', 1980)")
        assert engine.execute(authors).scalar() == 5

    def test_join_invalidated_by_either_side(self):
        engine = Engine(make_library_db())
        join = (
            "SELECT COUNT(*) FROM book JOIN author ON book.author_id = author.id"
        )
        assert engine.execute(join).scalar() == 6
        engine.execute("DELETE FROM book WHERE id = 6")
        assert engine.execute(join).scalar() == 5
        engine.execute(
            "INSERT INTO author VALUES (9, 'New Author', 'usa', 1980)"
        )
        engine.execute(
            "INSERT INTO book VALUES (9, 'Fresh', 9, 2001, 100, 5.0)"
        )
        assert engine.execute(join).scalar() == 6

    def test_result_grown_past_cap_drops_stale_copy(self):
        from repro.sqlengine import Database, Column, SqlType, TableSchema

        db = Database()
        db.create_table(TableSchema("t", [Column("id", SqlType.INT)]))
        for i in range(3):
            db.insert("t", (i,))
        engine = Engine(db, max_cached_result_rows=3)
        sql = "SELECT id FROM t"
        engine.execute(sql)
        cache = engine.plan_cache
        assert cache.result(sql, db.table_version) is not None
        db.insert("t", (3,))  # next result (4 rows) exceeds the cap
        engine.execute(sql)
        # The stale 3-row copy must be gone, not pinned under dead stamps.
        entry = cache._entries.get(sql)
        assert entry is not None and entry.rows is None

    def test_subquery_dependencies_invalidate_result(self):
        engine = Engine(make_library_db())
        sql = (
            "SELECT name FROM author WHERE id IN "
            "(SELECT author_id FROM book WHERE year > 1975)"
        )
        assert engine.execute(sql).rows == [("Octavia Butler",)]
        # The outer table did not change — but the subquery's table did.
        engine.execute("INSERT INTO book VALUES (9, 'Late', 2, 1981, 50, 1.0)")
        assert sorted(engine.execute(sql).rows) == [
            ("Octavia Butler",),
            ("Stanislaw Lem",),
        ]


class TestDeltaEmission:
    def test_insert_emits_text_values(self):
        db = make_library_db()
        seen: list[TableDelta] = []
        db.add_delta_listener(seen.append)
        db.insert("author", (9, "Joanna Russ", "usa", 1937))
        assert len(seen) == 1
        assert seen[0].table == "author"
        assert ("name", "Joanna Russ") in seen[0].added
        assert ("country", "usa") in seen[0].added
        assert seen[0].removed == ()

    def test_update_emits_both_sides(self):
        db = make_library_db()
        engine = Engine(db)
        seen: list[TableDelta] = []
        db.add_delta_listener(seen.append)
        engine.execute("UPDATE author SET name = 'S. Lem' WHERE id = 2")
        assert any(
            ("name", "Stanislaw Lem") in d.removed and ("name", "S. Lem") in d.added
            for d in seen
        )

    def test_index_ddl_emits_valueless_delta(self):
        db = make_library_db()
        seen: list[TableDelta] = []
        db.add_delta_listener(seen.append)
        db.table("book").create_hash_index("year")
        assert seen and seen[0].kind == "ddl"
        assert seen[0].added == () and seen[0].removed == ()

    def test_listener_sees_post_mutation_version(self):
        # The mutated table's stamp must advance before listeners run, or
        # a listener querying through the plan cache would be served the
        # pre-mutation materialized result under the stale stamp.
        db = make_library_db()
        engine = Engine(db)
        count = "SELECT COUNT(*) FROM author"
        assert engine.execute(count).scalar() == 4
        observed: list[int] = []

        def listener(delta: TableDelta) -> None:
            if delta.table == "author":
                observed.append(engine.execute(count).scalar())

        db.add_delta_listener(listener)
        db.insert("author", (9, "Joanna Russ", "usa", 1937))
        assert observed == [5]

    def test_listener_added_during_dispatch_is_kept(self):
        db = make_library_db()
        late: list[TableDelta] = []

        def first(delta: TableDelta) -> None:
            if not late_registered:
                late_registered.append(True)
                db.add_delta_listener(late.append)

        late_registered: list[bool] = []
        db.add_delta_listener(first)
        db.insert("author", (9, "Joanna Russ", "usa", 1937))
        assert late == []  # subscribed mid-broadcast, not retroactively fed
        db.insert("author", (10, "James Tiptree", "usa", 1915))
        assert len(late) == 1  # ...but it does receive the next delta

    def test_mixed_case_categorical_spec_still_matches_deltas(self):
        from repro.lexicon.builder import data_dependent_columns
        from repro.lexicon.domain import CategoricalEntitySpec, DomainModel

        domain = DomainModel(
            "library",
            categorical_entities=[
                CategoricalEntitySpec("book", "Author", "Name"),
            ],
        )
        assert data_dependent_columns(domain) == {("author", "name")}


class TestValueIndexIncremental:
    def test_apply_delta_adds_and_removes(self):
        db = make_library_db()
        index = ValueIndex(db)
        assert index.lookup(["joanna", "russ"]) == []
        index.apply_delta(
            TableDelta("author", added=(("name", "Joanna Russ"),))
        )
        hits = index.lookup(["joanna", "russ"])
        assert [(h.table, h.column, h.value) for h in hits] == [
            ("author", "name", "Joanna Russ")
        ]
        index.apply_delta(
            TableDelta("author", removed=(("name", "Joanna Russ"),))
        )
        assert index.lookup(["joanna", "russ"]) == []

    def test_duplicate_values_are_reference_counted(self):
        db = make_library_db()
        index = ValueIndex(db)
        # 'ada' appears on two loan rows; removing one keeps the phrase.
        index.apply_delta(TableDelta("loan", removed=(("member", "ada"),)))
        assert index.lookup(["ada"])
        index.apply_delta(TableDelta("loan", removed=(("member", "ada"),)))
        assert index.lookup(["ada"]) == []

    def test_removed_word_leaves_spelling_vocabulary(self):
        db = make_library_db()
        index = ValueIndex(db)
        index.apply_delta(TableDelta("author", added=(("name", "Zelazny"),)))
        assert index.contains_word("zelazny")
        index.apply_delta(TableDelta("author", removed=(("name", "Zelazny"),)))
        assert not index.contains_word("zelazny")

    def test_cap_applies_to_incremental_adds(self):
        db = make_library_db()
        index = ValueIndex(db, max_values_per_column=2)
        before = index.stats()["phrases"]
        index.apply_delta(
            TableDelta("author", added=(("name", "Beyond The Cap"),))
        )
        assert index.stats()["phrases"] == before
        assert index.lookup(["beyond", "the", "cap"]) == []

    def test_cap_rejected_duplicate_cannot_steal_refcount(self):
        # A duplicate of an *admitted* value must count even at the cap:
        # otherwise inserting then deleting a row holding that value would
        # unindex it while the original row is still live.
        db = make_library_db()
        index = ValueIndex(db, max_values_per_column=2)
        assert index.lookup(["ursula", "le", "guin"])
        index.apply_delta(
            TableDelta("author", added=(("name", "Ursula Le Guin"),))
        )
        index.apply_delta(
            TableDelta("author", removed=(("name", "Ursula Le Guin"),))
        )
        assert index.lookup(["ursula", "le", "guin"])


class TestInterleavedAsk:
    """Insert -> ask -> delete -> ask, with no full rebuild in between."""

    def _fresh_nli(self) -> NaturalLanguageInterface:
        return NaturalLanguageInterface(
            fleet.build_database(), domain=fleet.domain()
        )

    def test_inserted_value_resolves_then_deleted_value_stops(self):
        nli = self._fresh_nli()
        nli.engine.execute(
            "INSERT INTO fleet VALUES (8, 'Antarctic', 'Southern', 'McMurdo')"
        )
        answer = nli.ask("how many ships are in the antarctic fleet").answer
        assert answer.result.scalar() == 0
        assert "Antarctic" in answer.sql
        assert nli.stats["full_rebuilds"] == 1  # constructor only
        nli.engine.execute("DELETE FROM fleet WHERE name = 'Antarctic'")
        assert not nli.ask("how many ships are in the antarctic fleet").ok
        assert nli.stats["full_rebuilds"] == 1

    def test_catalog_ddl_still_forces_full_rebuild(self):
        nli = self._fresh_nli()
        nli.engine.execute("CREATE TABLE squadron (id INT PRIMARY KEY, name TEXT)")
        nli.ask("how many ships are there")
        assert nli.stats["full_rebuilds"] == 2

    def test_bulk_load_falls_back_to_full_rebuild(self, monkeypatch):
        monkeypatch.setattr("repro.core.pipeline.MAX_PENDING_DELTAS", 3)
        nli = NaturalLanguageInterface(fleet.build_database(), domain=fleet.domain())
        for i in range(5):
            nli.database.insert("port", (90 + i, f"Newport {i}", "usa"))
        nli.ask("how many ships are there")
        assert nli.stats["full_rebuilds"] == 2
        assert nli.stats["delta_refreshes"] == 0

    def test_numeric_only_dml_keeps_prepared_cache(self, monkeypatch):
        # Valueless deltas (no TEXT change) must not flush cached parses,
        # nor the answers' back halves stored with them.
        nli = self._fresh_nli()
        question = "what is the total crew of all ships"
        before = nli.ask(question).answer.result.scalar()
        assert len(nli._prepared) > 0
        nli.engine.execute("UPDATE ship SET crew = crew + 1 WHERE id = 1")
        monkeypatch.setattr(
            nli.interpreter, "interpret", lambda c: pytest.fail("re-interpreted")
        )
        assert nli.ask(question).answer.result.scalar() == before + 1
        assert nli.stats["delta_refreshes"] == 0
        assert len(nli._prepared) > 0

    def test_categorical_lexicon_follows_data(self):
        nli = self._fresh_nli()
        before = nli.ask("how many submarines are there").answer.result.scalar()
        # shiptype.name feeds categorical entity nouns; inserting a new
        # type must re-derive them without a full rebuild.
        nli.engine.execute(
            "INSERT INTO shiptype VALUES (9, 'corvette', 'surface')"
        )
        assert nli.ask("how many corvettes are there").answer.result.scalar() == 0
        assert nli.stats["full_rebuilds"] == 1
        assert (
            nli.ask("how many submarines are there").answer.result.scalar() == before
        )
