"""Tests for CREATE TABLE / INSERT / DELETE / UPDATE execution and CSV IO."""

import io

import pytest

from repro.errors import ExecutionError, IntegrityError, PlanError, SchemaError
from repro.sqlengine import Database, Engine
from repro.sqlengine.csvio import dump_csv, load_csv


@pytest.fixture()
def fresh():
    db = Database()
    return Engine(db)


class TestCreate:
    def test_create_and_describe(self, fresh):
        fresh.execute("CREATE TABLE crew (id INT PRIMARY KEY, name TEXT NOT NULL)")
        schema = fresh.database.table("crew").schema
        assert schema.primary_key == "id"
        assert not schema.column("name").nullable

    def test_type_synonyms(self, fresh):
        fresh.execute(
            "CREATE TABLE t (a INTEGER, b REAL, c VARCHAR, d BOOLEAN, e DOUBLE)"
        )
        kinds = [c.sql_type.value for c in fresh.database.table("t").schema.columns]
        assert kinds == ["INT", "FLOAT", "TEXT", "BOOL", "FLOAT"]

    def test_unknown_type_rejected(self, fresh):
        with pytest.raises(SchemaError):
            fresh.execute("CREATE TABLE t (a BLOB)")

    def test_references(self, fresh):
        fresh.execute("CREATE TABLE a (id INT PRIMARY KEY)")
        fresh.execute("CREATE TABLE b (id INT PRIMARY KEY, aid INT REFERENCES a(id))")
        fresh.execute("INSERT INTO a VALUES (1)")
        fresh.execute("INSERT INTO b VALUES (1, 1)")
        with pytest.raises(IntegrityError):
            fresh.execute("INSERT INTO b VALUES (2, 42)")


class TestInsertDeleteUpdate:
    def setup_t(self, engine):
        engine.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, tag TEXT)")
        engine.execute(
            "INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')"
        )

    def test_insert_reports_count(self, fresh):
        self.setup_t(fresh)
        rs = fresh.execute("INSERT INTO t VALUES (4, 40, 'c')")
        assert rs.rows == [(1,)]

    def test_insert_named_columns(self, fresh):
        self.setup_t(fresh)
        fresh.execute("INSERT INTO t (id, tag) VALUES (9, 'z')")
        rs = fresh.execute("SELECT v, tag FROM t WHERE id = 9")
        assert rs.rows == [(None, "z")]

    def test_insert_negative_number(self, fresh):
        self.setup_t(fresh)
        fresh.execute("INSERT INTO t VALUES (5, -7, 'n')")
        assert fresh.execute("SELECT v FROM t WHERE id = 5").scalar() == -7

    def test_delete_with_where(self, fresh):
        self.setup_t(fresh)
        rs = fresh.execute("DELETE FROM t WHERE tag = 'a'")
        assert rs.rows == [(2,)]
        assert fresh.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_delete_all(self, fresh):
        self.setup_t(fresh)
        fresh.execute("DELETE FROM t")
        assert fresh.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_update_expression(self, fresh):
        self.setup_t(fresh)
        rs = fresh.execute("UPDATE t SET v = v * 2 WHERE tag = 'a'")
        assert rs.rows == [(2,)]
        assert fresh.execute("SELECT SUM(v) FROM t").scalar() == 10 * 2 + 20 + 30 * 2

    def test_update_unknown_column_rejected(self, fresh):
        self.setup_t(fresh)
        with pytest.raises(SchemaError):
            fresh.execute("UPDATE t SET missing = 1")

    def test_update_preserves_indexes(self, fresh):
        self.setup_t(fresh)
        fresh.database.table("t").create_hash_index("tag")
        fresh.execute("UPDATE t SET tag = 'z' WHERE id = 1")
        rows = fresh.database.table("t").lookup_equal("tag", "z")
        assert len(rows) == 1
        assert fresh.database.table("t").lookup_equal("tag", "a") != []

    def test_update_preserves_row_order(self, fresh):
        # Regression: delete+reinsert moved the updated row to the end.
        self.setup_t(fresh)
        fresh.execute("UPDATE t SET v = 21 WHERE id = 2")
        assert fresh.execute("SELECT id FROM t").rows == [(1,), (2,), (3,)]

    def test_update_preserves_row_id(self, fresh):
        self.setup_t(fresh)
        table = fresh.database.table("t")
        before = {row_id for row_id, row in table.rows_with_ids() if row[0] == 2}
        fresh.execute("UPDATE t SET v = 21 WHERE id = 2")
        after = {row_id for row_id, row in table.rows_with_ids() if row[0] == 2}
        assert before == after

    def test_update_pk_change_allowed(self, fresh):
        self.setup_t(fresh)
        fresh.execute("UPDATE t SET id = 9 WHERE id = 2")
        assert fresh.execute("SELECT v FROM t WHERE id = 9").scalar() == 20
        assert fresh.execute("SELECT COUNT(*) FROM t WHERE id = 2").scalar() == 0

    def test_update_pk_collision_rejected(self, fresh):
        self.setup_t(fresh)
        with pytest.raises(IntegrityError):
            fresh.execute("UPDATE t SET id = 1 WHERE id = 2")

    def test_update_pk_self_assignment_ok(self, fresh):
        self.setup_t(fresh)
        fresh.execute("UPDATE t SET id = 2 WHERE id = 2")
        assert fresh.execute("SELECT COUNT(*) FROM t").scalar() == 3

    def test_failed_multi_row_update_leaves_table_untouched(self, fresh):
        # Regression: the collision used to surface mid-apply, leaving
        # earlier rows already updated.
        self.setup_t(fresh)
        before = fresh.execute("SELECT id, v, tag FROM t").rows
        with pytest.raises(IntegrityError):
            fresh.execute("UPDATE t SET id = 9 WHERE id IN (2, 3)")
        assert fresh.execute("SELECT id, v, tag FROM t").rows == before

    def test_failed_multi_row_insert_leaves_table_untouched(self, fresh):
        # Regression: rows before the failing one used to stay behind,
        # although the failed statement never reached the WAL.
        self.setup_t(fresh)
        fresh.execute(
            "CREATE TABLE note (id INT PRIMARY KEY, "
            "tid INT REFERENCES t(id), body TEXT NOT NULL)"
        )
        fresh.execute("INSERT INTO note VALUES (1, 1, 'first')")
        db = fresh.database

        def state():
            return {
                name: (list(db.table(name).rows_with_ids()), db.table(name).version)
                for name in ("t", "note")
            }

        before = state()
        failing = [
            (IntegrityError, "INSERT INTO t VALUES (4, 40, 'b'), (1, 0, 'dup')"),
            (IntegrityError, "INSERT INTO t VALUES (4, 40, 'b'), (4, 0, 'dup')"),
            (IntegrityError, "INSERT INTO note VALUES (2, 2, 'ok'), (3, 42, 'x')"),
            (IntegrityError, "INSERT INTO note VALUES (2, 2, 'ok'), (3, 3, NULL)"),
            (PlanError, "INSERT INTO t VALUES (4, 40, 'b'), (5, 50)"),
            (PlanError, "INSERT INTO t (id, v) VALUES (4, 40), (5, 50, 'x')"),
        ]
        for error, sql in failing:
            with pytest.raises(error):
                fresh.execute(sql)
            assert state() == before, sql
        # The same rows go in once the batch is valid.
        fresh.execute("INSERT INTO note VALUES (2, 2, 'ok'), (3, 3, 'fine')")
        assert len(db.table("note")) == 3

    def test_update_pk_chain_shift(self, fresh):
        # id = id + 1 transiently collides row-by-row; the two-phase batch
        # apply must land on the valid final state.
        self.setup_t(fresh)
        fresh.execute("UPDATE t SET id = id + 1")
        assert fresh.execute("SELECT id FROM t").rows == [(2,), (3,), (4,)]
        assert fresh.execute("SELECT v FROM t WHERE id = 2").scalar() == 10

    def test_update_pk_swap(self, fresh):
        self.setup_t(fresh)
        fresh.execute("UPDATE t SET id = 4 - id WHERE id IN (1, 3)")
        assert fresh.execute("SELECT v FROM t WHERE id = 1").scalar() == 30
        assert fresh.execute("SELECT v FROM t WHERE id = 3").scalar() == 10


class TestUpdateForeignKeys:
    """UPDATE enforces FKs in both directions (the ROADMAP-listed hole)."""

    def setup_parent_child(self, engine):
        engine.execute("CREATE TABLE parent (id INT PRIMARY KEY, name TEXT)")
        engine.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, pid INT REFERENCES parent(id))"
        )
        engine.execute("INSERT INTO parent VALUES (1, 'a'), (2, 'b')")
        engine.execute("INSERT INTO child VALUES (10, 1), (11, 2)")

    def test_parent_pk_rewrite_with_children_rejected(self, fresh):
        self.setup_parent_child(fresh)
        with pytest.raises(IntegrityError) as info:
            fresh.execute("UPDATE parent SET id = 9 WHERE id = 1")
        # Same error shape as INSERT-time FK violations.
        assert "child.pid=1 has no match in parent.id" in str(info.value)
        # The violation left the table untouched.
        assert fresh.execute("SELECT id FROM parent").rows == [(1,), (2,)]

    def test_parent_pk_rewrite_without_children_ok(self, fresh):
        self.setup_parent_child(fresh)
        fresh.execute("DELETE FROM child WHERE pid = 2")
        fresh.execute("UPDATE parent SET id = 9 WHERE id = 2")
        assert fresh.execute("SELECT COUNT(*) FROM parent WHERE id = 9").scalar() == 1

    def test_parent_non_key_update_unaffected(self, fresh):
        self.setup_parent_child(fresh)
        fresh.execute("UPDATE parent SET name = 'renamed' WHERE id = 1")
        assert fresh.execute(
            "SELECT name FROM parent WHERE id = 1"
        ).scalar() == "renamed"

    def test_child_fk_update_to_missing_parent_rejected(self, fresh):
        self.setup_parent_child(fresh)
        with pytest.raises(IntegrityError) as info:
            fresh.execute("UPDATE child SET pid = 42 WHERE id = 10")
        assert "child.pid=42 has no match in parent.id" in str(info.value)

    def test_child_fk_update_to_existing_parent_ok(self, fresh):
        self.setup_parent_child(fresh)
        fresh.execute("UPDATE child SET pid = 2 WHERE id = 10")
        assert fresh.execute("SELECT pid FROM child WHERE id = 10").scalar() == 2

    def test_child_fk_update_to_null_ok(self, fresh):
        self.setup_parent_child(fresh)
        fresh.execute("UPDATE child SET pid = NULL WHERE id = 10")
        assert fresh.execute(
            "SELECT COUNT(*) FROM child WHERE pid IS NULL"
        ).scalar() == 1

    def test_pk_shift_keeping_all_values_alive_ok(self, fresh):
        # A batch that rewrites keys but keeps every referenced value
        # present (a swap) must not be rejected.
        self.setup_parent_child(fresh)
        fresh.execute("UPDATE parent SET id = 3 - id")
        assert sorted(fresh.execute("SELECT id FROM parent").rows) == [(1,), (2,)]

    def test_self_referencing_batch_rewrite_ok(self, fresh):
        # A batch that rewrites keys and their in-batch references together
        # is judged against the post-batch state, not the pre-update one.
        fresh.execute(
            "CREATE TABLE emp (id INT PRIMARY KEY, manager_id INT REFERENCES emp(id))"
        )
        fresh.execute("INSERT INTO emp VALUES (1, 1), (2, 1)")
        fresh.execute("UPDATE emp SET id = id + 100, manager_id = manager_id + 100")
        assert sorted(fresh.execute("SELECT id, manager_id FROM emp").rows) == [
            (101, 101), (102, 101),
        ]
        assert not fresh.database.check_integrity()

    def test_self_referencing_insert_batch_sees_earlier_rows_only(self, fresh):
        # A multi-row INSERT is checked as if its rows went in one at a
        # time: a row may name itself or an earlier row as its parent,
        # never a later one.
        fresh.execute(
            "CREATE TABLE emp (id INT PRIMARY KEY, manager_id INT REFERENCES emp(id))"
        )
        with pytest.raises(IntegrityError, match="emp.manager_id=2 has no match"):
            fresh.execute("INSERT INTO emp VALUES (1, 2), (2, 2)")
        assert len(fresh.database.table("emp")) == 0
        fresh.execute("INSERT INTO emp VALUES (2, 2), (1, 2), (3, 1)")
        assert not fresh.database.check_integrity()

    def test_self_referencing_strand_still_rejected(self, fresh):
        fresh.execute(
            "CREATE TABLE emp (id INT PRIMARY KEY, manager_id INT REFERENCES emp(id))"
        )
        fresh.execute("INSERT INTO emp VALUES (1, 1), (2, 1)")
        with pytest.raises(IntegrityError):
            fresh.execute("UPDATE emp SET id = 9 WHERE id = 1")

    def test_enforcement_off_allows_stranding(self):
        db = Database(enforce_fk=False)
        engine = Engine(db)
        engine.execute("CREATE TABLE parent (id INT PRIMARY KEY)")
        engine.execute(
            "CREATE TABLE child (id INT PRIMARY KEY, pid INT REFERENCES parent(id))"
        )
        engine.execute("INSERT INTO parent VALUES (1)")
        engine.execute("INSERT INTO child VALUES (10, 1)")
        engine.execute("UPDATE parent SET id = 9 WHERE id = 1")
        assert db.check_integrity()  # the sweep still reports it


class TestDmlUsesIndexes:
    """UPDATE/DELETE route WHERE matching through the scan-planning path."""

    def _populated(self, use_indexes):
        db = Database()
        engine = Engine(db, use_indexes=use_indexes)
        engine.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, tag TEXT)")
        for i in range(40):
            engine.execute(f"INSERT INTO t VALUES ({i}, {i * 10}, 'g{i % 4}')")
        db.table("t").create_sorted_index("v")
        return engine

    def test_indexed_update_matches_unindexed(self):
        indexed = self._populated(use_indexes=True)
        plain = self._populated(use_indexes=False)
        for engine in (indexed, plain):
            engine.execute("UPDATE t SET tag = 'hit' WHERE id = 7")
            engine.execute("UPDATE t SET tag = 'range' WHERE v BETWEEN 100 AND 150")
        left = indexed.execute("SELECT id, v, tag FROM t").rows
        right = plain.execute("SELECT id, v, tag FROM t").rows
        assert left == right

    def test_indexed_delete_matches_unindexed(self):
        indexed = self._populated(use_indexes=True)
        plain = self._populated(use_indexes=False)
        for engine in (indexed, plain):
            engine.execute("DELETE FROM t WHERE id IN (3, 5, 8)")
            engine.execute("DELETE FROM t WHERE v > 300")
        assert (
            indexed.execute("SELECT id FROM t").rows
            == plain.execute("SELECT id FROM t").rows
        )

    def test_update_where_subquery_still_works(self):
        engine = self._populated(use_indexes=True)
        engine.execute(
            "UPDATE t SET tag = 'max' WHERE v = (SELECT MAX(v) FROM t)"
        )
        assert engine.execute("SELECT COUNT(*) FROM t WHERE tag = 'max'").scalar() == 1


class TestDmlWhereThroughScanKernel:
    """A DML WHERE runs through the SELECT scan kernel: compiled conjuncts
    as selectors, a subquery conjunct as a predicate compiled per run."""

    def _engine(self):
        engine = Engine(Database())
        engine.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, tag TEXT)")
        engine.execute("CREATE TABLE keep (id INT PRIMARY KEY)")
        engine.execute(
            "INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a'), "
            "(4, 40, 'a')"
        )
        engine.execute("INSERT INTO keep VALUES (2), (3)")
        return engine

    @pytest.mark.parametrize(
        "where",
        [
            "tag = 'a' AND id IN (SELECT id FROM keep)",
            "id IN (SELECT id FROM keep) AND tag = 'a'",
        ],
    )
    def test_delete_pairs_unindexed_conjunct_with_subquery(self, where):
        engine = self._engine()
        assert engine.execute(f"DELETE FROM t WHERE {where}").rows == [(1,)]
        assert engine.execute("SELECT id, v, tag FROM t").rows == [
            (1, 10, "a"), (2, 20, "b"), (4, 40, "a"),
        ]

    def test_update_where_raising_on_a_later_row_leaves_table_untouched(self):
        engine = self._engine()
        table = engine.database.table("t")
        version = table.version
        # Rows 1 and 2 evaluate; row 3 divides by zero.
        with pytest.raises(ExecutionError, match="division by zero"):
            engine.execute("UPDATE t SET v = 0 WHERE 100 / (v - 30) > 0")
        assert table.version == version
        assert engine.execute("SELECT id, v, tag FROM t").rows == [
            (1, 10, "a"), (2, 20, "b"), (3, 30, "a"), (4, 40, "a"),
        ]

    def test_dml_through_the_kernel_rolls_back(self):
        engine = self._engine()
        engine.execute("BEGIN")
        engine.execute("DELETE FROM t WHERE tag = 'a' AND id IN (SELECT id FROM keep)")
        engine.execute("UPDATE t SET v = v + 1 WHERE v > 15 AND tag = 'a'")
        assert engine.execute("SELECT id, v, tag FROM t").rows == [
            (1, 10, "a"), (2, 20, "b"), (4, 41, "a"),
        ]
        engine.execute("ROLLBACK")
        assert engine.execute("SELECT id, v, tag FROM t").rows == [
            (1, 10, "a"), (2, 20, "b"), (3, 30, "a"), (4, 40, "a"),
        ]


class TestCsvIo:
    def test_roundtrip(self, fresh):
        fresh.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, v FLOAT)")
        fresh.execute("INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', NULL)")
        table = fresh.database.table("t")
        text = dump_csv(table)
        db2 = Database()
        engine2 = Engine(db2)
        engine2.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, v FLOAT)")
        loaded = load_csv(db2.table("t"), io.StringIO(text))
        assert loaded == 2
        assert list(db2.table("t").rows()) == list(table.rows())

    def test_header_reorders_columns(self, fresh):
        fresh.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        load_csv(fresh.database.table("t"), io.StringIO("name,id\nalpha,1\n"))
        assert list(fresh.database.table("t").rows()) == [(1, "alpha")]

    def test_unknown_header_rejected(self, fresh):
        fresh.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with pytest.raises(SchemaError):
            load_csv(fresh.database.table("t"), io.StringIO("bogus\n1\n"))

    def test_file_roundtrip(self, fresh, tmp_path):
        fresh.execute("CREATE TABLE t (id INT PRIMARY KEY, b BOOL)")
        fresh.execute("INSERT INTO t VALUES (1, TRUE), (2, FALSE)")
        path = tmp_path / "t.csv"
        dump_csv(fresh.database.table("t"), path)
        db2 = Database()
        Engine(db2).execute("CREATE TABLE t (id INT PRIMARY KEY, b BOOL)")
        load_csv(db2.table("t"), path)
        assert list(db2.table("t").rows()) == [(1, True), (2, False)]
