"""Multi-statement transactions: BEGIN/COMMIT/ROLLBACK at every layer.

The contract under test (see docs/storage.md):

* the parser accepts all the spellings (``BEGIN [TRANSACTION|WORK]``,
  ``COMMIT``, ``ROLLBACK``) and ``EXPLAIN SELECT`` as real statements;
* while a transaction is open, every ``Database.snapshot()`` — and so
  every concurrent reader, SELECT or NLI ask — sees the committed
  pre-transaction state, while the transaction's own statements see
  their own writes;
* ROLLBACK restores rows, secondary indexes, primary-key lookups,
  statistics and foreign-key enforcement exactly as they were, and
  tables created inside the transaction vanish;
* nested BEGIN and stray COMMIT/ROLLBACK raise
  :class:`~repro.errors.TransactionError`;
* no snapshot pins leak once the transaction and its readers are done;
* ``Engine.explain`` pins a snapshot instead of taking the commit lock,
  so EXPLAIN never blocks behind an open transaction holding it.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.datasets import fleet
from repro.errors import IntegrityError, SqlSyntaxError, TransactionError
from repro.service.service import NliService
from repro.sqlengine import Database, Engine, parse_sql
from repro.sqlengine import ast_nodes as ast

SHIP_INSERT = (
    "INSERT INTO ship (id, name, type_id, fleet_id, home_port_id, "
    "commander_id, displacement, length, speed, commissioned, crew) "
    "VALUES ({id}, '{name}', 1, 1, 1, 1, 9000, 500, 30, 2001, 100)"
)


def _engine() -> Engine:
    engine = Engine(Database())
    engine.execute(
        "CREATE TABLE parent (id INT PRIMARY KEY, name TEXT)"
    )
    engine.execute(
        "CREATE TABLE child (id INT PRIMARY KEY, "
        "parent_id INT REFERENCES parent(id), v INT)"
    )
    for i in range(10):
        engine.execute(f"INSERT INTO parent VALUES ({i}, 'p{i}')")
        engine.execute(f"INSERT INTO child VALUES ({i}, {i}, {i * 10})")
    engine.database.table("child").create_hash_index("v")
    return engine


class TestParser:
    @pytest.mark.parametrize(
        "sql, node",
        [
            ("BEGIN", ast.BeginTransaction),
            ("BEGIN TRANSACTION", ast.BeginTransaction),
            ("begin work", ast.BeginTransaction),
            ("COMMIT", ast.CommitTransaction),
            ("COMMIT TRANSACTION;", ast.CommitTransaction),
            ("ROLLBACK", ast.RollbackTransaction),
            ("rollback work", ast.RollbackTransaction),
        ],
    )
    def test_transaction_statements_parse(self, sql, node):
        assert isinstance(parse_sql(sql), node)

    def test_explain_parses_to_wrapped_select(self):
        stmt = parse_sql("EXPLAIN SELECT id FROM t WHERE id = 1")
        assert isinstance(stmt, ast.Explain)
        assert isinstance(stmt.query, ast.Select)
        assert stmt.render() == "EXPLAIN SELECT id FROM t WHERE (id = 1)"

    def test_render_roundtrip(self):
        for sql in ("BEGIN", "COMMIT", "ROLLBACK"):
            assert parse_sql(parse_sql(sql).render()).render() == sql

    def test_explain_requires_select(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("EXPLAIN INSERT INTO t (a) VALUES (1)")


class TestEngineTransactions:
    def test_commit_persists(self):
        engine = _engine()
        engine.execute("BEGIN")
        engine.execute("INSERT INTO parent VALUES (100, 'new')")
        engine.execute("UPDATE child SET v = v + 1 WHERE id = 0")
        status = engine.execute("COMMIT")
        assert status.rows == [("COMMIT",)]
        assert engine.execute("SELECT COUNT(*) FROM parent").scalar() == 11
        assert (
            engine.execute("SELECT v FROM child WHERE id = 0").scalar() == 1
        )

    def test_rollback_restores_rows_indexes_and_statistics(self):
        engine = _engine()
        db = engine.database
        before_stats = db.table("child").statistics.column("v")
        before_distinct = before_stats.distinct
        engine.execute("BEGIN")
        engine.execute("DELETE FROM child WHERE v >= 50")
        engine.execute("UPDATE child SET v = 999 WHERE id = 1")
        engine.execute("INSERT INTO parent VALUES (100, 'new')")
        engine.execute("ROLLBACK")
        child = db.table("child")
        assert engine.execute("SELECT COUNT(*) FROM child").scalar() == 10
        assert engine.execute("SELECT COUNT(*) FROM parent").scalar() == 10
        # Hash index restored (lookups agree with a full scan).
        assert (
            engine.execute("SELECT id FROM child WHERE v = 10").scalar() == 1
        )
        # PK uniqueness enforcement restored (the rolled-back state's
        # keys are occupied again, via the restored PK index).
        with pytest.raises(IntegrityError):
            engine.execute("INSERT INTO child VALUES (5, 5, 500)")
        # Statistics restored (the optimizer's selectivity inputs).
        stats = child.statistics.column("v")
        assert stats.distinct == before_distinct
        assert stats.frequency(999) == 0
        assert stats.max_value == 90

    def test_rollback_restores_foreign_key_enforcement(self):
        engine = _engine()
        engine.execute("BEGIN")
        engine.execute("INSERT INTO parent VALUES (100, 'new')")
        engine.execute("INSERT INTO child VALUES (100, 100, 1000)")
        engine.execute("ROLLBACK")
        # The rolled-back parent row must not satisfy an FK any more...
        with pytest.raises(IntegrityError):
            engine.execute("INSERT INTO child VALUES (101, 100, 1010)")
        # ...while surviving parents still do.
        engine.execute("INSERT INTO child VALUES (101, 5, 1010)")

    def test_create_table_in_transaction_rolls_back(self):
        engine = _engine()
        engine.execute("BEGIN")
        engine.execute("CREATE TABLE scratch (id INT PRIMARY KEY)")
        engine.execute("INSERT INTO scratch VALUES (1)")
        engine.execute("ROLLBACK")
        assert not engine.database.has_table("scratch")

    def test_nested_begin_and_stray_commit_rollback(self):
        engine = _engine()
        with pytest.raises(TransactionError):
            engine.execute("COMMIT")
        with pytest.raises(TransactionError):
            engine.execute("ROLLBACK")
        engine.execute("BEGIN")
        with pytest.raises(TransactionError):
            engine.execute("BEGIN")
        # The original transaction is still usable after the failed BEGIN.
        engine.execute("INSERT INTO parent VALUES (100, 'new')")
        engine.execute("COMMIT")
        assert engine.execute("SELECT COUNT(*) FROM parent").scalar() == 11

    def test_readers_see_pre_transaction_state(self):
        engine = _engine()
        db = engine.database
        engine.execute("BEGIN")
        engine.execute("INSERT INTO parent VALUES (100, 'new')")
        engine.execute("DELETE FROM child WHERE id = 0")
        # Any snapshot pinned during the transaction is the committed cut.
        with db.snapshot() as snap:
            assert len(snap.table("parent")) == 10
            assert len(snap.table("child")) == 10
        # Pinned SELECTs (how the service reads) agree.
        with db.snapshot() as snap:
            count = engine.execute(
                "SELECT COUNT(*) FROM parent", snapshot=snap
            ).scalar()
        assert count == 10
        # The transaction itself reads its own writes from live storage.
        assert engine.execute("SELECT COUNT(*) FROM parent").scalar() == 11
        engine.execute("COMMIT")
        with db.snapshot() as snap:
            assert len(snap.table("parent")) == 11

    def test_plan_cache_entries_valid_again_after_rollback(self):
        engine = _engine()
        sql = "SELECT COUNT(*) FROM child WHERE v < 50"
        assert engine.execute(sql).scalar() == 5
        hits_before = engine.plan_cache.stats["result_hits"]
        engine.execute("BEGIN")
        engine.execute("DELETE FROM child WHERE v < 50")
        engine.execute("ROLLBACK")
        # ROLLBACK restored the table's version stamp with its bytes, so
        # the pre-transaction materialized result is served again.
        assert engine.execute(sql).scalar() == 5
        assert engine.plan_cache.stats["result_hits"] == hits_before + 1

    def test_no_leaked_pins(self):
        engine = _engine()
        db = engine.database
        engine.execute("BEGIN")
        engine.execute("INSERT INTO parent VALUES (100, 'new')")
        with db.snapshot():
            pass
        engine.execute("COMMIT")
        engine.execute("BEGIN")
        engine.execute("DELETE FROM parent WHERE id = 100")
        engine.execute("ROLLBACK")
        gc.collect()
        assert db.snapshot_pins == 0


class TestEngineExplain:
    def test_explain_statement_returns_plan_rows(self):
        engine = _engine()
        result = engine.execute("EXPLAIN SELECT v FROM child WHERE v = 10")
        assert result.columns == ["plan"]
        plan = "\n".join(row[0] for row in result.rows)
        assert "child" in plan

    def test_explain_matches_explain_method(self):
        engine = _engine()
        sql = "SELECT v FROM child WHERE v = 10"
        described = engine.explain(sql)
        rows = engine.execute(f"EXPLAIN {sql}").rows
        assert "\n".join(row[0] for row in rows) == described

    def test_explain_does_not_block_behind_open_transaction(self):
        """EXPLAIN pins a snapshot; it must finish while a transaction
        holds the commit point (pre-refactor it took the write lock and
        would deadlock/queue here)."""
        engine = _engine()
        engine.execute("BEGIN")
        engine.execute("INSERT INTO parent VALUES (100, 'new')")
        done = threading.Event()
        plans: list[str] = []

        def explain() -> None:
            plans.append(engine.explain("SELECT v FROM child WHERE v = 10"))
            done.set()

        thread = threading.Thread(target=explain)
        thread.start()
        assert done.wait(timeout=5.0), "EXPLAIN blocked behind the transaction"
        thread.join()
        assert "child" in plans[0]
        engine.execute("ROLLBACK")


class TestServiceTransactions:
    def _service(self) -> NliService:
        return NliService(fleet.build_database(), domain=fleet.domain())

    def test_asks_during_transaction_see_committed_state(self):
        service = self._service()
        base = service.ask("how many ships are there").answer.result.scalar()
        service.execute("BEGIN")
        stamp = service.data_stamp()
        service.execute(SHIP_INSERT.format(id=901, name="walrus"))
        # Concurrent reads — NLI and SQL alike — keep the committed view,
        # and the committed data identity (cache key) does not move.
        assert (
            service.ask("how many ships are there").answer.result.scalar()
            == base
        )
        assert service.data_stamp() == stamp
        # The transaction's own SELECT reads its own write.
        assert (
            service.execute("SELECT COUNT(*) FROM ship").scalar() == base + 1
        )
        service.execute("COMMIT")
        assert (
            service.ask("how many ships are there").answer.result.scalar()
            == base + 1
        )
        assert service.data_stamp() != stamp
        service.close()

    def test_rollback_then_ask_reflects_restored_state(self):
        service = self._service()
        base = service.ask("how many ships are there").answer.result.scalar()
        service.execute("BEGIN")
        service.execute("DELETE FROM ship WHERE speed > 0")
        service.execute("ROLLBACK")
        assert (
            service.ask("how many ships are there").answer.result.scalar()
            == base
        )
        service.close()

    def test_stray_commit_raises_through_service(self):
        service = self._service()
        with pytest.raises(TransactionError):
            service.execute("COMMIT")
        service.close()

    def test_concurrent_askers_during_open_transaction(self):
        service = self._service()
        base = service.ask("how many ships are there").answer.result.scalar()
        service.execute("BEGIN")
        service.execute(SHIP_INSERT.format(id=902, name="narwhal"))
        counts: list[int] = []
        errors: list[BaseException] = []

        def asker() -> None:
            try:
                response = service.ask("how many ships are there")
                counts.append(response.answer.result.scalar())
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=asker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not errors
        assert counts == [base] * 4, "a reader saw uncommitted state"
        service.execute("COMMIT")
        assert (
            service.ask("how many ships are there").answer.result.scalar()
            == base + 1
        )
        gc.collect()
        assert service.database.snapshot_pins == 0
        service.close()

    def test_explain_via_service_is_lock_free_during_transaction(self):
        service = self._service()
        service.execute("BEGIN")
        service.execute(SHIP_INSERT.format(id=903, name="kraken"))
        done = threading.Event()
        results: list[list] = []

        def reader() -> None:
            results.append(
                service.execute("EXPLAIN SELECT name FROM ship").rows
            )
            done.set()

        thread = threading.Thread(target=reader)
        thread.start()
        assert done.wait(timeout=5.0), "EXPLAIN queued behind the transaction"
        thread.join()
        assert results[0]
        service.execute("ROLLBACK")
        service.close()

    def test_commit_on_another_thread_releases_the_commit_lock(self):
        # Worker pools hand BEGIN and COMMIT to whichever thread is free:
        # the commit lock must not be owned by the thread that took it.
        service = self._service()
        base = service.execute("SELECT COUNT(*) FROM ship").scalar()
        service.execute("BEGIN")
        service.execute(SHIP_INSERT.format(id=904, name="mako"))
        errors: list[BaseException] = []

        def commit() -> None:
            try:
                service.execute("COMMIT")
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        thread = threading.Thread(target=commit)
        thread.start()
        thread.join(timeout=5.0)
        assert not errors, errors
        # The lock is free again: an autocommit write goes straight through.
        service.execute(SHIP_INSERT.format(id=905, name="orca"))
        assert service.execute("SELECT COUNT(*) FROM ship").scalar() == base + 2
        assert service.lock_stats["write_acquires"] == 2
        service.close()
