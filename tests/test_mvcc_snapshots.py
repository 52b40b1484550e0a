"""MVCC snapshot reads: COW isolation, cache stamping, pin hygiene.

The contract under test (see docs/concurrency.md):

* a snapshot pinned before a commit keeps seeing the pre-commit rows;
  a snapshot pinned after it sees the new ones;
* plan-cache/result-cache entries are stamped with the versions of the
  source they were computed against, so a cached answer is never served
  across versions — in either direction;
* pins do not leak: dropping a snapshot mid-scan (a dead reader) releases
  its storage pins as soon as the object is collected;
* bulk UPDATE/DELETE statements coalesce into one TableDelta each.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.core.pipeline import NaturalLanguageInterface
from repro.datasets import fleet
from repro.errors import ExecutionError
from repro.service.service import NliService
from repro.sqlengine import Database, Engine
from repro.sqlengine.table import TableDelta


def _item_engine(rows: int = 50) -> Engine:
    engine = Engine(Database())
    engine.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, flag INT)"
    )
    for i in range(rows):
        engine.execute(f"INSERT INTO items VALUES ({i}, 'name{i}', 0)")
    return engine


class TestTableSnapshotCow:
    def test_snapshot_pins_pre_commit_state(self):
        engine = _item_engine()
        db = engine.database
        snap = db.snapshot()
        engine.execute("UPDATE items SET flag = 1")
        engine.execute("INSERT INTO items VALUES (50, 'fresh', 1)")
        engine.execute("DELETE FROM items WHERE id = 0")
        # The pinned view is frozen at capture...
        view = snap.table("items")
        assert len(view) == 50
        assert all(row[2] == 0 for row in view.rows())
        assert view.row_by_id(0) is not None
        # ...while the live table moved on.
        live = db.table("items")
        assert len(live) == 50  # 50 - 1 deleted + 1 inserted
        assert all(row[2] == 1 for row in live.rows())
        assert live.row_by_id(0) is None
        snap.close()

    def test_snapshot_statistics_and_indexes_are_frozen(self):
        engine = _item_engine()
        db = engine.database
        db.table("items").create_hash_index("flag")
        snap = db.snapshot()
        stats_before = snap.table("items").statistics
        engine.execute("UPDATE items SET flag = 7")
        view = snap.table("items")
        assert view.statistics is stats_before
        assert view.statistics.column("flag").frequency(0) == 50
        assert db.table("items").statistics.column("flag").frequency(7) == 50
        # Index lookups on the snapshot resolve against the old values.
        assert len(view.hash_index("flag").lookup(0)) == 50
        assert view.hash_index("flag").lookup(7) == []
        snap.close()

    def test_write_without_pins_does_not_clone(self):
        engine = _item_engine()
        table = engine.database.table("items")
        rows_before = table._rows
        engine.execute("UPDATE items SET flag = 2")
        assert table._rows is rows_before  # mutated in place, no COW

    def test_first_write_after_pin_clones_once(self):
        engine = _item_engine()
        db = engine.database
        table = db.table("items")
        shared = table._rows
        with db.snapshot() as snap:
            engine.execute("UPDATE items SET flag = 1")
            detached = table._rows
            assert detached is not shared  # COW detach for the pin
            engine.execute("UPDATE items SET flag = 2")
            assert table._rows is detached  # no second clone
            assert snap.table("items")._rows is shared

    def test_snapshot_version_stamps_are_capture_time(self):
        engine = _item_engine()
        db = engine.database
        snap = db.snapshot()
        pinned = snap.table_version("items")
        assert pinned == db.table_version("items")
        engine.execute("UPDATE items SET flag = 3")
        assert snap.table_version("items") == pinned
        assert db.table_version("items") > pinned
        assert snap.table_versions() == {"items": pinned}
        snap.close()


class TestStatementAtomicity:
    def test_snapshot_is_one_cut_across_tables(self):
        """A capture can never mix commit N of one table with commit N+1
        of another: the whole capture is atomic against writers.

        The writer always inserts the `items` row *before* its matching
        `other` row, so every inter-statement point of the database
        satisfies ``len(items) >= len(other)``.  A capture that
        interleaved with the writer table-by-table could pin `items`
        early and `other` late and observe the invariant broken."""
        engine = _item_engine(0)
        db = engine.database
        engine.execute("CREATE TABLE other (id INT PRIMARY KEY, note TEXT)")
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            try:
                for i in range(150):
                    engine.execute(f"INSERT INTO items VALUES ({i}, 'x', 0)")
                    engine.execute(f"INSERT INTO other VALUES ({i}, 'y')")
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                stop.set()

        def pinner() -> None:
            try:
                while not stop.is_set():
                    with db.snapshot() as snap:
                        items = len(snap.table("items"))
                        other = len(snap.table("other"))
                        assert items >= other, (
                            f"mixed-commit cut: items={items} other={other}"
                        )
                        assert items - other <= 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer), threading.Thread(target=pinner)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

    def test_multi_row_insert_is_statement_atomic(self):
        """Concurrent snapshots land before or after a multi-row INSERT,
        never between its rows."""
        engine = _item_engine(0)
        db = engine.database
        stop = threading.Event()
        errors: list[BaseException] = []

        def pinner() -> None:
            try:
                while not stop.is_set():
                    with db.snapshot() as snap:
                        seen = len(snap.table("items"))
                        assert seen % 3 == 0, f"mid-statement pin: {seen} rows"
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=pinner)
        thread.start()
        try:
            for i in range(40):
                base = i * 3
                engine.execute(
                    "INSERT INTO items VALUES "
                    f"({base}, 'a', 0), ({base + 1}, 'b', 0), "
                    f"({base + 2}, 'c', 0)"
                )
        finally:
            stop.set()
            thread.join()
        assert not errors, errors
        assert len(db.table("items")) == 120

    def test_rejected_fk_insert_is_never_pinnable(self):
        """FKs are validated *before* the row enters the table, so no
        snapshot window exists in which the rejected row is visible."""
        from repro.errors import IntegrityError
        from repro.sqlengine.schema import Column, ForeignKey, TableSchema
        from repro.sqlengine.types import SqlType

        db = Database()
        db.create_table(
            TableSchema(
                "parent",
                [Column("id", SqlType.INT, nullable=False)],
                primary_key="id",
            )
        )
        db.create_table(
            TableSchema(
                "child",
                [
                    Column("id", SqlType.INT, nullable=False),
                    Column("parent_id", SqlType.INT),
                ],
                primary_key="id",
                foreign_keys=[ForeignKey("parent_id", "parent", "id")],
            )
        )
        db.insert("parent", [1])
        child = db.table("child")
        version_before = child.version
        with pytest.raises(IntegrityError):
            db.insert("child", [1, 42])  # no parent 42
        # The rejected row never touched the table: no version bump, no
        # delta, nothing a concurrent snapshot could have pinned.
        assert child.version == version_before
        assert len(child) == 0
        # Self-referencing first row still allowed (matches its own key).
        db.create_table(
            TableSchema(
                "node",
                [
                    Column("id", SqlType.INT, nullable=False),
                    Column("parent_id", SqlType.INT),
                ],
                primary_key="id",
                foreign_keys=[ForeignKey("parent_id", "node", "id")],
            )
        )
        assert db.insert("node", [7, 7]) == 0

    def test_snapshot_pins_safe_during_concurrent_ddl(self):
        engine = _item_engine(5)
        db = engine.database
        stop = threading.Event()
        errors: list[BaseException] = []

        def ddl_churn() -> None:
            try:
                for i in range(50):
                    engine.execute(
                        f"CREATE TABLE churn{i} (id INT PRIMARY KEY)"
                    )
                    db.drop_table(f"churn{i}")
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                stop.set()

        def stats_reader() -> None:
            try:
                while not stop.is_set():
                    assert db.snapshot_pins >= 0
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=ddl_churn),
            threading.Thread(target=stats_reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors


class TestEngineSnapshotReads:
    SQL = "SELECT COUNT(*) AS c, SUM(flag) AS s FROM items"

    def test_pinned_select_ignores_later_commits(self):
        engine = _item_engine()
        db = engine.database
        snap = db.snapshot()
        assert engine.execute(self.SQL, snapshot=snap).rows == [(50, 0)]
        engine.execute("UPDATE items SET flag = 1")
        # The pinned reader still sees version 0; a fresh snapshot and the
        # live path both see version 1.
        assert engine.execute(self.SQL, snapshot=snap).rows == [(50, 0)]
        assert engine.execute(self.SQL).rows == [(50, 50)]
        with db.snapshot() as fresh:
            assert engine.execute(self.SQL, snapshot=fresh).rows == [(50, 50)]
        snap.close()

    def test_result_cache_never_crosses_versions(self):
        engine = _item_engine()
        db = engine.database
        old = db.snapshot()
        # Warm the cache against the *live* (newer) state first...
        engine.execute("UPDATE items SET flag = 1")
        assert engine.execute(self.SQL).rows == [(50, 50)]
        # ...then run the same text against the old snapshot: the cached
        # result's stamps don't match the snapshot versions, so it must
        # recompute the old answer instead of serving the new rows.
        assert engine.execute(self.SQL, snapshot=old).rows == [(50, 0)]
        # And the old-stamped store must not poison the live path either.
        assert engine.execute(self.SQL).rows == [(50, 50)]
        old.close()

    def test_subqueries_read_the_pinned_snapshot(self):
        engine = _item_engine()
        db = engine.database
        snap = db.snapshot()
        engine.execute("UPDATE items SET flag = 1")
        sql = "SELECT COUNT(*) AS c FROM items WHERE flag = (SELECT MIN(flag) FROM items)"
        # Both outer query and subquery must see the snapshot: MIN(flag)=0
        # there, and all 50 rows match it.
        assert engine.execute(sql, snapshot=snap).scalar() == 50
        snap.close()

    def test_snapshot_execution_rejects_dml(self):
        engine = _item_engine()
        with engine.database.snapshot() as snap:
            with pytest.raises(ExecutionError):
                engine.execute("DELETE FROM items", snapshot=snap)


class TestSnapshotPinHygiene:
    def test_close_is_idempotent_and_releases(self):
        engine = _item_engine()
        db = engine.database
        snap = db.snapshot()
        assert db.snapshot_pins == 1
        snap.close()
        snap.close()
        assert snap.closed
        assert db.snapshot_pins == 0

    def test_dead_reader_mid_scan_leaks_no_pin(self):
        engine = _item_engine()
        db = engine.database

        def doomed_reader() -> None:
            try:
                snap = db.snapshot()
                rows = snap.table("items").rows()
                next(rows)  # mid-scan...
                raise RuntimeError("reader dies without closing the snapshot")
            except RuntimeError:
                pass  # the thread dies; its frame (and the pin) goes away

        thread = threading.Thread(target=doomed_reader, daemon=True)
        thread.start()
        thread.join()
        gc.collect()
        assert db.snapshot_pins == 0
        # The next write must not pay a stale-pin clone.
        table = db.table("items")
        rows_before = table._rows
        engine.execute("UPDATE items SET flag = 9")
        assert table._rows is rows_before

    def test_detached_pin_release_is_noop(self):
        engine = _item_engine()
        db = engine.database
        table = db.table("items")
        snap = db.snapshot()
        engine.execute("UPDATE items SET flag = 1")  # COW detach consumed the pin
        assert db.snapshot_pins == 0
        snap.close()  # releasing the stale-generation pin must not go negative
        assert table._pinned == 0
        with db.snapshot():
            assert db.snapshot_pins == 1
        assert db.snapshot_pins == 0


class TestDeltaCoalescing:
    def _tracked_engine(self, rows: int = 200):
        engine = _item_engine(rows)
        deltas: list[TableDelta] = []
        engine.database.add_delta_listener(deltas.append)
        return engine, deltas

    def test_bulk_update_emits_one_delta(self):
        engine, deltas = self._tracked_engine()
        engine.execute("UPDATE items SET name = 'renamed', flag = 1")
        assert len(deltas) == 1
        assert len(deltas[0].removed) == 200
        assert deltas[0].added == (("name", "renamed"),) * 200

    def test_bulk_delete_emits_one_delta(self):
        engine, deltas = self._tracked_engine()
        engine.execute("DELETE FROM items WHERE flag = 0")
        assert len(deltas) == 1
        assert len(deltas[0].removed) == 200
        assert deltas[0].added == ()
        assert len(engine.database.table("items")) == 0

    def test_bulk_delete_bumps_version_once(self):
        engine, _ = self._tracked_engine()
        version_before = engine.database.table_version("items")
        engine.execute("DELETE FROM items")
        assert engine.database.table_version("items") == version_before + 1

    def test_coalesced_delete_keeps_value_index_exact(self):
        database = fleet.build_database()
        nli = NaturalLanguageInterface(database, domain=fleet.domain())
        assert nli.ask("how many ships are there").ok
        assert any(h.table == "port" for h in nli.value_index.lookup(["norfolk"]))
        before = nli.stats["deltas_applied"]
        rows = len(database.table("port"))
        assert rows > 1
        nli.engine.execute("DELETE FROM port")
        nli.refresh_if_needed()
        # The whole multi-row DELETE arrived as ONE coalesced delta, and
        # the batched removal drained every per-row refcount exactly.
        assert nli.stats["deltas_applied"] == before + 1
        assert not any(
            h.table == "port" for h in nli.value_index.lookup(["norfolk"])
        )


class TestLayerPublishing:
    def test_delta_refresh_publishes_cloned_layers_in_publish_mode(self):
        database = fleet.build_database()
        nli = NaturalLanguageInterface(database, domain=fleet.domain())
        assert nli.ask("how many ships are there").ok
        old_layers = nli.layers
        old_index = old_layers.value_index
        nli.engine.execute("DELETE FROM port")
        nli.refresh_if_needed()
        # A new bundle was published with a patched clone; the bundle a
        # concurrent reader pinned is untouched (old value still indexed).
        assert nli.layers is not old_layers
        assert nli.layers.epoch == old_layers.epoch + 1
        assert nli.value_index is not old_index
        assert any(h.table == "port" for h in old_index.lookup(["norfolk"]))
        assert not any(
            h.table == "port" for h in nli.value_index.lookup(["norfolk"])
        )

    def test_prepared_cache_keys_carry_the_layers_epoch(self):
        # Keys no longer carry the epoch: each entry records the epoch it
        # was born at, is served only to readers at that epoch or later,
        # and is stored only while its reader's layers are published.
        database = fleet.build_database()
        nli = NaturalLanguageInterface(database, domain=fleet.domain())
        question = "how many ships are there"
        key = ("parse", question, True)
        assert nli.ask(question).ok
        old = nli.layers
        assert nli._prepared.get(key).stamp.born == old.epoch
        nli.engine.execute(
            "INSERT INTO ship VALUES (901, 'Epoch', 3, 1, 1, 1, "
            "8000, 600, 30, 1976, 150)"
        )
        assert nli.ask(question).ok  # absorbs the delta, bumps the epoch
        assert nli.layers.epoch == old.epoch + 1
        # No word of the question meets "epoch": the entry survives.
        assert nli._prepared.get(key).stamp.born == old.epoch
        nli.engine.execute(
            "INSERT INTO ship VALUES (902, 'There', 3, 1, 1, 1, "
            "8000, 600, 30, 1976, 150)"
        )
        assert nli.ask(question).ok
        current = nli.layers
        entry = nli._prepared.get(key)
        assert entry.stamp.born == current.epoch == old.epoch + 2
        # A reader on an older generation is refused the newer entry...
        assert nli._lookup(key, old) is None
        assert nli._lookup(key, current) is entry
        # ...and cannot store one: its layers are no longer published.
        nli._prepared.pop(key)
        nli._store(key, entry, old)
        assert key not in nli._prepared
        nli._store(key, entry, current)
        assert key in nli._prepared


class TestServiceMvccReads:
    def test_reader_pinned_before_commit_sees_old_rows(self):
        service = NliService(fleet.build_database(), domain=fleet.domain())
        ships = service.execute("SELECT COUNT(*) AS c FROM ship").scalar()
        snap = service.database.snapshot()
        service.execute(
            "INSERT INTO ship VALUES (950, 'Commit', 3, 1, 1, 1, "
            "8000, 600, 30, 1976, 150)"
        )
        pinned = service.nli.engine.execute(
            "SELECT COUNT(*) AS c FROM ship", snapshot=snap
        )
        assert pinned.scalar() == ships
        assert (
            service.execute("SELECT COUNT(*) AS c FROM ship").scalar()
            == ships + 1
        )
        snap.close()

    def test_writer_commit_absorbs_its_own_deltas(self):
        service = NliService(fleet.build_database(), domain=fleet.domain())
        service.ask("how many ships are there")
        service.execute(
            "INSERT INTO ship VALUES (951, 'Absorbed', 3, 1, 1, 1, "
            "8000, 600, 30, 1976, 150)"
        )
        # The commit point already refreshed: no pending deltas remain for
        # a reader to absorb, so asks stay lock-free.
        assert not service.nli.needs_refresh()
        assert service.nli.stats["delta_refreshes"] >= 1

    def test_no_torn_reads_while_writer_flips_generations(self):
        """Every concurrent SELECT sees exactly one writer generation."""
        service = NliService(fleet.build_database(), domain=fleet.domain())
        service.execute("UPDATE ship SET commissioned = 0")
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer() -> None:
            try:
                for generation in range(1, 30):
                    service.execute(f"UPDATE ship SET commissioned = {generation}")
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                stop.set()

        def reader() -> None:
            try:
                while not stop.is_set():
                    distinct = service.execute(
                        "SELECT COUNT(DISTINCT commissioned) AS gens FROM ship"
                    ).scalar()
                    assert distinct == 1, f"torn read: {distinct} generations"
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert service.database.snapshot_pins == 0

    def test_reader_overlap_still_observable(self):
        service = NliService(fleet.build_database(), domain=fleet.domain())
        service.ask("how many ships are there")
        barrier = threading.Barrier(3)

        def asker() -> None:
            barrier.wait()
            for _ in range(5):
                assert service.ask("how many ships are there").ok

        threads = [threading.Thread(target=asker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats
        assert stats["lock_read_acquires"] >= 15
        assert stats["snapshot_pins"] == 0
