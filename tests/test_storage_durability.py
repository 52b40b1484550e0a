"""Crash recovery for the durable storage layer (WAL + checkpoints).

The contract under test (see docs/storage.md):

* recovery = newest valid checkpoint + replay of the committed WAL
  tail, and it is idempotent — recovering the same directory twice
  yields the same database;
* a torn WAL tail (crash mid-record) loses only the torn record's
  group, never an earlier committed one;
* a transaction group without its commit marker — the crash happened
  before COMMIT's fsync — is never replayed;
* a checkpoint interrupted mid-write (a ``*.tmp`` file, or a garbled
  newest checkpoint) falls back to the previous checkpoint, whose WAL
  segments are still on disk;
* files written by a *newer* format version raise
  :class:`~repro.errors.StorageError` instead of being silently skipped;
* the checkpoint cadence rotates the WAL and prunes superseded files.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import IntegrityError, StorageError
from repro.sqlengine import Database, Engine
from repro.storage import (
    StorageManager,
    WriteAheadLog,
    load_checkpoint,
    read_wal,
    restore_checkpoint,
    write_checkpoint,
)


def _engine() -> Engine:
    engine = Engine(Database())
    engine.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, v INT)"
    )
    for i in range(5):
        engine.execute(f"INSERT INTO items VALUES ({i}, 'n{i}', {i * 10})")
    return engine


def _manager(engine: Engine, data_dir, **kwargs) -> StorageManager:
    manager = StorageManager(engine, data_dir, **kwargs)
    manager.recover()
    manager.attach()
    return manager


def _rows(engine: Engine) -> set:
    return set(engine.execute("SELECT * FROM items").rows)


class TestWalFormat:
    def test_committed_groups_replay_in_commit_order(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        wal = WriteAheadLog(path, 1)
        wal.append_group(0, ["INSERT 1"])
        wal.append_group(1, ["INSERT 2", "INSERT 3"])
        wal.close()
        assert read_wal(path) == ["INSERT 1", "INSERT 2", "INSERT 3"]

    def test_torn_tail_loses_only_the_torn_group(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        wal = WriteAheadLog(path, 1)
        wal.append_group(0, ["INSERT 1"])
        wal.append_group(1, ["INSERT 2"])
        wal.close()
        # Crash mid-write: the last line (commit marker of group 1) is
        # half on disk.
        torn = path.read_bytes()[:-7]
        path.write_bytes(torn)
        assert read_wal(path) == ["INSERT 1"]

    def test_group_without_commit_marker_is_not_replayed(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        wal = WriteAheadLog(path, 1)
        wal.append_group(0, ["INSERT 1"])
        wal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"txn": 1, "sql": "INSERT 2"}) + "\n")
        assert read_wal(path) == ["INSERT 1"]

    def test_missing_or_garbled_header_yields_nothing(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        path.write_text("this is not a wal\n", encoding="utf-8")
        assert read_wal(path) == []

    def test_newer_format_raises(self, tmp_path):
        path = tmp_path / "wal-00000001.jsonl"
        path.write_text(
            json.dumps({"magic": "repro-wal", "format": 99, "seq": 1}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(StorageError):
            read_wal(path)


class TestCheckpointFormat:
    def test_round_trip_preserves_schema_and_indexes(self, tmp_path):
        engine = _engine()
        db = engine.database
        db.table("items").create_hash_index("name")
        db.table("items").create_sorted_index("v")
        path = tmp_path / "checkpoint-00000001.json"
        with db.snapshot() as snap:
            write_checkpoint(path, snap, 1)
        target = Engine(Database())
        restored = restore_checkpoint(target.database, load_checkpoint(path))
        assert restored == 5
        assert _rows(target) == _rows(engine)
        items = target.database.table("items")
        assert "name" in items._hash_indexes
        assert "v" in items._sorted_indexes
        assert items.schema.primary_key == "id"

    def test_newer_format_raises(self, tmp_path):
        path = tmp_path / "checkpoint-00000001.json"
        path.write_text(
            json.dumps({"magic": "repro-checkpoint", "format": 99, "seq": 1}),
            encoding="utf-8",
        )
        with pytest.raises(StorageError):
            load_checkpoint(path)

    def test_garbage_raises_value_error(self, tmp_path):
        path = tmp_path / "checkpoint-00000001.json"
        path.write_text('{"magic": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestRecovery:
    def test_first_boot_writes_initial_checkpoint(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path)
        report = manager.last_recovery
        assert not report.recovered
        assert (tmp_path / "checkpoint-00000001.json").exists()
        manager.close()

    def test_crash_recovery_restores_committed_state(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path)
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        engine.execute("BEGIN")
        engine.execute("INSERT INTO items VALUES (11, 'eleven', 110)")
        engine.execute("COMMIT")
        engine.execute("BEGIN")
        engine.execute("INSERT INTO items VALUES (99, 'ghost', 990)")
        expected = _rows(engine) - {(99, "ghost", 990)}
        del manager  # crash: no close(), the open transaction vanishes

        fresh = Engine(Database())
        manager2 = _manager(fresh, tmp_path)
        report = manager2.last_recovery
        assert report.recovered
        assert report.replay_errors == 0
        assert _rows(fresh) == expected
        manager2.close()

    def test_recovery_is_idempotent(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path)
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        engine.execute("UPDATE items SET v = v + 1 WHERE id = 0")
        expected = _rows(engine)
        del manager

        for _ in range(3):
            fresh = Engine(Database())
            manager = _manager(fresh, tmp_path)
            assert _rows(fresh) == expected
            del manager

    def test_interrupted_checkpoint_tmp_file_is_ignored(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path)
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        expected = _rows(engine)
        del manager
        # A checkpoint that crashed mid-write leaves only a *.tmp.
        (tmp_path / "checkpoint-00000009.json.tmp").write_text(
            '{"half": "written', encoding="utf-8"
        )
        fresh = Engine(Database())
        manager = _manager(fresh, tmp_path)
        assert _rows(fresh) == expected
        # Recovery's collapse pruned the leftover temp file.
        assert not list(tmp_path.glob("*.tmp"))
        manager.close()

    def test_corrupt_newest_checkpoint_falls_back_to_older(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path)
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        # Keep copies of the first checkpoint generation: a real crash
        # between the new checkpoint's rename and the prune leaves both
        # generations on disk.
        saved = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        seq = manager.checkpoint()
        engine.execute("INSERT INTO items VALUES (11, 'eleven', 110)")
        expected = _rows(engine)
        del manager
        # The newest checkpoint is garbled (torn disk write); the older
        # generation survives, and its WAL chain replays right through
        # the segments the bad checkpoint would have superseded.
        (tmp_path / f"checkpoint-{seq:08d}.json").write_text(
            '{"torn', encoding="utf-8"
        )
        for name, data in saved.items():
            (tmp_path / name).write_bytes(data)
        fresh = Engine(Database())
        manager = _manager(fresh, tmp_path)
        assert manager.last_recovery.replay_errors == 0
        assert _rows(fresh) == expected
        manager.close()

    def test_pruned_checkpoint_mid_restore_retries_against_rescan(
        self, tmp_path, monkeypatch
    ):
        import repro.storage.manager as manager_mod

        engine = _engine()
        manager = _manager(engine, tmp_path)
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        expected = _rows(engine)
        del manager
        # Simulate the cluster writer checkpointing + pruning between the
        # restore's directory scan and its read of the newest checkpoint:
        # the first load sees a vanished file, the rescan a whole chain.
        # A vanished file must trigger that rescan — falling back like a
        # corrupt checkpoint would "succeed" with only the WAL tail
        # replayed over an empty base.
        real_load = manager_mod.load_checkpoint
        calls = {"n": 0}

        def flaky_load(path):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FileNotFoundError(path)
            return real_load(path)

        monkeypatch.setattr(manager_mod, "load_checkpoint", flaky_load)
        fresh = Engine(Database())
        report = manager_mod.restore_database(fresh, tmp_path)
        assert calls["n"] >= 2
        assert report.checkpoint_seq is not None
        assert _rows(fresh) == expected

    def test_restore_gives_up_when_chain_keeps_vanishing(
        self, tmp_path, monkeypatch
    ):
        import repro.storage.manager as manager_mod

        engine = _engine()
        manager = _manager(engine, tmp_path)
        del manager

        def always_gone(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(manager_mod, "load_checkpoint", always_gone)
        with pytest.raises(StorageError, match="shifting underfoot"):
            manager_mod.restore_database(
                Engine(Database()), tmp_path, attempts=2
            )

    def test_replay_alone_rebuilds_without_any_checkpoint(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path)
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        expected = _rows(engine)
        del manager
        for path in tmp_path.glob("checkpoint-*.json"):
            path.unlink()
        # The seed CREATE/INSERTs predate the manager, so they live only
        # in the (deleted) checkpoint; an engine built from the same seed
        # replays the WAL tail over it.
        fresh = _engine()
        manager = _manager(fresh, tmp_path)
        assert _rows(fresh) == expected
        manager.close()

    def test_failed_multi_row_insert_matches_after_reopen(self, tmp_path):
        # Regression: a multi-row INSERT failing on a later row kept its
        # earlier rows in memory, but the failed statement never reached
        # the WAL, so the reopened database lost them.
        engine = _engine()
        manager = _manager(engine, tmp_path)
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        with pytest.raises(IntegrityError):
            engine.execute("INSERT INTO items VALUES (20, 'b', 1), (1, 'dup', 2)")
        manager.close(checkpoint=False)
        fresh = Engine(Database())
        manager2 = _manager(fresh, tmp_path)
        assert manager2.last_recovery.replayed == 1
        assert _rows(fresh) == _rows(engine)
        assert (20, "b", 1) not in _rows(fresh)
        manager2.close()


class TestCadenceAndLifecycle:
    def test_checkpoint_cadence_rotates_and_prunes(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path, checkpoint_every=3)
        for i in range(10, 17):
            engine.execute(f"INSERT INTO items VALUES ({i}, 'x{i}', {i})")
        assert manager.stats()["checkpoints_written"] >= 2
        checkpoints = sorted(tmp_path.glob("checkpoint-*.json"))
        assert len(checkpoints) == 1, "superseded checkpoints must be pruned"
        wals = sorted(tmp_path.glob("wal-*.jsonl"))
        assert all(
            w.name.split("-")[1].split(".")[0]
            >= checkpoints[0].name.split("-")[1].split(".")[0]
            for w in wals
        )
        manager.close()

    def test_checkpoint_skipped_while_transaction_open(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path)
        engine.execute("BEGIN")
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        assert manager.checkpoint() is None
        engine.execute("COMMIT")
        assert manager.checkpoint() is not None
        manager.close()

    def test_close_collapses_chain_to_single_checkpoint(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path)
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        manager.close()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len([n for n in names if n.startswith("checkpoint-")]) == 1
        # Graceful shutdown leaves nothing to replay.
        fresh = Engine(Database())
        manager2 = _manager(fresh, tmp_path)
        assert manager2.last_recovery.replayed == 0
        assert _rows(fresh) == _rows(engine)
        manager2.close()

    def test_stats_expose_durability_counters(self, tmp_path):
        engine = _engine()
        manager = _manager(engine, tmp_path, checkpoint_every=100)
        engine.execute("INSERT INTO items VALUES (10, 'ten', 100)")
        stats = manager.stats()
        assert stats["wal_records"] == 1
        assert stats["records_since_checkpoint"] == 1
        assert stats["checkpoint_every"] == 100
        assert stats["data_dir"] == str(tmp_path)
        manager.close()
