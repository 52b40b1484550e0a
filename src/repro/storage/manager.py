"""StorageManager: ties WAL, checkpoints and recovery to one engine.

Data directory layout::

    data/
      checkpoint-00000007.json   <- newest complete checkpoint
      wal-00000007.jsonl         <- records committed since it
      sessions.jsonl             <- service conversation log (managed by
                                    repro.service.persistence, not here)

The checkpoint and WAL segment sharing a sequence number are created
together, atomically against writers (one statement scope): the snapshot
serialized into ``checkpoint-N`` reflects exactly the statements recorded
in segments ``< N``, and every later statement lands in ``wal-N`` —
recovery is therefore "restore checkpoint N, replay segments >= N".
Older files are pruned only after the new checkpoint is durably renamed
into place, so a crash at any point leaves a recoverable chain.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError, StorageError
from repro.storage.checkpoint import (
    load_checkpoint,
    restore_checkpoint,
    write_checkpoint,
)
from repro.storage.wal import WriteAheadLog, read_wal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sqlengine.executor import Engine

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.json$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.jsonl$")


def _scan_dir(data_dir: Path, pattern: re.Pattern[str]) -> dict[int, Path]:
    if not data_dir.is_dir():
        return {}
    out: dict[int, Path] = {}
    for path in data_dir.iterdir():
        match = pattern.match(path.name)
        if match:
            out[int(match.group(1))] = path
    return out


@dataclass(frozen=True)
class RecoveryReport:
    """What startup recovery found and did."""

    checkpoint_seq: int | None  #: sequence of the checkpoint restored, if any
    restored_rows: int  #: rows loaded from that checkpoint
    replayed: int  #: committed WAL statements re-executed
    replay_errors: int  #: WAL statements that failed to re-execute
    duration_ms: float

    @property
    def recovered(self) -> bool:
        """True when on-disk state replaced the in-memory seed."""
        return self.checkpoint_seq is not None or self.replayed > 0


def restore_database(
    engine: "Engine", data_dir: str | Path, *, attempts: int = 3
) -> RecoveryReport:
    """Rebuild ``engine``'s database from ``data_dir`` **without writing**.

    The read-only half of :meth:`StorageManager.recover`: restore the
    newest valid checkpoint, replay the committed WAL tail over it, and
    leave the directory untouched.  Because nothing is written, any
    number of processes can restore from the same chain concurrently —
    this is how cluster read workers (and respawned workers catching up)
    share one writer-owned data directory.  If the writer checkpoints
    and prunes mid-restore a segment can vanish underfoot (``OSError``);
    the whole restore then retries against a rescan — the new checkpoint
    that justified the prune covers everything the lost segment held.
    """
    data_dir = Path(data_dir)
    last_error: OSError | None = None
    for _ in range(max(1, attempts)):
        try:
            return _restore_once(engine, data_dir)
        except OSError as exc:
            last_error = exc
    raise StorageError(
        f"could not restore from {data_dir}: chain kept shifting underfoot"
    ) from last_error


def _restore_once(engine: "Engine", data_dir: Path) -> RecoveryReport:
    start = time.perf_counter()
    checkpoints = _scan_dir(data_dir, _CHECKPOINT_RE)
    wals = _scan_dir(data_dir, _WAL_RE)

    checkpoint_seq: int | None = None
    restored_rows = 0
    for seq in sorted(checkpoints, reverse=True):
        try:
            payload = load_checkpoint(checkpoints[seq])
        except StorageError:
            raise  # newer format: never silently fall back past it
        except OSError:
            # The writer checkpointed and pruned underfoot: this scan is
            # stale.  Propagate so :func:`restore_database` retries on a
            # rescan — falling back here could "succeed" with only the
            # WAL tail replayed over an older (or empty) base.
            raise
        except (ValueError, KeyError):
            continue  # corrupt: fall back to the older one
        restored_rows = restore_checkpoint(engine.database, payload)
        checkpoint_seq = seq
        break

    replayed = 0
    replay_errors = 0
    floor = checkpoint_seq if checkpoint_seq is not None else 0
    for seq in sorted(s for s in wals if s >= floor):
        for sql in read_wal(wals[seq]):
            try:
                engine.execute(sql)
            except ReproError:
                replay_errors += 1
            else:
                replayed += 1

    return RecoveryReport(
        checkpoint_seq=checkpoint_seq,
        restored_rows=restored_rows,
        replayed=replayed,
        replay_errors=replay_errors,
        duration_ms=(time.perf_counter() - start) * 1000.0,
    )


class StorageManager:
    """Durability for one engine: WAL appends, checkpoint cadence, recovery.

    Construction only records configuration; call :meth:`recover` (which
    also writes a fresh checkpoint and opens a new WAL segment), then
    :meth:`attach` to start receiving the engine's committed statements.
    Writers are serialized above this layer (the service's commit lock),
    so append/rotate bookkeeping needs only a small internal lock.
    """

    def __init__(
        self,
        engine: "Engine",
        data_dir: str | Path,
        *,
        checkpoint_every: int = 512,
        fsync: bool = True,
    ) -> None:
        self.engine = engine
        self.database = engine.database
        self.data_dir = Path(data_dir)
        #: Committed WAL records between checkpoints; 0 disables the cadence
        #: (checkpoints then happen only at recovery and close).
        self.checkpoint_every = checkpoint_every
        self._fsync = fsync
        self._lock = threading.Lock()
        self._wal: WriteAheadLog | None = None
        self._seq = 0
        self._txn_counter = 0
        self._records_since_checkpoint = 0
        self._checkpoints_written = 0
        self._wal_records = 0
        self._closed = False
        self.last_recovery: RecoveryReport | None = None

    # -- discovery -----------------------------------------------------------

    def _scan(self, pattern: re.Pattern[str]) -> dict[int, Path]:
        return _scan_dir(self.data_dir, pattern)

    def _checkpoint_path(self, seq: int) -> Path:
        return self.data_dir / f"checkpoint-{seq:08d}.json"

    def _wal_path(self, seq: int) -> Path:
        return self.data_dir / f"wal-{seq:08d}.jsonl"

    # -- recovery ------------------------------------------------------------

    def recover(self, *, replay: bool = True) -> RecoveryReport:
        """Restore the newest valid checkpoint, replay the WAL tail, then
        collapse the chain into a fresh checkpoint + empty WAL segment.

        Idempotent by construction: replay re-executes committed SQL on
        exactly the state it originally ran against, and a second recovery
        from the same directory reproduces the same database.  Corrupt
        checkpoints fall back to the previous one (their WAL segments are
        still on disk and replay over it); a checkpoint or WAL written by
        a *newer* format version raises :class:`StorageError` instead of
        being silently skipped.

        ``replay=False`` skips the restore phase — for a process whose
        in-memory database *already* reflects the chain (a cluster writer
        child restored it before forking) — but still collapses the chain
        so writes have a live WAL segment to land in.
        """
        start = time.perf_counter()
        self.data_dir.mkdir(parents=True, exist_ok=True)
        if replay:
            report = restore_database(self.engine, self.data_dir)
        else:
            report = RecoveryReport(
                checkpoint_seq=None,
                restored_rows=0,
                replayed=0,
                replay_errors=0,
                duration_ms=0.0,
            )

        self._seq = max([0, *self._scan(_CHECKPOINT_RE), *self._scan(_WAL_RE)])
        # Collapse the chain: one fresh checkpoint bounds the next
        # recovery's replay, and doubles as the initial checkpoint of an
        # empty directory (first boot durably captures the seed).
        self.checkpoint()

        report = replace(report, duration_ms=(time.perf_counter() - start) * 1000.0)
        self.last_recovery = report
        return report

    def attach(self) -> None:
        """Install this manager as the engine's durable sink."""
        self.engine.transactions.sink = self

    # -- WAL sinks (called by TransactionManager) ----------------------------

    def append_autocommit(self, sql: str) -> None:
        """Durably log one autocommitted statement (record + marker,
        one fsync).  Called inside the statement's database scope."""
        with self._lock:
            txn_id = self._txn_counter
            self._txn_counter += 1
            assert self._wal is not None, "recover() must run before appends"
            self._wal.append_group(txn_id, [sql])
            self._wal_records += 1
            self._records_since_checkpoint += 1

    def append_group(self, statements: list[str]) -> None:
        """Durably log one transaction's statements as a single commit
        group (one fsync for the whole group — the COMMIT durability
        point)."""
        with self._lock:
            txn_id = self._txn_counter
            self._txn_counter += 1
            assert self._wal is not None, "recover() must run before appends"
            self._wal.append_group(txn_id, statements)
            self._wal_records += len(statements)
            self._records_since_checkpoint += len(statements)

    # -- checkpoints ---------------------------------------------------------

    def maybe_checkpoint(self) -> int | None:
        """Checkpoint when the cadence says so; called off the DB lock."""
        if (
            self.checkpoint_every
            and self._records_since_checkpoint >= self.checkpoint_every
        ):
            return self.checkpoint()
        return None

    def checkpoint(self) -> int | None:
        """Write a new checkpoint and rotate the WAL segment.

        Pinning the snapshot and opening the next segment happen together
        under one statement scope (atomic against writers); the expensive
        serialization runs afterwards on the pinned — immutable — view,
        so writers and readers proceed meanwhile.  Skipped (returns None)
        while a transaction is open: uncommitted state must never reach
        disk.
        """
        if self.engine.transactions.active:
            return None
        with self.database.statement_scope():
            with self._lock:
                snapshot = self.database.snapshot()
                seq = self._seq + 1
                old_wal = self._wal
                self._wal = WriteAheadLog(self._wal_path(seq), seq, fsync=self._fsync)
                self._seq = seq
                self._records_since_checkpoint = 0
        if old_wal is not None:
            old_wal.close()
        try:
            write_checkpoint(self._checkpoint_path(seq), snapshot, seq)
        finally:
            snapshot.close()
        self._prune(keep_from=seq)
        self._checkpoints_written += 1
        return seq

    def _prune(self, keep_from: int) -> None:
        """Delete checkpoints/segments superseded by checkpoint ``keep_from``
        (only ever called after it is durably in place)."""
        for pattern in (_CHECKPOINT_RE, _WAL_RE):
            for seq, path in self._scan(pattern).items():
                if seq < keep_from:
                    path.unlink(missing_ok=True)
        for path in self.data_dir.glob("*.tmp"):
            path.unlink(missing_ok=True)

    # -- lifecycle / observability ------------------------------------------

    def close(self, *, checkpoint: bool = True) -> None:
        """Detach from the engine; optionally write a shutdown checkpoint
        (graceful shutdown then restarts from checkpoint alone, with an
        empty WAL tail to replay)."""
        if self._closed:
            return
        self._closed = True
        if self.engine.transactions.sink is self:
            self.engine.transactions.sink = None
        if checkpoint:
            self.checkpoint()
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def stats(self) -> dict[str, Any]:
        report = self.last_recovery
        return {
            "data_dir": str(self.data_dir),
            "wal_seq": self._seq,
            "wal_records": self._wal_records,
            "records_since_checkpoint": self._records_since_checkpoint,
            "checkpoints_written": self._checkpoints_written,
            "checkpoint_every": self.checkpoint_every,
            "recovered_rows": report.restored_rows if report else 0,
            "replayed_statements": report.replayed if report else 0,
            "recovery_ms": round(report.duration_ms, 3) if report else 0.0,
        }
