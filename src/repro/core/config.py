"""Pipeline configuration: the settings a caller chooses."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class NliConfig:
    """Settings for the NL pipeline and the service around it.

    The accuracy matrix's configurations (``docs/evaluation.md``), the
    ``repro`` CLI flags and the benchmarks choose these.  Cache
    capacities and the bulk-load threshold are constants in
    :mod:`repro.core.pipeline`.
    """

    #: Spelling correction of unknown words; off only in the matrix's
    #: ``nli-corrupt-nospell`` row (ablation A1).
    spelling_correction: bool = True
    #: Readings kept per question: the best one answers, the rest are the
    #: alternatives and clarification choices.
    max_interpretations: int = 8
    #: When more than one interpretation remains and the best two scores are
    #: within this margin, the interface reports ambiguity instead of
    #: silently picking one.
    clarification_margin: float = 0.0

    # -- service / server knobs ---------------------------------------------
    #: Sustained questions-per-second allowed per rate-limit key (a session
    #: id, or whatever client key the HTTP layer passes).  ``None`` (the
    #: default) disables rate limiting entirely; the token bucket refills
    #: at this rate up to ``rate_limit_burst`` tokens.  A limited request
    #: costs nothing and comes back as a structured ``rate_limited``
    #: Diagnostic (HTTP 429 at the server), never an exception.
    rate_limit_qps: float | None = None
    #: Bucket capacity for the per-key token bucket: how many questions a
    #: key may burst through before the sustained ``rate_limit_qps`` rate
    #: applies.
    rate_limit_burst: int = 8
    #: Worker threads behind the async face (``ask_async`` and friends).
    #: This bounds how many questions make progress concurrently; HTTP
    #: requests beyond it queue in the executor.
    service_workers: int = 8
    #: Bound on id-managed sessions held by the service.  Session ids are
    #: client-chosen over HTTP, so without a cap any client could grow
    #: server memory (and the durability log) one fresh id at a time;
    #: beyond the cap the least-recently-used session is closed.
    max_sessions: int = 1024

    # -- durable storage knobs ----------------------------------------------
    #: Data directory for the durable storage layer.  When set, the service
    #: attaches a :class:`~repro.storage.StorageManager`: startup recovery
    #: restores the newest checkpoint and replays the WAL tail, and every
    #: committed DML/DDL statement is fsync'd to the write-ahead log before
    #: the call returns.  ``None`` (the default) keeps the database purely
    #: in memory, exactly as before.
    data_dir: str | None = None
    #: Committed WAL records between snapshot checkpoints.  Smaller values
    #: bound recovery replay tighter at the cost of more frequent
    #: serialization pauses on the writer path; 0 disables the cadence
    #: (checkpoints then happen only at recovery and graceful shutdown).
    checkpoint_every: int = 512
    #: fsync every WAL append (the durability guarantee).  Disable only for
    #: tests/benchmarks that simulate storage without paying for the disk.
    wal_fsync: bool = True
