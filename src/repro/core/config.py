"""Pipeline configuration (all the ablation knobs in one place)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class NliConfig:
    """Knobs for the NL pipeline.

    The first four fields are the ablation knobs; the configurations in
    ``docs/evaluation.md`` ("Configurations") name the ones the accuracy
    matrix runs (``nli-corrupt-nospell`` is A1 as a standing row):

    * ``spelling_correction`` — A1 (figure F3)
    * ``synonym_fraction`` — A2 (figure F2)
    * ``use_value_index`` — A3
    * ``join_inference`` — A4 ("steiner" or "pairwise")
    """

    spelling_correction: bool = True
    synonym_fraction: float = 1.0
    use_value_index: bool = True
    join_inference: str = "steiner"  # steiner | pairwise
    max_parses: int = 24
    max_interpretations: int = 8
    max_values_per_column: int | None = None
    #: When more than one interpretation remains and the best two scores are
    #: within this margin, the interface reports ambiguity instead of
    #: silently picking one.
    clarification_margin: float = 0.0
    #: Maximum rows echoed in Answer.paraphrase result summaries.
    answer_rows: int = 25

    # -- cache sizing / refresh knobs ---------------------------------------
    #: Capacity of the prepared-question LRU: two entries per question
    #: string, its normalize result and its parse, the parse carrying the
    #: answer's back half (interpretations, generated SQL, paraphrase,
    #: alternatives) once answered, so the default holds 128 questions.
    #: A write drops only the entries whose words (or stems) meet a value
    #: that entered or left the database, plus the fuzzy-corrected ones
    #: when a word weight moved; a lexicon or full rebuild drops all.
    #: Sized for an interactive session's working set; raise it for batch
    #: evaluation over large question corpora.
    prepared_cache_size: int = 256
    #: Time-to-live (seconds) for prepared-question entries; ``None`` (the
    #: default) keeps entries until LRU pressure evicts them.  A service
    #: with a long-tail question stream sets this so one-off questions age
    #: out instead of squatting in the LRU; expirations are counted in
    #: ``nli.stats["prepared_ttl_evictions"]``.
    prepared_cache_ttl_s: float | None = None
    #: Capacity of the engine's statement-plan cache (AST + optimized plan
    #: with its batch kernels + materialized result per statement text).
    #: Entries are stamped with per-table versions, so a write to one table
    #: leaves entries for other tables valid — the cache only needs to hold
    #: the distinct statement texts of the workload.
    plan_cache_size: int = 256
    #: Per-entry row bound for the plan cache's materialized-result layer;
    #: larger results are executed but not cached, so a handful of
    #: ``SELECT *`` statements cannot pin copies of the database in memory.
    max_cached_result_rows: int = 10_000
    #: When this many row-level deltas pile up before the next question, a
    #: full language-layer rebuild is cheaper than replaying them one by
    #: one (bulk loads); below it, the value index updates incrementally.
    max_pending_deltas: int = 10_000

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
