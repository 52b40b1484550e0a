"""NliService: the thread-safe, multi-session facade over the pipeline.

The raw :class:`~repro.core.pipeline.NaturalLanguageInterface` is a
single-caller object: each ``ask()`` may trigger a lazy ``refresh()``, so
concurrent ``ask()`` threads would race each other's refreshes.  The
service closes that hole with **MVCC snapshot reads**:

* ``ask`` / ``ask_many`` / ``resolve`` pin an immutable database snapshot
  plus the current language-layer bundle and run **lock-free** — readers
  never queue behind a writer, never observe a half-applied statement,
  and a reader pinned before a commit keeps seeing the pre-commit rows;
* ``refresh`` and DML/DDL through :meth:`execute` serialize on one
  plain lock, the **commit point**: the writer mutates (copy-on-write
  detaches any pinned snapshots), absorbs its own deltas, and publishes
  a fresh layer bundle before releasing.  The only read-side wait left
  is the out-of-band fallback below.

See ``docs/concurrency.md`` for the full model.

Implicit refresh is disabled on the wrapped pipeline
(``nli.auto_refresh = False``); the write path absorbs its own deltas at
the commit point.  Deltas from *out-of-band* writes (direct ``Database``
mutation behind the service's back) are absorbed by the next read entry
point under the commit lock — the one case where a reader may wait, and
never longer than that single commit.

Sessions: :meth:`open_session` issues ids for conversation state kept on
the service (a web frontend holds a token, not an object);
:meth:`ensure_session` get-or-creates a *client-chosen* id, which is what
the HTTP layer uses — a stateless client just sends ``"session":
"alice"`` with every request.  Library callers may still pass their own
:class:`~repro.core.dialogue.Session` objects (those are not durable and
not rate-limit keyed, since the service never sees an id for them).

Service-grade facilities ride on top:

* **async face** — :meth:`ask_async` / :meth:`ask_many_async` /
  :meth:`resolve_async` / :meth:`execute_async` run the blocking call on
  a bounded worker pool (``config.service_workers`` threads), so an
  asyncio front end gets real reader parallelism without blocking its
  event loop;
* **rate limiting** — a per-key token bucket
  (:class:`~repro.service.ratelimit.RateLimiter`, enabled by
  ``config.rate_limit_qps``) charges one token per question (a batch
  charges its length); over-budget requests come back as structured
  ``rate_limited`` envelopes, never exceptions;
* **durability** — pass ``persistence=`` (a path or
  :class:`~repro.service.persistence.SessionLog`) and every id-managed
  session turn and parked clarification is appended to a JSONL log,
  replayed on construction: a restarted service resumes mid-dialog, and
  clarification ids issued before the restart still resolve (an alias
  map translates them to the freshly minted ones);
* **durable storage** — set ``config.data_dir`` and the service attaches
  a :class:`~repro.storage.StorageManager`: every committed DML/DDL
  statement is fsync'd to a write-ahead log before the call returns,
  snapshot checkpoints bound recovery replay, and a restarted service
  recovers to the last committed statement.  ``BEGIN`` / ``COMMIT`` /
  ``ROLLBACK`` through :meth:`execute` open a multi-statement
  transaction: the writer holds the commit lock across statements while
  concurrent readers keep answering lock-free from the pinned
  pre-transaction overlay snapshot, and ROLLBACK restores rows, indexes
  and statistics as if the transaction never ran.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import partial
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.config import NliConfig
from repro.core.dialogue import Session
from repro.core.pipeline import CLARIFICATION_CAPACITY, NaturalLanguageInterface
from repro.errors import ClarificationError
from repro.lexicon.domain import DomainModel
from repro.service.persistence import SessionLog, replay_records
from repro.service.ratelimit import RateLimiter
from repro.service.response import Response, Status
from repro.service.subscriptions import (
    DEFAULT_QUEUE_FRAMES,
    Subscription,
    SubscriptionRegistry,
)
from repro.sqlengine.database import Database
from repro.sqlengine.result import ResultSet
from repro.storage import StorageManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ThreadPoolExecutor

#: Statement prefixes that only read; everything else is a writer.
_READ_ONLY_PREFIXES = ("select", "explain")

#: Rate-limit key used when a request carries neither a client key nor a
#: managed session id.
ANONYMOUS = "anonymous"


class NliService:
    """Thread-safe service API over one natural-language interface."""

    def __init__(
        self,
        database: Database,
        domain: DomainModel | None = None,
        config: NliConfig | None = None,
        nli: NaturalLanguageInterface | None = None,
        persistence: SessionLog | str | None = None,
    ) -> None:
        self._nli = nli or NaturalLanguageInterface(
            database, domain=domain, config=config
        )
        # The service owns freshness: an implicit refresh inside a reader
        # would race the commit point's publish.
        self._nli.auto_refresh = False
        #: The commit point: writers and refreshes serialize here while
        #: readers pin snapshots and never take it.  A plain lock is not
        #: thread-affine, so a transaction's COMMIT may release it on a
        #: different worker thread than the BEGIN that took it.
        self._commit_lock = threading.Lock()
        self._write_acquires = 0  # guarded by _commit_lock
        #: Reader-overlap gauge: readers take no lock, so concurrency is
        #: observed here and reported in :attr:`lock_stats` (the keys the
        #: F6 benchmark asserts on).
        self._reader_gauge_lock = threading.Lock()
        self._readers_active = 0
        self._reader_stats = {"read_acquires": 0, "max_concurrent_readers": 0}
        self._sessions: dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        self._session_counter = 0
        #: Live parked clarifications: live id -> (question, managed sid or
        #: None), kept for log compaction and key attribution.
        self._parked: dict[str, tuple[str, str | None]] = {}
        #: Persisted clarification id -> live id minted during replay.
        self._clar_aliases: dict[str, str] = {}
        self._executor: ThreadPoolExecutor | None = None
        cfg = self._nli.config
        self._limiter: RateLimiter | None = (
            RateLimiter(cfg.rate_limit_qps, cfg.rate_limit_burst)
            if cfg.rate_limit_qps is not None
            else None
        )
        #: Transaction gate: serializes BEGIN/COMMIT/ROLLBACK control (and
        #: statements joining an open transaction) so exactly one client
        #: transaction exists at a time.  The commit lock itself is held
        #: from BEGIN to COMMIT/ROLLBACK.
        self._txn_gate = threading.Lock()
        self._txn_open = False
        self._storage: StorageManager | None = None
        if cfg.data_dir is not None:
            self._storage = StorageManager(
                self._nli.engine,
                cfg.data_dir,
                checkpoint_every=cfg.checkpoint_every,
                fsync=cfg.wal_fsync,
            )
            report = self._storage.recover()
            if report.recovered:
                # Recovery replaced the in-memory seed: rebuild the
                # language layers from scratch before any question runs.
                self._nli.refresh(full=True)
            self._storage.attach()
        # Publish language layers atomically with COMMIT/ROLLBACK: the
        # hook runs inside the transaction's closing statement scope,
        # while the service still holds the commit lock taken at BEGIN.
        self._nli.engine.transactions.commit_hook = self._publish_txn
        # Standing subscriptions: the registry buffers the *table names*
        # of row deltas; commit points hand it the touched set, and only
        # subscriptions whose stamped tables intersect are re-evaluated.
        self._subscriptions = SubscriptionRegistry(self)
        self.database.add_delta_listener(self._subscriptions.on_delta)
        self._persistence: SessionLog | None = None
        if persistence is not None:
            log = (
                persistence
                if isinstance(persistence, SessionLog)
                else SessionLog(persistence)
            )
            self._restore(log)

    @property
    def nli(self) -> NaturalLanguageInterface:
        """The wrapped pipeline (single-threaded access only)."""
        return self._nli

    @property
    def database(self) -> Database:
        return self._nli.database

    @property
    def storage(self) -> StorageManager | None:
        """The durable storage manager (None when running in memory)."""
        return self._storage

    def attach_storage(self, storage: StorageManager) -> None:
        """Adopt an externally-prepared storage manager as the durable sink.

        The cluster writer child uses this: the parent restored the data
        directory read-only before forking, so the child's manager runs
        ``recover(replay=False)`` itself and is attached here — from then
        on every committed statement is WAL'd exactly as if the service
        had owned storage from construction.
        """
        if self._storage is not None:
            raise RuntimeError("service already has a storage manager")
        self._storage = storage
        storage.attach()

    def close(self) -> None:
        """Release the worker pool, the persistence file handle, and the
        storage layer (writing a graceful-shutdown checkpoint, so the next
        start restores from the checkpoint alone with an empty WAL tail)."""
        self._subscriptions.close()
        with self._sessions_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        if self._persistence is not None:
            self._persistence.close()
        if self._storage is not None:
            self._storage.close()

    # -- sessions ----------------------------------------------------------

    def open_session(self) -> str:
        """Create a managed dialogue session; returns its generated id."""
        with self._sessions_lock:
            while True:
                self._session_counter += 1
                session_id = f"s{self._session_counter}"
                if session_id not in self._sessions:
                    break
            self._sessions[session_id] = Session()
            evicted = self._evict_over_cap_locked()
        self._log_session_churn(session_id, evicted)
        return session_id

    def ensure_session(self, session_id: str) -> str:
        """Get-or-create a session under a *client-chosen* id.

        This is the stateless-frontend handshake: an HTTP client simply
        sends the same ``"session"`` string with every request and the
        first one creates it.  Generated (:meth:`open_session`) and
        client-chosen ids share one namespace, bounded by
        ``config.max_sessions`` (least-recently-used ids are closed when
        a new one would exceed the cap).
        """
        with self._sessions_lock:
            created = session_id not in self._sessions
            if created:
                self._sessions[session_id] = Session()
                evicted = self._evict_over_cap_locked()
            else:
                evicted = []
        if created:
            self._log_session_churn(session_id, evicted)
        return session_id

    def _evict_over_cap_locked(self) -> list[str]:
        """Drop least-recently-used sessions beyond the cap (lock held)."""
        evicted = []
        while len(self._sessions) > self._nli.config.max_sessions:
            oldest = next(iter(self._sessions))
            del self._sessions[oldest]
            evicted.append(oldest)
        return evicted

    def _log_session_churn(self, opened: str, evicted: list[str]) -> None:
        for session_id in evicted:
            self._log({"op": "close", "sid": session_id})
        self._log({"op": "open", "sid": opened})

    def has_session(self, session_id: str) -> bool:
        with self._sessions_lock:
            return session_id in self._sessions

    def session(self, session_id: str) -> Session:
        with self._sessions_lock:
            try:
                session = self._sessions.pop(session_id)
            except KeyError:
                raise KeyError(f"unknown session id {session_id!r}") from None
            # Reinsert at the back: access order drives cap eviction.
            self._sessions[session_id] = session
            return session

    def close_session(self, session_id: str) -> None:
        with self._sessions_lock:
            existed = self._sessions.pop(session_id, None) is not None
        if existed:
            self._log({"op": "close", "sid": session_id})

    def _as_session(self, session: Session | str | None) -> Session | None:
        if isinstance(session, str):
            return self.session(session)
        return session

    # -- read access -------------------------------------------------------

    @contextmanager
    def _read_access(self) -> Iterator[None]:
        """Scope of one read-side entry point.

        No lock at all — the pipeline pins its own snapshot + layer
        bundle — but reader overlap is counted for the
        ``max_concurrent_readers`` observable.
        """
        with self._reader_gauge_lock:
            self._readers_active += 1
            self._reader_stats["read_acquires"] += 1
            if self._readers_active > self._reader_stats["max_concurrent_readers"]:
                self._reader_stats["max_concurrent_readers"] = self._readers_active
        try:
            yield
        finally:
            with self._reader_gauge_lock:
                self._readers_active -= 1

    # -- freshness ---------------------------------------------------------

    def _acquire_commit(self) -> None:
        self._commit_lock.acquire()
        self._write_acquires += 1

    @contextmanager
    def _committing(self) -> Iterator[None]:
        """Hold the commit lock for one write or refresh."""
        self._acquire_commit()
        try:
            yield
        finally:
            self._commit_lock.release()

    def _absorb_writes(self) -> None:
        """Apply pending DML deltas under the commit lock (if any).

        The cheap check runs lock-free; the refresh re-checks under the
        commit lock, so two racing readers cannot double-refresh.  Writers
        absorb their own deltas at the commit point, so this fires only
        for out-of-band database mutations — the single case where a
        reader may wait on a writer, for at most one commit.
        """
        if self._txn_open:
            # An open transaction holds the commit lock; its deltas publish
            # at COMMIT/ROLLBACK (the commit hook), and readers meanwhile
            # pair the pre-transaction overlay snapshot with the current —
            # pre-transaction — language layers.
            return
        if self._nli.needs_refresh():
            with self._committing():
                self._nli.refresh_if_needed()
            # Out-of-band mutations are committed data too: give standing
            # subscriptions their (buffered) touched tables.
            self._subscriptions.commit()

    def _publish_txn(self) -> None:
        """Engine commit hook: absorb the transaction's (or rollback's)
        deltas and publish fresh language layers *inside* the closing
        statement scope, so no reader can pin the committed data with the
        pre-commit layers.  Runs under the commit lock held since BEGIN."""
        self._nli.refresh_if_needed()

    def refresh(self, full: bool = False) -> None:
        """Explicitly rebuild/patch the language layers (exclusive)."""
        with self._committing():
            self._nli.refresh(full=full)

    # -- rate limiting -----------------------------------------------------

    def check_limit(self, key: str, tokens: float = 1.0) -> float:
        """Charge the rate limiter for ``key``: retry-after seconds when
        over budget, else 0.0.  Public so front ends that short-circuit a
        request (e.g. the HTTP layer's response cache) can still charge
        the client's budget exactly once."""
        if self._limiter is None:
            return 0.0
        return self._limiter.check(key, tokens)

    # -- questions (read side) ---------------------------------------------

    def ask(
        self,
        question: str,
        session: Session | str | None = None,
        clarify: bool = False,
        client: str | None = None,
    ) -> Response:
        """Answer one question; safe to call from many threads at once.

        ``client`` keys the rate limiter (falling back to the session id,
        then to one shared anonymous bucket).
        """
        sid = session if isinstance(session, str) else None
        resolved = self._as_session(session)
        retry_after = self.check_limit(client or sid or ANONYMOUS)
        if retry_after:
            return Response.rate_limited(question, retry_after)
        self._absorb_writes()
        with self._read_access():
            response = self._nli.ask(question, session=resolved, clarify=clarify)
        self._record_ask(sid, question, clarify, response)
        return response

    def ask_many(
        self,
        questions: list[str],
        session: Session | str | None = None,
        clarify: bool = False,
        client: str | None = None,
    ) -> list[Response]:
        """Answer a batch against one pinned snapshot and one freshness pass.

        The batch charges ``len(questions)`` rate-limit tokens up front
        (capped at the burst capacity — an oversized batch drains the
        whole bucket), so splitting a flood into batches buys no extra
        budget.
        """
        sid = session if isinstance(session, str) else None
        resolved = self._as_session(session)
        retry_after = self.check_limit(
            client or sid or ANONYMOUS, tokens=float(len(questions) or 1)
        )
        if retry_after:
            return [Response.rate_limited(q, retry_after) for q in questions]
        self._absorb_writes()
        with self._read_access():
            responses = self._nli.ask_many(
                questions,
                session=resolved,
                clarify=clarify,
            )
        for question, response in zip(questions, responses):
            self._record_ask(sid, question, clarify, response)
        return responses

    def resolve(
        self,
        clarification_id: str,
        choice_index: int,
        client: str | None = None,
    ) -> Response:
        """Execute the chosen reading of an AMBIGUOUS response.

        Accepts clarification ids minted before a restart: the persistence
        replay leaves an alias from the persisted id to the live one.
        """
        with self._sessions_lock:
            live_id = self._clar_aliases.get(clarification_id, clarification_id)
            parked = self._parked.get(live_id)
        key = client or (parked[1] if parked else None) or ANONYMOUS
        retry_after = self.check_limit(key)
        if retry_after:
            return Response.rate_limited(clarification_id, retry_after)
        self._absorb_writes()
        try:
            with self._read_access():
                # Raises ClarificationError for unknown ids / bad indexes;
                # the clarification is consumed on any Response (even
                # FAILED).
                response = self._nli.resolve(live_id, choice_index)
        except ClarificationError:
            # A bad *index* leaves the clarification parked (the user just
            # picks again), but an id the pipeline no longer knows — LRU
            # eviction, a consumed entry — is dead: drop our bookkeeping
            # for it too, or abandoned ids would pin parks/aliases forever.
            if not self._nli.has_clarification(live_id):
                with self._sessions_lock:
                    self._clar_aliases.pop(clarification_id, None)
                    self._parked.pop(live_id, None)
            raise
        with self._sessions_lock:
            self._clar_aliases.pop(clarification_id, None)
            self._parked.pop(live_id, None)
        self._log({"op": "resolve", "id": clarification_id, "choice": choice_index})
        return response

    def has_clarification(self, clarification_id: str) -> bool:
        """True while the id (pre- or post-restart form) is still parked
        and resolvable — lets a front end distinguish "unknown id" from
        "bad choice index on a live clarification"."""
        with self._sessions_lock:
            live_id = self._clar_aliases.get(clarification_id, clarification_id)
        return self._nli.has_clarification(live_id)

    def explain(self, question: str, session: Session | str | None = None) -> str:
        resolved = self._as_session(session)
        self._absorb_writes()
        with self._read_access():
            return self._nli.explain(question, session=resolved)

    # -- standing subscriptions --------------------------------------------

    def subscribe(
        self,
        question: str,
        session_id: str | None = None,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
    ) -> Subscription:
        """Register a live question (see ``service/subscriptions.py``).

        Parses once, pushes the initial answer as frame 0, and from then
        on re-evaluates the cached plan only when a committed write
        touches one of the plan's tables.  Raises
        :class:`~repro.service.subscriptions.SubscriptionFailed` (carrying
        the failure envelope) when the question cannot be answered.
        """
        self._absorb_writes()
        return self._subscriptions.register(
            question, session_id, queue_frames=queue_frames
        )

    def unsubscribe(self, subscription_id: str) -> bool:
        """Close a standing subscription; False if the id is unknown."""
        return self._subscriptions.unsubscribe(subscription_id)

    @property
    def subscriptions(self) -> SubscriptionRegistry:
        return self._subscriptions

    # -- async face --------------------------------------------------------
    # asyncio and the pool are imported on first use: an in-process caller
    # that never awaits should not pay for loading them.

    def _ensure_executor(self) -> ThreadPoolExecutor:
        from concurrent.futures import ThreadPoolExecutor

        with self._sessions_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._nli.config.service_workers,
                    thread_name_prefix="nli-worker",
                )
            return self._executor

    async def _run(self, call) -> Any:
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._ensure_executor(), call)

    async def ask_async(
        self,
        question: str,
        session: Session | str | None = None,
        clarify: bool = False,
        client: str | None = None,
    ) -> Response:
        """:meth:`ask` on the worker pool — concurrent awaiters become
        concurrent snapshot readers."""
        return await self._run(
            partial(
                self.ask,
                question,
                session=session,
                clarify=clarify,
                client=client,
            )
        )

    async def ask_many_async(
        self,
        questions: list[str],
        session: Session | str | None = None,
        clarify: bool = False,
        client: str | None = None,
    ) -> list[Response]:
        return await self._run(
            partial(
                self.ask_many,
                questions,
                session=session,
                clarify=clarify,
                client=client,
            )
        )

    async def resolve_async(
        self,
        clarification_id: str,
        choice_index: int,
        client: str | None = None,
    ) -> Response:
        return await self._run(
            partial(self.resolve, clarification_id, choice_index, client=client)
        )

    async def execute_async(self, sql: str) -> ResultSet:
        return await self._run(partial(self.execute, sql))

    # -- persistence -------------------------------------------------------

    def _restore(self, log: SessionLog) -> None:
        """Replay ``log`` into this (fresh) service, then compact it.

        Replay traffic is neither logged (``self._persistence`` is still
        ``None``) nor rate-limited (it is our own history, not a client).
        """
        limiter, self._limiter = self._limiter, None
        try:
            self._clar_aliases = log.replay(self)
        finally:
            self._limiter = limiter
        self._persistence = log
        log.compact(self.dump_records())

    def _log(self, record: dict[str, Any]) -> None:
        log = self._persistence
        if log is not None:
            log.append(record)

    def _record_ask(
        self, sid: str | None, question: str, clarify: bool, response: Response
    ) -> None:
        """Track/persist the state change (if any) one ask produced."""
        if response.status is Status.AMBIGUOUS and response.clarification_id:
            with self._sessions_lock:
                self._parked[response.clarification_id] = (question, sid)
                # Mirror the pipeline registry's LRU bound: once it would
                # have evicted the oldest park, ours (and any alias to it)
                # is dead weight that would otherwise grow — and be
                # re-parked by every compaction — forever.
                while len(self._parked) > CLARIFICATION_CAPACITY:
                    evicted = next(iter(self._parked))
                    del self._parked[evicted]
                    for external, live in list(self._clar_aliases.items()):
                        if live == evicted:
                            del self._clar_aliases[external]
            self._log(
                {
                    "op": "park",
                    "sid": sid,
                    "question": question,
                    "id": response.clarification_id,
                    "choices": [choice.to_dict() for choice in response.choices],
                }
            )
        elif response.status is Status.ANSWERED and sid is not None:
            self._log(
                {
                    "op": "turn",
                    "sid": sid,
                    "question": question,
                    "clarify": clarify,
                    "choice": None,
                }
            )

    def dump_records(self) -> list[dict[str, Any]]:
        """The minimal replayable event stream for current live state.

        Sessions replay from their :attr:`~repro.core.dialogue.Session.events`
        logs (a turn answered via clarification replays as ask+pick, so no
        park/resolve pair is needed); still-parked clarifications replay as
        ``park`` records under the id the *client* holds (the persisted
        alias when there is one).  A session's *current* pending
        clarification is emitted right after its turns so replay leaves the
        dialogue in the same state; abandoned parks (the user moved on)
        replay session-less, so re-asking them cannot resurrect cleared
        pending state or re-read a fragment against the wrong context.
        Choices snapshots are not reconstructed here — they are
        observability payload, re-captured on first use.
        """
        with self._sessions_lock:
            sessions = list(self._sessions.items())
            parked = dict(self._parked)
            reverse = {live: ext for ext, live in self._clar_aliases.items()}
        pending_parks: dict[str, dict[str, Any]] = {}
        loose_parks: list[dict[str, Any]] = []
        session_map = dict(sessions)
        for live_id, (question, sid) in parked.items():
            record = {
                "op": "park",
                "sid": None,
                "question": question,
                "id": reverse.get(live_id, live_id),
                "choices": [],
            }
            session = session_map.get(sid)
            if session is not None and session.pending_clarification == live_id:
                record["sid"] = sid
                pending_parks[sid] = record
            else:
                loose_parks.append(record)
        records: list[dict[str, Any]] = []
        for sid, session in sessions:
            records.append({"op": "open", "sid": sid})
            for event in session.events:
                records.append(
                    {
                        "op": "turn",
                        "sid": sid,
                        "question": event["question"],
                        "clarify": event["clarify"],
                        "choice": event["choice"],
                    }
                )
            if sid in pending_parks:
                records.append(pending_parks[sid])
        records.extend(loose_parks)
        return records

    def compact_log(self) -> None:
        """Rewrite the persistence log to live state (no-op when not
        durable); useful before a planned shutdown."""
        if self._persistence is not None:
            self._persistence.compact(self.dump_records())

    def session_ids(self) -> list[str]:
        """Ids of currently-open sessions (oldest first)."""
        with self._sessions_lock:
            return list(self._sessions)

    def adopt_records(self, records: list[dict[str, Any]]) -> dict[str, str]:
        """Replay another service's event records into this one.

        This is the cluster handoff path: when a worker dies, the router
        replays the dead worker's session records into a sibling so the
        dialogue (history *and* pending clarifications) survives.  The
        replay is neither logged nor rate-limited — it is history, not new
        client traffic — and sessions this service already holds are
        skipped, so adoption can never clobber live state.  Returns the
        clarification alias map (old id -> freshly minted id), which is
        also merged into this service's alias table so clients keep using
        the ids they already hold.
        """
        known = frozenset(self.session_ids())
        limiter, self._limiter = self._limiter, None
        persistence, self._persistence = self._persistence, None
        try:
            aliases = replay_records(self, records, skip_sids=known)
        finally:
            self._limiter = limiter
            self._persistence = persistence
        with self._sessions_lock:
            self._clar_aliases.update(aliases)
        if persistence is not None:
            persistence.compact(self.dump_records())
        return aliases

    # -- SQL passthrough (write side for DML/DDL) --------------------------

    def execute(self, sql: str) -> ResultSet:
        """Run raw SQL.

        Reads: a SELECT runs lock-free against a pinned snapshot; EXPLAIN
        pins its own snapshot inside the engine, so it is just as
        lock-free — it never queues behind a bulk writer.  Autocommit
        writes (DML/DDL) serialize on the commit lock and absorb their own
        deltas before releasing, so readers always find published-fresh
        language layers and never wait.

        ``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` open a multi-statement
        transaction scope: BEGIN acquires the commit lock and *holds* it
        until the closing statement, while concurrent readers keep
        answering lock-free from the pinned pre-transaction overlay
        snapshot.  Statements between BEGIN and COMMIT join the open
        transaction (serialized on the transaction gate).
        """
        head = sql.lstrip().lower()
        word = head.split(None, 1)[0].rstrip(";") if head else ""
        if word in ("begin", "commit", "rollback") or self._txn_open:
            return self._execute_in_transaction(sql, word)
        if head.startswith("select"):
            with self._read_access():
                with self.database.snapshot() as snapshot:
                    return self._nli.engine.execute(sql, snapshot=snapshot)
        if head.startswith(_READ_ONLY_PREFIXES):
            # EXPLAIN: the engine plans against a snapshot it pins itself
            # (the committed overlay during an open transaction).
            with self._read_access():
                return self._nli.engine.execute(sql)
        # Commit point: the statement and the layer publish share one
        # database statement scope, so a reader pinning its (layers,
        # snapshot) pair lands entirely before or entirely after this
        # commit — never between the data change and the refreshed
        # language layers.
        with self._committing(), self.database.statement_scope():
            result = self._nli.engine.execute(sql)
            self._nli.refresh_if_needed()
        # The write is visible and the lock released: wake subscriptions
        # whose stamped tables this statement touched (set intersection
        # only — an unrelated write costs an idle subscription nothing).
        self._subscriptions.commit()
        return result

    def _execute_in_transaction(self, sql: str, word: str) -> ResultSet:
        """One statement on the transaction path.

        The gate serializes transaction control: a second client's BEGIN
        waits here until the first transaction closes (its COMMIT releases
        the commit lock the gate-holder then acquires).  Statement errors
        inside an open transaction leave it open — the client decides
        whether to ROLLBACK — but a failed BEGIN releases everything.
        """
        engine = self._nli.engine
        with self._txn_gate:
            if not self._txn_open:
                if word != "begin":
                    # Stray COMMIT/ROLLBACK (or a race with a transaction
                    # that just closed): uniform engine TransactionError.
                    return engine.execute(sql)
                self._acquire_commit()
                try:
                    result = engine.execute(sql)
                except BaseException:
                    self._commit_lock.release()
                    raise
                self._txn_open = True
                return result
            if word in ("commit", "rollback"):
                try:
                    return engine.execute(sql)
                finally:
                    # The engine hook published fresh layers inside the
                    # closing scope; only then does the commit point open
                    # up.  If COMMIT failed with the transaction still
                    # open (WAL flush error), keep holding — the client
                    # can still ROLLBACK.
                    if not engine.transactions.active:
                        self._txn_open = False
                        self._commit_lock.release()
                        # Transaction closed (committed or rolled back):
                        # notify subscriptions once, for the whole batch.
                        # A rollback that restored the old rows is pushed
                        # nowhere — re-evaluation dedupes by content.
                        self._subscriptions.commit()
            # Any other statement joins the open transaction and runs
            # against live storage (seeing the transaction's own writes);
            # a nested BEGIN lands here too and raises in the engine
            # without disturbing the open transaction.
            return engine.execute(sql)

    # -- observability -----------------------------------------------------

    def data_stamp(self) -> tuple[int, int]:
        """Identity of the current committed data version — the stamp a
        snapshot pinned right now would carry.  One write (to any table)
        or catalog DDL changes it; response caches key serialized answers
        by it so a stale entry can never be served across versions."""
        database = self.database
        overlay = database.txn_overlay
        if overlay is not None:
            # An open transaction: readers see the pinned pre-transaction
            # overlay, so the *committed* identity is the overlay's stamp,
            # not the live (uncommitted) version counters.
            return overlay.stamp
        return (database.catalog_version, database.version)

    @property
    def lock_stats(self) -> dict[str, int]:
        """Reader entries and their high-water overlap (readers take no
        lock; the gauge counts them), plus commit-lock acquisitions."""
        with self._reader_gauge_lock:
            readers = dict(self._reader_stats)
        return {
            "read_acquires": readers["read_acquires"],
            "write_acquires": self._write_acquires,
            "max_concurrent_readers": readers["max_concurrent_readers"],
        }

    @property
    def stats(self) -> dict[str, Any]:
        """Pipeline counters plus lock/limiter/storage/session counters."""
        out: dict[str, Any] = dict(self._nli.stats)
        for key, value in self.lock_stats.items():
            out[f"lock_{key}"] = value
        out["snapshot_pins"] = self.database.snapshot_pins
        if self._limiter is not None:
            out["rate_allowed"] = self._limiter.stats["allowed"]
            out["rate_limited"] = self._limiter.stats["limited"]
        if self._storage is not None:
            for key, value in self._storage.stats().items():
                out[f"storage_{key}"] = value
        with self._sessions_lock:
            out["open_sessions"] = len(self._sessions)
            out["parked_clarifications"] = len(self._parked)
        subs = self._subscriptions.stats_snapshot()
        out["subscriptions_active"] = subs.pop("subscriptions_active")
        out["subscriptions_opened"] = subs.pop("subscriptions_opened")
        for key, value in subs.items():
            out[f"subscription_{key}"] = value
        return out
