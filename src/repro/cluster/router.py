"""The cluster router: the HTTP front end's backend, spread over workers.

This is where routing *policy* lives (the supervisor only keeps N
workers alive):

* **Single writer, fan-out readers.**  All DML and transaction control
  goes to worker 0, whose storage manager WALs every committed
  statement (the ack durability point, same as single-process serving).
  After the writer acks, the statement is **synchronously replicated**
  to every other worker before the client sees 200 — so a read routed
  to any sibling observes the write (read-your-writes), at the cost of
  write latency scaling with the pool.  A replica that fails to apply
  has diverged and is evicted (killed and respawned into catch-up)
  instead of staying in rotation with stale rows.  Reads (``ask``,
  ``SELECT``) fan out round-robin across *all* workers, writer
  included.
* **Session affinity.**  Dialogue state (history, pending
  clarifications) lives in exactly one worker's memory: a session is
  assigned a worker on first sight and sticks.  The router mirrors
  every state-changing event (open/turn/park/resolve) into its own
  record list — the same replay-based records the durable session log
  uses — so when a worker dies, the dead worker's sessions are
  *adopted* by a sibling via
  :meth:`~repro.service.service.NliService.adopt_records`, and a
  clarification id handed out before the crash keeps resolving.
* **Degraded mode.**  While any worker is down or respawning, DML
  answers ``503 + Retry-After`` (the respawn catches up from the
  checkpoint + WAL chain — pausing writes is what makes that race-free)
  and reads keep flowing on the survivors.  ``/healthz`` reports the
  same state.
* **Transactions.**  ``BEGIN`` takes a per-domain transaction lock held
  across requests until ``COMMIT``/``ROLLBACK`` (exactly the
  single-process gate, made async).  Buffered statements replicate as
  one batch at COMMIT; a writer crash mid-transaction discards the
  buffer — the WAL never saw the group, so recovery and replicas agree
  the transaction never happened.
* **Standing subscriptions.**  ``subscribe`` pins the question to one
  reader (the session's owner when a session rides along, round-robin
  otherwise); that worker's in-process registry re-evaluates on
  relevant commits — which every worker sees, because replicated DML is
  applied everywhere — and pushes frames back as unsolicited ``event``
  frames the supervisor routes here.  The router keeps its own bounded
  drop-oldest queue per subscription (the second backpressure stage,
  guarding against slow HTTP clients) and, when the owning worker dies,
  re-registers the subscription on the adopting sibling so the stream
  survives a SIGKILL with at most a duplicate answer frame.

The router speaks the backend protocol of
:class:`repro.server.http.NliHttpServer` — the HTTP layer cannot tell
it from a local in-process service.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
from typing import Any, Iterator

from repro.cluster.ipc import MAX_FRAME_BYTES
from repro.cluster.registry import DomainSpec
from repro.cluster.supervisor import ClusterSupervisor, WorkerDied, WorkerHandle
from repro.server.http import ApiError
from repro.service.persistence import SessionLog
from repro.service.ratelimit import RateLimiter
from repro.service.response import Response
from repro.service.subscriptions import DEFAULT_QUEUE_FRAMES

__all__ = ["ClusterRouter"]

#: Statement heads that route to any reader when no transaction is open.
_READ_WORDS = ("select", "explain")

#: Byte budget for one ``apply`` frame's statements.  Well under the
#: frame cap so a transaction of many 1 MiB ``/sql`` bodies replicates
#: as several frames instead of one unframeable monster.
_APPLY_BUDGET = MAX_FRAME_BYTES // 4


class _ReplicaApplyFailed(Exception):
    """A live replica answered ``ok: false`` to a replicated statement."""


def _statement_word(sql: str) -> str:
    head = sql.lstrip().lower()
    return head.split(None, 1)[0].rstrip(";") if head else ""


def _statement_chunks(
    statements: list[str], budget: int = _APPLY_BUDGET
) -> Iterator[list[str]]:
    """Split a statement batch into sublists whose JSON-encoded size
    stays under ``budget`` (a single oversized statement still ships
    alone — the HTTP body cap keeps it far below the frame cap)."""
    chunk: list[str] = []
    size = 0
    for sql in statements:
        cost = len(json.dumps(sql)) + 1
        if chunk and size + cost > budget:
            yield chunk
            chunk, size = [], 0
        chunk.append(sql)
        size += cost
    if chunk:
        yield chunk


def _records_for(
    events: list[dict[str, Any]],
    sids: set[str],
    loose_clars: set[str],
) -> list[dict[str, Any]]:
    """The chronological slice of ``events`` a sibling must replay to
    adopt the given sessions (plus any session-less parked
    clarifications), in original order.

    ``resolve`` records carry no sid, so park ids are tracked as records
    are selected: a resolve whose id belongs to a moved park moves too.
    """
    moved_parks: set[str] = set(loose_clars)
    out: list[dict[str, Any]] = []
    for record in events:
        op = record.get("op")
        sid = record.get("sid")
        if sid is not None and sid in sids:
            out.append(record)
            if op == "park":
                moved_parks.add(record["id"])
            continue
        if op == "park" and sid is None and record.get("id") in loose_clars:
            out.append(record)
            continue
        if op == "resolve" and record.get("id") in moved_parks:
            out.append(record)
    return out


class _DomainState:
    """Router-side bookkeeping for one hosted domain."""

    def __init__(self, spec: DomainSpec) -> None:
        self.spec = spec
        #: Monotonic committed-write counter: the cluster's data stamp.
        #: Every acked DML/DDL statement or committed transaction bumps
        #: it, so the HTTP response cache can never serve across writes.
        self.write_count = 0
        #: Serializes /sql dispatch + replication bookkeeping.
        self.sql_lock = asyncio.Lock()
        #: Held from BEGIN to COMMIT/ROLLBACK (across HTTP requests).
        self.txn_lock = asyncio.Lock()
        #: Buffered statements of the open transaction (None = no txn).
        self.txn_buffer: list[str] | None = None
        #: Every committed statement since boot, for catching respawned
        #: workers of *in-memory* domains up (durable domains catch up
        #: from the checkpoint + WAL chain instead and skip this list).
        self.dml_history: list[str] = []
        #: Replay-based session event records (the handoff substrate).
        self.events: list[dict[str, Any]] = []
        self.session_log: SessionLog | None = (
            SessionLog(spec.session_log_path) if spec.durable else None
        )
        #: sid -> worker index (sticky affinity).
        self.session_owner: dict[str, int] = {}
        #: clarification id (as the client knows it) -> worker index.
        self.clar_owner: dict[str, int] = {}
        self.counters = {
            "asks": 0,
            "dml_statements": 0,
            "transactions": 0,
            "replicated_statements": 0,
            "replication_errors": 0,
            "handoffs": 0,
            "retried_reads": 0,
            "subscriptions_opened": 0,
            "subscription_handoffs": 0,
        }

    def record(self, event: dict[str, Any]) -> None:
        self.events.append(event)
        if self.session_log is not None:
            self.session_log.append(event)


class _ClusterSubscription:
    """Router-side record of one standing subscription.

    Holds the id the HTTP client knows (``rsub-N``), which worker
    currently owns the service-level subscription, and a bounded
    drop-oldest frame queue the connection loop drains.  Speaks the
    same stream interface as the local backend's
    ``_LocalSubscriptionStream`` (``id`` / ``question`` / ``tables`` /
    ``queue_frames`` / ``next_frame`` / ``aclose``), so the HTTP layer
    cannot tell cluster streams from in-process ones.
    """

    def __init__(
        self,
        router: "ClusterRouter",
        domain: str,
        rsub_id: str,
        question: str,
        sid: str | None,
        queue_frames: int,
    ) -> None:
        self._router = router
        self.domain = domain
        self.id = rsub_id
        self.question = question
        self.sid = sid
        self.queue_frames = max(1, queue_frames)
        self.tables: list[str] = []
        #: Index of the worker whose registry evaluates this question.
        self.owner: int | None = None
        self.closed = False
        self.dropped = 0
        self._queue: asyncio.Queue[dict[str, Any]] = asyncio.Queue()

    def enqueue(self, frame: dict[str, Any]) -> None:
        """Buffer one worker-pushed frame (event-loop thread only).

        The worker already bounds its service-level queue; this queue is
        the second stage, protecting the router from an HTTP client that
        reads slower than the worker pushes.  Frames are rewritten to
        carry the router id — the only subscription id the client knows.
        """
        if self.closed:
            return
        frame = dict(frame, subscription=self.id)
        while self._queue.qsize() >= self.queue_frames:
            try:
                self._queue.get_nowait()
                self.dropped += 1
            except asyncio.QueueEmpty:  # pragma: no cover - single thread
                break
        self._queue.put_nowait(frame)

    async def next_frame(self, timeout: float) -> dict[str, Any] | None:
        try:
            frame = await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            return None
        if frame.get("type") == "closed":
            self.closed = True
        return frame

    async def aclose(self) -> None:
        await self._router._unsubscribe(self)


class ClusterRouter:
    """Backend protocol implementation over a :class:`ClusterSupervisor`."""

    def __init__(
        self,
        supervisor: ClusterSupervisor,
        specs: list[DomainSpec],
        *,
        default_domain: str | None = None,
        qps: float | None = None,
        burst: int = 8,
    ) -> None:
        self.supervisor = supervisor
        self._domains = {spec.name: _DomainState(spec) for spec in specs}
        self.default_domain = default_domain or specs[0].name
        #: Per-key (session / client address) limiter — workers run with
        #: limiting off, so the charge happens exactly once, here.
        self._limiter = RateLimiter(qps, burst) if qps is not None else None
        self._rr = 0
        self._handoff_lock = asyncio.Lock()
        #: Router subscription id ("rsub-N") -> live subscription record.
        self._subs: dict[str, _ClusterSubscription] = {}
        self._sub_ids = itertools.count(1)
        supervisor.on_worker_death = self._on_worker_death
        supervisor.on_worker_ready = self._on_worker_ready
        supervisor.on_worker_event = self._on_worker_event

    # -- backend protocol: introspection -----------------------------------

    def domains(self) -> list[str]:
        return list(self._domains)

    def has_session(self, domain: str, sid: str) -> bool:
        state = self._domains.get(domain)
        return state is not None and sid in state.session_owner

    def check_limit(self, domain: str, key: str, tokens: float = 1.0) -> float:
        if self._limiter is None:
            return 0.0
        return self._limiter.check(key, tokens)

    def data_stamp(self, domain: str) -> Any:
        return ("cluster", self._state(domain).write_count)

    # -- boot / shutdown ---------------------------------------------------

    async def start(self) -> None:
        """Distribute any persisted sessions across the live pool."""
        for state in self._domains.values():
            if state.session_log is None:
                continue
            records = state.session_log.load()
            if records:
                await self._distribute_records(state, records)
                state.events.extend(records)

    async def _distribute_records(
        self, state: _DomainState, records: list[dict[str, Any]]
    ) -> None:
        """Boot-time adoption: partition a restored session log by sid
        (round-robin over workers) so affinity holds from the first
        request after a restart."""
        handles = self.supervisor.live_handles()
        if not handles:
            return
        assignment: dict[str | None, WorkerHandle] = {}
        buckets: dict[int, list[dict[str, Any]]] = {}
        park_sids: dict[str, str | None] = {}
        counter = 0
        for record in records:
            sid = record.get("sid")
            if record.get("op") == "park":
                park_sids[record.get("id")] = sid
            if record.get("op") == "resolve":
                sid = park_sids.get(record.get("id"))
            key = sid
            if key not in assignment:
                assignment[key] = handles[counter % len(handles)]
                counter += 1
            handle = assignment[key]
            buckets.setdefault(handle.index, []).append(record)
            if sid is not None:
                state.session_owner[sid] = handle.index
            if record.get("op") == "park":
                state.clar_owner[record["id"]] = handle.index
        for handle in handles:
            bucket = buckets.get(handle.index)
            if not bucket:
                continue
            try:
                await self.supervisor.request(
                    handle,
                    {"op": "adopt", "domain": state.spec.name, "records": bucket},
                )
            except WorkerDied:
                continue

    async def aclose(self) -> None:
        await self.supervisor.aclose()

    # -- helpers -----------------------------------------------------------

    def _state(self, domain: str) -> _DomainState:
        state = self._domains.get(domain)
        if state is None:
            raise ApiError(404, f"no such domain: {domain}", "unknown_domain")
        return state

    def _live_or_503(self) -> list[WorkerHandle]:
        handles = self.supervisor.live_handles()
        if not handles:
            raise self._degraded_error("no worker is available")
        return handles

    def _degraded_error(self, message: str) -> ApiError:
        error = ApiError(503, message, "cluster_degraded")
        error.headers["Retry-After"] = str(
            max(1, math.ceil(self.supervisor.respawn_delay_s or 1))
        )
        return error

    def _require_all_live(self) -> None:
        if not self.supervisor.all_live:
            raise self._degraded_error(
                "a worker is respawning; writes are paused until the pool "
                "is whole (reads keep flowing)"
            )

    def _next_reader(self, handles: list[WorkerHandle]) -> WorkerHandle:
        self._rr += 1
        return handles[self._rr % len(handles)]

    def _owner_handle(self, index: int | None) -> WorkerHandle | None:
        if index is None:
            return None
        handle = self.supervisor.handles[index]
        return handle if handle.live else None

    def _assign_session(self, state: _DomainState, sid: str) -> WorkerHandle:
        handle = self._owner_handle(state.session_owner.get(sid))
        if handle is not None:
            return handle
        handle = self._next_reader(self._live_or_503())
        if sid not in state.session_owner:
            state.record({"op": "open", "sid": sid})
        state.session_owner[sid] = handle.index
        return handle

    def _limited_envelope(self, question: str, retry_after: float) -> dict[str, Any]:
        return Response.rate_limited(question, retry_after).to_dict()

    def _note_response(
        self,
        state: _DomainState,
        worker_index: int,
        question: str,
        sid: str | None,
        clarify: bool,
        envelope: dict[str, Any],
    ) -> None:
        """Mirror the service's own event logging from the envelope."""
        status = envelope.get("status")
        clar_id = envelope.get("clarification_id")
        if status == "ambiguous" and clar_id:
            state.clar_owner[clar_id] = worker_index
            state.record(
                {
                    "op": "park",
                    "sid": sid,
                    "question": question,
                    "id": clar_id,
                    "choices": envelope.get("choices") or [],
                }
            )
        elif status == "answered" and sid is not None:
            state.record(
                {
                    "op": "turn",
                    "sid": sid,
                    "question": question,
                    "clarify": clarify,
                    "choice": None,
                }
            )

    # -- backend protocol: asking ------------------------------------------

    async def ask(
        self,
        domain: str,
        question: str,
        sid: str | None,
        clarify: bool,
        client: str,
    ) -> dict[str, Any]:
        state = self._state(domain)
        if self._limiter is not None:
            retry_after = self._limiter.check(client)
            if retry_after:
                return self._limited_envelope(question, retry_after)
        state.counters["asks"] += 1
        payload = {
            "op": "ask",
            "domain": domain,
            "question": question,
            "session": sid,
            "clarify": clarify,
        }
        envelope, handle = await self._dispatch_sticky(state, sid, payload)
        self._note_response(state, handle.index, question, sid, clarify, envelope)
        return envelope

    async def ask_many(
        self,
        domain: str,
        questions: list[str],
        sid: str | None,
        clarify: bool,
        client: str,
    ) -> list[dict[str, Any]]:
        state = self._state(domain)
        if self._limiter is not None:
            retry_after = self._limiter.check(client, float(len(questions)))
            if retry_after:
                return [
                    self._limited_envelope(question, retry_after)
                    for question in questions
                ]
        state.counters["asks"] += len(questions)
        payload = {
            "op": "ask_many",
            "domain": domain,
            "questions": questions,
            "session": sid,
            "clarify": clarify,
        }
        result, handle = await self._dispatch_sticky(
            state, sid, payload, key="envelopes"
        )
        for question, envelope in zip(questions, result):
            self._note_response(state, handle.index, question, sid, clarify, envelope)
        return result

    async def _dispatch_sticky(
        self,
        state: _DomainState,
        sid: str | None,
        payload: dict[str, Any],
        key: str = "envelope",
    ) -> tuple[Any, WorkerHandle]:
        """Route to the session's owner (or round-robin when stateless),
        retrying on a sibling — after session handoff — if the worker
        dies mid-request.  Asks are pure reads, so a retry can never
        double-apply anything."""
        for attempt in range(max(2, self.supervisor.procs)):
            if sid is not None:
                handle = self._assign_session(state, sid)
            else:
                handle = self._next_reader(self._live_or_503())
            try:
                frame = await self.supervisor.request(handle, payload)
            except WorkerDied:
                state.counters["retried_reads"] += 1
                await self._handoff_index(handle.index)
                continue
            if not frame.get("ok", False):
                raise ApiError(
                    422, frame.get("error", "worker error"), frame.get("code", "")
                )
            return frame[key], handle
        raise self._degraded_error("no worker survived the request")

    # -- backend protocol: clarifications ----------------------------------

    async def resolve(
        self, domain: str, clarification_id: str, choice: int, client: str
    ) -> dict[str, Any]:
        state = self._state(domain)
        if self._limiter is not None:
            retry_after = self._limiter.check(client)
            if retry_after:
                return self._limited_envelope(clarification_id, retry_after)
        payload = {
            "op": "resolve",
            "domain": domain,
            "clarification_id": clarification_id,
            "choice": choice,
        }
        for _ in range(max(2, self.supervisor.procs)):
            handle = self._owner_handle(state.clar_owner.get(clarification_id))
            if handle is None:
                handle = self._next_reader(self._live_or_503())
            try:
                frame = await self.supervisor.request(handle, payload)
            except WorkerDied:
                await self._handoff_index(handle.index)
                continue
            if frame.get("ok", False):
                state.record(
                    {"op": "resolve", "id": clarification_id, "choice": choice}
                )
                state.clar_owner.pop(clarification_id, None)
                return frame["envelope"]
            if frame.get("code") == "clarification":
                if frame.get("live"):
                    raise ApiError(400, frame.get("error", ""), "bad_choice")
                raise ApiError(404, frame.get("error", ""), "unknown_clarification")
            raise ApiError(
                422, frame.get("error", "worker error"), frame.get("code", "")
            )
        raise self._degraded_error("no worker survived the request")

    # -- backend protocol: SQL ---------------------------------------------

    async def execute(self, domain: str, sql: str) -> dict[str, Any]:
        state = self._state(domain)
        word = _statement_word(sql)
        if word in _READ_WORDS and state.txn_buffer is None:
            return await self._execute_read(state, sql)
        return await self._execute_write(state, sql, word)

    async def _execute_read(self, state: _DomainState, sql: str) -> dict[str, Any]:
        payload = {"op": "execute", "domain": state.spec.name, "sql": sql}
        for _ in range(max(2, self.supervisor.procs)):
            handle = self._next_reader(self._live_or_503())
            try:
                frame = await self.supervisor.request(handle, payload)
            except WorkerDied:
                state.counters["retried_reads"] += 1
                continue
            return self._sql_result(frame)
        raise self._degraded_error("no worker survived the request")

    async def _execute_write(
        self, state: _DomainState, sql: str, word: str
    ) -> dict[str, Any]:
        """The write path: writer-only dispatch + synchronous replication.

        Mirrors the single-process transaction gate: BEGIN takes the
        domain's transaction lock and *keeps* it until the closing
        statement (possibly a different HTTP request); everything else
        serializes on the short sql lock.  DML requires the whole pool
        live — that is what makes a respawning worker's catch-up
        race-free — and is acked only after the writer (durability) and
        every reader (read-your-writes) have applied it.
        """
        began = False
        if word == "begin" and state.txn_buffer is None:
            await state.txn_lock.acquire()
            began = True
        try:
            async with state.sql_lock:
                self._require_all_live()
                writer = self.supervisor.handles[0]
                payload = {
                    "op": "execute",
                    "domain": state.spec.name,
                    "sql": sql,
                }
                try:
                    frame = await self.supervisor.request(writer, payload)
                except WorkerDied:
                    self._abort_txn(state)
                    raise self._degraded_error(
                        "the writer died mid-statement; retry once the "
                        "pool recovers (unacknowledged work was rolled back)"
                    ) from None
                try:
                    result = self._sql_result(frame)
                except ApiError:
                    if began:
                        # BEGIN itself failed: nothing opened.
                        state.txn_lock.release()
                        began = False
                    raise
                if began:
                    state.txn_buffer = []
                    state.counters["transactions"] += 1
                    return result
                if state.txn_buffer is not None:
                    if word == "commit":
                        statements = state.txn_buffer
                        state.txn_buffer = None
                        # The writer has durably committed: move the
                        # data stamp *now* so the response cache can
                        # never serve pre-commit rows, and release the
                        # transaction gate no matter how replication
                        # goes — a replica failure degrades the pool, it
                        # must not wedge every future BEGIN.
                        state.write_count += 1
                        try:
                            await self._replicate(state, statements)
                        finally:
                            state.txn_lock.release()
                    elif word == "rollback":
                        state.txn_buffer = None
                        state.txn_lock.release()
                    elif word not in _READ_WORDS:
                        state.txn_buffer.append(sql)
                    return result
                if word not in _READ_WORDS:
                    state.counters["dml_statements"] += 1
                    state.write_count += 1
                    await self._replicate(state, [sql])
                return result
        except BaseException:
            if began and state.txn_buffer is None:
                # The lock was taken for a BEGIN that never opened.
                if state.txn_lock.locked():
                    state.txn_lock.release()
            raise

    def _abort_txn(self, state: _DomainState) -> None:
        """Writer death: the open transaction (if any) evaporates — its
        commit group never reached the WAL, so recovery agrees."""
        if state.txn_buffer is not None:
            state.txn_buffer = None
            if state.txn_lock.locked():
                state.txn_lock.release()

    def _sql_result(self, frame: dict[str, Any]) -> dict[str, Any]:
        if not frame.get("ok", False):
            raise ApiError(
                422,
                frame.get("error", "SQL failed"),
                frame.get("code") or "engine_error",
            )
        return {"columns": frame["columns"], "rows": frame["rows"]}

    async def _replicate(self, state: _DomainState, statements: list[str]) -> None:
        """Apply acked statements on every non-writer worker before the
        client sees the ack (synchronous, read-your-writes).

        Never raises — the writer already committed, so the ack stands
        whatever the replicas do.  A replica dying mid-apply is fine (it
        catches up on respawn); a live replica that *fails* to apply has
        diverged from the writer and is evicted — SIGKILLed into the
        normal death → respawn → catch-up path — rather than left in
        read rotation serving rows that are missing the write.  The
        eviction surfaces in ``/healthz`` as degraded until the respawn
        rejoins.  Statements ship in size-bounded chunks so a large
        transaction can never exceed the IPC frame cap."""
        if not statements:
            return
        if not state.spec.durable:
            state.dml_history.extend(statements)
        chunks = list(_statement_chunks(statements))
        replicas = [h for h in self.supervisor.handles if h.live and h.index != 0]
        results = await asyncio.gather(
            *(self._apply_on(handle, state, chunks) for handle in replicas),
            return_exceptions=True,
        )
        for handle, result in zip(replicas, results):
            if isinstance(result, WorkerDied):
                continue  # catches up from the chain / history on respawn
            if isinstance(result, BaseException):
                state.counters["replication_errors"] += 1
                self.supervisor.evict(handle)
            else:
                state.counters["replicated_statements"] += len(statements)

    async def _apply_on(
        self,
        handle: WorkerHandle,
        state: _DomainState,
        chunks: list[list[str]],
    ) -> None:
        for chunk in chunks:
            frame = await self.supervisor.request(
                handle,
                {
                    "op": "apply",
                    "domain": state.spec.name,
                    "statements": chunk,
                },
            )
            if not frame.get("ok", False):
                raise _ReplicaApplyFailed(frame.get("error", "apply failed"))

    # -- backend protocol: standing subscriptions --------------------------

    async def subscribe(
        self,
        domain: str,
        question: str,
        sid: str | None,
        client: str,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
    ) -> _ClusterSubscription:
        """Pin a standing subscription to one reader and return its
        stream.  A session rides with its sticky owner (dialogue state
        and the subscription must live in the same worker's memory);
        session-less subscriptions round-robin like any read."""
        state = self._state(domain)
        record = _ClusterSubscription(
            self, domain, f"rsub-{next(self._sub_ids)}", question, sid, queue_frames
        )
        for _ in range(max(2, self.supervisor.procs)):
            if sid is not None:
                handle = self._assign_session(state, sid)
            else:
                handle = self._next_reader(self._live_or_503())
            # Visible to the event hook *before* the worker answers: the
            # initial answer frame can arrive ahead of the subscribe ack.
            self._subs[record.id] = record
            try:
                await self._register_subscription(record, handle)
            except WorkerDied:
                self._subs.pop(record.id, None)
                record._queue = asyncio.Queue()  # drop pre-crash frames
                await self._handoff_index(handle.index)
                continue
            except ApiError:
                self._subs.pop(record.id, None)
                raise
            state.counters["subscriptions_opened"] += 1
            return record
        raise self._degraded_error("no worker survived the request")

    async def _register_subscription(
        self, record: _ClusterSubscription, handle: WorkerHandle
    ) -> None:
        record.owner = handle.index
        frame = await self.supervisor.request(
            handle,
            {
                "op": "subscribe",
                "domain": record.domain,
                "question": record.question,
                "session": record.sid,
                "sub": record.id,
                "queue": record.queue_frames,
            },
        )
        if not frame.get("ok", False):
            raise ApiError(
                422,
                frame.get("error", "subscribe failed"),
                "subscription_failed",
            )
        record.tables = [str(table) for table in frame.get("tables", [])]
        record.queue_frames = int(frame.get("queue_frames", record.queue_frames))

    async def _unsubscribe(self, record: _ClusterSubscription) -> None:
        self._subs.pop(record.id, None)
        if record.closed:
            return
        record.closed = True
        handle = self._owner_handle(record.owner)
        if handle is None:
            return
        try:
            await self.supervisor.request(
                handle,
                {"op": "unsubscribe", "domain": record.domain, "sub": record.id},
            )
        except WorkerDied:
            pass  # the owner died with the subscription; nothing to undo

    def _on_worker_event(self, handle: WorkerHandle, frame: dict[str, Any]) -> None:
        """Supervisor hook: route one unsolicited worker push.  Frames
        from a worker that no longer owns the subscription (it was
        re-registered elsewhere after an eviction) are dropped."""
        record = self._subs.get(frame.get("sub", ""))
        if record is None or record.owner != handle.index:
            return
        inner = frame.get("frame")
        if isinstance(inner, dict):
            record.enqueue(inner)

    async def _handoff_subscriptions(
        self, state: _DomainState, index: int, target: WorkerHandle
    ) -> None:
        """Re-register every subscription worker ``index`` owned on
        ``target`` (the same sibling that adopted its sessions).  The
        fresh registration re-evaluates, so the client sees at most one
        duplicate answer frame across the failover — never a gap.  A
        subscription the target rejects (or that dies with it) is closed
        so its stream ends instead of silently idling forever."""
        for record in list(self._subs.values()):
            if (
                record.domain != state.spec.name
                or record.owner != index
                or record.closed
            ):
                continue
            try:
                await self._register_subscription(record, target)
            except (WorkerDied, ApiError):
                self._subs.pop(record.id, None)
                record.enqueue({"type": "closed", "subscription": record.id})
                continue
            state.counters["subscription_handoffs"] += 1

    # -- failure handling --------------------------------------------------

    async def _on_worker_death(self, handle: WorkerHandle) -> None:
        for state in self._domains.values():
            if handle.index == 0:
                self._abort_txn(state)
        await self._handoff_index(handle.index)

    async def _handoff_index(self, index: int) -> None:
        """Move every session (and loose clarification) owned by worker
        ``index`` to a live sibling by replaying its recorded events.
        Idempotent: only state still pointing at ``index`` moves, so the
        death hook and a concurrent request retry can both call it."""
        async with self._handoff_lock:
            if self.supervisor.handles[index].live:
                return  # it came back before we got here
            targets = [h for h in self.supervisor.live_handles() if h.index != index]
            if not targets:
                return  # nobody to adopt; respawn-time adoption covers it
            for state in self._domains.values():
                await self._handoff_domain(state, index, targets[0])
                await self._handoff_subscriptions(state, index, targets[0])

    async def _handoff_domain(
        self, state: _DomainState, index: int, target: WorkerHandle
    ) -> None:
        sids = {sid for sid, owner in state.session_owner.items() if owner == index}
        loose = {cid for cid, owner in state.clar_owner.items() if owner == index}
        if not sids and not loose:
            return
        records = _records_for(state.events, sids, loose)
        try:
            await self.supervisor.request(
                target,
                {"op": "adopt", "domain": state.spec.name, "records": records},
            )
        except WorkerDied:
            return  # the target died too; the next death/retry re-runs us
        for sid in sids:
            state.session_owner[sid] = target.index
        for cid, owner in list(state.clar_owner.items()):
            if owner == index:
                state.clar_owner[cid] = target.index
        state.counters["handoffs"] += 1

    async def _on_worker_ready(self, handle: WorkerHandle) -> None:
        """A respawned worker said hello: catch it up before it serves.

        Durable domains already restored the checkpoint + WAL chain in
        the child; in-memory domains replay the router's recorded DML
        history here.  Sessions still owned by this index (possible when
        it was the *only* worker, so nobody could adopt them) are
        re-adopted from the event records.
        """
        for state in self._domains.values():
            if not state.spec.durable and state.dml_history:
                for chunk in _statement_chunks(list(state.dml_history)):
                    await self.supervisor.request(
                        handle,
                        {
                            "op": "apply",
                            "domain": state.spec.name,
                            "statements": chunk,
                        },
                    )
            sids = {
                sid
                for sid, owner in state.session_owner.items()
                if owner == handle.index
            }
            loose = {
                cid
                for cid, owner in state.clar_owner.items()
                if owner == handle.index
            }
            if sids or loose:
                records = _records_for(state.events, sids, loose)
                await self.supervisor.request(
                    handle,
                    {
                        "op": "adopt",
                        "domain": state.spec.name,
                        "records": records,
                    },
                )
            # Subscriptions still pointing at this index never found a
            # sibling (it was the only worker): re-register them on the
            # respawn so their streams resume instead of starving.
            await self._handoff_subscriptions(state, handle.index, handle)

    # -- backend protocol: observability -----------------------------------

    async def stats(self, domain: str | None = None) -> dict[str, Any]:
        await self.supervisor.sweep()
        worker_stats: dict[int, dict[str, Any]] = {}
        for handle in self.supervisor.live_handles():
            try:
                frame = await self.supervisor.request(handle, {"op": "stats"})
            except WorkerDied:
                continue
            if frame.get("ok", False):
                worker_stats[handle.index] = frame
        names = [domain] if domain is not None else list(self._domains)
        for name in names:
            self._state(name)  # 404 on unknown domain
        domains_payload = {
            name: self._domain_stats(name, worker_stats) for name in names
        }
        workers_payload = [
            {
                "index": handle.index,
                "pid": handle.pid,
                "live": handle.live,
                "state": handle.state,
                "restarts": handle.restarts,
                "writer": handle.is_writer,
                "domains": worker_stats.get(handle.index, {}).get("domains", {}),
            }
            for handle in self.supervisor.handles
        ]
        service_view = domains_payload[names[0] if domain else self.default_domain]
        return {
            "service": service_view["service"],
            "cluster": {
                "procs": self.supervisor.procs,
                "all_live": self.supervisor.all_live,
                "workers": workers_payload,
                "domains": domains_payload,
            },
        }

    def _domain_stats(
        self, name: str, worker_stats: dict[int, dict[str, Any]]
    ) -> dict[str, Any]:
        state = self._domains[name]
        merged: dict[str, Any] = {}
        for frame in worker_stats.values():
            for key, value in frame.get("domains", {}).get(name, {}).items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    merged.setdefault(key, value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return {
            "service": merged,
            "router": dict(state.counters),
            "write_count": state.write_count,
            "sessions": len(state.session_owner),
            "session_owners": dict(state.session_owner),
            "clarification_owners": dict(state.clar_owner),
            "subscription_owners": {
                record.id: record.owner
                for record in self._subs.values()
                if record.domain == name and not record.closed
            },
            "durable": state.spec.durable,
        }

    async def healthz(self) -> tuple[int, dict[str, Any], dict[str, str]]:
        # Reap-before-report: a worker that is already a zombie must not
        # show as live for the instant before its socket EOF lands.
        await self.supervisor.sweep()
        workers = [
            {
                "index": handle.index,
                "pid": handle.pid,
                "live": handle.live,
                "restarts": handle.restarts,
            }
            for handle in self.supervisor.handles
        ]
        if self.supervisor.all_live:
            return 200, {"status": "ok", "workers": workers}, {}
        retry = str(max(1, math.ceil(self.supervisor.respawn_delay_s or 1)))
        return (
            503,
            {"status": "degraded", "workers": workers},
            {"Retry-After": retry},
        )
