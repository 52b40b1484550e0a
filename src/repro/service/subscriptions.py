"""Standing subscriptions: live questions re-evaluated per relevant commit.

``NliService.subscribe("how many ships are there?")`` parses the
question **once**, caches the winning interpretation as the standing
plan, and stamps the subscription with the set of tables its generated
SQL reads (:func:`~repro.sqlengine.ast_nodes.referenced_tables` — the
same dependency set the plan cache uses).  Each evaluation answers that
reading through the pipeline's ``answer_reading``, the tail resolving a
clarification uses.  From then on the subscription is pure bookkeeping:

* **An idle subscription does zero work per unrelated write.**  The
  commit point hands the registry the set of tables the commit touched;
  a subscription whose stamp does not intersect is never re-evaluated —
  not re-parsed, not re-planned, not re-executed.  The only cost of an
  unrelated write is one set intersection.
* **A relevant commit re-evaluates against a pinned MVCC snapshot.**
  The evaluator thread pins one atomic (language-layers, snapshot) pair
  — exactly what :meth:`ask` pins — regenerates SQL from the cached
  interpretation, executes, and pushes the fresh answer envelope, so a
  pushed answer can never mix rows from two commits.
* **Bounded queues, drop-oldest.**  Every subscription owns a bounded
  frame queue; a slow consumer loses the *oldest* frames first (each
  frame is a complete answer, so the newest is always the one worth
  keeping) and ``dropped`` counts what it missed.
* **Coalescing.**  Re-evaluation happens on a dedicated daemon thread,
  so a burst of relevant commits costs at most one evaluation per drain
  — and an answer identical to the last pushed one (e.g. after a
  rolled-back transaction restored the rows) is not pushed again.

Frames are plain JSON dicts (``{"type": "answer", "subscription", "seq",
"stamp", "envelope"}``) — the HTTP streaming endpoint writes them to the
wire verbatim (``docs/streaming.md``).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.errors import NliError
from repro.service.response import Response, Status
from repro.sqlengine.ast_nodes import referenced_tables
from repro.sqlengine.table import TableDelta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.interpret import Interpretation
    from repro.service.service import NliService

__all__ = [
    "DEFAULT_QUEUE_FRAMES",
    "Subscription",
    "SubscriptionFailed",
    "SubscriptionRegistry",
]

#: Default per-subscription frame-queue bound (drop-oldest beyond it).
DEFAULT_QUEUE_FRAMES = 64

#: Hard ceiling on client-requested queue bounds.
MAX_QUEUE_FRAMES = 1024


class SubscriptionFailed(NliError):
    """The question could not be planned; carries the failure envelope."""

    def __init__(self, response: Response) -> None:
        message = (
            response.diagnostics[0].message
            if response.diagnostics
            else response.status.value
        )
        super().__init__(message)
        self.response = response


class Subscription:
    """One standing question: cached reading, table stamp, frame queue."""

    def __init__(
        self,
        subscription_id: str,
        question: str,
        session_id: str | None,
        interpretation: Interpretation,
        tables: frozenset[str],
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
    ) -> None:
        self.id = subscription_id
        self.question = question
        self.session_id = session_id
        #: The cached reading (the winning interpretation); SQL is
        #: regenerated from it per evaluation, never re-parsed.
        self.interpretation = interpretation
        #: Tables the plan reads — the re-evaluation trigger set.
        self.tables = tables
        self.queue_frames = max(1, min(int(queue_frames), MAX_QUEUE_FRAMES))
        self._frames: deque[dict[str, Any]] = deque()
        self._cond = threading.Condition()
        self.closed = False
        #: Digest of the last pushed answer (sql + rows): identical
        #: re-evaluations (e.g. after a rollback) push nothing.
        self._last_digest: int | None = None
        self.seq = 0
        self.stats = {"evaluations": 0, "pushes": 0, "dropped": 0}

    # -- producer side (registry evaluator thread) -------------------------

    def push(self, frame: dict[str, Any]) -> None:
        with self._cond:
            if self.closed:
                return
            while len(self._frames) >= self.queue_frames:
                self._frames.popleft()
                self.stats["dropped"] += 1
            self._frames.append(frame)
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    # -- consumer side (HTTP stream / CLI / tests) -------------------------

    def next_frame(self, timeout: float | None = None) -> dict[str, Any] | None:
        """Block for the next frame.

        Returns ``None`` on timeout — the streaming layer's heartbeat
        tick — and raises nothing on close: a closed, drained
        subscription returns the ``{"type": "closed"}`` sentinel so the
        consumer can end the stream cleanly.
        """
        with self._cond:
            while not self._frames:
                if self.closed:
                    return {"type": "closed", "subscription": self.id}
                if not self._cond.wait(timeout):
                    return None
            return self._frames.popleft()


class SubscriptionRegistry:
    """All standing subscriptions of one service, plus their evaluator.

    The registry listens to the database's row-level deltas (buffering
    only *table names*), and the service's commit points call
    :meth:`commit` once the write is visible: touched tables are matched
    against every subscription's stamp, and only intersecting
    subscriptions are marked dirty and handed to the evaluator thread.
    Every answer comes from the pipeline's ``answer_reading``; the
    registry adds the table stamp, the digest check and the queues.
    """

    def __init__(self, service: "NliService") -> None:
        self._service = service
        self._subs: dict[str, Subscription] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._dirty: set[str] = set()
        #: Tables touched by deltas since the last commit() drain.
        self._pending_tables: set[str] = set()
        self._pending_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._closed = False
        self.stats = {
            "subscriptions_opened": 0,
            "evaluations": 0,
            "pushes": 0,
            "dropped_frames": 0,
            "irrelevant_commits": 0,
        }

    # -- delta intake ------------------------------------------------------

    def on_delta(self, delta: TableDelta) -> None:
        """Database mutation callback: remember the table, nothing else."""
        with self._pending_lock:
            self._pending_tables.add(delta.table)

    def commit(self) -> None:
        """A commit point closed: wake the evaluator for affected subs.

        Called by the service *after* the write is visible (outside the
        commit lock).  The unrelated-write path is one lock, one set swap
        and one intersection per subscription — no plan work.
        """
        with self._pending_lock:
            if not self._pending_tables:
                return
            touched, self._pending_tables = self._pending_tables, set()
        with self._lock:
            if self._closed or not self._subs:
                return
            hit = [sub.id for sub in self._subs.values() if sub.tables & touched]
            if not hit:
                self.stats["irrelevant_commits"] += 1
                return
            self._dirty.update(hit)
            self._wake.notify()

    # -- registration ------------------------------------------------------

    def register(
        self,
        question: str,
        session_id: str | None = None,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
    ) -> Subscription:
        """Parse once, cache the reading, push the initial answer frame.

        Raises :class:`SubscriptionFailed` (carrying the failure
        envelope) when the question cannot be answered — a question that
        fails now would fail identically on every push.
        """
        response = self._service.ask(question, session=session_id)
        if response.status is not Status.ANSWERED:
            raise SubscriptionFailed(response)
        interpretation = response.answer.interpretation
        failed, select, stamp = self._service.nli.answer_reading(
            question, interpretation
        )
        if select is None:
            raise SubscriptionFailed(failed)
        with self._lock:
            if self._closed:
                raise NliError("service is closed")
            sub = Subscription(
                f"sub-{next(self._ids)}",
                question,
                session_id,
                interpretation,
                referenced_tables(select),
                queue_frames=queue_frames,
            )
            self._subs[sub.id] = sub
            self.stats["subscriptions_opened"] += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="nli-subscriptions", daemon=True
                )
                self._thread.start()
        sub.stats["evaluations"] += 1  # the registration parse/execute
        self.stats["evaluations"] += 1
        self._push_answer(sub, response, stamp)
        return sub

    def unsubscribe(self, subscription_id: str) -> bool:
        with self._lock:
            sub = self._subs.pop(subscription_id, None)
            self._dirty.discard(subscription_id)
        if sub is None:
            return False
        sub.close()
        return True

    def get(self, subscription_id: str) -> Subscription | None:
        with self._lock:
            return self._subs.get(subscription_id)

    def active(self) -> list[Subscription]:
        with self._lock:
            return list(self._subs.values())

    def close(self) -> None:
        with self._lock:
            self._closed = True
            subs = list(self._subs.values())
            self._subs.clear()
            self._dirty.clear()
            self._wake.notify()
        for sub in subs:
            sub.close()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5)

    # -- evaluation --------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._dirty and not self._closed:
                    self._wake.wait()
                if self._closed:
                    return
                ids, self._dirty = self._dirty, set()
                subs = [self._subs[i] for i in ids if i in self._subs]
            for sub in subs:
                try:
                    self._evaluate(sub)
                except Exception:  # noqa: BLE001 - keep the loop alive
                    continue

    def _evaluate(self, sub: Subscription) -> None:
        """Re-answer the cached reading against one pinned MVCC snapshot."""
        service = self._service
        sub.stats["evaluations"] += 1
        with self._lock:
            self.stats["evaluations"] += 1
        with service._read_access():
            response, select, stamp = service.nli.answer_reading(
                sub.question, sub.interpretation
            )
        if select is None:
            self._push_error(sub, response, stamp)
            return
        # Re-stamp: value references regenerate against the current
        # layers, so the trigger set tracks the plan.
        sub.tables = referenced_tables(select)
        self._push_answer(sub, response, stamp)

    def _push_answer(self, sub: Subscription, response: Response, stamp: Any) -> None:
        envelope = response.to_dict()
        answer = envelope.get("answer") or {}
        digest = hash(
            (
                answer.get("sql"),
                tuple(tuple(row) for row in answer.get("rows", ())),
            )
        )
        if digest == sub._last_digest:
            return  # e.g. a rollback restored exactly the old rows
        sub._last_digest = digest
        self._push(sub, "answer", envelope, stamp)

    def _push_error(self, sub: Subscription, failed: Response, stamp: Any) -> None:
        envelope = failed.to_dict()
        # A standing question has no normalized words to point a span into.
        envelope["diagnostics"][0]["span"] = None
        sub._last_digest = None
        self._push(sub, "error", envelope, stamp)

    def _push(
        self, sub: Subscription, kind: str, envelope: dict[str, Any], stamp: Any
    ) -> None:
        frame = {
            "type": kind,
            "subscription": sub.id,
            "seq": sub.seq,
            "stamp": list(stamp) if isinstance(stamp, tuple) else stamp,
            "envelope": envelope,
        }
        sub.seq += 1
        before = sub.stats["dropped"]
        sub.push(frame)
        sub.stats["pushes"] += 1
        with self._lock:
            self.stats["pushes"] += 1
            self.stats["dropped_frames"] += sub.stats["dropped"] - before

    # -- observability -----------------------------------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        with self._lock:
            out = dict(self.stats)
            out["subscriptions_active"] = len(self._subs)
        return out
