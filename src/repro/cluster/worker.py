"""The worker child: one forked process serving NLI requests over IPC.

A worker is forked from the supervisor *after* the corpus and language
layers are loaded, so the expensive immutable state — grammars, lexicon,
value indexes, the restored database — is shared copy-on-write with
every sibling.  The child never touches the parent's sockets, event
loop or HTTP clients: it closes every inherited descriptor except its
own IPC socket, ignores the terminal's signals (the supervisor
coordinates shutdown), and leaves only via ``os._exit`` so a crash in
one worker can never run the parent's cleanup handlers.

Request handling is a blocking frame loop feeding a thread pool
(``--workers`` threads, same knob as single-process serving): frames
are tagged with an ``id`` the response echoes, so many requests stream
through one socket concurrently and complete out of order.

Op vocabulary (all frames are JSON objects; errors come back as
``{"id", "ok": false, "error", "code", ...}``):

==========  =============================================================
op          behaviour
==========  =============================================================
ask         one question -> ``Response.to_dict()`` envelope
ask_many    a batch -> list of envelopes
resolve     pick a clarification choice (``live`` rides on errors so the
            router can tell a bad index from a vanished id)
execute     raw SQL -> ``{"columns", "rows"}`` (the writer's DML path)
apply       replicated DML statements from the writer, applied in order
adopt       another worker's session records -> alias map (handoff)
subscribe   register a standing subscription under a router-chosen id;
            its frames come back as unsolicited ``op: "event"`` frames
unsubscribe close a standing subscription and stop its pump thread
stats       per-domain service counters + pid
ping        liveness probe
shutdown    compact + close every service, then exit 0
==========  =============================================================

``subscribe`` is the one op that makes a worker *push*: a per-
subscription pump thread drains the service-level frame queue and sends
``{"op": "event", "sub": <id>, "frame": {...}}`` frames (no ``id`` key,
so the supervisor's reply correlation ignores them and routes them to
its event hook instead).  Sends are serialized on the worker's send
lock, so events interleave safely with in-flight replies.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, NoReturn

from repro.cluster.ipc import FrameError, recv_frame, send_frame
from repro.cluster.registry import DomainSpec
from repro.errors import ClarificationError, EngineError, ReproError
from repro.service import NliService
from repro.service.subscriptions import Subscription, SubscriptionFailed
from repro.storage import StorageManager, restore_database

__all__ = ["worker_main"]


def _close_foreign_fds(keep: set[int]) -> None:
    """Close every inherited descriptor except ``keep`` + stdio.

    The child inherits whatever the parent had open at fork time — the
    HTTP listening socket, sibling IPC sockets, client connections.
    Holding any of them would keep dead connections half-alive (a
    crashed sibling's socket never reads EOF) and let a worker bind the
    service port past the supervisor's death.
    """
    keep = keep | {0, 1, 2}
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - non-procfs platforms
        fds = list(range(3, 4096))
    for fd in fds:
        if fd not in keep:
            try:
                os.close(fd)
            except OSError:
                pass


class _Worker:
    def __init__(
        self,
        sock: socket.socket,
        services: dict[str, NliService],
        specs: dict[str, DomainSpec],
        *,
        index: int,
        writer: bool,
        threads: int,
        checkpoint_every: int,
        wal_fsync: bool,
    ) -> None:
        self.sock = sock
        self.services = services
        self.specs = specs
        self.index = index
        self.writer = writer
        self.threads = max(1, threads)
        self.checkpoint_every = checkpoint_every
        self.wal_fsync = wal_fsync
        self._send_lock = threading.Lock()
        #: Router subscription id -> (service subscription, pump thread).
        self._subs: dict[str, Subscription] = {}
        self._subs_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def activate(self, *, catch_up: bool) -> None:
        """Bring the inherited services to serving state.

        A *respawned* worker forked from the parent's boot-time image,
        which never sees post-fork commits — durable domains catch up by
        restoring the writer's checkpoint + WAL chain read-only
        (``catch_up=True``; the router pauses DML while we do, so the
        chain cannot move underfoot).  The writer then attaches a fresh
        storage manager whose ``recover(replay=False)`` collapses the
        chain into a new segment for its own commits to land in.
        """
        for name, service in self.services.items():
            spec = self.specs[name]
            if not spec.durable:
                continue
            if catch_up:
                report = restore_database(service.nli.engine, spec.data_dir)
                if report.recovered:
                    service.refresh(full=True)
            if self.writer:
                storage = StorageManager(
                    service.nli.engine,
                    spec.data_dir,
                    checkpoint_every=self.checkpoint_every,
                    fsync=self.wal_fsync,
                )
                storage.recover(replay=False)
                service.attach_storage(storage)

    def run(self) -> int:
        executor = ThreadPoolExecutor(
            max_workers=self.threads, thread_name_prefix=f"worker-{self.index}"
        )
        self._reply(
            {"op": "hello", "worker": self.index, "pid": os.getpid(), "ok": True}
        )
        try:
            while True:
                try:
                    request = recv_frame(self.sock)
                except (FrameError, OSError):
                    return 1
                if request is None:
                    # Supervisor hung up (parent died): nothing to serve.
                    return 0
                if request.get("op") == "shutdown":
                    executor.shutdown(wait=True)
                    self._close_services()
                    self._reply({"id": request.get("id"), "ok": True})
                    return 0
                executor.submit(self._serve, request)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _close_services(self) -> None:
        for service in self.services.values():
            service.compact_log()
            service.close()

    # -- request handling --------------------------------------------------

    def _reply(self, payload: dict[str, Any]) -> None:
        with self._send_lock:
            try:
                send_frame(self.sock, payload)
            except OSError:  # supervisor died mid-reply; exit via loop EOF
                pass

    def _serve(self, request: dict[str, Any]) -> None:
        out: dict[str, Any] = {"id": request.get("id")}
        try:
            out.update(self._dispatch(request))
            out.setdefault("ok", True)
        except ClarificationError as exc:
            out.update(ok=False, error=str(exc), code="clarification")
            service = self._service_or_none(request)
            clar_id = request.get("clarification_id")
            out["live"] = bool(
                service is not None
                and isinstance(clar_id, str)
                and service.has_clarification(clar_id)
            )
        except EngineError as exc:
            out.update(ok=False, error=str(exc), code="engine_error")
        except ReproError as exc:
            out.update(ok=False, error=str(exc), code=type(exc).__name__)
        except Exception as exc:  # noqa: BLE001 - the frame must be answered
            out.update(ok=False, error=str(exc), code="internal_error")
        self._reply(out)

    def _service(self, request: dict[str, Any]) -> NliService:
        service = self.services.get(request.get("domain", ""))
        if service is None:
            raise ReproError(f"worker hosts no domain {request.get('domain')!r}")
        return service

    def _service_or_none(self, request: dict[str, Any]) -> NliService | None:
        return self.services.get(request.get("domain", ""))

    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "ask":
            service = self._service(request)
            sid = request.get("session")
            if sid is not None:
                service.ensure_session(sid)
            response = service.ask(
                request["question"],
                session=sid,
                clarify=bool(request.get("clarify", False)),
            )
            return {"envelope": response.to_dict()}
        if op == "ask_many":
            service = self._service(request)
            sid = request.get("session")
            if sid is not None:
                service.ensure_session(sid)
            responses = service.ask_many(
                request["questions"],
                session=sid,
                clarify=bool(request.get("clarify", False)),
            )
            return {"envelopes": [response.to_dict() for response in responses]}
        if op == "resolve":
            service = self._service(request)
            response = service.resolve(request["clarification_id"], request["choice"])
            return {"envelope": response.to_dict()}
        if op == "execute":
            result = self._service(request).execute(request["sql"])
            return {
                "columns": list(result.columns),
                "rows": [list(row) for row in result.rows],
            }
        if op == "apply":
            service = self._service(request)
            applied = 0
            for sql in request["statements"]:
                service.execute(sql)
                applied += 1
            return {"applied": applied}
        if op == "adopt":
            aliases = self._service(request).adopt_records(request["records"])
            return {"aliases": aliases}
        if op == "subscribe":
            return self._subscribe(request)
        if op == "unsubscribe":
            sub_id = request.get("sub", "")
            with self._subs_lock:
                subscription = self._subs.pop(sub_id, None)
            if subscription is not None:
                # unsubscribe() closes the queue; the pump thread drains
                # the "closed" sentinel and exits.
                self._service(request).unsubscribe(subscription.id)
            return {"removed": subscription is not None}
        if op == "stats":
            return {
                "pid": os.getpid(),
                "domains": {
                    name: _jsonable_stats(service.stats)
                    for name, service in self.services.items()
                },
            }
        if op == "ping":
            return {"pid": os.getpid()}
        raise ReproError(f"unknown cluster op {op!r}")

    # -- standing subscriptions --------------------------------------------

    def _subscribe(self, request: dict[str, Any]) -> dict[str, Any]:
        """Register a subscription under the router's id and start its
        pump thread (frames flow back as unsolicited events)."""
        service = self._service(request)
        sub_id = request["sub"]
        sid = request.get("session")
        if sid is not None:
            service.ensure_session(sid)
        try:
            subscription = service.subscribe(
                request["question"],
                sid,
                queue_frames=int(request.get("queue", 64)),
            )
        except SubscriptionFailed as exc:
            raise ReproError(str(exc)) from None
        with self._subs_lock:
            self._subs[sub_id] = subscription
        pump = threading.Thread(
            target=self._pump_subscription,
            args=(sub_id, subscription),
            name=f"sub-pump-{sub_id}",
            daemon=True,
        )
        pump.start()
        return {
            "sub": sub_id,
            "tables": sorted(subscription.tables),
            "queue_frames": subscription.queue_frames,
        }

    def _pump_subscription(self, sub_id: str, subscription: Subscription) -> None:
        """Drain one subscription's queue into unsolicited event frames."""
        while True:
            frame = subscription.next_frame(timeout=1.0)
            if frame is None:
                continue  # heartbeats are the router's job, not ours
            self._reply({"op": "event", "sub": sub_id, "frame": frame})
            if frame.get("type") == "closed":
                with self._subs_lock:
                    self._subs.pop(sub_id, None)
                return


def _jsonable_stats(stats: dict[str, Any]) -> dict[str, Any]:
    """Service stats with non-JSON values (paths, tuples) stringified."""
    out: dict[str, Any] = {}
    for key, value in stats.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


def worker_main(
    sock: socket.socket,
    services: dict[str, NliService],
    specs: dict[str, DomainSpec],
    *,
    index: int,
    writer: bool,
    threads: int,
    checkpoint_every: int,
    wal_fsync: bool = True,
    catch_up: bool = False,
) -> NoReturn:
    """Child-process entry point; never returns (``os._exit``).

    Runs directly after ``os.fork()`` in the child.  Everything here
    must stay fork-safe: no inherited event loop, no inherited threads
    (they do not survive the fork), no foreign file descriptors.
    """
    exit_code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _close_foreign_fds({sock.fileno()})
        worker = _Worker(
            sock,
            services,
            specs,
            index=index,
            writer=writer,
            threads=threads,
            checkpoint_every=checkpoint_every,
            wal_fsync=wal_fsync,
        )
        worker.activate(catch_up=catch_up)
        exit_code = worker.run()
    except BaseException:  # noqa: BLE001 - nothing above us to handle it
        exit_code = 1
    finally:
        # Never unwind into the parent's stack: no atexit, no finally
        # blocks from before the fork, no flushing of shared handles.
        os._exit(exit_code)
