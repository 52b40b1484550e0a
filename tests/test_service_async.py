"""Async face, token-bucket rate limiting, and durable sessions.

The HTTP layer's integration tests live in ``test_http_server.py``;
these exercise the service-level building blocks directly: the worker
pool behind ``ask_async``, the :class:`TokenBucket` arithmetic with a
fake clock, and the JSONL replay that makes sessions survive restarts.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import NliConfig
from repro.core.dialogue import Session
from repro.core.pipeline import CLARIFICATION_CAPACITY
from repro.datasets import fleet
from repro.errors import ClarificationError
from repro.service import RateLimiter, Response, SessionLog, Status, TokenBucket
from repro.service.service import NliService


@pytest.fixture(scope="module")
def fleet_db_args():
    return dict(seed=9, ships=50)


def _service(fleet_db_args, **config_kwargs):
    return NliService(
        fleet.build_database(**fleet_db_args),
        domain=fleet.domain(),
        config=NliConfig(**config_kwargs),
    )


class TestAsyncFace:
    def test_sync_callers_never_import_asyncio(self):
        # The pool and the event loop load on the first *_async call only.
        probe = (
            "import sys\n"
            "from repro.service.service import NliService\n"
            "from repro.datasets import fleet\n"
            "service = NliService(fleet.build_database(), domain=fleet.domain())\n"
            "assert service.ask('how many ships are there').ok\n"
            "print('asyncio' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_ask_async_returns_envelope(self, fleet_db_args):
        service = _service(fleet_db_args)
        try:
            response = asyncio.run(service.ask_async("how many ships are there"))
            assert response.status is Status.ANSWERED
            assert response.answer.result.scalar() == 50
        finally:
            service.close()

    def test_concurrent_ask_async_all_answer(self, fleet_db_args):
        service = _service(fleet_db_args)

        async def main():
            questions = ["how many ships are there", "show the carriers"] * 8
            return await asyncio.gather(
                *[service.ask_async(question) for question in questions]
            )

        try:
            responses = asyncio.run(main())
            assert all(response.ok for response in responses)
            # Every call was counted as a reader entry on a pool thread.
            assert service.lock_stats["read_acquires"] >= len(responses)
        finally:
            service.close()

    def test_ask_many_async_and_execute_async(self, fleet_db_args):
        service = _service(fleet_db_args)

        async def main():
            responses = await service.ask_many_async(
                ["how many ships are there", "how many fleets are there"]
            )
            result = await service.execute_async("SELECT count(*) FROM ship")
            return responses, result

        try:
            responses, result = asyncio.run(main())
            assert [response.ok for response in responses] == [True, True]
            assert result.scalar() == 50
        finally:
            service.close()

    def test_resolve_async_round_trip(self, fleet_db_args):
        service = _service(fleet_db_args, clarification_margin=10.0)

        async def main():
            ambiguous = await service.ask_async(
                "ships from norfolk", clarify=True
            )
            assert ambiguous.status is Status.AMBIGUOUS
            return ambiguous, await service.resolve_async(
                ambiguous.clarification_id, 0
            )

        try:
            ambiguous, resolved = asyncio.run(main())
            assert resolved.status is Status.ANSWERED
            assert resolved.answer.sql == ambiguous.choices[0].sql
        finally:
            service.close()

    def test_worker_pool_is_bounded(self, fleet_db_args):
        service = _service(fleet_db_args, service_workers=2)
        try:
            executor = service._ensure_executor()
            assert executor._max_workers == 2
        finally:
            service.close()


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, capacity=2, now=0.0)
        assert bucket.try_acquire(0.0) == 0.0
        assert bucket.try_acquire(0.0) == 0.0
        retry_after = bucket.try_acquire(0.0)
        assert retry_after == pytest.approx(1.0)
        # Half a token refilled after 0.5s; still 0.5s short.
        assert bucket.try_acquire(0.5) == pytest.approx(0.5)
        # A full second passed: one token available again.
        assert bucket.try_acquire(1.0) == 0.0

    def test_capacity_caps_refill(self):
        bucket = TokenBucket(rate=100.0, capacity=3, now=0.0)
        for _ in range(3):
            assert bucket.try_acquire(1000.0) == 0.0  # idle refill capped at 3
        assert bucket.try_acquire(1000.0) > 0.0

    def test_batch_charges_multiple_tokens(self):
        bucket = TokenBucket(rate=1.0, capacity=10, now=0.0)
        assert bucket.try_acquire(0.0, tokens=8) == 0.0
        assert bucket.try_acquire(0.0, tokens=4) == pytest.approx(2.0)

    def test_oversized_batch_is_not_permanently_unsatisfiable(self):
        # A charge beyond the burst drains the full bucket instead of
        # demanding a token count the bucket can never hold.
        limiter = RateLimiter(rate=1.0, burst=2, clock=lambda: 0.0)
        assert limiter.check("k", tokens=5) == 0.0  # full bucket: allowed
        assert limiter.check("k") > 0.0  # ...but now completely drained

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1, now=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0, now=0.0)
        # The limiter validates at construction too, so a server with
        # --qps 0 fails at startup instead of 500ing on every request.
        with pytest.raises(ValueError):
            RateLimiter(rate=0.0, burst=8)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, burst=0)


class TestRateLimiter:
    def _limiter(self, rate=1.0, burst=2):
        clock = {"now": 0.0}
        limiter = RateLimiter(rate, burst, clock=lambda: clock["now"])
        return limiter, clock

    def test_keys_are_isolated(self):
        limiter, _ = self._limiter()
        assert limiter.check("alice") == 0.0
        assert limiter.check("alice") == 0.0
        assert limiter.check("alice") > 0.0
        assert limiter.check("bob") == 0.0
        assert limiter.stats == {"allowed": 3, "limited": 1}

    def test_budget_refills_over_time(self):
        limiter, clock = self._limiter(rate=2.0, burst=2)
        limiter.check("k")
        limiter.check("k")
        assert limiter.check("k") > 0.0
        clock["now"] = 0.5  # 2/s for 0.5s = 1 token back
        assert limiter.check("k") == 0.0

    def test_idle_buckets_are_pruned(self):
        limiter, clock = self._limiter(rate=1000.0, burst=1)
        for i in range(RateLimiter.PRUNE_THRESHOLD + 1):
            limiter.check(f"key-{i}")
        clock["now"] = 10.0  # everyone refills; next check prunes
        limiter.check("fresh")
        assert len(limiter) <= 2

    def test_service_returns_rate_limited_envelope(self):
        service = NliService(
            fleet.build_database(seed=9, ships=20),
            domain=fleet.domain(),
            config=NliConfig(rate_limit_qps=0.001, rate_limit_burst=1),
        )
        try:
            sid = service.ensure_session("pushy")
            assert service.ask("how many ships are there", session=sid).ok
            limited = service.ask("how many ships are there", session=sid)
            assert limited.status is Status.FAILED
            assert limited.is_rate_limited
            assert limited.retry_after_s and limited.retry_after_s > 0
            # A batch is charged as a unit: all-or-nothing envelopes.
            batch = service.ask_many(["q one", "q two"], session=sid)
            assert all(response.is_rate_limited for response in batch)
            assert service.stats["rate_limited"] >= 2
        finally:
            service.close()


class TestSessionSerialization:
    def test_session_records_replayable_events(self, fleet_db_args):
        service = _service(fleet_db_args, clarification_margin=10.0)
        try:
            sid = service.ensure_session("events")
            service.ask("how many ships are there", session=sid)
            ambiguous = service.ask(
                "ships from norfolk", session=sid, clarify=True
            )
            service.resolve(ambiguous.clarification_id, 1)
            snapshot = service.session(sid).to_dict()
            assert json.loads(json.dumps(snapshot)) == snapshot
            assert [event["question"] for event in snapshot["events"]] == [
                "how many ships are there",
                "ships from norfolk",
            ]
            assert snapshot["events"][1]["choice"] == 1
            assert snapshot["pending_clarification"] is None
        finally:
            service.close()

    def test_pending_clarification_snapshot(self, fleet_db_args):
        service = _service(fleet_db_args, clarification_margin=10.0)
        try:
            sid = service.ensure_session("pending")
            ambiguous = service.ask(
                "ships from norfolk", session=sid, clarify=True
            )
            snapshot = service.session(sid).to_dict()
            assert snapshot["pending_question"] == "ships from norfolk"
            assert (
                snapshot["pending_clarification"] == ambiguous.clarification_id
            )
        finally:
            service.close()

    def test_reset_clears_replay_state(self):
        session = Session()
        session.events.append({"question": "q", "clarify": False, "choice": None})
        session.pending_question = "q2"
        session.reset()
        assert session.events == []
        assert session.pending_question is None


class TestParkedBookkeeping:
    def test_abandoned_parks_are_bounded(self, fleet_db_args):
        service = _service(fleet_db_args, clarification_margin=10.0)
        try:
            for i in range(CLARIFICATION_CAPACITY + 10):
                fake = Response(
                    status=Status.AMBIGUOUS,
                    question="q",
                    clarification_id=f"fake-{i}",
                )
                service._record_ask(None, "q", True, fake)
            assert len(service._parked) == CLARIFICATION_CAPACITY
            assert "fake-0" not in service._parked  # oldest evicted first
        finally:
            service.close()

    def test_dead_clarification_id_cleans_bookkeeping(self, fleet_db_args):
        service = _service(fleet_db_args, clarification_margin=10.0)
        try:
            # A park whose live id the pipeline no longer knows (LRU
            # eviction across a long run, or a log older than the cap).
            service._parked["clar-zombie"] = ("q", None)
            service._clar_aliases["old-id"] = "clar-zombie"
            with pytest.raises(ClarificationError):
                service.resolve("old-id", 0)
            assert "clar-zombie" not in service._parked
            assert "old-id" not in service._clar_aliases
        finally:
            service.close()

    def test_bad_choice_index_keeps_clarification_parked(self, fleet_db_args):
        service = _service(fleet_db_args, clarification_margin=10.0)
        try:
            ambiguous = service.ask("ships from norfolk", clarify=True)
            with pytest.raises(ClarificationError):
                service.resolve(ambiguous.clarification_id, 99)
            # Still parked: the user just picks again.
            assert ambiguous.clarification_id in service._parked
            resolved = service.resolve(ambiguous.clarification_id, 0)
            assert resolved.status is Status.ANSWERED
        finally:
            service.close()


class TestDurableSessions:
    def _durable(self, path, fleet_db_args):
        return NliService(
            fleet.build_database(**fleet_db_args),
            domain=fleet.domain(),
            config=NliConfig(clarification_margin=10.0),
            persistence=SessionLog(path),
        )

    def test_dialogue_history_survives_restart(self, tmp_path, fleet_db_args):
        path = tmp_path / "log.jsonl"
        first = self._durable(path, fleet_db_args)
        first.ask("ships in the pacific fleet", session=first.ensure_session("u"))
        first.close()

        second = self._durable(path, fleet_db_args)
        try:
            followup = second.ask("how many of them are there", session="u")
            assert followup.ok
            assert followup.answer.sql.lower().startswith("select count")
        finally:
            second.close()

    def test_clarification_alias_survives_restart(self, tmp_path, fleet_db_args):
        path = tmp_path / "log.jsonl"
        first = self._durable(path, fleet_db_args)
        ambiguous = first.ask("ships from norfolk", clarify=True)
        first.close()

        second = self._durable(path, fleet_db_args)
        try:
            resolved = second.resolve(ambiguous.clarification_id, 0)
            assert resolved.status is Status.ANSWERED
            assert resolved.answer.sql == ambiguous.choices[0].sql
        finally:
            second.close()

    def test_closed_sessions_are_compacted_away(self, tmp_path, fleet_db_args):
        path = tmp_path / "log.jsonl"
        first = self._durable(path, fleet_db_args)
        keep = first.ensure_session("keep")
        drop = first.ensure_session("drop")
        first.ask("how many ships are there", session=keep)
        first.ask("how many ships are there", session=drop)
        first.close_session(drop)
        first.close()

        second = self._durable(path, fleet_db_args)
        try:
            # Replay + compaction happened in the constructor: the dropped
            # session is gone from the rewritten log and from the service.
            text = path.read_text()
            assert '"drop"' not in text
            assert second.session(keep).transcript
            with pytest.raises(KeyError):
                second.session(drop)
        finally:
            second.close()

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = SessionLog(path)
        log.append({"op": "open", "sid": "ok"})
        log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "turn", "sid": "ok", "ques')  # kill -9 here
        records = SessionLog(path).load()
        assert records == [{"op": "open", "sid": "ok"}]

    def test_replay_tolerates_stale_records(self, tmp_path, fleet_db_args):
        path = tmp_path / "log.jsonl"
        log = SessionLog(path)
        log.append({"op": "open", "sid": "s"})
        log.append({"op": "turn", "sid": "vanished",
                    "question": "how many ships are there", "clarify": False,
                    "choice": None})  # session never opened
        log.append({"op": "resolve", "id": "clar-404", "choice": 0})
        log.append({"op": "turn", "sid": "s",
                    "question": "how many ships are there", "clarify": False,
                    "choice": None})
        log.close()
        service = self._durable(path, fleet_db_args)
        try:
            assert service.session("s").transcript  # good records replayed
        finally:
            service.close()

    def test_open_session_skips_client_chosen_ids(self, fleet_db_args):
        service = _service(fleet_db_args)
        try:
            service.ensure_session("s1")
            generated = service.open_session()
            assert generated != "s1"
        finally:
            service.close()

    def test_sessions_are_capped_lru(self, fleet_db_args):
        service = _service(fleet_db_args, max_sessions=3)
        try:
            for name in ("a", "b", "c"):
                service.ensure_session(name)
            service.session("a")  # touch: "a" is now most recently used
            service.ensure_session("d")  # over cap: evicts LRU ("b")
            assert service.has_session("a")
            assert not service.has_session("b")
            assert service.has_session("c") and service.has_session("d")
            assert service.stats["open_sessions"] == 3
        finally:
            service.close()

    def test_abandoned_clarification_does_not_resurrect_after_restart(
        self, tmp_path, fleet_db_args
    ):
        path = tmp_path / "log.jsonl"
        first = self._durable(path, fleet_db_args)
        first.ensure_session("u")
        first.ask("ships from norfolk", session="u", clarify=True)
        # The user moves on without resolving: pending state clears, but
        # the park stays resolvable.
        first.ask("ships in the pacific fleet", session="u")
        assert first.session("u").pending_clarification is None
        first.close()

        second = self._durable(path, fleet_db_args)
        try:
            # Replay must not leave the session re-pending the abandoned
            # clarification, and follow-ups bind to the *last* turn.
            assert second.session("u").pending_clarification is None
            followup = second.ask("how many of them are there", session="u")
            assert followup.ok
            assert "pacific" in followup.answer.sql.lower()
        finally:
            second.close()
