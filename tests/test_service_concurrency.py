"""Threaded hammer tests for the NliService snapshot-read facade.

Acceptance: N threads of ``ask()`` interleaved with DML writers produce
no torn reads (every count is a value the table actually passed
through), no lost delta refreshes (the final state is exact), and stable
stats counters (lock-guarded increments, no lost updates).
"""

from __future__ import annotations

import threading

from repro.datasets import fleet
from repro.service import NliService

ASKERS = 6
ASKS_PER_THREAD = 15
WRITES = 10
BASE_SHIPS = 60
QUESTION = "how many ships are there"


def _service() -> NliService:
    return NliService(fleet.build_database(), domain=fleet.domain())


class TestThreadedAskWithDml:
    def test_hammer_with_interleaved_writes(self):
        service = _service()
        errors: list[BaseException] = []
        observed: list[int] = []
        start = threading.Barrier(ASKERS + 1)

        def asker() -> None:
            try:
                start.wait()
                for _ in range(ASKS_PER_THREAD):
                    response = service.ask(QUESTION)
                    assert response.ok, response.diagnostics
                    observed.append(response.answer.result.scalar())
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def writer() -> None:
            try:
                start.wait()
                for i in range(WRITES):
                    service.execute(
                        f"INSERT INTO ship VALUES ({800 + i}, 'Swarm {i}', "
                        "3, 1, 1, 1, 8000, 600, 30, 1976, 150)"
                    )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=asker) for _ in range(ASKERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, errors
        # No torn reads: every observed count is a state the table passed
        # through (monotonically growing from BASE to BASE+WRITES).
        assert observed and all(
            BASE_SHIPS <= count <= BASE_SHIPS + WRITES for count in observed
        ), sorted(set(observed))
        # No lost delta refreshes: the next question sees the exact final
        # state, with no full rebuild ever needed.
        final = service.ask(QUESTION)
        assert final.answer.result.scalar() == BASE_SHIPS + WRITES
        stats = service.stats
        assert stats["full_rebuilds"] == 1
        assert not service.nli._pending_deltas

    def test_stats_counters_are_stable(self):
        service = _service()
        service.ask(QUESTION)  # prime outside the measured window
        asks_before = service.stats["asks"]
        start = threading.Barrier(ASKERS)

        def asker() -> None:
            start.wait()
            for _ in range(ASKS_PER_THREAD):
                service.ask(QUESTION)

        threads = [threading.Thread(target=asker) for _ in range(ASKERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = service.stats
        # Lock-guarded increments: no lost updates under contention.
        assert stats["asks"] == asks_before + ASKERS * ASKS_PER_THREAD
        assert stats["lock_read_acquires"] >= ASKERS * ASKS_PER_THREAD

    def test_sessions_isolated_across_threads(self):
        service = _service()
        errors: list[BaseException] = []

        def converse(fleet_name: str, expected_sql_value: str) -> None:
            try:
                sid = service.open_session()
                first = service.ask(
                    f"how many ships are in the {fleet_name} fleet", session=sid
                )
                assert first.ok
                followup = service.ask(
                    "how many of them are submarines", session=sid
                )
                assert followup.ok
                assert expected_sql_value in followup.answer.sql
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=converse, args=("pacific", "Pacific")),
            threading.Thread(target=converse, args=("atlantic", "Atlantic")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
