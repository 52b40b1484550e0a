"""F6 — service layer: batch `ask_many` and concurrent snapshot readers.

Two claims of the service-API redesign, measured:

* **Batch beats interleaved sequential.**  A service receiving writes
  interleaved with questions pays, per sequential question, one delta
  refresh (a value-index patch) and a re-execution, because every write
  moves the ``ship`` table the questions read.  It does not pay a
  normalize/parse: a delta evicts only the prepared entries its words
  reach, and the inserted ``Batch <i>`` names meet none of these
  questions, so after the first round every sequential ask is a prepared
  hit.  ``ask_many`` absorbs all pending writes in *one* freshness pass
  and lets repeated question strings share the engine's materialized
  results.  Acceptance: the batch is >= 2x faster than the same questions
  asked one-by-one with a write before each (same total writes, same
  total questions).  With the language work gone from the sequential
  side, the margin left is refresh + execution alone, and the ratio sits
  near 2x on a small box.

* **Concurrent readers overlap.**  Snapshot readers take no lock, so
  real ``ask()`` traffic from several threads shows
  ``max_concurrent_readers > 1`` in the service's ``lock_stats``.
"""

from __future__ import annotations

import threading
import time

from repro.core import NaturalLanguageInterface
from repro.datasets import fleet
from repro.evalkit import format_table
from repro.service import NliService

from benchmarks.conftest import emit

SHIPS = 2_000
DISTINCT_QUESTIONS = [
    "how many ships are there",
    "show the carriers",
    "how many ships are in the pacific fleet",
    "ships commissioned in 1970",
]
REPEATS = 8  # batch = 4 distinct questions x 8 repeats = 32 questions
READER_THREADS = 4


def _questions() -> list[str]:
    return DISTINCT_QUESTIONS * REPEATS


def _fresh_nli() -> NaturalLanguageInterface:
    database = fleet.build_database(seed=11, ships=SHIPS)
    nli = NaturalLanguageInterface(database, domain=fleet.domain())
    nli.ask("how many fleets are there")  # prime grammar paths off the clock
    return nli


def _insert_ship(nli: NaturalLanguageInterface, i: int) -> None:
    nli.engine.execute(
        f"INSERT INTO ship VALUES ({200_000 + i}, 'Batch {i}', "
        "3, 1, 1, 1, 8000, 600, 30, 1976, 150)"
    )


def _sequential_cold_ms() -> float:
    """One write before every question: each ask pays a delta refresh."""
    nli = _fresh_nli()
    questions = _questions()
    start = time.perf_counter()
    for i, question in enumerate(questions):
        _insert_ship(nli, i)
        response = nli.ask(question)
        assert response.ok, response.diagnostics
    return (time.perf_counter() - start) * 1000.0


def _batch_ms() -> tuple[float, NaturalLanguageInterface]:
    """Same writes, same questions — but batched through ask_many."""
    nli = _fresh_nli()
    questions = _questions()
    start = time.perf_counter()
    for i in range(len(questions)):
        _insert_ship(nli, i)
    responses = nli.ask_many(questions)
    elapsed = (time.perf_counter() - start) * 1000.0
    assert all(r.ok for r in responses)
    assert responses[0].answer.result.scalar() == SHIPS + len(questions)
    return elapsed, nli


def test_f6_batch_vs_sequential(benchmark):
    def sweep():
        sequential = _sequential_cold_ms()
        batch, nli = _batch_ms()
        return sequential, batch, nli

    sequential_ms, batch_ms, nli = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    n = len(_questions())
    emit("F6", format_table(
        ["mode", "total ms", "ms/question"],
        [
            ["sequential (write+ask each)", f"{sequential_ms:.1f}",
             f"{sequential_ms / n:.2f}"],
            ["batch (writes, then ask_many)", f"{batch_ms:.1f}",
             f"{batch_ms / n:.2f}"],
            ["speedup", f"{sequential_ms / batch_ms:.1f}x", ""],
        ],
        title=f"F6: {n} questions interleaved with {n} writes, {SHIPS}-row table",
    ))
    # The batch shares one freshness pass...
    assert nli.stats["delta_refreshes"] == 1, nli.stats
    assert nli.stats["full_rebuilds"] == 1, nli.stats
    # ...and must beat the interleaved sequential path by >= 2x.
    assert batch_ms * 2 <= sequential_ms, (
        f"sequential={sequential_ms:.1f}ms batch={batch_ms:.1f}ms"
    )


def test_f6_concurrent_readers_overlap():
    """Real ask() traffic under the service shows reader concurrency."""
    service = NliService(
        fleet.build_database(seed=11, ships=200), domain=fleet.domain()
    )
    service.ask("how many ships are there")  # prime
    start = threading.Barrier(READER_THREADS)

    def reader() -> None:
        start.wait()
        for question in DISTINCT_QUESTIONS * 3:
            assert service.ask(question).ok

    threads = [threading.Thread(target=reader) for _ in range(READER_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert service.lock_stats["max_concurrent_readers"] > 1, service.lock_stats
