"""F5 — interleaved DML + questions (per-table versioning payoff).

The PR-1 cache layer made *repeated* questions fast, but one global
version counter meant any INSERT forced a full lexicon + ValueIndex
rebuild on the next ``ask()`` — O(database) per question for interactive
sessions that mix writes with questions.  With per-table stamps and
delta-driven refresh, the warm path after a write is O(changed rows).

Two series over the same 10k-row ship table:

* ``rebuild`` — the old behaviour, emulated by forcing a full language-
  layer rebuild after each write (``refresh(full=True)``);
* ``delta`` — the incremental path: the write's row-level delta patches
  an O(1) clone of the value index.

Acceptance: the delta path is >= 5x faster per interleaved round, never
performs a full rebuild, and a write to one table provably leaves another
table's cached plans/results valid (plan-cache hit counters).
"""

from __future__ import annotations

import time

from repro.core import NaturalLanguageInterface
from repro.datasets import fleet
from repro.evalkit import format_series
from repro.sqlengine import Engine

from benchmarks.conftest import emit

SHIPS = 10_000
ROUNDS = 6
QUESTION = "how many ships are there"


def _fresh_nli() -> NaturalLanguageInterface:
    database = fleet.build_database(seed=7, ships=SHIPS)
    return NaturalLanguageInterface(database, domain=fleet.domain())


def _insert_ship(nli: NaturalLanguageInterface, i: int) -> None:
    nli.engine.execute(
        f"INSERT INTO ship VALUES ({100_000 + i}, 'Colossus {i}', "
        "3, 1, 1, 1, 8000, 600, 30, 1976, 150)"
    )


def _interleaved_round_ms(nli: NaturalLanguageInterface, i: int, rebuild: bool) -> float:
    """One write followed by one question; returns elapsed milliseconds."""
    start = time.perf_counter()
    _insert_ship(nli, i)
    if rebuild:
        nli.refresh(full=True)  # emulate global-counter invalidation
    response = nli.ask(QUESTION)
    elapsed = (time.perf_counter() - start) * 1000.0
    assert response.answer.result.scalar() == SHIPS + (i + 1)  # stays correct
    return elapsed


def _run_series(rebuild: bool) -> list[float]:
    nli = _fresh_nli()
    nli.ask(QUESTION)  # prime grammar/lexicon paths outside the clock
    times = [
        _interleaved_round_ms(nli, i, rebuild=rebuild) for i in range(ROUNDS)
    ]
    if not rebuild:
        # The warm path must never have rebuilt: one build at construction,
        # every subsequent write absorbed as a delta.
        assert nli.stats["full_rebuilds"] == 1, nli.stats
        assert nli.stats["delta_refreshes"] == ROUNDS, nli.stats
    return times


def test_f5_interleaved_dml_ask(benchmark):
    def sweep():
        return _run_series(rebuild=True), _run_series(rebuild=False)

    rebuild_times, delta_times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    points = [
        (i, [f"{r:.2f}", f"{d:.2f}"])
        for i, (r, d) in enumerate(zip(rebuild_times, delta_times))
    ]
    emit("F5", format_series(
        "round",
        ["rebuild ms", "delta ms"],
        points,
        title=f"F5: interleaved INSERT+ask on a {SHIPS}-row table",
    ))
    rebuild_median = sorted(rebuild_times)[ROUNDS // 2]
    delta_median = sorted(delta_times)[ROUNDS // 2]
    assert delta_median * 5 <= rebuild_median, (
        f"rebuild={rebuild_median:.1f}ms delta={delta_median:.1f}ms"
    )


def test_f5_write_preserves_other_tables_cache():
    """Acceptance: a write to `fleet` leaves `ship` plans/results cached."""
    engine = Engine(fleet.build_database(seed=7, ships=2000))
    ships = "SELECT COUNT(*) FROM ship"
    engine.execute(ships)
    engine.execute(ships)
    stats = engine.plan_cache.stats
    assert stats["result_hits"] == 1
    plan_hits = stats["plan_hits"]
    engine.execute("INSERT INTO fleet VALUES (9, 'Reserve', 'Atlantic', 'Boston')")
    engine.execute(ships)  # still served from the materialized result
    assert stats["result_hits"] == 2
    assert stats["plan_hits"] == plan_hits
    # ...while the written table's own entries do invalidate.
    fleets = "SELECT COUNT(*) FROM fleet"
    assert engine.execute(fleets).scalar() == 5
    engine.execute("DELETE FROM fleet WHERE name = 'Reserve'")
    assert engine.execute(fleets).scalar() == 4
