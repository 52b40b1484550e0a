"""F8 — MVCC snapshot reads under sustained writer DML.

The claim of the MVCC design, measured end to end through the service
facade: while one writer runs back-to-back **bulk UPDATEs** over the whole
ship table, concurrent ``ask()`` readers

* never observe a **torn or cross-version** result: a consistency probe
  (``COUNT(DISTINCT commissioned)``) interleaved with the asks must see
  exactly one writer generation on every sample, because each SELECT is
  pinned to one committed snapshot;
* never stall longer than **one commit**: the worst reader latency is
  bounded by the longest single writer commit (plus scheduler noise) —
  not by the number of commits queued;
* leak no snapshot pins, while the writer keeps committing.
"""

from __future__ import annotations

import threading
import time

from repro.datasets import fleet
from repro.evalkit import format_table
from repro.service import NliService

from benchmarks.conftest import emit

SHIPS = 2_000
READER_THREADS = 4
MEASURE_S = 1.2
QUESTION = "how many ships are there"
PROBE_SQL = "SELECT COUNT(DISTINCT commissioned) AS gens FROM ship"


def _service() -> NliService:
    service = NliService(
        fleet.build_database(seed=11, ships=SHIPS), domain=fleet.domain()
    )
    # Uniform writer generation 0, primed grammar/plan paths off the clock.
    service.execute("UPDATE ship SET commissioned = 0")
    assert service.ask(QUESTION).ok
    return service


class _Workload:
    """One measured run: a bulk-UPDATE writer vs N ask() readers."""

    def __init__(self, service: NliService) -> None:
        self.service = service
        self.stop = threading.Event()
        self.errors: list[BaseException] = []
        self.commit_durations: list[float] = []
        self.ask_latencies: list[float] = []
        self.asks_done = 0
        self.probes_done = 0
        self._count_lock = threading.Lock()

    def _writer(self) -> None:
        generation = 0
        try:
            while not self.stop.is_set():
                generation += 1
                start = time.perf_counter()
                self.service.execute(
                    f"UPDATE ship SET commissioned = {generation}"
                )
                self.commit_durations.append(time.perf_counter() - start)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            self.errors.append(exc)

    def _reader(self) -> None:
        try:
            latencies = []
            asks = probes = 0
            while not self.stop.is_set():
                start = time.perf_counter()
                response = self.service.ask(QUESTION)
                latencies.append(time.perf_counter() - start)
                assert response.ok, response.diagnostics
                assert response.answer.result.scalar() == SHIPS
                asks += 1
                # Consistency probe: one committed generation per sample —
                # a torn or cross-version read would mix two.
                generations = self.service.execute(PROBE_SQL).scalar()
                assert generations == 1, (
                    f"torn read: saw {generations} writer generations"
                )
                probes += 1
            with self._count_lock:
                self.ask_latencies.extend(latencies)
                self.asks_done += asks
                self.probes_done += probes
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            self.errors.append(exc)

    def run(self) -> "_Workload":
        threads = [threading.Thread(target=self._writer)]
        threads += [
            threading.Thread(target=self._reader) for _ in range(READER_THREADS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(MEASURE_S)
        self.stop.set()
        for thread in threads:
            thread.join()
        assert not self.errors, self.errors
        assert self.commit_durations, "writer never committed"
        assert self.asks_done and self.probes_done
        return self

    @property
    def throughput(self) -> float:
        return self.asks_done / MEASURE_S

    @property
    def max_latency(self) -> float:
        return max(self.ask_latencies)


def test_f8_snapshot_readers_under_bulk_writes():
    run = _Workload(_service()).run()

    commit_max = max(run.commit_durations)
    emit("F8", format_table(
        ["mode", "asks/s", "asks", "probes", "max ask ms", "commits",
         "max commit ms"],
        [
            ["mvcc snapshot readers", f"{run.throughput:.0f}",
             str(run.asks_done), str(run.probes_done),
             f"{run.max_latency * 1000:.0f}",
             str(len(run.commit_durations)),
             f"{commit_max * 1000:.0f}"],
        ],
        title=(
            f"F8: {READER_THREADS} ask() readers vs one bulk-UPDATE writer, "
            f"{SHIPS}-row table, {MEASURE_S:.1f}s window"
        ),
    ))

    # Gate 1: no reader stall longer than one commit (plus scheduler
    # grace): reader latency is bounded by a single commit, not the queue
    # of them.
    assert run.max_latency <= commit_max + 0.25, (
        f"reader stalled {run.max_latency * 1000:.0f}ms > one commit "
        f"({commit_max * 1000:.0f}ms)"
    )
    # Gate 2 rode along in every reader loop: each consistency probe saw
    # exactly one committed generation (asserted inline), and nothing
    # leaked a pin.
    assert run.service.database.snapshot_pins == 0


def test_f8_writer_liveness_under_mvcc():
    """Continuous snapshot readers cannot starve DML."""
    service = _service()
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                assert service.ask(QUESTION).ok
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(READER_THREADS)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    commits = 0
    while time.perf_counter() - start < 0.5:
        service.execute(f"UPDATE ship SET commissioned = {commits + 1}")
        commits += 1
    stop.set()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert commits >= 3, f"writer starved: only {commits} commits in 0.5s"
    probe = service.execute(PROBE_SQL)
    assert probe.scalar() == 1
