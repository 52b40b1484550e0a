"""Clocks, quantiles and the closed-loop sample book shared by every workload.

Everything here is measurement plumbing: nothing imports the program
under test, so the same helpers time an in-process ``service.ask`` and an
HTTP round trip.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: Trace files and temporary data directories live here (gitignored); the
#: benchmark writes nowhere else.
OUT_DIR = BENCH_DIR / "out"

#: The interactive bar (Affolter et al., Quamar et al.): an ask slower than
#: this counts as failed even when its answer is right.
ASK_LIMIT_NS = 1_000_000_000

#: Streams cut a throughput slice once it holds this much waiting time.
SLICE_NS = 1_000_000_000

now_ns = time.perf_counter_ns


def ms(ns: float) -> float:
    return ns / 1e6


@contextmanager
def quiet_gc() -> Iterator[None]:
    """Start a timed region from a clean, frozen heap.

    Everything built during set-up moves to the permanent generation, so
    the collector's work inside the region is proportional to what the
    region itself allocates, not to the size of the database.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[int]) -> tuple[int, float]:
    """The highest percentile with at least ten samples beyond it.

    p99 needs 1 000 samples; below that p95 (200 samples); below that the
    maximum is all that can be said.  Returns ``(percentile, value)``.
    """
    if not values:
        return 0, 0.0
    ordered = sorted(values)
    for pct, needed in ((99, 1000), (95, 200)):
        if len(ordered) >= needed:
            return pct, float(ordered[len(ordered) * pct // 100])
    return 100, float(ordered[-1])


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(
    build: Callable[[], Any], dispose: Callable[[Any], None], repeats: int
) -> tuple[Any, list[dict[str, float]]]:
    """Set the system up ``repeats`` times; keep the last one.

    ``build`` returns ``(system, phases)`` where ``phases`` maps a phase
    name (``load``, ``build``, ``serve`` ...) to seconds.  Earlier systems
    are disposed of before the next is built, so peak memory is one
    system's, and every repeat starts from nothing.
    """
    system = None
    samples: list[dict[str, float]] = []
    for _ in range(repeats):
        if system is not None:
            dispose(system)
            system = None
            gc.collect()
        system, phases = build()
        samples.append(phases)
    return system, samples


def setup_metrics(samples: list[dict[str, float]]) -> tuple[float, dict[str, float]]:
    """Median total set-up seconds, and the median of each phase."""
    total = median([sum(phases.values()) for phases in samples])
    names = sorted({name for phases in samples for name in phases})
    return total, {
        name: median([phases.get(name, 0.0) for phases in samples]) for name in names
    }


@dataclass
class Samples:
    """What one closed loop observed: latencies, counts, check outcomes."""

    clients: int = 1
    ask_ns: list[int] = field(default_factory=list)
    write_ns: list[int] = field(default_factory=list)
    #: ``[asks, busy ns]`` per completed slice of the timed region, and
    #: the slice in progress (see ``cut``).
    slices: list[list[int]] = field(default_factory=list)
    _open: list[int] = field(default_factory=lambda: [0, 0])
    #: Latency of the first ask after each write (cache re-preparation).
    after_write_ns: list[int] = field(default_factory=list)
    errors: int = 0
    wrong: int = 0
    over_limit: int = 0
    #: Asks whose reference is not unique (LIMIT over a tie) — not checked.
    unchecked: int = 0
    first_problems: list[str] = field(default_factory=list)
    #: Per-ask ``hash((sql, answer set))`` for the trace-fidelity check.
    digests: list[int] = field(default_factory=list)

    def problem(self, kind: str, detail: str) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        if len(self.first_problems) < 5:
            self.first_problems.append(f"{kind}: {detail}")

    def record_ask(self, elapsed_ns: int, after_write: bool = False) -> None:
        self.ask_ns.append(elapsed_ns)
        self._open[0] += 1
        self._open[1] += elapsed_ns
        if after_write:
            self.after_write_ns.append(elapsed_ns)
        if elapsed_ns > ASK_LIMIT_NS:
            self.over_limit += 1

    def record_write(self, elapsed_ns: int) -> None:
        """A write inside the timed region: the caller waited for it too."""
        self.write_ns.append(elapsed_ns)
        self._open[1] += elapsed_ns

    def cut(self, min_busy_ns: int = 0) -> None:
        """End the current slice (once it holds ``min_busy_ns`` of waiting).

        Pass-structured workloads cut after every pass, so each slice is
        the same mix; streams cut about once a second, and whatever is
        still open when the deadline falls is left out of the rate.
        """
        if self._open[0] and self._open[1] >= min_busy_ns:
            self.slices.append(self._open)
            self._open = [0, 0]

    def merge(self, other: "Samples") -> None:
        self.ask_ns += other.ask_ns
        self.write_ns += other.write_ns
        self.slices += other.slices
        self.after_write_ns += other.after_write_ns
        self.errors += other.errors
        self.wrong += other.wrong
        self.over_limit += other.over_limit
        self.unchecked += other.unchecked
        self.first_problems += other.first_problems
        self.digests += other.digests

    @property
    def attempted(self) -> int:
        return len(self.ask_ns) + len(self.write_ns)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong + self.over_limit

    def asks_per_s(self) -> float:
        """Asks completed per second the callers spent waiting on the system.

        The loop is closed, so the time inside calls (asks *and* writes)
        is the timed region; the harness's own checking between calls is
        not counted.  Each slice gives one caller's rate — a mean over
        everything in the slice, so a slow question class shows — and the
        run reports the median slice times the number of callers, so a
        passing stall on a shared box does not.
        """
        slices = self.slices or [self._open]
        return self.clients * median(
            [asks / (busy_ns / 1e9) for asks, busy_ns in slices]
        )


@dataclass
class Outcome:
    """One run's result, before units are attached from BENCHMARK.json."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: Human-readable lines: sample counts, dropped questions, problems.
    notes: list[str] = field(default_factory=list)


def end_to_end(
    samples: Samples,
    write_ns: list[int],
    setups: list[dict[str, float]],
    rss_mb: float,
) -> dict[str, float]:
    """The gated metrics — always from an untraced run."""
    return {
        "ask_p50_ms": ms(median(samples.ask_ns)),
        "asks_per_s": samples.asks_per_s(),
        "write_p50_ms": ms(median(write_ns)),
        "setup_s": setup_metrics(setups)[0],
        "peak_rss_mb": rss_mb,
    }


def diagnostics(samples: Samples, write_ns: list[int]) -> dict[str, float]:
    """Ungated numbers every workload reports with its per-layer metrics."""
    ask_pct, ask_tail = tail(samples.ask_ns)
    write_pct, write_tail = tail(write_ns)
    attempted = max(1, samples.attempted)
    return {
        "ask_tail_ms": ms(ask_tail),
        "ask_tail_pct": ask_pct,
        "write_tail_ms": ms(write_tail),
        "write_tail_pct": write_pct,
        "ask_samples": len(samples.ask_ns),
        "write_samples": len(write_ns),
        "failed_frac": samples.failed / attempted,
        "unchecked_asks": samples.unchecked,
    }


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
