"""The four in-process workloads: one caller, closed loop, no transport.

Each workload object owns its generated inputs (``prepare``), knows how
to bring the system under test up from nothing (``build`` — timed, and
repeated for ``setup_s``) and how to drive it for a number of seconds
(``measure``).  ``measure`` takes the *driver* as an argument, so the
untraced run (``service.ask``) and the traced replay
(``tracing.staged_ask``) are the same loop over the same inputs.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from harness import (
    OUT_DIR,
    SLICE_NS,
    Outcome,
    Samples,
    diagnostics,
    end_to_end,
    median,
    ms,
    now_ns,
    peak_rss_mb,
    quiet_gc,
    ratio,
    repeat_setup,
    setup_metrics,
)
from oracle import Answer, SqliteOracle
from tracing import (
    ENGINE_STAGE,
    LANGUAGE_STAGES,
    Recorder,
    staged_ask,
    storage_spans,
)
from workloads import (
    FleetWriteMix,
    neutral_update,
    question_variants,
    zipf_draws,
)

from repro.core.config import NliConfig
from repro.datasets import ALL_DOMAINS, fleet, load_bundle
from repro.datasets.base import rng_for
from repro.errors import ReproError
from repro.evaluation.goldsets import GoldItem, load_goldset
from repro.service import NliService

#: The hot population: 99 fleet gold questions plus a misspelling of every
#: third = 132 strings, four more than the 128 questions the default
#: prepared cache holds (256 entries, two per question), so evictions
#: happen while more than nine asks in ten are answered from the caches.
HOT_EXTRA_EVERY = 3

#: Writes issued after the ask phase to read an acknowledged-DML latency
#: off deployments whose workload has no writes of its own.
PROBE_WRITES = 400


def ask_untraced(service: NliService, question: str) -> tuple[str, Any] | None:
    response = service.ask(question)
    if not response.ok:
        return None
    return response.answer.sql, response.answer.result


class Untraced:
    """The driver of every end-to-end number: the service's own API."""

    ask = staticmethod(ask_untraced)

    @staticmethod
    def execute(service: NliService, sql: str) -> None:
        service.execute(sql)


class Traced:
    """The same calls with spans around them (see ``tracing``)."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def ask(self, service: NliService, question: str) -> tuple[str, Any] | None:
        return staged_ask(service, question, self.recorder)

    def execute(self, service: NliService, sql: str) -> None:
        self.recorder.new_request()
        with self.recorder.span("service.execute"):
            service.execute(sql)


def cache_counters(service: NliService) -> Counter:
    nli = service.nli
    stats = nli.stats
    plan = nli.engine.plan_cache.stats
    return Counter(
        prepared_hits=stats["prepared_hits"],
        prepared_misses=stats["prepared_misses"],
        delta_refreshes=stats["delta_refreshes"],
        plan_hits=plan["plan_hits"],
        plan_misses=plan["plan_misses"],
        result_hits=plan["result_hits"],
        result_misses=plan["result_misses"],
    )


@dataclass
class Run:
    """What one ``measure`` call produced."""

    samples: Samples
    #: Acknowledged-DML latencies that ``write_p50_ms`` is the median of:
    #: the workload's own writes where it has them, else the write probe.
    write_ns: list[int]
    #: Cache counters accumulated over the timed region only.
    counters: Counter
    extras: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Workload:
    """Shared loop mechanics; subclasses supply inputs and the system."""

    name = ""
    #: Cheap set-ups are repeated often, so their median is steady.
    setup_repeats = 15

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        #: ``--smoke``: same code and checks on a fraction of the work.
        self.smoke = smoke
        if smoke:
            self.setup_repeats = 1
        #: Generator-side facts reported with the per-layer metrics.
        self.typos_rejected = 0
        self.dropped: list[tuple[str, str]] = []

    def prepare(self) -> None:
        raise NotImplementedError

    def build(self) -> tuple[Any, dict[str, float]]:
        raise NotImplementedError

    def dispose(self, system: Any) -> None:
        system.close()

    def measure(
        self, system: Any, seconds: float, driver: Any, keep_digests: bool = False
    ) -> Run:
        raise NotImplementedError

    def verify(self, system: Any, run: "Run") -> None:
        """Checks on the system's final state, after the timed loop."""

    def cleanup(self) -> None:
        """Remove anything left on disk, on every exit path."""

    # -- helpers -----------------------------------------------------------

    def _ask(
        self,
        samples: Samples,
        driver: Any,
        service: NliService,
        text: str,
        reference: Answer | None,
        keep_digests: bool,
        after_write: bool = False,
    ) -> None:
        start = now_ns()
        outcome = driver.ask(service, text)
        samples.record_ask(now_ns() - start, after_write)
        if outcome is None:
            samples.problem("errors", text)
            return
        answer = outcome[1].answer_set()
        if reference is None:
            samples.unchecked += 1
        elif answer != reference:
            samples.problem("wrong", text)
        if keep_digests:
            samples.digests.append(hash((outcome[0], answer)))

    def _probe_writes(self, ships: int) -> list[str]:
        """The write probe's statements (one officer per ship in fleet)."""
        rng = rng_for(self.seed, "probe")
        return [neutral_update(rng, ships, ships) for _ in range(PROBE_WRITES)]

    @staticmethod
    def _timed_writes(
        driver: Any, service: NliService, statements: list[str]
    ) -> list[int]:
        out = []
        for sql in statements:
            start = now_ns()
            driver.execute(service, sql)
            out.append(now_ns() - start)
        return out

    def _spellings(
        self,
        domain: str,
        extra_every: int,
        reference_for: Callable[[GoldItem], Answer | None],
    ) -> list[tuple[str, GoldItem]]:
        """Every gold question of ``domain``, and for every
        ``extra_every``-th one a seeded, qualified misspelling as well.

        Question-major, in gold-file order: position in the returned list
        is a popularity rank that does not depend on the seed; the seed
        picks the misspellings.  A throw-away reference service qualifies
        the candidates (see ``workloads.question_variants``).
        """
        items = load_goldset(domain)
        bundle = load_bundle(domain)
        referee = NliService(bundle.database, domain=bundle.model)

        def accepts(item: GoldItem, text: str) -> bool:
            outcome = ask_untraced(referee, text)
            reference = reference_for(item)
            return outcome is not None and (
                reference is None or outcome[1].answer_set() == reference
            )

        counts = [2 if i % extra_every == 0 else 1 for i in range(len(items))]
        variants, rejected = question_variants(items, self.seed, counts, accepts)
        referee.close()
        self.typos_rejected += rejected
        return [
            (text, item) for item, texts in zip(items, variants) for text in texts
        ]


def _timed(phases: dict[str, float], name: str, call: Callable[[], Any]) -> Any:
    start = time.perf_counter()
    value = call()
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - start
    return value


class ColdLanguage(Workload):
    """Every question string is new to the service that answers it."""

    name = "cold-language"

    def prepare(self) -> None:
        self.asks: list[tuple[str, str, Answer]] = []
        for domain in ALL_DOMAINS:
            self.asks += [
                (domain, text, item.answer_set)
                for text, item in self._spellings(
                    domain, 1, lambda item: item.answer_set
                )
            ]
        self._warmup = {d: load_goldset(d)[0].question for d in ALL_DOMAINS}
        rng_for(self.seed, "cold-order").shuffle(self.asks)
        if self.smoke:
            self.asks = self.asks[::8]
        self.probe = self._probe_writes(60)

    def build(self) -> tuple[dict[str, NliService], dict[str, float]]:
        phases: dict[str, float] = {}
        services = {}
        for domain in ALL_DOMAINS:
            bundle = _timed(phases, "load", lambda: load_bundle(domain))
            services[domain] = _timed(
                phases, "build",
                lambda: NliService(bundle.database, domain=bundle.model),
            )
            # The first ask pays one-off lazy work; it is a different
            # string from every measured one, so their caches stay cold.
            _timed(
                phases, "build",
                lambda: services[domain].ask(self._warmup[domain] + " ?"),
            )
        return services, phases

    def dispose(self, system: dict[str, NliService]) -> None:
        for service in system.values():
            service.close()

    def measure(self, system, seconds, driver, keep_digests=False) -> Run:
        samples = Samples()
        counters: Counter = Counter()
        write_ns: list[int] = []
        deadline = time.monotonic() + seconds
        services = system
        while True:
            before = sum((cache_counters(s) for s in services.values()), Counter())
            with quiet_gc():
                for domain, text, reference in self.asks:
                    self._ask(
                        samples, driver, services[domain], text, reference,
                        keep_digests,
                    )
            samples.cut()
            after = sum((cache_counters(s) for s in services.values()), Counter())
            after.subtract(before)
            counters.update(after)
            write_ns += self._timed_writes(driver, services["fleet"], self.probe)
            if services is not system:
                self.dispose(services)
            # Whole passes only: each is the same 736 strings, so a run's
            # mix does not depend on how fast the machine was.
            if time.monotonic() >= deadline:
                return Run(samples, write_ns, counters)
            services, _ = self.build()


class HotRepeat(Workload):
    """A long-lived service asked the same few hundred strings, Zipf(1.0)."""

    name = "hot-repeat"
    #: Draws replayed outside the clock so the caches are in steady state.
    warmup_draws = 1000

    def prepare(self) -> None:
        self.strings = [
            (text, item.answer_set)
            for text, item in self._spellings(
                "fleet", HOT_EXTRA_EVERY, lambda item: item.answer_set
            )
        ]
        self.probe = self._probe_writes(60)

    def build(self) -> tuple[NliService, dict[str, float]]:
        phases: dict[str, float] = {}
        bundle = _timed(phases, "load", lambda: load_bundle("fleet"))
        service = _timed(
            phases, "build", lambda: NliService(bundle.database, domain=bundle.model)
        )
        _timed(phases, "build", lambda: service.ask(self.strings[0][0]))
        return service, phases

    def measure(self, system, seconds, driver, keep_digests=False) -> Run:
        samples = Samples()
        draws = zipf_draws(len(self.strings), self.seed, "hot-draws")
        for _ in range(self.warmup_draws):
            ask_untraced(system, self.strings[next(draws)][0])
        before = cache_counters(system)
        deadline = time.monotonic() + seconds
        with quiet_gc():
            while time.monotonic() < deadline:
                text, reference = self.strings[next(draws)]
                self._ask(samples, driver, system, text, reference, keep_digests)
                samples.cut(SLICE_NS)
        counters = cache_counters(system)
        counters.subtract(before)
        return Run(samples, self._timed_writes(driver, system, self.probe), counters)


class BigScan(Workload):
    """20 000 ships: every ask re-plans and re-executes over big tables."""

    name = "big-scan"
    setup_repeats = 3
    ships = 20_000

    def prepare(self) -> None:
        self.items = [
            item for item in load_goldset("fleet") if "nested" not in item.tags
        ]
        if self.smoke:
            self.ships = 2_000
        self.oracle: SqliteOracle | None = None
        self.asks: list[tuple[str, Answer]] = []
        self.probe = self._probe_writes(self.ships)
        self._stale = rng_for(self.seed, "stale")

    def build(self) -> tuple[NliService, dict[str, float]]:
        phases: dict[str, float] = {}
        database = _timed(
            phases, "load", lambda: fleet.build_database(self.seed, ships=self.ships)
        )
        if self.oracle is None:
            # Same seed, same rows: the first build doubles as the source
            # of the sqlite mirror (copied outside the set-up clock).
            self.oracle = SqliteOracle(database)
            for item in self.items:
                reason = self.oracle.why_unusable(item.gold_sql)
                if reason is None:
                    self.asks.append(
                        (item.question, self.oracle.answer(item.gold_sql))
                    )
                else:
                    self.dropped.append((item.question, reason))
        service = _timed(
            phases, "build", lambda: NliService(database, domain=fleet.domain())
        )
        _timed(phases, "build", lambda: service.ask(self.items[0].question))
        return service, phases

    def _make_stale(self, service: NliService) -> None:
        """Move the versions of the two big tables gold statements read.

        ``ship.commander_id`` and ``deployment.year`` appear in no gold
        statement, so the oracle's answers stand while every plan and
        materialized result over those tables must be rebuilt.
        """
        service.execute(neutral_update(self._stale, self.ships, self.ships))
        service.execute(
            f"UPDATE deployment SET year = {self._stale.randint(1970, 1977)} "
            f"WHERE id = {self._stale.randint(1, self.ships)}"
        )

    def measure(self, system, seconds, driver, keep_digests=False) -> Run:
        samples = Samples()
        # Pass one (untimed) fills the prepared cache: from here on the
        # language layers are cache hits and the engine does the work.
        for text, _ in self.asks:
            ask_untraced(system, text)
        before = cache_counters(system)
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            self._make_stale(system)
            with quiet_gc():
                for text, reference in self.asks:
                    self._ask(samples, driver, system, text, reference, keep_digests)
            samples.cut()
        counters = cache_counters(system)
        counters.subtract(before)
        return Run(samples, self._timed_writes(driver, system, self.probe), counters)

    def nested_probe_ms(self) -> float:
        """One cold ``ships heavier than average`` at a twentieth of the
        ships (1 000).

        The nested class is quadratic today (the row interpreter re-runs
        the uncorrelated subquery per row), so it is kept out of the
        timed mix and shown here until a later benchmark moves it back.
        """
        service = NliService(
            fleet.build_database(self.seed, ships=self.ships // 20),
            domain=fleet.domain(),
        )
        start = now_ns()
        response = service.ask("ships heavier than average")
        elapsed = now_ns() - start
        service.close()
        return elapsed / 1e6 if response.ok else 0.0


class MixedDurable(Workload):
    """90 % asks, 10 % fsync'd autocommit DML, checkpoint every 64 records."""

    name = "mixed-durable"
    write_share = 0.10
    checkpoint_every = 64

    def prepare(self) -> None:
        self._dirs: list[str] = []
        bundle = load_bundle("fleet")
        self._sizes = {
            table: bundle.database.row_count(table)
            for table in ("ship", "deployment", "officer")
        }
        oracle = SqliteOracle(bundle.database)
        self.strings = [
            (text, item.gold_sql)
            for text, item in self._spellings(
                "fleet", HOT_EXTRA_EVERY, lambda item: oracle.answer(item.gold_sql)
            )
        ]
        oracle.close()

    def _config(self, data_dir: str) -> NliConfig:
        return NliConfig(
            data_dir=data_dir, wal_fsync=True, checkpoint_every=self.checkpoint_every
        )

    def build(self) -> tuple[NliService, dict[str, float]]:
        phases: dict[str, float] = {}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        data_dir = tempfile.mkdtemp(prefix="data-", dir=OUT_DIR)
        self._dirs.append(data_dir)
        bundle = _timed(phases, "load", lambda: load_bundle("fleet"))
        # First boot on an empty directory: recovery finds nothing and
        # durably captures the seed as the initial checkpoint.
        service = _timed(
            phases, "build",
            lambda: NliService(
                bundle.database, domain=bundle.model, config=self._config(data_dir)
            ),
        )
        phases["recover"] = service.storage.last_recovery.duration_ms / 1e3
        phases["build"] -= phases["recover"]
        _timed(phases, "build", lambda: service.ask(self.strings[0][0]))
        return service, phases

    def dispose(self, system: NliService) -> None:
        data_dir = system.storage.data_dir
        system.close()
        shutil.rmtree(data_dir, ignore_errors=True)

    def cleanup(self) -> None:
        for data_dir in self._dirs:
            shutil.rmtree(data_dir, ignore_errors=True)

    def measure(self, system, seconds, driver, keep_digests=False) -> Run:
        samples = Samples()
        oracle = SqliteOracle(system.database)
        writes = FleetWriteMix(
            self.seed, self._sizes["ship"], self._sizes["deployment"],
            self._sizes["officer"],
        )
        draws = zipf_draws(len(self.strings), self.seed, "mixed-draws")
        kinds = rng_for(self.seed, "mixed-kinds")
        storage_before = system.storage.stats()["checkpoints_written"]
        before = cache_counters(system)
        after_write = False
        deadline = time.monotonic() + seconds
        with quiet_gc():
            while time.monotonic() < deadline:
                if kinds.random() < self.write_share:
                    for sql in writes.next():
                        start = now_ns()
                        driver.execute(system, sql)
                        samples.record_write(now_ns() - start)
                        oracle.apply(sql)
                    after_write = True
                    continue
                text, gold_sql = self.strings[next(draws)]
                self._ask(
                    samples, driver, system, text, oracle.answer(gold_sql),
                    keep_digests, after_write,
                )
                after_write = False
                samples.cut(SLICE_NS)
        counters = cache_counters(system)
        counters.subtract(before)
        run = Run(samples, samples.write_ns, counters)
        run.extras["storage.checkpoints"] = (
            system.storage.stats()["checkpoints_written"] - storage_before
        )
        self._final = (oracle, writes)
        return run

    def verify(self, system: NliService, run: Run) -> None:
        """Reopen the data directory with a fresh service and compare.

        The storage manager is closed *without* its shutdown checkpoint,
        so the restart has a WAL tail to replay, like a crash after the
        last acknowledged write would leave.
        """
        oracle, writes = self._final
        data_dir = str(system.storage.data_dir)
        system.storage.close(checkpoint=False)
        bundle = load_bundle("fleet")
        start = time.perf_counter()
        try:
            reopened = NliService(
                bundle.database, domain=bundle.model, config=self._config(data_dir)
            )
        except ReproError as exc:
            run.problems.append(f"recovery failed: {exc}")
            return
        run.extras["setup.recover_s"] = time.perf_counter() - start
        for table in ("ship", "deployment"):
            expected = self._sizes[table] + writes.inserted - writes.deleted
            found = reopened.database.row_count(table)
            if not found == expected == oracle.count(table):
                run.problems.append(
                    f"recovery: {table} has {found} rows, expected {expected}"
                )
            recovered = reopened.execute(f"SELECT * FROM {table}").answer_set()
            if recovered != oracle.rows(table):
                run.problems.append(f"recovery: {table} rows differ from the oracle")
        reopened.close()
        oracle.close()


IN_PROCESS = {
    cls.name: cls for cls in (ColdLanguage, HotRepeat, BigScan, MixedDurable)
}


def run(workload: Workload, seconds: float, trace: bool) -> Outcome:
    """One benchmark run of an in-process workload.

    Untraced: the whole of ``seconds`` goes to the end-to-end loop.
    Traced: half goes to an untraced reference loop (hit ratios, tails,
    and the wall time tracing is compared against), half to the staged
    replay of the same inputs on a freshly built system.
    """
    try:
        workload.prepare()
        system, setups = repeat_setup(
            workload.build, workload.dispose, workload.setup_repeats
        )
        share = seconds / 2 if trace else seconds
        reference = workload.measure(system, share, Untraced, keep_digests=trace)
        workload.verify(system, reference)
        workload.dispose(system)
        samples = reference.samples
        problems = samples.first_problems + reference.problems
        notes = [f"dropped: {q!r} — {why}" for q, why in workload.dropped]
        if not trace:
            metrics = end_to_end(samples, reference.write_ns, setups, peak_rss_mb())
        else:
            metrics, trace_problems = _layer_metrics(workload, reference, setups, share)
            problems += trace_problems
        notes += [f"PROBLEM {line}" for line in problems]
        return Outcome(
            correct=not problems,
            attempted=len(samples.ask_ns) + len(reference.write_ns),
            failed=samples.failed,
            metrics=metrics,
            notes=notes,
        )
    finally:
        workload.cleanup()


def _layer_metrics(
    workload: Workload, reference: Run, setups: list[dict[str, float]], seconds: float
) -> tuple[dict[str, float], list[str]]:
    """Run the traced replay and derive every per-layer metric."""
    recorder = Recorder()
    system, _ = workload.build()
    with storage_spans(recorder):
        traced = workload.measure(system, seconds, Traced(recorder), keep_digests=True)
    workload.verify(system, traced)
    workload.dispose(system)
    recorder.write(OUT_DIR / f"trace-{workload.name}.json")

    problems = traced.samples.first_problems + traced.problems
    # Fidelity: the staged calls must be the same program as ask() —
    # same SQL text, same rows, question by question.
    pairs = list(zip(reference.samples.digests, traced.samples.digests))
    mismatches = sum(1 for ours, theirs in pairs if ours != theirs)
    if mismatches or not pairs:
        problems.append(
            f"trace fidelity: {mismatches} of {len(pairs)} staged asks differ "
            "from service.ask() in SQL or rows"
        )

    untraced_ask = statistics.fmean(reference.samples.ask_ns)
    traced_asks = len(traced.samples.ask_ns)
    spans = recorder.summary()
    # Stage spans are leaves, so their self time is their time; the root
    # "ask" span's self time is the glue between stages.
    per_ask = {
        name: spans[name].self_ns / traced_asks
        for name in (*LANGUAGE_STAGES, ENGINE_STAGE)
    }
    staged = sum(per_ask.values())
    root = spans["ask"].total_ns / traced_asks
    counters = reference.counters
    writes = max(1, len(traced.write_ns))
    _, phases = setup_metrics(setups)

    metrics = diagnostics(reference.samples, reference.write_ns)
    metrics.update({f"{name}_ms": ms(value) for name, value in per_ask.items()})
    metrics.update(
        {
            name: recorder.counts[name] / traced_asks
            for name in (
                "nlp.corrections", "grammar.sketches", "core.interpretations",
                "sqlengine.rows",
            )
        }
    )
    metrics.update(
        {
            "sqlengine.plan_hit_ratio": ratio(
                counters["plan_hits"], counters["plan_misses"]
            ),
            "sqlengine.result_hit_ratio": ratio(
                counters["result_hits"], counters["result_misses"]
            ),
            "service.prepared_hit_ratio": ratio(
                counters["prepared_hits"], counters["prepared_misses"]
            ),
            "service.overhead_ms": ms(untraced_ask - staged),
            "service.ask_after_write_ms": (
                ms(median(reference.samples.after_write_ns))
                if reference.samples.after_write_ns
                else 0.0
            ),
            "service.delta_refreshes": (
                counters["delta_refreshes"] / len(reference.samples.write_ns)
                if reference.samples.write_ns
                else 0.0
            ),
            "storage.append_ms": spans["storage.append"].mean_ms(),
            "storage.fsyncs": spans["storage.fsync"].count / writes,
            "storage.wal_bytes_per_stmt_byte": (
                recorder.counts["storage.wal_bytes"]
                / recorder.counts["storage.stmt_bytes"]
                if recorder.counts["storage.stmt_bytes"]
                else 0.0
            ),
            "storage.checkpoints": reference.extras.get("storage.checkpoints", 0.0),
            "storage.checkpoint_ms": spans["storage.checkpoint"].mean_ms(),
            "setup.load_s": phases.get("load", 0.0),
            "setup.build_s": phases.get("build", 0.0),
            "setup.recover_s": reference.extras.get(
                "setup.recover_s", phases.get("recover", 0.0)
            ),
            "trace.overhead_frac": statistics.fmean(traced.samples.ask_ns)
            / untraced_ask
            - 1.0,
            "trace.unaccounted_frac": (untraced_ask - staged) / untraced_ask,
            "share.language": sum(per_ask[name] for name in LANGUAGE_STAGES) / root,
            "share.sqlengine": per_ask[ENGINE_STAGE] / root,
            "typos_rejected": workload.typos_rejected,
            "dropped_questions": len(workload.dropped),
        }
    )
    if isinstance(workload, BigScan):
        metrics["nested_probe_ms"] = workload.nested_probe_ms()
    return metrics, problems
