"""Outside-in tracing: spans recorded by the benchmark around public calls.

Nothing in ``src/`` holds a stopwatch for the pipeline yet, so the traced
pass replays a question through the same public stage functions
``NaturalLanguageInterface._ask_pinned`` calls, in the same order, and
wraps the storage layer's public entry points.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from harness import now_ns

from repro.core.paraphrase import paraphrase as make_paraphrase
from repro.errors import EngineError, InterpretationError, NliError
from repro.storage import StorageManager
from repro.storage.wal import WriteAheadLog

#: Language-layer stages, in pipeline order; ``share.language`` sums them.
LANGUAGE_STAGES = (
    "nlp.normalize",
    "grammar.parse",
    "core.interpret",
    "core.sqlgen",
    "nlg.paraphrase",
)
ENGINE_STAGE = "sqlengine.execute"


@dataclass
class SpanTotals:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0

    def mean_ms(self) -> float:
        return self.total_ns / self.count / 1e6 if self.count else 0.0


class Recorder:
    """In-memory span store: ``(name, start, end, parent, request)``.

    ``parent`` is the index of the enclosing span (-1 for a root); spans
    of one request share its ``request`` number.  Counts taken at the
    same boundaries (corrections, sketches, rows ...) go to ``counts``.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.request = 0

    def new_request(self) -> None:
        self.request += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent, self.request]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = now_ns()
        try:
            yield
        finally:
            record[2] = now_ns()
            self._stack.pop()

    def add(self, name: str, start: int, end: int) -> None:
        """Record a span timed by the caller (client-side round trips)."""
        self.spans.append([name, start, end, -1, self.request])

    def summary(self) -> dict[str, "SpanTotals"]:
        """Per span name, in one pass: count, total time and self time.

        Self time is a span's duration minus what its children cover.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, SpanTotals] = defaultdict(SpanTotals)
        for (name, start, end, _, _), self_ns in zip(self.spans, own):
            entry = totals[name]
            entry.count += 1
            entry.total_ns += end - start
            entry.self_ns += self_ns
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "request")
        with path.open("w", encoding="utf-8") as handle:
            json.dump(
                {
                    "unit": "ns",
                    "spans": [dict(zip(keys, span)) for span in self.spans],
                    "counts": dict(self.counts),
                },
                handle,
            )


def staged_ask(service: Any, question: str, rec: Recorder) -> tuple[str, Any] | None:
    """One question through the public stage functions, one span each.

    Mirrors ``_ask_pinned`` for a session-less, non-clarifying ask (the
    only kind the benchmark sends).  Returns ``(sql, result)`` like the
    untraced asker, so the fidelity check can compare the two.
    """
    nli = service.nli
    rec.new_request()
    layers = nli.layers
    try:
        with rec.span("ask"), nli.database.snapshot() as snapshot:
            with rec.span("nlp.normalize"):
                _, corrections = nli.normalize(question, layers)
            with rec.span("grammar.parse"):
                sketches = nli.parse(question)
            candidates = [s for s in sketches if not s.fragment]
            with rec.span("core.interpret"):
                interpretations = layers.interpreter.interpret(candidates)
            best = interpretations[0]
            runners_up = interpretations[1 : nli.config.max_interpretations]
            with rec.span("core.sqlgen"):
                select = layers.sqlgen.generate(best.query)
                sql = select.render()
            with rec.span(ENGINE_STAGE):
                result = nli.engine.execute(select, snapshot=snapshot)
            with rec.span("nlg.paraphrase"):
                make_paraphrase(best.query)
            # ask() also echoes the runner-up readings: paraphrase + SQL.
            for other in runners_up:
                try:
                    with rec.span("nlg.paraphrase"):
                        make_paraphrase(other.query)
                    with rec.span("core.sqlgen"):
                        layers.sqlgen.generate_sql(other.query)
                except InterpretationError:
                    continue
    except (NliError, EngineError):
        return None
    rec.counts["nlp.corrections"] += len(corrections)
    rec.counts["grammar.sketches"] += len(sketches)
    rec.counts["core.interpretations"] += len(interpretations)
    rec.counts["sqlengine.rows"] += len(result.rows)
    return sql, result


@contextmanager
def storage_spans(rec: Recorder) -> Iterator[None]:
    """Wrap the storage layer's entry points with spans for one traced pass.

    ``append_autocommit`` (one WAL record + commit marker), ``checkpoint``
    and ``os.fsync`` are replaced by recording wrappers and restored on
    exit.  WAL bytes are read off the segment file around each append.
    """
    real_append = StorageManager.append_autocommit
    real_checkpoint = StorageManager.checkpoint
    real_group = WriteAheadLog.append_group
    real_fsync = os.fsync

    def append_autocommit(self: Any, sql: str) -> None:
        rec.counts["storage.stmt_bytes"] += len(sql.encode("utf-8"))
        with rec.span("storage.append"):
            real_append(self, sql)

    def append_group(self: Any, txn_id: int, statements: Any) -> int:
        before = self.path.stat().st_size if self.path.exists() else 0
        try:
            return real_group(self, txn_id, statements)
        finally:
            rec.counts["storage.wal_bytes"] += self.path.stat().st_size - before

    def checkpoint(self: Any) -> Any:
        with rec.span("storage.checkpoint"):
            return real_checkpoint(self)

    def fsync(fd: int) -> None:
        with rec.span("storage.fsync"):
            real_fsync(fd)

    StorageManager.append_autocommit = append_autocommit
    StorageManager.checkpoint = checkpoint
    WriteAheadLog.append_group = append_group
    os.fsync = fsync
    try:
        yield
    finally:
        StorageManager.append_autocommit = real_append
        StorageManager.checkpoint = real_checkpoint
        WriteAheadLog.append_group = real_group
        os.fsync = real_fsync
