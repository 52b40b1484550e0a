"""F9 — durable storage: kill -9 loses nothing committed, and costs ~nothing.

Two claims of the storage layer (WAL + snapshot checkpoints, see
``docs/storage.md``), measured against a **real** ``repro serve
--data-dir`` subprocess:

* **SIGKILL during a write storm loses zero acknowledged statements.**
  A client hammers ``POST /sql`` with INSERTs interleaved with
  bulk-UPDATE sweeps (each acknowledged statement is fsync'd to the WAL
  before the 200 comes back, and the storm crosses several checkpoint
  rotations), opens a ``BEGIN`` block with one more INSERT, and then the
  process is killed -9 mid-flight.  On restart every acknowledged write
  must be present, the uncommitted BEGIN-block row must be completely
  absent, and recovery (checkpoint restore + WAL tail replay) must be
  bounded — the whole point of the checkpoint cadence.

* **Steady-state questions don't pay for durability.**  ``ask()`` never
  touches the WAL (reads pin MVCC snapshots; only committed DML appends
  records), so a durable service must answer questions at in-memory
  speed: best-of-trials batch latency within ~10% of a no-``data_dir``
  baseline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.core.config import NliConfig
from repro.datasets import fleet
from repro.evalkit import format_table
from repro.service import NliService

from benchmarks.conftest import emit

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Acked-write storm: each iteration is one INSERT + one bulk UPDATE.
#: Deliberately not a multiple of the checkpoint cadence, so the crash
#: leaves a non-empty WAL tail and recovery demonstrably replays it.
STORM_ROUNDS = 43
#: Small cadence so the storm crosses several checkpoint rotations.
CHECKPOINT_EVERY = 16
#: Recovery must be bounded by the checkpoint cadence, not the WAL size.
RECOVERY_BUDGET_MS = 5_000.0

INSERT = (
    "INSERT INTO ship (id, name, type_id, fleet_id, home_port_id, "
    "commander_id, displacement, length, speed, commissioned, crew) "
    "VALUES ({id}, 'storm{id}', 1, 1, 1, 1, 9000, 500, 30, 2001, 100)"
)
BULK_UPDATE = "UPDATE ship SET crew = crew + 1 WHERE id <= 60"

QUESTIONS = [
    "how many ships are there",
    "show the carriers",
    "ships commissioned in 1970",
    "how many ships are in the pacific fleet",
]
TRIALS = 7
ASKS_PER_TRIAL = 3 * len(QUESTIONS)


def _server_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _start_server(*extra_args: str) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "fleet", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_server_env(),
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    assert "listening on" in line, f"server failed to start: {line!r}"
    url = line.strip().rsplit("listening on ", 1)[1]
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            _get(url, "/v1/healthz")
            return proc, url
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.05)
    raise AssertionError("server never became healthy")


def _get(url: str, path: str) -> dict:
    with urllib.request.urlopen(url + path, timeout=10) as response:
        return json.loads(response.read())


def _sql(url: str, statement: str) -> dict:
    request = urllib.request.Request(
        url + "/v1/sql",
        data=json.dumps({"sql": statement}).encode("utf-8"),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        payload = json.loads(response.read())
    return payload


def _scalar(url: str, statement: str) -> int:
    return _sql(url, statement)["rows"][0][0]


def test_f9_kill9_during_write_storm_loses_no_acked_rows():
    data_dir = Path(tempfile.mkdtemp(prefix="f9-data-"))
    serve_args = (
        "--data-dir", str(data_dir),
        "--checkpoint-every", str(CHECKPOINT_EVERY),
    )

    proc, url = _start_server(*serve_args)
    acked_inserts = 0
    acked_updates = 0
    try:
        base_count = _scalar(url, "SELECT COUNT(*) FROM ship")
        base_crew = _scalar(url, "SELECT crew FROM ship WHERE id = 1")
        start = time.perf_counter()
        for i in range(STORM_ROUNDS):
            _sql(url, INSERT.format(id=1000 + i))
            acked_inserts += 1
            _sql(url, BULK_UPDATE)
            acked_updates += 1
        storm_s = time.perf_counter() - start
        # One uncommitted transaction in flight when the power goes out.
        _sql(url, "BEGIN")
        _sql(url, INSERT.format(id=9999))
    finally:
        proc.kill()  # SIGKILL: no graceful shutdown, no final checkpoint
        proc.wait(timeout=10)

    proc, url = _start_server(*serve_args)
    try:
        count = _scalar(url, "SELECT COUNT(*) FROM ship")
        crew = _scalar(url, "SELECT crew FROM ship WHERE id = 1")
        ghost = _scalar(url, "SELECT COUNT(*) FROM ship WHERE id = 9999")
        survivors = _scalar(
            url, "SELECT COUNT(*) FROM ship WHERE id >= 1000"
        )
        stats = _get(url, "/v1/stats")["service"]
        recovery_ms = stats["storage_recovery_ms"]
        replayed = stats["storage_replayed_statements"]
        restored = stats["storage_recovered_rows"]
    finally:
        proc.kill()
        proc.wait(timeout=10)

    assert survivors == acked_inserts, "an acknowledged INSERT was lost"
    assert count == base_count + acked_inserts
    assert crew == base_crew + acked_updates, "an acknowledged UPDATE was lost"
    assert ghost == 0, "an uncommitted BEGIN-block row reached disk"
    assert recovery_ms < RECOVERY_BUDGET_MS, f"recovery took {recovery_ms}ms"
    # The cadence bounds the replay tail: far fewer statements than the
    # storm wrote in total.
    assert replayed <= 2 * CHECKPOINT_EVERY, (
        f"checkpoint cadence did not bound replay (replayed={replayed})"
    )

    emit("F9", format_table(
        ["measure", "value"],
        [
            ["acked statements before kill -9",
             f"{acked_inserts + acked_updates}"],
            ["storm wall clock", f"{storm_s * 1000:.0f} ms"],
            ["acked rows lost", "0"],
            ["uncommitted BEGIN-block rows recovered", f"{ghost}"],
            ["checkpoint rows restored", f"{restored}"],
            ["WAL tail statements replayed", f"{replayed}"],
            ["recovery time", f"{recovery_ms:.1f} ms"],
        ],
        title=(
            f"F9: kill -9 during a {STORM_ROUNDS}-round write storm "
            f"(checkpoint every {CHECKPOINT_EVERY} records)"
        ),
    ))


def _best_trial_ms(service: NliService) -> float:
    for question in QUESTIONS:  # warm grammar paths and caches
        response = service.ask(question)
        assert response.ok, response.diagnostics
    best = float("inf")
    for _ in range(TRIALS):
        start = time.perf_counter()
        for i in range(ASKS_PER_TRIAL):
            service.ask(QUESTIONS[i % len(QUESTIONS)])
        best = min(best, time.perf_counter() - start)
    return best * 1000.0 / ASKS_PER_TRIAL


def test_f9_steady_state_asks_at_in_memory_speed():
    baseline = NliService(fleet.build_database(), domain=fleet.domain())
    durable_dir = tempfile.mkdtemp(prefix="f9-steady-")
    durable = NliService(
        fleet.build_database(),
        domain=fleet.domain(),
        config=NliConfig(data_dir=durable_dir, checkpoint_every=64),
    )
    try:
        # Touch the write path so the WAL is demonstrably live, then
        # measure pure question steady state.
        durable.execute(INSERT.format(id=700))
        baseline.execute(INSERT.format(id=700))
        baseline_ms = _best_trial_ms(baseline)
        durable_ms = _best_trial_ms(durable)
    finally:
        baseline.close()
        durable.close()

    ratio = durable_ms / baseline_ms
    emit("F9-STEADY", format_table(
        ["configuration", "ms/question (best of trials)"],
        [
            ["in-memory baseline", f"{baseline_ms:.3f}"],
            ["durable (--data-dir)", f"{durable_ms:.3f}"],
            ["ratio", f"{ratio:.3f}"],
        ],
        title=(
            f"F9: steady-state ask() cost, best of {TRIALS} trials x "
            f"{ASKS_PER_TRIAL} questions"
        ),
    ))
    assert ratio <= 1.10, (
        f"durable asks {ratio:.2f}x slower than in-memory "
        f"({durable_ms:.3f}ms vs {baseline_ms:.3f}ms)"
    )
