"""F7 — the cross-process HTTP service: concurrent askers and durability.

Two claims of the server, measured against a **real** ``repro serve``
subprocess on an ephemeral loopback port:

* **Concurrent askers beat serial round-trips.**  The paper's workload
  is a shared facility: many casual users at terminals, each *thinking*
  between questions (10ms here — generously fast typing).  A serial
  facility answers one round trip at a time, so its wall clock is the
  sum of every user's think time plus every answer.  The asyncio front
  end keeps many connections in flight and serves user B while user A
  thinks, so aggregate throughput scales toward the number of users.
  Acceptance: the same question load issued by concurrent askers
  finishes >= 2x faster than as serial round-trips (observed ~4x with 4
  askers).

* **A pending clarification survives ``kill -9``.**  With
  ``--data-dir``, the server appends every session turn and parked
  clarification to ``DIR/sessions.jsonl``.  We ask an ambiguous
  question, get 409 + choices + ``clarification_id``, SIGKILL the server
  mid-dialog, restart it on the same directory, and resolve the *old* id
  against the new process: the answer must be exactly the choice's SQL,
  and a session follow-up must still bind to the clarified reading.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.evalkit import format_table

from benchmarks.conftest import emit

REPO_ROOT = Path(__file__).resolve().parent.parent

QUESTIONS = [
    "how many ships are there",
    "show the carriers",
    "ships commissioned in 1970",
    "how many ships are in the pacific fleet",
]
ASKERS = 4
QUESTIONS_PER_ASKER = 20
THINK_S = 0.010  # per-question user think time (fast typist)


def _server_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _start_server(*extra_args: str) -> tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on an ephemeral port; returns (proc, url)."""
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


def _post(url: str, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _asker(url: str, count: int, offset: int) -> None:
    """One user: ``count`` questions, thinking between round trips."""
    for i in range(count):
        question = QUESTIONS[(offset + i) % len(QUESTIONS)]
        code, envelope = _post(url, "/v1/ask", {"question": question})
        assert code == 200, (question, envelope)
        time.sleep(THINK_S)


def test_f7_concurrent_askers_vs_serial_round_trips():
    total = ASKERS * QUESTIONS_PER_ASKER
    proc, url = _start_server()
    try:
        _asker(url, len(QUESTIONS), 0)  # warm grammar paths + response cache

        start = time.perf_counter()
        _asker(url, total, 0)
        serial_s = time.perf_counter() - start

        threads = [
            threading.Thread(target=_asker, args=(url, QUESTIONS_PER_ASKER, k))
            for k in range(ASKERS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        concurrent_s = time.perf_counter() - start

        stats = _get(url, "/v1/stats")
        assert stats["http"]["requests"] >= 2 * total
    finally:
        proc.kill()
        proc.wait(timeout=10)

    speedup = serial_s / concurrent_s
    emit("F7", format_table(
        ["mode", "total ms", "ms/question"],
        [
            ["serial round-trips", f"{serial_s * 1000:.0f}",
             f"{serial_s * 1000 / total:.2f}"],
            [f"{ASKERS} concurrent askers", f"{concurrent_s * 1000:.0f}",
             f"{concurrent_s * 1000 / total:.2f}"],
            ["speedup", f"{speedup:.1f}x", ""],
        ],
        title=(
            f"F7: {total} questions over HTTP, {THINK_S * 1000:.0f}ms user "
            f"think time, one `repro serve` process"
        ),
    ))
    assert speedup >= 2.0, (
        f"serial={serial_s * 1000:.0f}ms concurrent={concurrent_s * 1000:.0f}ms"
    )


def test_f7_pending_clarification_survives_kill():
    data_dir = Path(tempfile.mkdtemp(prefix="f7-data-"))
    serve_args = ("--data-dir", str(data_dir), "--clarify-margin", "10")

    proc, url = _start_server(*serve_args)
    try:
        code, ambiguous = _post(url, "/v1/ask", {
            "question": "ships from norfolk",
            "clarify": True,
            "session": "f7-user",
        })
        assert code == 409, ambiguous
        assert len(ambiguous["choices"]) >= 2
    finally:
        proc.kill()  # SIGKILL: no graceful shutdown, no compaction
        proc.wait(timeout=10)

    proc, url = _start_server(*serve_args)
    try:
        picked = ambiguous["choices"][1]
        code, resolved = _post(url, "/v1/resolve", {
            "clarification_id": ambiguous["clarification_id"],
            "choice": picked["index"],
        })
        assert code == 200, resolved
        assert resolved["status"] == "answered"
        assert resolved["answer"]["sql"] == picked["sql"]

        code, followup = _post(url, "/v1/ask", {
            "question": "how many of them are there",
            "session": "f7-user",
        })
        assert code == 200, followup
        assert followup["answer"]["sql"].lower().startswith("select count")
    finally:
        proc.kill()
        proc.wait(timeout=10)

    emit("F7-RESTART", format_table(
        ["step", "outcome"],
        [
            ["ask (clarify) -> 409 + choices", "ok"],
            ["kill -9, restart on --data-dir log", "ok"],
            ["resolve pre-crash clarification id", resolved["status"]],
            ["session follow-up after restart", followup["status"]],
        ],
        title="F7: durable clarification across a server kill/restart",
    ))
