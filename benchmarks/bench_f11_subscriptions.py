"""F11 — live questions: standing subscriptions and streaming results.

Three claims of `GET /v1/subscribe` (docs/streaming.md), measured
against real servers:

* **Idle subscriptions are free.**  A subscription is stamped with the
  tables its plan reads and is re-evaluated only when a committed write
  intersects that stamp.  Acceptance: a 1 000-write storm on unrelated
  tables leaves the evaluation counter exactly where registration put
  it (zero storm-induced evaluations), and the storm itself runs at
  ≥ 0.5x the no-subscription throughput (the per-commit relevance check
  is a set intersection, not a query).

* **A relevant committed write pushes an untorn answer.**  After the
  client's DML ack, the next streamed frame reflects exactly that
  commit — single-process and ``--procs 2``, and across a SIGKILL of
  the worker that owns the subscription (the router re-registers it on
  the surviving sibling and the stream keeps pushing).

* **Paginated reads are exact.**  ``/v1/sql`` with ``limit``/``cursor``
  reassembles to byte-identical rows against the unpaginated answer.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

from repro.datasets import fleet
from repro.evalkit import format_table
from repro.service import NliService

from benchmarks.conftest import emit

REPO_ROOT = Path(__file__).resolve().parent.parent

STORM_WRITES = 1000

SHIP_INSERT = (
    "INSERT INTO ship (id, name, type_id, fleet_id, home_port_id, "
    "commander_id, displacement, length, speed, commissioned, crew) "
    "VALUES ({id}, 'f11-{id}', 1, 2, 6, 1, 1000, 100, 30, 2000, 100)"
)
PORT_INSERT = "INSERT INTO port (id, name, country) VALUES ({id}, 'f11p{id}', 'x')"


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
    _wait_healthy(url)
    return proc, url


def _stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def _get(url: str, path: str) -> dict:
    try:
        with urllib.request.urlopen(url + path, timeout=15) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as error:
        return json.loads(error.read())


def _post(url: str, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=15) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _wait_healthy(url: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if _get(url, "/v1/healthz").get("status") == "ok":
                return
        except (urllib.error.URLError, ConnectionError):
            pass
        time.sleep(0.05)
    raise AssertionError("server never became healthy")


def _post_sql_retry(url: str, sql: str, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        code, _ = _post(url, "/v1/sql", {"sql": sql})
        if code == 200:
            return
        assert code == 503, f"unexpected {code}"
        assert time.monotonic() < deadline, "write never got through"
        time.sleep(0.2)


def _open_stream(url: str, question: str):
    host = url.split("//", 1)[1]
    connection = http.client.HTTPConnection(host, timeout=60)
    connection.request(
        "GET",
        "/v1/subscribe?question=" + urllib.parse.quote(question)
        + "&heartbeat=60",
    )
    response = connection.getresponse()
    assert response.status == 200, response.read()
    return connection, response


def _read_answer(response) -> dict:
    while True:
        frame = json.loads(response.readline())
        if frame["type"] in ("answer", "error", "closed"):
            assert frame["type"] == "answer", frame
            return frame


# -- idle cost ---------------------------------------------------------------


IDLE_SUBS = 50


def _storm_seconds(service: NliService) -> float:
    start = time.perf_counter()
    for i in range(STORM_WRITES):
        service.execute(PORT_INSERT.format(id=30000 + i))
    return time.perf_counter() - start


def test_f11_idle_subscription_costs_nothing():
    # Two arms over identical fresh databases, so table growth cannot
    # bias the comparison: the storm alone, then the same storm with 50
    # standing subscriptions that never read the stormed table.
    service = NliService(fleet.build_database(), domain=fleet.domain())
    try:
        baseline_s = _storm_seconds(service)
    finally:
        service.close()

    service = NliService(fleet.build_database(), domain=fleet.domain())
    try:
        subs = [service.subscribe("how many ships are there") for _ in range(IDLE_SUBS)]
        for subscription in subs:
            assert subscription.next_frame(timeout=5.0)["type"] == "answer"
        evals_before = service.stats["subscription_evaluations"]
        subscribed_s = _storm_seconds(service)
        stats = service.stats
        storm_evals = stats["subscription_evaluations"] - evals_before
        ratio = baseline_s / subscribed_s if subscribed_s else 1.0
    finally:
        service.close()

    emit("F11", format_table(
        ["measure", "value", "gate"],
        [
            [f"{STORM_WRITES} unrelated commits, no subscriptions",
             f"{baseline_s:.2f}s", ""],
            [f"{STORM_WRITES} unrelated commits, {IDLE_SUBS} idle subscriptions",
             f"{subscribed_s:.2f}s", f"{ratio:.2f}x of baseline (≥ 0.50x)"],
            ["storm-induced evaluations", str(storm_evals), "= 0"],
            ["irrelevant commits filtered",
             str(stats["subscription_irrelevant_commits"]), f"≥ {STORM_WRITES}"],
        ],
        title="F11: idle-subscription cost under an unrelated write storm",
    ))
    assert storm_evals == 0, "an unrelated commit reached the evaluator"
    assert stats["subscription_irrelevant_commits"] >= STORM_WRITES
    assert ratio >= 0.5, (
        f"storm slowed {1 / ratio:.2f}x with {IDLE_SUBS} idle subscriptions"
    )


# -- push-on-commit ----------------------------------------------------------


def _push_roundtrip(url: str, row_id: int, expected: int, response) -> float:
    """Ack-to-frame latency for one relevant committed write."""
    _post_sql_retry(url, SHIP_INSERT.format(id=row_id))
    acked = time.perf_counter()
    frame = _read_answer(response)
    latency = time.perf_counter() - acked
    got = frame["envelope"]["answer"]["rows"][0][0]
    assert got == expected, f"torn/stale push: {got} != {expected}"
    return latency


def test_f11_relevant_write_pushes_single_process():
    proc, url = _start_server()
    try:
        connection, response = _open_stream(url, "how many ships are there")
        hello = json.loads(response.readline())
        assert hello["tables"] == ["ship"]
        count = _read_answer(response)["envelope"]["answer"]["rows"][0][0]
        latencies = [
            _push_roundtrip(url, 50000 + i, count + 1 + i, response)
            for i in range(5)
        ]
        response.close()
        connection.close()
    finally:
        _stop_server(proc)

    emit("F11-PUSH", format_table(
        ["configuration", "pushes", "max ack→frame latency"],
        [["1 process", "5/5 exact", f"{max(latencies) * 1000:.0f}ms"]],
        title="F11: committed relevant writes push untorn answers",
    ))


def test_f11_push_survives_cluster_owner_sigkill():
    proc, url = _start_server("--procs", "2")
    try:
        connection, response = _open_stream(url, "how many ships are there")
        hello = json.loads(response.readline())
        count = _read_answer(response)["envelope"]["answer"]["rows"][0][0]

        pre_kill = _push_roundtrip(url, 51000, count + 1, response)

        owners = _get(url, "/v1/stats")["cluster"]["domains"]["fleet"][
            "subscription_owners"
        ]
        owner = owners[hello["subscription"]]
        pids = {
            w["index"]: w["pid"] for w in _get(url, "/v1/stats")["cluster"]["workers"]
        }
        os.kill(pids[owner], signal.SIGKILL)

        # The failover re-registration re-evaluates and pushes current.
        failover = _read_answer(response)
        assert failover["envelope"]["answer"]["rows"][0][0] == count + 1
        _wait_healthy(url)
        stats = _get(url, "/v1/stats")["cluster"]["domains"]["fleet"]
        new_owner = stats["subscription_owners"][hello["subscription"]]
        assert new_owner != owner
        assert stats["router"]["subscription_handoffs"] >= 1

        post_kill = _push_roundtrip(url, 51001, count + 2, response)
        response.close()
        connection.close()
    finally:
        _stop_server(proc)

    emit("F11-KILL", format_table(
        ["step", "outcome"],
        [
            ["push before kill (ack→frame)", f"{pre_kill * 1000:.0f}ms"],
            ["owner SIGKILLed", f"worker {owner} → worker {new_owner}"],
            ["failover re-registration pushed", "current answer"],
            ["push after kill (ack→frame)", f"{post_kill * 1000:.0f}ms"],
        ],
        title="F11: subscription survives owner SIGKILL (--procs 2)",
    ))


# -- pagination --------------------------------------------------------------


def test_f11_paginated_sql_is_exact():
    proc, url = _start_server()
    try:
        sql = "SELECT id, name FROM ship ORDER BY id"
        code, whole = _post(url, "/v1/sql", {"sql": sql})
        assert code == 200 and "next_cursor" not in whole

        pages = 0
        rows: list = []
        payload: dict = {"sql": sql, "limit": 7}
        while True:
            code, page = _post(url, "/v1/sql", payload)
            assert code == 200, page
            rows.extend(page["rows"])
            pages += 1
            if not page.get("next_cursor"):
                break
            payload = {"sql": sql, "cursor": page["next_cursor"]}
        assert rows == whole["rows"], "pagination changed the result"
        assert page["total_rows"] == len(whole["rows"])
    finally:
        _stop_server(proc)

    emit("F11-PAGE", format_table(
        ["measure", "value"],
        [
            ["unpaginated rows", str(len(whole["rows"]))],
            ["pages of 7", str(pages)],
            ["reassembly", "identical"],
        ],
        title="F11: /v1/sql limit/cursor pagination is exact",
    ))
