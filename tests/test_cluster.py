"""The cluster end to end: a real ``repro serve --procs N`` subprocess.

Every test here talks HTTP to a forked worker pool — routing,
synchronous replication, session affinity, crash handoff, degraded
mode and durable recovery are all exercised against the real boot path
(``build_cluster`` before the loop, ``start_router`` inside it), not a
mock.  Workers are killed with SIGKILL, never asked nicely.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="cluster mode needs os.fork()"
)

INSERT = "INSERT INTO port (id, name, country) VALUES ({id}, '{name}', 'x')"


class ClusterProc:
    """One ``repro serve`` subprocess and the HTTP verbs to poke it."""

    def __init__(self, *args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        banner = self.proc.stdout.readline().strip()
        self.banner = banner
        self.url = banner.rsplit("listening on ", 1)[1]

    def post(self, path: str, payload: dict):
        data = json.dumps(payload).encode()
        request = urllib.request.Request(self.url + path, data=data, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read()), response.headers
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), error.headers

    def get(self, path: str):
        try:
            with urllib.request.urlopen(self.url + path, timeout=30) as response:
                return response.status, json.loads(response.read()), response.headers
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), error.headers

    def stats(self) -> dict:
        return self.get("/v1/stats")[1]

    def worker_pids(self) -> dict[int, int]:
        return {
            worker["index"]: worker["pid"]
            for worker in self.stats()["cluster"]["workers"]
        }

    def kill_worker(self, index: int, wait: bool = True) -> None:
        """SIGKILL a worker.  Signal delivery and the router's EOF-driven
        death detection are both asynchronous, so by default block until
        the router has noticed — otherwise a following wait_healthy()
        can catch a stale 200 from the instant before the death lands.
        ``wait=False`` races the detection on purpose."""
        pid = self.worker_pids()[index]
        os.kill(pid, signal.SIGKILL)
        if not wait:
            return
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            worker = {
                w["index"]: w for w in self.stats()["cluster"]["workers"]
            }[index]
            if not worker["live"] or worker["pid"] != pid:
                return
            time.sleep(0.02)
        raise AssertionError(f"death of worker {index} was never noticed")

    def wait_healthy(self, timeout: float = 20.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.get("/v1/healthz")[0] == 200:
                return
            time.sleep(0.1)
        raise AssertionError("pool never returned to full strength")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung server
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


@pytest.fixture(scope="module")
def cluster():
    """Three workers, two in-memory domains, clarifications forced on."""
    server = ClusterProc(
        "fleet", "--port", "0", "--procs", "3",
        "--domain", "geography", "--clarify-margin", "10.0",
    )
    yield server
    assert server.stop() == 0


class TestBasics:
    def test_banner_names_domains_and_procs(self, cluster):
        assert "domains: fleet, geography" in cluster.banner
        assert "procs: 3" in cluster.banner
        # Tools parse the URL off the end of the line: it must stay last.
        assert cluster.banner.endswith(cluster.url)

    def test_ask_round_robins_across_live_workers(self, cluster):
        for _ in range(6):
            code, wire, _ = cluster.post(
                "/v1/ask", {"question": "how many ships are there"}
            )
            assert code == 200
            assert wire["status"] == "answered"

    def test_domain_routing_by_path_and_body(self, cluster):
        code, wire, _ = cluster.post(
            "/v1/d/geography/ask", {"question": "which rivers are in the usa"}
        )
        assert code == 200
        code2, wire2, _ = cluster.post(
            "/v1/ask",
            {"question": "which rivers are in the usa", "domain": "geography"},
        )
        assert code2 == 200
        assert wire2["status"] == wire["status"]
        code3, wire3, _ = cluster.post(
            "/d/geography/ask", {"question": "which rivers are in the usa"}
        )
        assert code3 == 404
        assert wire3["error"]["code"] == "unknown_endpoint"
        assert "/v1/d/geography/ask" in wire3["error"]["message"]

    def test_unknown_domain_404(self, cluster):
        code, wire, _ = cluster.post("/v1/d/narnia/ask", {"question": "hello"})
        assert code == 404
        assert wire["error"]["code"] == "unknown_domain"

    def test_healthz_reports_every_worker(self, cluster):
        cluster.wait_healthy()
        code, wire, _ = cluster.get("/v1/healthz")
        assert code == 200
        assert wire["status"] == "ok"
        assert [w["index"] for w in wire["workers"]] == [0, 1, 2]
        assert all(w["live"] for w in wire["workers"])

    def test_stats_shape(self, cluster):
        stats = cluster.stats()
        assert stats["cluster"]["procs"] == 3
        assert set(stats["cluster"]["domains"]) == {"fleet", "geography"}
        fleet = stats["cluster"]["domains"]["fleet"]
        assert {"service", "router", "write_count", "sessions",
                "durable"} <= set(fleet)
        assert "http" in stats
        for worker in stats["cluster"]["workers"]:
            assert {"index", "pid", "live", "restarts", "writer"} <= set(worker)


class TestWritePath:
    def test_read_your_writes_on_every_worker(self, cluster):
        cluster.wait_healthy()
        code, before, _ = cluster.post("/v1/sql", {"sql": "SELECT COUNT(*) FROM port"})
        n = before["rows"][0][0]
        code, wire, _ = cluster.post(
            "/v1/sql", {"sql": INSERT.format(id=900, name="rr")}
        )
        assert code == 200
        # Round-robin hits every worker: the replicated write must be
        # visible on all of them before the ack (no stale sibling).
        for _ in range(6):
            code, wire, _ = cluster.post(
                "/v1/sql", {"sql": "SELECT COUNT(*) FROM port"}
            )
            assert wire["rows"][0][0] == n + 1

    def test_transaction_spans_requests_and_commits_everywhere(self, cluster):
        cluster.wait_healthy()
        n = cluster.post("/v1/sql", {"sql": "SELECT COUNT(*) FROM port"})[1]["rows"][0][0]
        assert cluster.post("/v1/sql", {"sql": "BEGIN"})[0] == 200
        assert cluster.post(
            "/v1/sql", {"sql": INSERT.format(id=901, name="txn")}
        )[0] == 200
        assert cluster.post("/v1/sql", {"sql": "COMMIT"})[0] == 200
        for _ in range(6):
            count = cluster.post(
                "/v1/sql", {"sql": "SELECT COUNT(*) FROM port"}
            )[1]["rows"][0][0]
            assert count == n + 1

    def test_rollback_leaves_no_trace(self, cluster):
        cluster.wait_healthy()
        n = cluster.post("/v1/sql", {"sql": "SELECT COUNT(*) FROM port"})[1]["rows"][0][0]
        assert cluster.post("/v1/sql", {"sql": "BEGIN"})[0] == 200
        assert cluster.post(
            "/v1/sql", {"sql": INSERT.format(id=902, name="gone")}
        )[0] == 200
        assert cluster.post("/v1/sql", {"sql": "ROLLBACK"})[0] == 200
        for _ in range(6):
            count = cluster.post(
                "/v1/sql", {"sql": "SELECT COUNT(*) FROM port"}
            )[1]["rows"][0][0]
            assert count == n

    def test_engine_error_maps_to_422(self, cluster):
        code, wire, _ = cluster.post("/v1/sql", {"sql": "SELECT * FROM nope"})
        assert code == 422
        assert wire["error"]["code"] == "engine_error"


class TestFailure:
    def _session_owner(self, cluster, domain, sid):
        owners = cluster.stats()["cluster"]["domains"][domain]["session_owners"]
        return owners[sid]

    def test_reader_kill_mid_ask_retries_on_sibling(self, cluster):
        cluster.wait_healthy()
        sid = "kill-reader"
        code, wire, _ = cluster.post(
            "/v1/ask", {"question": "how many ships are there", "session": sid}
        )
        assert code == 200
        owner = self._session_owner(cluster, "fleet", sid)
        # Kill the owner and immediately re-ask: the router dispatches to
        # the (still-listed) owner, sees WorkerDied, hands the session
        # off and retries on a sibling — the client just sees 200.
        cluster.kill_worker(owner, wait=False)
        code, wire, _ = cluster.post(
            "/v1/ask", {"question": "how many fleets are there", "session": sid}
        )
        assert code == 200
        assert wire["status"] == "answered"
        new_owner = self._session_owner(cluster, "fleet", sid)
        assert new_owner != owner
        cluster.wait_healthy()

    def test_clarification_survives_owner_death(self, cluster):
        cluster.wait_healthy()
        code, wire, _ = cluster.post(
            "/v1/ask", {"question": "ships from norfolk", "clarify": True}
        )
        assert code == 409 and wire["clarification_id"]
        clar_id = wire["clarification_id"]
        owners = cluster.stats()["cluster"]["domains"]["fleet"][
            "clarification_owners"
        ]
        owner = owners[clar_id]
        cluster.kill_worker(owner)
        time.sleep(0.3)
        code, resolved, _ = cluster.post(
            "/v1/resolve", {"clarification_id": clar_id, "choice": 0}
        )
        assert code == 200
        assert resolved["status"] == "answered"
        cluster.wait_healthy()

    def test_writer_death_aborts_open_transaction(self, cluster):
        cluster.wait_healthy()
        n = cluster.post("/v1/sql", {"sql": "SELECT COUNT(*) FROM port"})[1]["rows"][0][0]
        assert cluster.post("/v1/sql", {"sql": "BEGIN"})[0] == 200
        assert cluster.post(
            "/v1/sql", {"sql": INSERT.format(id=903, name="lost")}
        )[0] == 200
        # Race the COMMIT against recovery (wait=False): if it beats the
        # respawn it must answer 503, never silently land.
        cluster.kill_worker(0, wait=False)
        # COMMIT cannot land: the group never reached the WAL, so the
        # router answers 503 and the transaction evaporates everywhere.
        code, wire, headers = cluster.post("/v1/sql", {"sql": "COMMIT"})
        assert code == 503
        assert wire["error"]["code"] == "cluster_degraded"
        assert "Retry-After" in headers
        cluster.wait_healthy()
        for _ in range(6):
            count = cluster.post(
                "/v1/sql", {"sql": "SELECT COUNT(*) FROM port"}
            )[1]["rows"][0][0]
            assert count == n
        # And the pool accepts new work afterwards.
        assert cluster.post(
            "/v1/sql", {"sql": INSERT.format(id=904, name="after")}
        )[0] == 200

    def test_respawned_worker_caught_up_on_in_memory_dml(self, cluster):
        cluster.wait_healthy()
        assert cluster.post(
            "/v1/sql", {"sql": INSERT.format(id=905, name="pre-kill")}
        )[0] == 200
        n = cluster.post("/v1/sql", {"sql": "SELECT COUNT(*) FROM port"})[1]["rows"][0][0]
        cluster.kill_worker(2)
        cluster.wait_healthy()
        restarts = {
            w["index"]: w["restarts"]
            for w in cluster.stats()["cluster"]["workers"]
        }
        assert restarts[2] >= 1
        # Every worker, including the fresh fork, sees the pre-kill DML.
        for _ in range(6):
            count = cluster.post(
                "/v1/sql", {"sql": "SELECT COUNT(*) FROM port"}
            )[1]["rows"][0][0]
            assert count == n


class TestDegradedMode:
    def test_healthz_503_and_dml_paused_while_respawning(self):
        server = ClusterProc(
            "fleet", "--port", "0", "--procs", "2", "--respawn-delay", "2.0"
        )
        try:
            server.wait_healthy()
            server.kill_worker(1)
            deadline = time.monotonic() + 5
            saw_degraded = False
            while time.monotonic() < deadline:
                code, wire, headers = server.get("/v1/healthz")
                if code == 503:
                    saw_degraded = True
                    assert wire["status"] == "degraded"
                    assert "Retry-After" in headers
                    break
                time.sleep(0.05)
            assert saw_degraded
            # Writes pause while the pool is short a worker...
            code, wire, headers = server.post(
                "/v1/sql", {"sql": INSERT.format(id=906, name="paused")}
            )
            assert code == 503
            assert wire["error"]["code"] == "cluster_degraded"
            assert "Retry-After" in headers
            # ...but reads keep flowing on the survivor.
            code, wire, _ = server.post(
                "/v1/ask", {"question": "how many ships are there"}
            )
            assert code == 200
            server.wait_healthy()
            code, wire, _ = server.post(
                "/v1/sql", {"sql": INSERT.format(id=906, name="resumed")}
            )
            assert code == 200
        finally:
            assert server.stop() == 0


class TestDurableCluster:
    def test_acked_writes_survive_writer_kill_and_full_restart(self, tmp_path):
        data_dir = str(tmp_path / "fleet-data")
        server = ClusterProc(
            "fleet", "--port", "0", "--procs", "2", "--data-dir", data_dir
        )
        try:
            server.wait_healthy()
            for i in range(5):
                code, _, _ = server.post(
                    "/v1/sql", {"sql": INSERT.format(id=910 + i, name=f"ack{i}")}
                )
                assert code == 200
            n = server.post(
                "/v1/sql", {"sql": "SELECT COUNT(*) FROM port"}
            )[1]["rows"][0][0]
            # SIGKILL the writer: its WAL holds every acked statement.
            server.kill_worker(0)
            server.wait_healthy()
            for _ in range(4):
                count = server.post(
                    "/v1/sql", {"sql": "SELECT COUNT(*) FROM port"}
                )[1]["rows"][0][0]
                assert count == n
            # Writes work after the writer respawn (fresh storage attach).
            assert server.post(
                "/v1/sql", {"sql": INSERT.format(id=920, name="post")}
            )[0] == 200
            n += 1
        finally:
            assert server.stop() == 0
        # Cold restart from disk: the acked rows are all there.
        server = ClusterProc(
            "fleet", "--port", "0", "--procs", "2", "--data-dir", data_dir
        )
        try:
            server.wait_healthy()
            count = server.post(
                "/v1/sql", {"sql": "SELECT COUNT(*) FROM port"}
            )[1]["rows"][0][0]
            assert count == n
        finally:
            assert server.stop() == 0

    def test_session_log_distributed_on_boot(self, tmp_path):
        data_dir = str(tmp_path / "fleet-data")
        server = ClusterProc(
            "fleet", "--port", "0", "--procs", "2", "--data-dir", data_dir
        )
        try:
            server.wait_healthy()
            for sid in ("alpha", "beta"):
                code, _, _ = server.post(
                    "/v1/ask",
                    {"question": "how many ships are there", "session": sid},
                )
                assert code == 200
        finally:
            assert server.stop() == 0
        server = ClusterProc(
            "fleet", "--port", "0", "--procs", "2", "--data-dir", data_dir
        )
        try:
            server.wait_healthy()
            owners = server.stats()["cluster"]["domains"]["fleet"][
                "session_owners"
            ]
            assert {"alpha", "beta"} <= set(owners)
            # The sessions answer follow-ups from their restored state.
            code, wire, _ = server.post(
                "/v1/ask", {"question": "how many fleets are there",
                         "session": "alpha"},
            )
            assert code == 200
        finally:
            assert server.stop() == 0


SHIP_INSERT = (
    "INSERT INTO ship (id, name, type_id, fleet_id, home_port_id, "
    "commander_id, displacement, length, speed, commissioned, crew) "
    "VALUES ({id}, 'sub-{id}', 1, 2, 6, 1, 1000, 100, 30, 2000, 100)"
)


class TestStandingSubscriptions:
    """GET /v1/subscribe against the cluster: the subscription is pinned
    to one reader, replicated DML triggers that worker's re-evaluation,
    and SIGKILLing the owner re-registers it on a sibling without
    breaking the stream."""

    def _post_sql_retry(self, cluster, sql: str) -> None:
        """Writes 503 while the pool is respawning; retry through it."""
        deadline = time.monotonic() + 20
        while True:
            code, _, _ = cluster.post("/v1/sql", {"sql": sql})
            if code == 200:
                return
            assert code == 503, f"unexpected {code}"
            assert time.monotonic() < deadline, "write never got through"
            time.sleep(0.2)

    def test_push_survives_owner_sigkill(self, cluster):
        import http.client

        cluster.wait_healthy()
        host = cluster.url.split("//", 1)[1]
        connection = http.client.HTTPConnection(host, timeout=60)
        connection.request(
            "GET",
            "/v1/subscribe?question=how%20many%20ships%20are%20there"
            "&heartbeat=60",
        )
        response = connection.getresponse()
        assert response.status == 200
        try:
            hello = json.loads(response.readline())
            assert hello["type"] == "subscribed"
            assert hello["tables"] == ["ship"]
            first = json.loads(response.readline())
            assert first["type"] == "answer"
            count = first["envelope"]["answer"]["rows"][0][0]

            owners = cluster.stats()["cluster"]["domains"]["fleet"][
                "subscription_owners"
            ]
            owner = owners[hello["subscription"]]

            # A replicated relevant write pushes within one commit.
            self._post_sql_retry(cluster, SHIP_INSERT.format(id=9501))
            frame = json.loads(response.readline())
            assert frame["type"] == "answer"
            assert frame["envelope"]["answer"]["rows"][0][0] == count + 1

            # Kill the owner: the router re-registers on a sibling and
            # the fresh registration pushes a current answer.
            cluster.kill_worker(owner)
            frame = json.loads(response.readline())
            assert frame["type"] == "answer"
            assert frame["envelope"]["answer"]["rows"][0][0] == count + 1
            cluster.wait_healthy()
            stats = cluster.stats()["cluster"]["domains"]["fleet"]
            assert stats["subscription_owners"][hello["subscription"]] != owner
            assert stats["router"]["subscription_handoffs"] >= 1

            # Writes keep pushing through the adopted registration.
            self._post_sql_retry(cluster, SHIP_INSERT.format(id=9502))
            frame = json.loads(response.readline())
            assert frame["type"] == "answer"
            assert frame["envelope"]["answer"]["rows"][0][0] == count + 2
        finally:
            response.close()
            connection.close()
