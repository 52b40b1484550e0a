"""Standing subscriptions: zero idle cost, push-on-commit, streaming.

The contract under test (docs/streaming.md): a subscription parses its
question once, stamps the plan with the tables it reads, and is
re-evaluated *only* when a committed write touches one of them — an
idle subscription costs nothing per unrelated commit.  Pushed answers
are evaluated against a pinned MVCC snapshot (never torn) and
deduplicated by content, so a rollback that restores the old rows
pushes nothing.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.core.config import NliConfig
from repro.datasets import fleet
from repro.server import serve_in_thread
from repro.service import NliService
from repro.service.subscriptions import SubscriptionFailed

SHIP_INSERT = (
    "insert into ship (id, name, type_id, fleet_id, home_port_id, "
    "commander_id, displacement, length, speed, commissioned, crew) "
    "values ({id}, 'sub-{id}', 1, 2, 6, 1, 1000, 100, 30, 2000, 100)"
)
PORT_INSERT = "insert into port (id, name, country) values ({id}, 'p{id}', 'x')"


@pytest.fixture()
def service():
    svc = NliService(fleet.build_database(), domain=fleet.domain())
    yield svc
    svc.close()


def _drain_initial(subscription):
    frame = subscription.next_frame(timeout=5.0)
    assert frame is not None and frame["type"] == "answer"
    assert frame["seq"] == 0
    return frame


class TestIdleCost:
    def test_storm_on_unrelated_table_evaluates_nothing(self, service):
        """The headline invariant: 1 000 committed writes to tables the
        question never reads leave the subscription's evaluation counter
        exactly where registration put it."""
        subscription = service.subscribe("how many ships are there")
        _drain_initial(subscription)
        assert subscription.tables == {"ship"}
        assert subscription.stats["evaluations"] == 1  # the registration

        for i in range(1000):
            service.execute(PORT_INSERT.format(id=20000 + i))

        # Commits are processed synchronously at the commit point (the
        # relevance check), evaluation asynchronously — but irrelevant
        # commits never reach the evaluator at all.
        assert subscription.stats["evaluations"] == 1
        assert subscription.next_frame(timeout=0.2) is None
        stats = service.stats
        assert stats["subscription_irrelevant_commits"] >= 1000
        assert stats["subscription_evaluations"] == 1

    def test_relevant_commit_evaluates_and_pushes(self, service):
        subscription = service.subscribe("how many ships are there")
        first = _drain_initial(subscription)
        before = first["envelope"]["answer"]["rows"][0][0]

        service.execute(SHIP_INSERT.format(id=9001))

        frame = subscription.next_frame(timeout=5.0)
        assert frame is not None and frame["type"] == "answer"
        assert frame["seq"] == 1
        assert frame["envelope"]["answer"]["rows"][0][0] == before + 1
        assert frame["stamp"] != first["stamp"]


class TestPushSemantics:
    def test_rollback_pushes_nothing(self, service):
        """A transaction that touches the subscribed table but rolls
        back restores the original rows; the content-dedupe check
        swallows the identical re-evaluation."""
        subscription = service.subscribe("how many ships are there")
        _drain_initial(subscription)

        service.execute("BEGIN")
        service.execute(SHIP_INSERT.format(id=9002))
        service.execute("ROLLBACK")

        assert subscription.next_frame(timeout=1.0) is None
        assert subscription.stats["pushes"] == 1  # the initial answer only

    def test_transaction_commits_push_once(self, service):
        subscription = service.subscribe("how many ships are there")
        first = _drain_initial(subscription)
        before = first["envelope"]["answer"]["rows"][0][0]

        service.execute("BEGIN")
        service.execute(SHIP_INSERT.format(id=9003))
        service.execute(SHIP_INSERT.format(id=9004))
        service.execute("COMMIT")

        frame = subscription.next_frame(timeout=5.0)
        assert frame is not None and frame["type"] == "answer"
        assert frame["envelope"]["answer"]["rows"][0][0] == before + 2
        # One commit, one evaluation, one frame — not one per statement.
        assert subscription.next_frame(timeout=0.5) is None
        assert subscription.stats["pushes"] == 2

    def test_unsubscribe_delivers_closed_sentinel(self, service):
        subscription = service.subscribe("how many ships are there")
        _drain_initial(subscription)
        service.unsubscribe(subscription.id)
        frame = subscription.next_frame(timeout=5.0)
        assert frame is not None and frame["type"] == "closed"
        assert service.subscriptions.active() == []

    def test_unanswerable_question_raises_with_envelope(self, service):
        with pytest.raises(SubscriptionFailed) as info:
            service.subscribe("colorless green ideas sleep furiously")
        assert info.value.response.answer is None
        assert not info.value.response.ok

    def test_stats_surface_in_service_stats(self, service):
        subscription = service.subscribe("how many ships are there")
        _drain_initial(subscription)
        stats = service.stats
        assert stats["subscriptions_active"] == 1
        assert stats["subscriptions_opened"] == 1
        _ = subscription


class TestHttpStreaming:
    @pytest.fixture(scope="class")
    def service(self):
        svc = NliService(
            fleet.build_database(),
            domain=fleet.domain(),
            config=NliConfig(),
        )
        yield svc
        svc.close()

    @pytest.fixture(scope="class")
    def server(self, service):
        handle = serve_in_thread(service)
        yield handle
        handle.stop()

    def _open_stream(self, server, query: str):
        host = server.url.split("//", 1)[1]
        connection = http.client.HTTPConnection(host, timeout=30)
        connection.request("GET", "/v1/subscribe?" + query)
        response = connection.getresponse()
        return connection, response

    @staticmethod
    def _next_non_heartbeat(response):
        while True:
            frame = json.loads(response.readline())
            if frame.get("type") != "heartbeat":
                return frame

    def test_stream_pushes_answer_frames_on_commit(self, server, service):
        # A short heartbeat doubles as the disconnect detector: a dead
        # client is noticed at the next failed write, so teardown lag is
        # bounded by the heartbeat interval.
        connection, response = self._open_stream(
            server, "question=how%20many%20ships%20are%20there&heartbeat=0.1"
        )
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        hello = json.loads(response.readline())
        assert hello["type"] == "subscribed"
        assert hello["tables"] == ["ship"]
        first = self._next_non_heartbeat(response)
        assert first["type"] == "answer" and first["seq"] == 0
        before = first["envelope"]["answer"]["rows"][0][0]

        service.execute(SHIP_INSERT.format(id=9100))

        frame = self._next_non_heartbeat(response)
        assert frame["type"] == "answer" and frame["seq"] == 1
        assert frame["envelope"]["answer"]["rows"][0][0] == before + 1
        # Both halves: HTTPResponse holds its own reference to the
        # socket, so the FIN only goes out once it is closed too.
        response.close()
        connection.close()
        # Client disconnect tears the subscription down server-side
        # within a heartbeat or two.
        deadline = time.monotonic() + 5
        while service.subscriptions.active() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert service.subscriptions.active() == []

    def test_frames_limit_closes_the_stream(self, server):
        connection, response = self._open_stream(
            server,
            "question=how%20many%20ports%20are%20there&heartbeat=60&frames=1",
        )
        hello = json.loads(response.readline())
        assert hello["type"] == "subscribed"
        first = json.loads(response.readline())
        assert first["type"] == "answer"
        assert response.readline() == b""  # terminating chunk: stream over
        connection.close()

    def test_heartbeats_flow_while_idle(self, server):
        connection, response = self._open_stream(
            server,
            "question=how%20many%20ships%20are%20there&heartbeat=0.05",
        )
        json.loads(response.readline())  # hello
        json.loads(response.readline())  # initial answer
        frame = json.loads(response.readline())
        assert frame["type"] == "heartbeat"
        connection.close()

    def test_bare_subscribe_path_is_v1_only(self, server):
        host = server.url.split("//", 1)[1]
        connection = http.client.HTTPConnection(host, timeout=10)
        connection.request("GET", "/subscribe?question=x")
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 404
        assert body["error"]["code"] == "unknown_endpoint"
        assert "GET /v1/subscribe" in body["error"]["message"]
        connection.close()

    def test_missing_question_is_rejected(self, server):
        connection, response = self._open_stream(server, "heartbeat=60")
        body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["code"] == "bad_field"
        connection.close()
