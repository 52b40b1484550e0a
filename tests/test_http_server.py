"""The HTTP front end: status mapping, wire fidelity, durability.

Every test talks to a real server on an ephemeral loopback port (the
asyncio stack, the worker pool and the commit lock are all live); the wire
payloads are asserted to be exactly ``Response.to_dict()`` JSON plus the
documented ``session`` echo.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.config import NliConfig
from repro.datasets import fleet
from repro.server import serve_in_thread
from repro.server.http import MAX_BODY_BYTES, response_http_code
from repro.service import Response, SessionLog, Status
from repro.service.service import NliService


def _call(url: str, path: str, payload=None, raw: bytes | None = None):
    """(http code, decoded json, headers) for one round trip."""
    if payload is None and raw is None:
        request = urllib.request.Request(url + path)
    else:
        data = raw if raw is not None else json.dumps(payload).encode()
        request = urllib.request.Request(url + path, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


@pytest.fixture(scope="module")
def service():
    svc = NliService(
        fleet.build_database(seed=5, ships=60),
        domain=fleet.domain(),
        config=NliConfig(clarification_margin=10.0),
    )
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def server(service):
    handle = serve_in_thread(service)
    yield handle
    handle.stop()


class TestStatusMapping:
    def test_answered_is_200_and_exact_envelope(self, server, service):
        code, wire, _ = _call(server.url, "/v1/ask",
                              {"question": "how many ships are there"})
        assert code == 200
        assert wire["status"] == "answered"
        # The wire payload is exactly Response.to_dict(): rebuild and compare.
        rebuilt = Response.from_dict(wire)
        assert rebuilt.status is Status.ANSWERED
        assert rebuilt.answer.result.scalar() == 60
        assert set(wire) == {
            "status", "question", "answer", "diagnostics", "choices",
            "clarification_id", "tokens", "retry_after_s", "error_type",
        }

    def test_ambiguous_is_409_with_choices(self, server):
        code, wire, _ = _call(
            server.url, "/v1/ask",
            {"question": "ships from norfolk", "clarify": True},
        )
        assert code == 409
        assert wire["status"] == "ambiguous"
        assert len(wire["choices"]) >= 2
        assert wire["clarification_id"]

    def test_needs_clarification_is_409(self, server):
        # A fragment with no session context cannot be completed.
        code, wire, _ = _call(server.url, "/v1/ask",
                              {"question": "what about the carriers"})
        assert code == 409
        assert wire["status"] == "needs_clarification"

    def test_failed_is_422(self, server):
        code, wire, _ = _call(server.url, "/v1/ask",
                              {"question": "colorless green ideas sleep"})
        assert code == 422
        assert wire["status"] == "failed"

    def test_response_http_code_covers_every_status(self):
        for status in Status:
            response = Response(status=status, question="q")
            assert response_http_code(response) in (200, 409, 422)


class TestTransportErrors:
    def test_malformed_json_is_400(self, server):
        code, wire, _ = _call(server.url, "/v1/ask", raw=b"{not json at all")
        assert code == 400
        assert wire["error"]["code"] == "malformed_json"

    def test_non_object_body_is_400(self, server):
        code, wire, _ = _call(server.url, "/v1/ask", raw=b'["a", "list"]')
        assert code == 400
        assert wire["error"]["code"] == "malformed_json"

    def test_missing_question_is_400(self, server):
        code, wire, _ = _call(server.url, "/v1/ask", {"quesiton": "typo"})
        assert code == 400
        assert wire["error"]["code"] == "bad_field"

    def test_non_string_question_is_400(self, server):
        code, wire, _ = _call(server.url, "/v1/ask", {"question": 42})
        assert code == 400

    def test_bad_questions_list_is_400(self, server):
        code, wire, _ = _call(server.url, "/v1/ask_many", {"questions": "one"})
        assert code == 400

    def test_unknown_path_is_404(self, server):
        code, wire, _ = _call(server.url, "/v1/nope", {"question": "x"})
        assert code == 404
        assert wire["error"]["code"] == "unknown_endpoint"

    def test_wrong_method_is_405_with_allow(self, server):
        code, wire, headers = _call(server.url, "/v1/ask")  # GET
        assert code == 405
        assert headers["Allow"] == "POST"

    def test_unknown_clarification_is_404(self, server):
        code, wire, _ = _call(
            server.url, "/v1/resolve",
            {"clarification_id": "clar-999999", "choice": 0},
        )
        assert code == 404
        assert wire["error"]["code"] == "unknown_clarification"

    def test_bad_choice_type_is_400(self, server):
        code, wire, _ = _call(
            server.url, "/v1/resolve",
            {"clarification_id": "clar-1", "choice": "first"},
        )
        assert code == 400

    def test_out_of_range_choice_on_live_clarification_is_400(self, server):
        code, ambiguous, _ = _call(
            server.url, "/v1/ask",
            {"question": "ships from norfolk", "clarify": True},
        )
        assert code == 409
        code, wire, _ = _call(
            server.url, "/v1/resolve",
            {"clarification_id": ambiguous["clarification_id"], "choice": 99},
        )
        assert code == 400
        assert wire["error"]["code"] == "bad_choice"
        # Still parked: picking a valid index afterwards works.
        code, resolved, _ = _call(
            server.url, "/v1/resolve",
            {"clarification_id": ambiguous["clarification_id"], "choice": 0},
        )
        assert code == 200

    def test_oversized_request_line_is_400(self, server):
        reply = self._raw_request(
            server, "GET /" + "x" * (128 * 1024) + " HTTP/1.1\r\n\r\n"
        )
        assert reply.startswith("HTTP/1.1 400 ")

    def _raw_request(self, server, head: str) -> str:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            try:
                sock.sendall(head.encode("latin-1"))
            except (BrokenPipeError, ConnectionResetError):
                pass  # server may answer-and-close before we finish sending
            chunks = []
            try:
                while chunk := sock.recv(4096):
                    chunks.append(chunk)
            except ConnectionResetError:
                pass
        return b"".join(chunks).decode("latin-1")

    def test_negative_content_length_is_400(self, server):
        reply = self._raw_request(
            server, "POST /ask HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
        )
        assert reply.startswith("HTTP/1.1 400 ")

    def test_unparseable_content_length_is_400(self, server):
        reply = self._raw_request(
            server, "POST /ask HTTP/1.1\r\nContent-Length: lots\r\n\r\n"
        )
        assert reply.startswith("HTTP/1.1 400 ")

    def test_oversized_body_is_413(self, server):
        # The header alone triggers the refusal: the body is never read.
        reply = self._raw_request(
            server,
            f"POST /ask HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n",
        )
        assert reply.startswith("HTTP/1.1 413 ")


class TestProtocolFlows:
    def test_clarification_resolves_over_http(self, server):
        code, ambiguous, _ = _call(
            server.url, "/v1/ask",
            {"question": "ships from norfolk", "clarify": True,
             "session": "flows"},
        )
        assert code == 409
        assert ambiguous["session"] == "flows"
        picked = ambiguous["choices"][1]
        code, resolved, _ = _call(
            server.url, "/v1/resolve",
            {"clarification_id": ambiguous["clarification_id"],
             "choice": picked["index"]},
        )
        assert code == 200
        assert resolved["answer"]["sql"] == picked["sql"]
        # Consumed: a second resolve is a 404.
        code, _, _ = _call(
            server.url, "/v1/resolve",
            {"clarification_id": ambiguous["clarification_id"],
             "choice": picked["index"]},
        )
        assert code == 404

    def test_session_follow_up_binds_to_context(self, server):
        code, first, _ = _call(
            server.url, "/v1/ask",
            {"question": "ships in the pacific fleet", "session": "ctx"},
        )
        assert code == 200
        code, followup, _ = _call(
            server.url, "/v1/ask",
            {"question": "how many of them are there", "session": "ctx"},
        )
        assert code == 200
        assert followup["answer"]["sql"].lower().startswith("select count")

    def test_ask_many_batches(self, server):
        code, wire, _ = _call(
            server.url, "/v1/ask_many",
            {"questions": ["how many ships are there", "show the carriers"]},
        )
        assert code == 200
        statuses = [envelope["status"] for envelope in wire["responses"]]
        assert statuses == ["answered", "answered"]

    def test_sql_endpoint(self, server):
        code, wire, _ = _call(
            server.url, "/v1/sql", {"sql": "SELECT count(*) FROM ship"}
        )
        assert code == 200
        assert wire["rows"] == [[60]]

    def test_sql_error_is_422(self, server):
        code, wire, _ = _call(server.url, "/v1/sql", {"sql": "SELEKT nope"})
        assert code == 422
        assert wire["error"]["code"] == "engine_error"

    def test_healthz_and_stats(self, server):
        code, health, _ = _call(server.url, "/v1/healthz")
        assert (code, health) == (200, {"status": "ok"})
        code, stats, _ = _call(server.url, "/v1/stats")
        assert code == 200
        assert stats["http"]["requests"] > 0
        assert "asks" in stats["service"]
        assert stats["service"]["prepared_invalidated"] >= 0

    def test_response_cache_serves_repeat_asks(self, server):
        question = "ships commissioned in 1970"
        _call(server.url, "/v1/ask", {"question": question})
        before = server.server.stats["cache_hits"]
        code, wire, _ = _call(server.url, "/v1/ask", {"question": question})
        assert code == 200
        assert server.server.stats["cache_hits"] == before + 1
        # Cached bytes decode to the same envelope as a fresh ask.
        assert wire["status"] == "answered"

    def test_dml_invalidates_response_cache(self, server):
        question = "how many ports are there"
        _, first, _ = _call(server.url, "/v1/ask", {"question": question})
        baseline = first["answer"]["rows"][0][0]
        _call(server.url, "/v1/sql", {
            "sql": "INSERT INTO port VALUES (901, 'Cacheville', 'usa')"
        })
        _, after, _ = _call(server.url, "/v1/ask", {"question": question})
        assert after["answer"]["rows"][0][0] == baseline + 1


class TestOneMount:
    """The API lives under /v1 and nowhere else."""

    @pytest.mark.parametrize("method, path", [
        ("POST", "/ask"),
        ("POST", "/ask_many"),
        ("POST", "/resolve"),
        ("POST", "/sql"),
        ("GET", "/stats"),
        ("GET", "/healthz"),
        ("POST", "/d/fleet/ask"),
        ("GET", "/subscribe"),
        ("POST", "/subscribe"),
    ])
    def test_bare_path_is_404_naming_v1(self, server, method, path):
        payload = None
        if method == "POST":
            payload = {"question": "how many ships are there"}
        code, wire, _ = _call(server.url, path, payload)
        assert code == 404
        assert wire["error"]["code"] == "unknown_endpoint"
        assert f"{method} /v1{path}" in wire["error"]["message"]

    def test_no_v1_response_carries_deprecation(self, server):
        for path, payload in [
            ("/v1/ask", {"question": "how many ships are there"}),
            ("/v1/ask_many", {"questions": ["how many ships are there"]}),
            ("/v1/sql", {"sql": "SELECT count(*) FROM ship"}),
            ("/v1/stats", None),
            ("/v1/healthz", None),
        ]:
            code, _, headers = _call(server.url, path, payload)
            assert code == 200
            assert "Deprecation" not in headers

    def test_bad_domain_path_names_v1(self, server):
        code, wire, _ = _call(server.url, "/v1/d/fleet", {"question": "x"})
        assert code == 404
        assert wire["error"]["code"] == "bad_path"
        assert "/v1/d/<domain>/ask" in wire["error"]["message"]

    def test_serve_has_no_state_flag(self):
        from repro.cli import build_serve_parser

        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args(["fleet", "--state", "x"])
        assert excinfo.value.code == 2


class TestRateLimiting:
    def test_429_with_retry_after(self):
        service = NliService(
            fleet.build_database(seed=5, ships=30),
            domain=fleet.domain(),
            config=NliConfig(rate_limit_qps=0.001, rate_limit_burst=2),
        )
        handle = serve_in_thread(service)
        try:
            body = {"question": "how many ships are there", "session": "limited"}
            # First request creates the session (charged to the client
            # address); the next two burn the session's burst of 2.
            assert _call(handle.url, "/v1/ask", body)[0] == 200
            assert _call(handle.url, "/v1/ask", body)[0] == 200
            assert _call(handle.url, "/v1/ask", body)[0] == 200
            code, wire, headers = _call(handle.url, "/v1/ask", body)
            assert code == 429
            assert wire["diagnostics"][0]["code"] == "rate_limited"
            assert wire["retry_after_s"] > 0
            assert int(headers["Retry-After"]) >= 1
            # An established session has its own budget.
            service.ensure_session("calm")
            other = {"question": "how many ships are there", "session": "calm"}
            assert _call(handle.url, "/v1/ask", other)[0] == 200
        finally:
            handle.stop()
            service.close()

    def test_fresh_session_ids_share_the_address_budget(self):
        service = NliService(
            fleet.build_database(seed=5, ships=30),
            domain=fleet.domain(),
            config=NliConfig(rate_limit_qps=0.001, rate_limit_burst=2),
        )
        handle = serve_in_thread(service)
        try:
            # Minting a new session per request must not mint a new budget:
            # creation is charged to the client address.
            codes = [
                _call(handle.url, "/v1/ask",
                      {"question": "how many ships are there",
                       "session": f"fresh-{i}"})[0]
                for i in range(3)
            ]
            assert codes == [200, 200, 429]
        finally:
            handle.stop()
            service.close()

    def test_ask_many_rate_limited_batch_is_429(self):
        service = NliService(
            fleet.build_database(seed=5, ships=30),
            domain=fleet.domain(),
            config=NliConfig(rate_limit_qps=0.001, rate_limit_burst=1),
        )
        handle = serve_in_thread(service)
        try:
            service.ensure_session("b")  # established: keyed by session id
            body = {"questions": ["how many ships are there"], "session": "b"}
            assert _call(handle.url, "/v1/ask_many", body)[0] == 200
            code, wire, headers = _call(handle.url, "/v1/ask_many", body)
            assert code == 429
            assert int(headers["Retry-After"]) >= 1
            assert wire["responses"][0]["diagnostics"][0]["code"] == "rate_limited"
        finally:
            handle.stop()
            service.close()

    def test_cache_hits_still_charge_the_budget(self):
        service = NliService(
            fleet.build_database(seed=5, ships=30),
            domain=fleet.domain(),
            config=NliConfig(rate_limit_qps=0.001, rate_limit_burst=3),
        )
        handle = serve_in_thread(service)
        try:
            body = {"question": "how many ships are there"}
            for _ in range(3):  # one miss + two cache hits, all same client
                _call(handle.url, "/v1/ask", body)
            code, _, _ = _call(handle.url, "/v1/ask", body)
            assert code == 429
        finally:
            handle.stop()
            service.close()


class TestDurability:
    def _service(self, log_path):
        return NliService(
            fleet.build_database(seed=5, ships=60),
            domain=fleet.domain(),
            config=NliConfig(clarification_margin=10.0),
            persistence=SessionLog(log_path),
        )

    def test_resolve_after_restart(self, tmp_path):
        log_path = tmp_path / "sessions.jsonl"
        first = self._service(log_path)
        handle = serve_in_thread(first)
        code, ambiguous, _ = _call(
            handle.url, "/v1/ask",
            {"question": "ships from norfolk", "clarify": True,
             "session": "durable"},
        )
        assert code == 409
        handle.stop()
        first.close()  # simulated crash: nothing else flushed

        second = self._service(log_path)
        handle = serve_in_thread(second)
        try:
            picked = ambiguous["choices"][0]
            code, resolved, _ = _call(
                handle.url, "/v1/resolve",
                {"clarification_id": ambiguous["clarification_id"],
                 "choice": picked["index"]},
            )
            assert code == 200
            assert resolved["answer"]["sql"] == picked["sql"]
            # The session context survived too: follow-ups bind to the
            # clarified reading.
            code, followup, _ = _call(
                handle.url, "/v1/ask",
                {"question": "how many of them are there",
                 "session": "durable"},
            )
            assert code == 200
        finally:
            handle.stop()
            second.close()


class TestConcurrentAskers:
    def test_parallel_clients_against_live_server(self, server, service):
        questions = [
            "how many ships are there",
            "show the carriers",
            "ships commissioned in 1970",
            "how many ships are in the pacific fleet",
        ]
        errors: list[Exception] = []

        def client(worker: int) -> None:
            try:
                for i in range(6):
                    question = questions[(worker + i) % len(questions)]
                    code, wire, _ = _call(server.url, "/v1/ask",
                                          {"question": question})
                    assert code == 200, wire
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert server.server.stats["requests"] >= 48


class TestMultiDomainLocal:
    """One server, several in-process services behind a ServiceBackend."""

    @pytest.fixture(scope="class")
    def multi(self):
        from repro.datasets import load_bundle
        from repro.server import ServiceBackend

        services = {}
        for name in ("fleet", "geography"):
            bundle = load_bundle(name)
            services[name] = NliService(
                bundle.database, domain=bundle.model,
                config=NliConfig(clarification_margin=10.0),
            )
        backend = ServiceBackend(services, default_domain="fleet")
        handle = serve_in_thread(backend=backend, domain_qps=0.001,
                                 domain_burst=3)
        yield handle
        handle.stop()
        for svc in services.values():
            svc.close()

    def test_path_routing_hits_the_named_domain(self, multi):
        code, wire, _ = _call(
            multi.url, "/v1/d/geography/ask",
            {"question": "which rivers are in the usa"},
        )
        assert code == 200
        assert wire["status"] == "answered"

    def test_body_domain_field_routes_too(self, multi):
        code, wire, _ = _call(
            multi.url, "/v1/ask",
            {"question": "which rivers are in the usa",
             "domain": "geography"},
        )
        assert code == 200

    def test_bare_path_uses_default_domain(self, multi):
        code, wire, _ = _call(
            multi.url, "/v1/ask", {"question": "how many ships are there"}
        )
        assert code == 200
        assert wire["answer"]["rows"] == [[60]]

    def test_conflicting_path_and_body_domain_400(self, multi):
        code, wire, _ = _call(
            multi.url, "/v1/d/fleet/ask",
            {"question": "hello", "domain": "geography"},
        )
        assert code == 400
        assert wire["error"]["code"] == "bad_field"

    def test_unknown_domain_404_both_spellings(self, multi):
        code, wire, _ = _call(multi.url, "/v1/d/narnia/ask", {"question": "q"})
        assert code == 404
        assert wire["error"]["code"] == "unknown_domain"
        code, wire, _ = _call(
            multi.url, "/v1/ask", {"question": "q", "domain": "narnia"}
        )
        assert code == 404
        assert wire["error"]["code"] == "unknown_domain"

    def test_per_domain_stats_and_overall(self, multi):
        code, wire, _ = _call(multi.url, "/v1/d/geography/stats")
        assert code == 200
        assert "service" in wire and "http" in wire
        code, overall, _ = _call(multi.url, "/v1/stats")
        assert set(overall["domains"]) == {"fleet", "geography"}

    def test_domain_bucket_limits_one_domain_not_the_other(self, multi):
        # Burst 3 at ~zero refill: drain geography's bucket...
        codes = []
        for _ in range(5):
            code, wire, headers = _call(
                multi.url, "/v1/d/geography/ask",
                {"question": "which rivers are in the usa"},
            )
            codes.append(code)
            if code == 429:
                assert "Retry-After" in headers
                assert wire["retry_after_s"] is not None
        assert 429 in codes
        # ...fleet's bucket is untouched: its requests still land.
        code, wire, _ = _call(
            multi.url, "/v1/ask", {"question": "how many ships are there"}
        )
        assert code == 200


class TestDomainRefund:
    """All-or-nothing across the limiter layers: a per-client rejection
    refunds the domain bucket."""

    def test_per_key_rejection_gives_domain_tokens_back(self):
        svc = NliService(
            fleet.build_database(seed=5, ships=60),
            domain=fleet.domain(),
            # Per-session limiter that rejects from the second request on.
            config=NliConfig(rate_limit_qps=0.001, rate_limit_burst=1),
        )
        from repro.server import ServiceBackend

        backend = ServiceBackend({"fleet": svc})
        handle = serve_in_thread(backend=backend, domain_qps=0.001,
                                 domain_burst=8)
        try:
            question = {"question": "how many ships are there"}
            code, _, _ = _call(handle.url, "/v1/ask", question)
            assert code == 200
            # Five more: every one 429s at the per-client layer.  Without
            # the refund these would also drain 5 domain tokens.
            for _ in range(5):
                code, _, _ = _call(handle.url, "/v1/ask", question)
                assert code == 429
            limiter = handle.server._domain_limiter
            bucket = limiter._buckets["fleet"]
            # One domain token spent (the single 200), the refunds put
            # the rejected requests' tokens back.
            assert bucket.tokens >= limiter.burst - 1.5
        finally:
            handle.stop()
            svc.close()
