"""Service-layer API: Response envelope, clarification protocol, batching.

Acceptance for the redesign: ``ask()`` never raises for user-input
problems, every failure carries a diagnostic with a token span, the
envelope JSON round-trips exactly, an AMBIGUOUS response resolves via
``resolve()`` and shapes the next follow-up in the same Session, and the
prepared-question cache honours its TTL knob.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.baselines import KeywordBaseline, TemplateBaseline
from repro.core import NaturalLanguageInterface, NliConfig, Session
from repro.datasets import fleet, load_bundle
from repro.errors import ClarificationError
from repro.service import Choice, Diagnostic, NliService, Response, Status
from repro.sqlengine.plancache import LruCache


@pytest.fixture(scope="module")
def fleet_db():
    return fleet.build_database()


@pytest.fixture(scope="module")
def nli(fleet_db):
    return NaturalLanguageInterface(fleet_db, domain=fleet.domain())


def roundtrip(response: Response) -> dict:
    """to_dict must be pure JSON: the dump/load round-trip is exact."""
    wire = response.to_dict()
    assert json.loads(json.dumps(wire)) == wire
    return wire


class TestResponseEnvelope:
    def test_answered_envelope(self, nli):
        response = nli.ask("how many ships are there")
        assert response.status is Status.ANSWERED
        assert response.ok
        assert response.answer is not None
        assert response.answer.result.scalar() == 60
        response.raise_for_status()  # no-op when answered

    def test_answered_json_roundtrip(self, nli):
        response = nli.ask("show the ships in the pacific fleet")
        wire = roundtrip(response)
        back = Response.from_dict(wire)
        assert back.status is Status.ANSWERED
        assert back.answer is not None and response.answer is not None
        assert back.answer.sql == response.answer.sql
        assert back.answer.result.rows == response.answer.result.rows
        assert back.answer.result.columns == response.answer.result.columns
        assert back.answer.paraphrase == response.answer.paraphrase

    def test_parse_failure_envelope(self, nli):
        response = nli.ask("colorless green ideas sleep furiously")
        assert response.status is Status.FAILED
        assert response.answer is None
        assert response.error_type == "ParseFailure"
        codes = [d.code for d in response.diagnostics]
        assert "parse_failure" in codes
        primary = response.diagnostics[0]
        assert primary.span == (0, len(response.tokens))
        roundtrip(response)

    def test_unknown_word_has_span_and_suggestions(self, fleet_db):
        local = NaturalLanguageInterface(
            fleet_db, domain=fleet.domain(),
            config=NliConfig(spelling_correction=False),
        )
        response = local.ask("how many shps are there")
        unknown = [d for d in response.diagnostics if d.code == "unknown_word"]
        assert unknown
        start, end = unknown[0].span
        assert response.tokens[start:end] == ("shps",)
        assert "ships" in unknown[0].suggestions

    def test_unknown_value_reports_failure_with_span(self, nli):
        response = nli.ask("ships from zanzibar")
        assert response.status is Status.FAILED
        assert any(d.span is not None for d in response.diagnostics)
        roundtrip(response)

    def test_empty_question_span(self, nli):
        response = nli.ask("???")
        assert response.status is Status.FAILED
        assert response.diagnostics[0].code == "empty_question"
        assert response.diagnostics[0].span == (0, 0)

    def test_fragment_without_context_needs_clarification(self, nli):
        response = nli.ask("what about the atlantic fleet")
        assert response.status is Status.NEEDS_CLARIFICATION
        assert response.diagnostics[0].code == "missing_context"
        roundtrip(response)

    def test_generation_phase_failure_counts_as_interpret_stage(
        self, fleet_db, monkeypatch
    ):
        # A failure after interpretation succeeded reports execution_error,
        # so evalkit stage accounting credits the interpret stage (the old
        # exception-based harness's behavior).
        from repro.errors import InterpretationError
        from repro.evalkit.metrics import failure_stage

        nli = NaturalLanguageInterface(fleet_db, domain=fleet.domain())

        def boom(query):
            raise InterpretationError("join tree is not connected")

        monkeypatch.setattr(nli.sqlgen, "generate", boom)
        response = nli.ask("how many ships are in the pacific fleet")
        assert response.status is Status.FAILED
        assert response.diagnostics[0].code == "execution_error"
        assert failure_stage(response) == "interpret"

    def test_failed_roundtrip_preserves_diagnostics(self, nli):
        wire = nli.ask("colorless green ideas sleep furiously").to_dict()
        back = Response.from_dict(json.loads(json.dumps(wire)))
        assert back.status is Status.FAILED
        assert back.diagnostics and isinstance(back.diagnostics[0], Diagnostic)
        assert back.diagnostics[0].span is not None


class TestClarificationProtocol:
    def _clarifying_nli(self, fleet_db):
        return NaturalLanguageInterface(
            fleet_db, domain=fleet.domain(),
            config=NliConfig(clarification_margin=10.0),
        )

    def test_ambiguous_enumerates_choices(self, fleet_db):
        nli = self._clarifying_nli(fleet_db)
        response = nli.ask("ships from norfolk", clarify=True)
        assert response.status is Status.AMBIGUOUS
        assert len(response.choices) >= 2
        for choice in response.choices:
            assert isinstance(choice, Choice)
            assert choice.paraphrase and "SELECT" in choice.sql
        assert response.clarification_id is not None
        roundtrip(response)

    def test_resolve_executes_without_reparsing(self, fleet_db):
        nli = self._clarifying_nli(fleet_db)
        ambiguous = nli.ask("ships from norfolk", clarify=True)
        chosen = ambiguous.choices[1]
        resolved = nli.resolve(ambiguous.clarification_id, 1)
        assert resolved.status is Status.ANSWERED
        assert resolved.answer.sql == chosen.sql
        assert resolved.answer.interpretation is not None

    def test_resolution_shapes_followup_in_session(self, fleet_db):
        nli = self._clarifying_nli(fleet_db)
        session = Session()
        ambiguous = nli.ask("ships from norfolk", session=session, clarify=True)
        assert ambiguous.status is Status.AMBIGUOUS
        assert session.pending_clarification == ambiguous.clarification_id
        # Pick the fleet-headquarters reading explicitly.
        target = next(
            i for i, c in enumerate(ambiguous.choices) if "fleet" in c.sql.lower()
        )
        resolved = nli.resolve(ambiguous.clarification_id, target)
        assert resolved.ok
        assert session.pending_clarification is None
        assert session.last_query is not None
        # The follow-up merges with the *resolved* reading.
        followup = nli.ask("how many of them are submarines", session=session)
        assert followup.ok
        assert "submarine" in followup.answer.sql
        assert "Norfolk" in followup.answer.sql

    def test_clarification_is_single_use(self, fleet_db):
        nli = self._clarifying_nli(fleet_db)
        ambiguous = nli.ask("ships from norfolk", clarify=True)
        nli.resolve(ambiguous.clarification_id, 0)
        with pytest.raises(ClarificationError):
            nli.resolve(ambiguous.clarification_id, 0)

    def test_bad_choice_index_rejected(self, fleet_db):
        nli = self._clarifying_nli(fleet_db)
        ambiguous = nli.ask("ships from norfolk", clarify=True)
        with pytest.raises(ClarificationError):
            nli.resolve(ambiguous.clarification_id, 99)

    def test_bad_choice_index_leaves_clarification_pending(self, fleet_db):
        # Regression: an out-of-range pick must not consume the pending
        # clarification — the user simply picks again.
        nli = self._clarifying_nli(fleet_db)
        session = Session()
        ambiguous = nli.ask("ships from norfolk", session=session, clarify=True)
        with pytest.raises(ClarificationError):
            nli.resolve(ambiguous.clarification_id, 99)
        assert session.pending_clarification == ambiguous.clarification_id
        resolved = nli.resolve(ambiguous.clarification_id, 0)
        assert resolved.ok

    def test_unknown_id_rejected(self, nli):
        with pytest.raises(ClarificationError):
            nli.resolve("clar-does-not-exist", 0)

    def test_full_rebuild_discards_parked_clarifications(self):
        # Catalog DDL invalidates parked interpretations (they may join
        # dropped tables); the id becomes unknown rather than replaying
        # against a changed schema.
        nli = NaturalLanguageInterface(
            fleet.build_database(), domain=fleet.domain(),
            config=NliConfig(clarification_margin=10.0),
        )
        ambiguous = nli.ask("ships from norfolk", clarify=True)
        nli.engine.execute("CREATE TABLE scratch (id INT PRIMARY KEY)")
        nli.refresh()  # catalog change -> full rebuild
        with pytest.raises(ClarificationError):
            nli.resolve(ambiguous.clarification_id, 0)

    def test_resolve_replay_failure_returns_envelope(self, fleet_db, monkeypatch):
        # Replay failures keep the never-raise contract of ask().
        from repro.errors import ExecutionError

        nli = self._clarifying_nli(fleet_db)
        session = Session()
        ambiguous = nli.ask("ships from norfolk", session=session, clarify=True)

        def boom(select, snapshot=None):
            raise ExecutionError("replay failed")

        monkeypatch.setattr(nli.engine, "execute", boom)
        response = nli.resolve(ambiguous.clarification_id, 0)
        assert response.status is Status.FAILED
        assert response.diagnostics[0].code == "execution_error"
        assert session.pending_clarification is None

    def test_ambiguity_error_type_recorded(self, fleet_db):
        nli = self._clarifying_nli(fleet_db)
        response = nli.ask("ships from norfolk", clarify=True)
        assert response.error_type == "AmbiguityError"
        assert response.to_dict()["error_type"] == "AmbiguityError"


class TestAskMany:
    def test_batch_matches_sequential_answers(self, fleet_db):
        nli = NaturalLanguageInterface(fleet_db, domain=fleet.domain())
        questions = [
            "how many ships are there",
            "show the carriers",
            "how many ships are there",
            "not parseable gibberish zz",
        ]
        responses = nli.ask_many(questions)
        assert [r.status for r in responses] == [
            Status.ANSWERED, Status.ANSWERED, Status.ANSWERED, Status.FAILED,
        ]
        assert responses[0].answer.result.scalar() == responses[2].answer.result.scalar()

    def test_batch_shares_one_freshness_pass(self):
        nli = NaturalLanguageInterface(
            fleet.build_database(), domain=fleet.domain()
        )
        nli.ask("how many ships are there")
        refreshes_before = nli.stats["delta_refreshes"]
        for i in range(4):
            nli.engine.execute(
                f"INSERT INTO ship VALUES ({700 + i}, 'Batchling {i}', "
                "3, 1, 1, 1, 8000, 600, 30, 1976, 150)"
            )
        responses = nli.ask_many(["how many ships are there"] * 3)
        assert all(r.ok for r in responses)
        assert responses[0].answer.result.scalar() == 64
        assert nli.stats["delta_refreshes"] == refreshes_before + 1

    def test_auto_refresh_restored_after_batch(self, fleet_db):
        nli = NaturalLanguageInterface(fleet_db, domain=fleet.domain())
        assert nli.auto_refresh
        nli.ask_many(["how many ships are there"])
        assert nli.auto_refresh

    def test_overlapping_batches_leave_auto_refresh_on(self):
        # Batch A is held inside its walk until batch B has started, and B
        # until A has returned: B must not leave the pipeline as A found
        # it mid-batch (refreshes off), or later DML is never absorbed.
        nli = NaturalLanguageInterface(fleet.build_database(), domain=fleet.domain())
        a_inside, b_inside, a_returned = (threading.Event() for _ in range(3))
        ask_pinned = nli._ask_pinned
        first, second = "how many ships are there", "how many fleets are there"

        def held(question, *args):
            if question == first:
                a_inside.set()
                assert b_inside.wait(10)
            else:
                b_inside.set()
                assert a_returned.wait(10)
            return ask_pinned(question, *args)

        nli._ask_pinned = held
        responses = {}
        batch_a = threading.Thread(
            target=lambda: responses.setdefault("a", nli.ask_many([first]))
        )
        batch_b = threading.Thread(
            target=lambda: responses.setdefault("b", nli.ask_many([second]))
        )
        batch_a.start()
        assert a_inside.wait(10)
        batch_b.start()
        batch_a.join(10)
        a_returned.set()
        batch_b.join(10)
        assert not batch_a.is_alive() and not batch_b.is_alive()
        del nli._ask_pinned
        assert [r.ok for r in responses["a"] + responses["b"]] == [True, True]
        assert nli.auto_refresh
        nli.engine.execute(
            "INSERT INTO ship VALUES "
            "(900, 'Zephyr', 3, 1, 1, 1, 1000, 300, 20, 1990, 100)"
        )
        response = nli.ask("what is the displacement of the zephyr")
        assert response.ok
        assert response.answer.result.rows == [(1000,)]


class TestPreparedCacheTtl:
    def test_no_ttl_by_default(self):
        # Entries age out by LRU pressure only; a lookup counts a hit or a
        # miss and nothing else.
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.stats == {"hits": 1, "misses": 1}

    def test_stats_expose_prepared_counters(self, fleet_db):
        nli = NaturalLanguageInterface(fleet_db, domain=fleet.domain())
        nli.ask("how many ships are there")
        nli.ask("how many ships are there")
        stats = nli.stats
        assert stats["prepared_hits"] >= 1
        assert stats["prepared_misses"] >= 1
        prepared = sorted(key for key in stats if key.startswith("prepared_"))
        assert prepared == [
            "prepared_hits",
            "prepared_invalidated",
            "prepared_misses",
        ]


class TestNliServiceFacade:
    def test_ask_and_sessions(self):
        bundle = load_bundle("fleet")
        service = NliService(bundle.database, domain=bundle.model)
        sid = service.open_session()
        first = service.ask("how many ships are in the pacific fleet", session=sid)
        assert first.ok
        followup = service.ask("what about the atlantic fleet", session=sid)
        assert followup.ok and followup.answer.was_fragment
        assert len(service.session(sid).transcript) == 2
        service.close_session(sid)
        with pytest.raises(KeyError):
            service.session(sid)

    def test_dml_through_service_is_absorbed(self):
        bundle = load_bundle("fleet")
        service = NliService(bundle.database, domain=bundle.model)
        before = service.ask("how many ships are there").answer.result.scalar()
        service.execute(
            "INSERT INTO ship VALUES (901, 'Servicing', 3, 1, 1, 1, "
            "8000, 600, 30, 1976, 150)"
        )
        assert service.ask("how many ships are there").answer.result.scalar() == before + 1
        assert service.stats["full_rebuilds"] == 1  # absorbed as a delta

    def test_select_passthrough_uses_read_lock(self):
        bundle = load_bundle("fleet")
        service = NliService(bundle.database, domain=bundle.model)
        reads_before = service.lock_stats["read_acquires"]
        writes_before = service.lock_stats["write_acquires"]
        assert service.execute("SELECT COUNT(*) FROM ship").scalar() == 60
        assert service.lock_stats["read_acquires"] == reads_before + 1
        assert service.lock_stats["write_acquires"] == writes_before

    def test_service_clarify_and_resolve(self):
        bundle = load_bundle("fleet")
        service = NliService(
            bundle.database, domain=bundle.model,
            config=NliConfig(clarification_margin=10.0),
        )
        sid = service.open_session()
        ambiguous = service.ask("ships from norfolk", session=sid, clarify=True)
        assert ambiguous.status is Status.AMBIGUOUS
        resolved = service.resolve(ambiguous.clarification_id, 0)
        assert resolved.ok
        assert resolved.answer.sql == ambiguous.choices[0].sql

    def test_service_ask_many(self):
        bundle = load_bundle("fleet")
        service = NliService(bundle.database, domain=bundle.model)
        responses = service.ask_many(
            ["how many ships are there", "show the fleets"]
        )
        assert [r.ok for r in responses] == [True, True]


class TestBaselineResponseProtocol:
    def test_keyword_baseline_speaks_response(self):
        bundle = load_bundle("fleet")
        baseline = KeywordBaseline(bundle.database, bundle.model)
        response = baseline.ask("how many ships pacific")
        assert isinstance(response, Response)
        assert response.ok and response.answer.result is not None
        roundtrip(response)

    def test_template_baseline_failure_is_envelope(self):
        bundle = load_bundle("fleet")
        baseline = TemplateBaseline(bundle.database, bundle.model)
        response = baseline.ask("verily the moon waxes gibbous")
        assert response.status is Status.FAILED
        assert response.error_type == "ParseFailure"
        assert response.diagnostics and response.diagnostics[0].span is not None
        roundtrip(response)


class TestCliJson:
    def run_cli(self, lines, *args):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(args), stdin=io.StringIO(lines), stdout=out)
        return code, out.getvalue()

    def test_json_lines_and_exit_code_answered(self):
        code, output = self.run_cli("how many ships are there\n", "fleet", "--json")
        lines = [line for line in output.splitlines() if line.strip()]
        assert len(lines) == 1
        wire = json.loads(lines[0])
        assert wire["status"] == "answered"
        assert wire["answer"]["rows"] == [[60]]
        assert code == 0

    def test_json_exit_code_failed(self):
        code, output = self.run_cli("xyzzy gibberish quux\n", "fleet", "--json")
        wire = json.loads(output.splitlines()[0])
        assert wire["status"] == "failed"
        assert wire["diagnostics"]
        assert code == 2

    def test_json_exit_code_ambiguous_then_resolve(self):
        code, output = self.run_cli(
            "ships from norfolk\n", "fleet", "--json", "--clarify"
        )
        wire = json.loads(output.splitlines()[0])
        assert wire["status"] == "ambiguous"
        assert len(wire["choices"]) >= 2
        assert code == 3
        # Resolving by number in the same stream flips the exit code to 0.
        code, output = self.run_cli(
            "ships from norfolk\n1\n", "fleet", "--json", "--clarify"
        )
        last = json.loads(output.splitlines()[-1])
        assert last["status"] == "answered"
        assert code == 0

    def test_json_bad_choice_keeps_envelope_shape_and_retries(self):
        # An out-of-range number still emits a full Response envelope (the
        # line protocol never changes shape) and the clarification stays
        # pending, so the next number succeeds.
        code, output = self.run_cli(
            "ships from norfolk\n9\n1\n", "fleet", "--json", "--clarify"
        )
        lines = [json.loads(line) for line in output.splitlines() if line.strip()]
        assert [w["status"] for w in lines] == ["ambiguous", "failed", "answered"]
        bad = lines[1]
        assert "diagnostics" in bad and "tokens" in bad and "answer" in bad
        assert bad["error_type"] == "ClarificationError"
        assert code == 0

    def test_interactive_clarification_by_number(self):
        code, output = self.run_cli(
            "ships from norfolk\n1\n\\q\n", "fleet", "--clarify"
        )
        assert "did you mean" in output
        assert "[1]" in output and "[2]" in output
        assert code == 0

    def test_interactive_mode_always_exits_zero(self):
        # Status exit codes are scoped to --json scripting; a failed last
        # question must not break shell wrappers driving the console.
        code, output = self.run_cli("xyzzy gibberish quux\n\\q\n", "fleet")
        assert "Sorry" in output
        assert code == 0
