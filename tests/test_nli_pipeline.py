"""End-to-end tests of the NLI pipeline on the fleet domain.

Each test asserts either the exact answer (verified against hand-written
SQL on the same database) or a structural property of the chosen
interpretation.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.core import NaturalLanguageInterface, NliConfig, Session
from repro.datasets import ALL_DOMAINS, fleet, load_bundle
from repro.evaluation.goldsets import dialogue_scripts, load_gold_records
from repro.errors import NliError
from repro.service import Status
from repro.sqlengine import Engine


@pytest.fixture(scope="module")
def fleet_db():
    return fleet.build_database()


@pytest.fixture(scope="module")
def nli(fleet_db):
    return NaturalLanguageInterface(fleet_db, domain=fleet.domain())


@pytest.fixture(scope="module")
def sql(fleet_db):
    return Engine(fleet_db)


class TestBasicQuestions:
    def test_count_all(self, nli, sql):
        expected = sql.execute("SELECT COUNT(*) FROM ship").scalar()
        assert nli.ask("how many ships are there?").answer.result.scalar() == expected

    def test_list_with_join(self, nli, sql):
        gold = sql.execute(
            "SELECT DISTINCT ship.name FROM ship JOIN fleet ON "
            "ship.fleet_id = fleet.id WHERE fleet.name = 'Pacific'"
        )
        answer = nli.ask("show the ships in the pacific fleet").answer
        assert set(answer.result.rows) == set(gold.rows)

    def test_attribute_lookup(self, nli, sql):
        gold = sql.execute("SELECT displacement FROM ship WHERE name = 'Enterprise'")
        answer = nli.ask("what is the displacement of the enterprise").answer
        assert answer.result.rows == gold.rows

    def test_multi_attribute_lookup(self, nli):
        answer = nli.ask("what is the speed and length of the enterprise").answer
        assert len(answer.result.columns) == 2

    def test_superlative(self, nli, sql):
        gold = sql.execute(
            "SELECT name FROM ship ORDER BY displacement DESC LIMIT 1"
        )
        assert nli.ask("which ship has the largest displacement").answer.result.rows == gold.rows

    def test_top_k_superlative(self, nli):
        assert len(nli.ask("the 3 oldest ships").answer.result) == 3

    def test_comparison_with_unit(self, nli, sql):
        gold = sql.execute("SELECT name FROM ship WHERE displacement > 50000")
        answer = nli.ask("ships with displacement over 50000 tons").answer
        assert set(answer.result.rows) == set(gold.rows)

    def test_unit_implies_attribute(self, nli, sql):
        gold = sql.execute("SELECT name FROM ship WHERE crew > 4000")
        answer = nli.ask("ships with more than 4000 men").answer
        assert set(answer.result.rows) == set(gold.rows)

    def test_negation(self, nli, sql):
        gold = sql.execute(
            "SELECT DISTINCT ship.name FROM ship JOIN fleet ON "
            "ship.fleet_id = fleet.id WHERE fleet.name != 'Pacific'"
        )
        answer = nli.ask("ships that are not in the pacific fleet").answer
        assert set(answer.result.rows) == set(gold.rows)

    def test_membership(self, nli):
        answer = nli.ask("ships from yokosuka or rota").answer
        assert "IN ('Yokosuka', 'Rota')" in answer.sql

    def test_nested_instance_comparison(self, nli):
        answer = nli.ask("ships heavier than the enterprise").answer
        assert "SELECT" in answer.sql.split("(SELECT", 1)[1].upper() or True
        assert answer.sql.count("SELECT") == 2  # outer + subquery

    def test_nested_average_comparison(self, nli):
        answer = nli.ask("ships heavier than average").answer
        assert "AVG(ship.displacement)" in answer.sql

    def test_group_by(self, nli):
        answer = nli.ask("how many ships are in each fleet").answer
        assert "GROUP BY" in answer.sql
        assert len(answer.result) == 4  # four fleets

    def test_order_suffix(self, nli):
        answer = nli.ask("list the ships sorted by displacement descending").answer
        values = [
            row[0]
            for row in nli.engine.execute(
                "SELECT displacement FROM ship ORDER BY displacement DESC"
            ).rows
        ]
        assert values == sorted(values, reverse=True)
        assert "ORDER BY ship.displacement DESC" in answer.sql

    def test_categorical_entity(self, nli, sql):
        gold = sql.execute(
            "SELECT DISTINCT ship.name FROM ship JOIN shiptype ON "
            "ship.type_id = shiptype.id WHERE shiptype.name = 'carrier'"
        )
        assert set(nli.ask("show the carriers").answer.result.rows) == set(gold.rows)

    def test_value_synonym(self, nli):
        answer = nli.ask("how many subs are there").answer
        assert "submarine" in answer.sql

    def test_between(self, nli):
        answer = nli.ask("ships with crew between 100 and 300").answer
        assert "BETWEEN 100 AND 300" in answer.sql

    def test_year_equality(self, nli, sql):
        gold = sql.execute("SELECT name FROM ship WHERE commissioned = 1970")
        answer = nli.ask("ships commissioned in 1970").answer
        assert set(answer.result.rows) == set(gold.rows)


class TestAnswerObject:
    def test_paraphrase_mentions_entity(self, nli):
        answer = nli.ask("how many ships are there").answer
        assert "ships" in answer.paraphrase

    def test_render_includes_table(self, nli):
        text = nli.ask("show the fleets").answer.render()
        assert "Pacific" in text

    def test_alternatives_for_ambiguous_value(self, nli):
        answer = nli.ask("ships from norfolk").answer
        # norfolk = port name AND fleet headquarters -> >1 reading
        assert answer.is_ambiguous

    def test_normalized_words(self, nli):
        answer = nli.ask("What's the displacement of the Enterprise?").answer
        assert answer.normalized_words[0] == "what"

    def test_spelling_corrections_reported(self, nli):
        answer = nli.ask("how many shps are there").answer
        assert ("shps", "ships") in answer.corrections


class TestFailureModes:
    """User-input problems come back as Response statuses, never raises."""

    def test_gibberish_fails(self, nli):
        response = nli.ask("colorless green ideas sleep furiously")
        assert response.status is Status.FAILED
        assert response.diagnostics and response.diagnostics[0].span is not None
        with pytest.raises(NliError):
            response.raise_for_status()

    def test_failed_response_has_no_answer_attributes(self, nli):
        # The PR-3 attribute-delegation shim is gone: the envelope does
        # not proxy answer attributes, failed or not.
        response = nli.ask("colorless green ideas sleep furiously")
        with pytest.raises(AttributeError):
            response.result
        assert response.answer is None

    def test_empty_question(self, nli):
        response = nli.ask("???")
        assert response.status is Status.FAILED
        assert response.error_type == "ParseFailure"
        with pytest.raises(NliError):
            response.raise_for_status()

    def test_fragment_without_session(self, nli):
        response = nli.ask("what about the atlantic fleet")
        assert response.status is Status.NEEDS_CLARIFICATION
        assert response.error_type == "DialogueError"
        with pytest.raises(NliError):
            response.raise_for_status()

    def test_clarify_mode_reports_tie(self, fleet_db):
        nli = NaturalLanguageInterface(
            fleet_db, domain=fleet.domain(),
            config=NliConfig(clarification_margin=10.0),
        )
        response = nli.ask("ships from norfolk", clarify=True)
        assert response.status is Status.AMBIGUOUS
        assert len(response.choices) >= 2
        assert response.clarification_id is not None
        assert response.error_type == "AmbiguityError"
        with pytest.raises(NliError):
            response.raise_for_status()


class TestDialogue:
    def test_substitution_followup(self, nli, sql):
        session = Session()
        nli.ask("how many ships are in the pacific fleet", session=session)
        answer = nli.ask("what about the atlantic fleet", session=session).answer
        gold = sql.execute(
            "SELECT COUNT(DISTINCT ship.id) FROM ship JOIN fleet ON "
            "ship.fleet_id = fleet.id WHERE fleet.name = 'Atlantic'"
        )
        assert answer.result.scalar() == gold.scalar()
        assert answer.was_fragment

    def test_pronoun_reference(self, nli):
        session = Session()
        nli.ask("show the ships in the atlantic fleet", session=session)
        answer = nli.ask("how many of them are submarines", session=session).answer
        assert "Atlantic" in answer.sql and "submarine" in answer.sql

    def test_refinement_keeps_conditions(self, nli):
        session = Session()
        nli.ask("show the carriers", session=session)
        answer = nli.ask("only the ones commissioned after 1970", session=session).answer
        assert "carrier" in answer.sql and "> 1970" in answer.sql

    def test_transcript_recorded(self, nli):
        session = Session()
        nli.ask("show the fleets", session=session)
        nli.ask("how many ships are there", session=session)
        assert len(session.transcript) == 2
        session.reset()
        assert session.last_query is None

    def test_entity_switch_followup(self, nli):
        session = Session()
        nli.ask("show the carriers commissioned after 1970", session=session)
        answer = nli.ask("what about the cruisers", session=session).answer
        assert "cruiser" in answer.sql and "> 1970" in answer.sql


class TestDmlFreshness:
    """The NLI must track DML: value index/lexicon rebuild on demand."""

    def _fresh_nli(self):
        db = fleet.build_database()
        return NaturalLanguageInterface(db, domain=fleet.domain())

    def test_question_about_inserted_value(self):
        nli = self._fresh_nli()
        # Regression: before lazy refresh this raised ParseFailure because
        # the ValueIndex was built once at construction.
        nli.engine.execute(
            "INSERT INTO fleet VALUES (5, 'Arctic', 'Arctic', 'Reykjavik')"
        )
        answer = nli.ask("how many ships are in the arctic fleet").answer
        assert answer.result.scalar() == 0
        assert "Arctic" in answer.sql

    def test_inserted_ship_counted(self):
        nli = self._fresh_nli()
        before = nli.ask("how many ships are there").answer.result.scalar()
        nli.engine.execute(
            "INSERT INTO ship VALUES (999, 'Zumwalt', 3, 1, 1, 1, "
            "8000, 600, 30, 1976, 150)"
        )
        assert nli.ask("how many ships are there").answer.result.scalar() == before + 1

    def test_manual_refresh(self):
        nli = self._fresh_nli()
        nli.database.table("fleet").insert((6, "Baltic", "Baltic", "Kiel"))
        nli.refresh()
        answer = nli.ask("how many ships are in the baltic fleet").answer
        assert answer.result.scalar() == 0

    def test_repeated_question_uses_prepared_cache(self):
        nli = self._fresh_nli()
        first = nli.ask("how many ships are there").answer.result.scalar()
        hits = nli.stats["prepared_hits"]
        assert nli.ask("how many ships are there").answer.result.scalar() == first
        assert nli.stats["prepared_hits"] == hits + 2  # normalize + parse

    def test_dml_clears_prepared_cache(self):
        nli = self._fresh_nli()
        nli.ask("how many ships are there")
        nli.engine.execute(
            "INSERT INTO ship VALUES (998, 'Extra', 3, 1, 1, 2, "
            "8000, 600, 30, 1976, 150)"
        )
        nli.ask("how many ships are there")  # triggers lazy delta refresh
        assert not nli._pending_deltas
        assert nli.stats["delta_refreshes"] >= 1

    def test_dml_absorbed_without_full_rebuild(self):
        # The whole point of delta-driven refresh: interleaved DML answers
        # stay correct while the language layers are patched, not rebuilt.
        nli = self._fresh_nli()
        assert nli.stats["full_rebuilds"] == 1  # the constructor's build
        nli.engine.execute(
            "INSERT INTO fleet VALUES (7, 'Caribbean', 'Atlantic', 'Key West')"
        )
        answer = nli.ask("how many ships are in the caribbean fleet").answer
        assert answer.result.scalar() == 0
        assert nli.stats["full_rebuilds"] == 1
        assert nli.stats["delta_refreshes"] == 1


class TestConfigKnobs:
    def test_spelling_off(self, fleet_db):
        nli = NaturalLanguageInterface(
            fleet_db, domain=fleet.domain(),
            config=NliConfig(spelling_correction=False),
        )
        response = nli.ask("how many shps are there")
        assert not response.ok
        # The diagnostic still points at the typo and suggests the fix.
        unknown = [d for d in response.diagnostics if d.code == "unknown_word"]
        assert unknown and "ships" in unknown[0].suggestions

    def test_no_dead_knob(self):
        # A field that no module reads is a setting that changes nothing.
        root = Path(repro.__file__).parent
        read = set()
        for path in root.rglob("*.py"):
            if path == root / "core" / "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
        fields = [field.name for field in dataclasses.fields(NliConfig)]
        assert [name for name in fields if name not in read] == []

    def test_explain_trace(self, nli):
        trace = nli.explain("ships heavier than the enterprise")
        assert "tokens:" in trace and "sql:" in trace
        assert "tag" in trace

    def test_explain_on_failure(self, nli):
        trace = nli.explain("xyzzy plugh quux")
        assert "FAILED" in trace


SQL_LINE = "sql:      "
FAILED_STAGE = re.compile(r"^(parse|interpret|sql): +FAILED \(", re.MULTILINE)


@pytest.mark.parametrize("domain", ALL_DOMAINS)
def test_explain_agrees_with_ask(domain):
    # Every gold record; dialogue turns in script order, one session per
    # script, explained before they are asked on that same session.
    bundle = load_bundle(domain)
    nli = NaturalLanguageInterface(bundle.database, domain=bundle.model)
    records = load_gold_records(domain)
    turns = [(item.question, None) for item in records if item.kind != "dialogue"]
    for script in dialogue_scripts(records):
        session = Session()
        turns += [(item.question, session) for item in script]
    disagree = []
    for question, session in turns:
        trace = nli.explain(question, session=session)
        response = nli.ask(question, session=session)
        sql = [line[len(SQL_LINE):] for line in trace.splitlines()
               if line.startswith(SQL_LINE)]
        if response.ok:
            agrees = sql == [response.answer.sql]
        else:
            agrees = FAILED_STAGE.search(trace) is not None
        if not agrees:
            disagree.append(question)
    assert disagree == []


class TestExplainDialogue:
    """``explain`` completes follow-ups from the session, as ``ask`` does."""

    def test_fragment_and_pronoun_turns(self, nli):
        session = Session()
        nli.ask("how many ships are in the pacific fleet", session=session)
        assert nli.explain("what about the atlantic fleet", session=session) == (
            "question: what about the atlantic fleet\n"
            "tokens:   what about the atlantic fleet\n"
            "  tag VALUE   [3:4] Atlantic\n"
            "  tag VALUE   [3:4] Atlantic\n"
            "  tag VALUE   [3:4] Atlantic\n"
            "  tag ENTITY  [4:5] fleet\n"
            "parses:   6\n"
            " * [12.05] the number of ship [name is Atlantic]\n"
            "   [11.05] the number of ship [name is Pacific] [ocean is Atlantic]\n"
            "   [10.55] the number of fleet [name is Atlantic]\n"
            "   [10.05] the number of fleet [name is Pacific] [ocean is Atlantic]\n"
            "   [ 6.55] the number of fleet [name is Pacific] [ocean is Atlantic]\n"
            "   [ 4.55] the number of ship [name is Pacific] [ocean is Atlantic]\n"
            "sql:      SELECT COUNT(DISTINCT ship.id) AS n FROM ship JOIN fleet ON "
            "(ship.fleet_id = fleet.id) WHERE (fleet.name = 'Atlantic')"
        )
        nli.ask("what about the atlantic fleet", session=session)
        nli.ask("and the mediterranean fleet", session=session)
        submarine = (
            "CategoricalEntity(entity=EntityRef(table='ship', phrase='submarine'), "
            "condition=ValueCondition(value=ValueRef(table='shiptype', column='name', "
            "value='submarine', phrase='submarine', approx=False), negated=False))"
        )
        assert nli.explain("how many of them are submarines", session=session) == (
            "question: how many of them are submarines\n"
            "tokens:   how many of them are submarines\n"
            f"  tag ENTITY  [5:6] {submarine}\n"
            "  tag VALUE   [5:6] submarine\n"
            "parses:   1\n"
            " * [ 8.85] the number of ship [name is Mediterranean] "
            "[name is submarine]\n"
            "sql:      SELECT COUNT(DISTINCT ship.id) AS n FROM ship JOIN fleet ON "
            "(ship.fleet_id = fleet.id) JOIN shiptype ON (ship.type_id = shiptype.id) "
            "WHERE ((fleet.name = 'Mediterranean') AND (shiptype.name = 'submarine'))"
        )

    def test_fragment_without_context_fails_as_ask_does(self, nli):
        trace = nli.explain("what about the atlantic fleet")
        assert trace.splitlines()[-1] == (
            "interpret: FAILED (this looks like a follow-up fragment, but there "
            "is no previous question to complete it from)"
        )
