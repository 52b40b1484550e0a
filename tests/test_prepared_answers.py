"""Prepared answers: a repeat is answered from the prepared cache.

The first answered ask of a question stores the answer's back half —
interpretations, the generated ``Select``, its SQL, the paraphrase and
the alternatives — inside the question's parse entry, so a repeat runs
only the engine.  Every test here holds one invariant: a warm answer is
the answer a cold ask gives, whatever the session, the config knobs, a
concurrent reader or a write did in between.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core import NaturalLanguageInterface, NliConfig, Session
from repro.datasets import ALL_DOMAINS, fleet, load_bundle
from repro.evalkit.corruption import corrupt_word
from repro.evaluation.goldsets import load_goldset
from repro.service import NliService, Status
from repro.sqlengine.ast_nodes import Select

NORFOLK = "ships from norfolk"
NORFOLK_BY_PORT = (
    "SELECT DISTINCT ship.name FROM ship JOIN port ON "
    "(ship.home_port_id = port.id) WHERE (port.name = 'Norfolk')"
)
NORFOLK_BY_FLEET = (
    "SELECT DISTINCT ship.name FROM ship JOIN fleet ON "
    "(ship.fleet_id = fleet.id) WHERE (fleet.headquarters = 'Norfolk')"
)
NORFOLK_ALTERNATIVES = [
    ("I am listing the ships whose headquarters is 'Norfolk'.", NORFOLK_BY_FLEET)
]


def observe(response):
    """Everything a caller can see of one response, in comparable form."""
    seen = (response.status, response.tokens, response.diagnostics)
    if response.answer is None:
        return seen + (response.choices,)
    answer = response.answer
    return seen + (
        answer.sql,
        answer.result.columns,
        answer.result.rows,
        answer.paraphrase,
        answer.alternatives,
        answer.corrections,
        answer.normalized_words,
        answer.interpretation.describe(),
    )


def count_interpretations(monkeypatch, nli):
    """Record every call of the pipeline's interpreter."""
    interpreter = nli.layers.interpreter
    calls = []

    def interpret(candidates):
        calls.append(candidates)
        return type(interpreter).interpret(interpreter, candidates)

    # Delta refreshes keep the interpreter object, so this survives them.
    monkeypatch.setattr(interpreter, "interpret", interpret)
    return calls


def one_typo(question: str, rng: random.Random) -> str:
    words = question.split()
    eligible = [i for i, word in enumerate(words) if len(word) >= 4 and word.isalpha()]
    if eligible:
        position = rng.choice(eligible)
        words[position] = corrupt_word(words[position], rng)
    return " ".join(words)


@pytest.mark.parametrize("domain", ALL_DOMAINS)
def test_warm_repeat_equals_cold_ask(domain, monkeypatch):
    bundle = load_bundle(domain)
    service = NliService(bundle.database, domain=bundle.model)
    rng = random.Random(f"prepared-answers-{domain}")
    questions = []
    for item in load_goldset(domain):
        questions += [item.question, one_typo(item.question, rng)]
    calls = count_interpretations(monkeypatch, service.nli)
    differ, reinterpreted, answered = [], [], 0
    for question in questions:
        cold = observe(service.ask(question))
        before = len(calls)
        if observe(service.ask(question)) != cold:
            differ.append(question)
        if cold[0] is Status.ANSWERED:
            answered += 1
            if len(calls) != before:
                reinterpreted.append(question)
    assert differ == []
    # Every answered repeat came from its back half.
    assert reinterpreted == []
    assert answered > len(questions) // 2


@pytest.fixture
def nli():
    return NaturalLanguageInterface(fleet.build_database(), domain=fleet.domain())


def test_repeat_skips_interpretation_and_sql_generation(nli, monkeypatch):
    first = nli.ask(NORFOLK)
    calls = count_interpretations(monkeypatch, nli)
    monkeypatch.setattr(
        nli.layers.sqlgen, "generate", lambda query: pytest.fail("sqlgen ran")
    )
    again = nli.ask(NORFOLK)
    assert calls == []
    assert observe(again) == observe(first)
    assert again.answer.sql == NORFOLK_BY_PORT
    assert again.answer.result.rows == [("Sturgeon",), ("Whale",), ("Finback",)]


def test_generated_statement_is_rendered_once_per_miss(nli, monkeypatch):
    render = Select.render
    rendered = []

    def counting_render(select):
        rendered.append(select)
        return render(select)

    monkeypatch.setattr(Select, "render", counting_render)
    question = "how many ships are there"
    assert nli.ask(question).answer.sql == "SELECT COUNT(*) AS n FROM ship"
    assert len(rendered) == 1
    assert nli.ask(question).answer.result.rows == [(60,)]
    assert len(rendered) == 1


def test_pronoun_follow_up_is_not_served_another_sessions_answer(nli):
    def follow_up(fleet_name):
        session = Session()
        nli.ask(f"show the ships in the {fleet_name} fleet", session=session)
        return nli.ask("how many of them are submarines", session=session).answer

    def expected_sql(fleet_name):
        return (
            "SELECT COUNT(DISTINCT ship.id) AS n FROM ship JOIN fleet ON "
            "(ship.fleet_id = fleet.id) JOIN shiptype ON "
            f"(ship.type_id = shiptype.id) WHERE ((fleet.name = '{fleet_name}') "
            "AND (shiptype.name = 'submarine'))"
        )

    atlantic = follow_up("atlantic")
    assert atlantic.sql == expected_sql("Atlantic")
    assert atlantic.result.rows == [(3,)]
    indian = follow_up("indian")
    assert indian.sql == expected_sql("Indian")
    assert indian.result.rows == [(0,)]


def test_fragment_follow_up_still_resolves_against_its_session(nli):
    # The sessions' first questions are warm: a hit still updates the session.
    nli.ask("how many ships are in the atlantic fleet")
    nli.ask("show the submarines")
    counting = Session()
    nli.ask("how many ships are in the atlantic fleet", session=counting)
    answer = nli.ask("what about the pacific fleet", session=counting).answer
    assert answer.was_fragment
    assert answer.sql == (
        "SELECT COUNT(DISTINCT ship.id) AS n FROM ship JOIN fleet ON "
        "(ship.fleet_id = fleet.id) WHERE (fleet.name = 'Pacific')"
    )
    assert answer.result.rows == [(15,)]

    listing = Session()
    nli.ask("show the submarines", session=listing)
    answer = nli.ask("what about the pacific fleet", session=listing).answer
    assert answer.was_fragment
    assert answer.sql == (
        "SELECT DISTINCT ship.name FROM ship JOIN fleet ON "
        "(ship.fleet_id = fleet.id) JOIN shiptype ON "
        "(ship.type_id = shiptype.id) WHERE ((shiptype.name = 'submarine') "
        "AND (fleet.name = 'Pacific'))"
    )
    assert answer.result.rows == [("Vinson",), ("Flasher",), ("Truxtun",)]


def test_clarify_on_a_warm_entry_offers_the_cold_choices():
    def clarifying():
        return NaturalLanguageInterface(
            fleet.build_database(),
            domain=fleet.domain(),
            config=NliConfig(clarification_margin=10.0),
        )

    cold = clarifying().ask(NORFOLK, clarify=True)
    warm_nli = clarifying()
    assert warm_nli.ask(NORFOLK).status is Status.ANSWERED
    warm = warm_nli.ask(NORFOLK, clarify=True)
    assert warm.status is Status.AMBIGUOUS
    assert warm.choices == cold.choices
    assert warm.diagnostics == cold.diagnostics
    assert [(c.sql, c.score) for c in warm.choices] == [
        (NORFOLK_BY_PORT, 9.8),
        (NORFOLK_BY_FLEET, 9.5),
    ]
    resolved = warm_nli.resolve(warm.clarification_id, 1)
    assert resolved.answer.sql == NORFOLK_BY_FLEET
    assert resolved.answer.alternatives == []


def test_max_interpretations_change_rebuilds_the_alternatives(nli):
    assert nli.ask(NORFOLK).answer.alternatives == NORFOLK_ALTERNATIVES
    nli.config.max_interpretations = 1
    assert nli.ask(NORFOLK).answer.alternatives == []
    nli.config.max_interpretations = 8
    assert nli.ask(NORFOLK).answer.alternatives == NORFOLK_ALTERNATIVES


def test_name_changing_insert_drops_the_back_half(nli, monkeypatch):
    # A new name no word of the question reaches keeps the back half; a
    # name one of its words reaches drops it, and the question is
    # interpreted again.
    question = "how many ships are there"
    assert nli.ask(question).answer.result.scalar() == 60
    calls = count_interpretations(monkeypatch, nli)
    assert nli.ask(question).answer.result.scalar() == 60
    assert calls == []
    nli.engine.execute(
        "INSERT INTO ship VALUES (901, 'Prepared', 3, 1, 1, 1, "
        "8000, 600, 30, 1976, 150)"
    )
    assert nli.ask(question).answer.result.scalar() == 61
    assert nli.stats["delta_refreshes"] == 1
    assert calls == []
    nli.engine.execute(
        "INSERT INTO ship VALUES (902, 'There', 3, 1, 1, 1, "
        "8000, 600, 30, 1976, 150)"
    )
    assert nli.ask(question).answer.result.scalar() == 62
    assert nli.stats["delta_refreshes"] == 2
    assert len(calls) == 1
    assert nli.ask(question).answer.result.scalar() == 62
    assert len(calls) == 1


def test_mutating_a_response_does_not_reach_the_next(nli):
    first = nli.ask(NORFOLK).answer
    first.alternatives.append(("leaked", "SELECT 1"))
    first.corrections.append(("leaked", "leak"))
    first.normalized_words.append("leaked")
    first.result.rows.append(("leaked",))
    second = nli.ask(NORFOLK).answer
    assert second.alternatives == NORFOLK_ALTERNATIVES
    assert second.corrections == []
    assert second.normalized_words == ["ships", "from", "norfolk"]
    assert second.result.rows == [("Sturgeon",), ("Whale",), ("Finback",)]


def test_concurrent_repeats_equal_the_cold_answer():
    cold = observe(
        NliService(fleet.build_database(), domain=fleet.domain()).ask(NORFOLK)
    )
    # Both readers start on an empty cache, so they race to fill the entry.
    service = NliService(fleet.build_database(), domain=fleet.domain())
    start = threading.Barrier(2)
    seen: list[list] = [[], []]

    def reader(slot):
        start.wait()
        for _ in range(200):
            seen[slot].append(observe(service.ask(NORFOLK)))

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [[cold] * 200, [cold] * 200]


def test_readers_racing_a_writer_leave_warm_answers_equal_cold():
    # The writer makes and unmakes values the questions' words reach; a
    # reader that stored an entry computed before a publish would leave a
    # stale reading behind once the threads stop.
    questions = ["how many shps are there", "the crew of the sturgeen", NORFOLK]
    service = NliService(fleet.build_database(), domain=fleet.domain())
    start = threading.Barrier(4)
    failures: list[BaseException] = []

    def reader():
        start.wait()
        for _ in range(60):
            for question in questions:
                service.ask(question)

    def writer():
        start.wait()
        for i in range(30):
            name = ("Shps", "Sturgean")[i % 2]
            service.execute(
                f"INSERT INTO ship VALUES ({900 + i}, '{name}', 3, 1, 1, 1, "
                "8000, 600, 30, 1976, 150)"
            )
            if i % 3 == 2:
                service.execute(f"DELETE FROM ship WHERE name = '{name}'")

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # reported below, after the join
            failures.append(exc)

    threads = [threading.Thread(target=guarded, args=(reader,)) for _ in range(3)]
    threads.append(threading.Thread(target=guarded, args=(writer,)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    cold = NaturalLanguageInterface(service.database, domain=fleet.domain())
    for question in questions:
        assert observe(service.ask(question)) == observe(cold.ask(question))
    service.close()
