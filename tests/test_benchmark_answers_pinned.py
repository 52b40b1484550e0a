"""Pin the exact answer of every t1–t5 benchmark question.

``tests/data/benchmark_pins.json`` stores the normalized answer set of
each corpus, wild, and dialogue question used by the t-benchmarks, plus
the deliberately ambiguous t5 set — all read from the gold files.  The
benchmarks themselves assert rates (accuracy >= 90%, NLI beats baselines
by 20 points, ...); these tests assert the *answers*, so a change that
shifts any single gold result — an engine regression, a dataset edit, a
gold-file rewrite — fails loudly here even when the rates stay above
their thresholds.

Regenerate after an intentional dataset change with::

    PYTHONPATH=src python tests/test_benchmark_answers_pinned.py
"""

import json
from pathlib import Path

import pytest

from repro.core.pipeline import NaturalLanguageInterface
from repro.datasets import load_bundle
from repro.evaluation.goldsets import (
    dialogue_scripts,
    load_gold_records,
    load_goldset,
    normalize_answer,
)
from repro.sqlengine import Engine

PINS_PATH = Path(__file__).parent / "data" / "benchmark_pins.json"

#: The domains the t1–t5 benchmarks run over (benchmarks/conftest.py).
BENCH_DOMAINS = ("fleet", "company", "geography")


def _pin(engine, item, **extra):
    result = engine.execute(item.gold_sql)
    return {
        "question": item.question,
        "sql": item.gold_sql,
        "columns": len(result.columns),
        "answer": normalize_answer(result),
        **extra,
    }


def build_pins() -> dict:
    document = {"format": "repro-benchmark-pins", "version": 1, "domains": {}}
    for name in BENCH_DOMAINS:
        engine = Engine(load_bundle(name).database)
        document["domains"][name] = {
            "corpus": [_pin(engine, i) for i in load_goldset(name)],
            "wild": [_pin(engine, i) for i in load_goldset(name, kind="wild")],
            "dialogues": [
                [_pin(engine, turn, followup=turn.followup) for turn in script]
                for script in dialogue_scripts(load_gold_records(name))
            ],
        }
    engine = Engine(load_bundle("fleet").database)
    document["ambiguous_fleet"] = [
        _pin(engine, item) for item in load_goldset("fleet", kind="ambiguous")
    ]
    return document


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=BENCH_DOMAINS)
def domain(request):
    return request.param


@pytest.fixture(scope="module")
def engine(domain):
    return Engine(load_bundle(domain).database)


class TestCoverage:
    """The pins file covers exactly the questions the benchmarks ask."""

    def test_corpus_questions_covered(self, pins, domain):
        pinned = [p["question"] for p in pins["domains"][domain]["corpus"]]
        assert pinned == [i.question for i in load_goldset(domain)]

    def test_wild_questions_covered(self, pins, domain):
        pinned = [p["question"] for p in pins["domains"][domain]["wild"]]
        assert pinned == [i.question for i in load_goldset(domain, kind="wild")]

    def test_dialogue_turns_covered(self, pins, domain):
        pinned = [
            [(t["question"], t["followup"]) for t in script]
            for script in pins["domains"][domain]["dialogues"]
        ]
        stored = [
            [(t.question, t.followup) for t in script]
            for script in dialogue_scripts(load_gold_records(domain))
        ]
        assert pinned == stored

    def test_ambiguous_set_covered(self, pins):
        ambiguous = load_goldset("fleet", kind="ambiguous")
        pinned = [(p["question"], p["sql"]) for p in pins["ambiguous_fleet"]]
        assert pinned == [(item.question, item.gold_sql) for item in ambiguous]


def _assert_pin_holds(engine, pin):
    result = engine.execute(pin["sql"])
    assert len(result.columns) == pin["columns"], pin["question"]
    assert normalize_answer(result) == pin["answer"], pin["question"]


class TestAnswersUnchanged:
    """Executing each pinned gold SQL still yields the pinned answer."""

    def test_corpus(self, pins, domain, engine):
        for pin in pins["domains"][domain]["corpus"]:
            _assert_pin_holds(engine, pin)

    def test_wild(self, pins, domain, engine):
        for pin in pins["domains"][domain]["wild"]:
            _assert_pin_holds(engine, pin)

    def test_dialogues(self, pins, domain, engine):
        for script in pins["domains"][domain]["dialogues"]:
            for pin in script:
                _assert_pin_holds(engine, pin)

    def test_ambiguous_fleet(self, pins):
        engine = Engine(load_bundle("fleet").database)
        for pin in pins["ambiguous_fleet"]:
            _assert_pin_holds(engine, pin)


class TestNliTop1Pinned:
    """t5's top-1 resolution: the NLI's preferred reading stays the gold one.

    The benchmark tolerates one miss (``top1 >= n - 1``); the current
    system resolves all five, and this pin keeps it that way.
    """

    def test_ambiguous_fleet_top1(self, pins):
        bundle = load_bundle("fleet")
        nli = NaturalLanguageInterface(bundle.database, domain=bundle.model)
        for pin in pins["ambiguous_fleet"]:
            response = nli.ask(pin["question"])
            assert response.ok, (pin["question"], response.diagnostics)
            produced = normalize_answer(response.answer.result)
            assert produced == pin["answer"], pin["question"]


def test_pins_file_format(pins):
    assert pins["format"] == "repro-benchmark-pins"
    assert pins["version"] == 1
    assert set(pins["domains"]) == set(BENCH_DOMAINS)


if __name__ == "__main__":
    PINS_PATH.parent.mkdir(parents=True, exist_ok=True)
    PINS_PATH.write_text(json.dumps(build_pins(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINS_PATH}")
