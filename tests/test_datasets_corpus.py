"""Dataset integrity + gold question validity tests.

The gold files embed gold SQL; every gold query of every record kind
must execute against its domain's database, and the databases must be
deterministic and referentially intact.
"""

import pytest

from repro.datasets import ALL_DOMAINS, company, fleet, geography, load_bundle
from repro.evaluation.goldsets import dialogue_scripts, load_gold_records, load_goldset
from repro.sqlengine import Engine

#: Constructs every domain's corpus exercises.
CONSTRUCTS = {
    "select",
    "count",
    "agg",
    "super",
    "compare",
    "negation",
    "member",
    "nested",
    "group",
    "order",
}


@pytest.fixture(scope="module", params=ALL_DOMAINS)
def bundle(request):
    return load_bundle(request.param)


@pytest.fixture(scope="module")
def corpus(bundle):
    return load_goldset(bundle.name)


class TestDatabases:
    def test_deterministic_build(self):
        a = fleet.build_database(seed=7)
        b = fleet.build_database(seed=7)
        assert list(a.table("ship").rows()) == list(b.table("ship").rows())

    def test_seed_changes_data(self):
        a = fleet.build_database(seed=7)
        b = fleet.build_database(seed=8)
        assert list(a.table("ship").rows()) != list(b.table("ship").rows())

    def test_referential_integrity(self, bundle):
        assert bundle.database.check_integrity() == []

    def test_row_counts(self):
        db = fleet.build_database()
        assert len(db.table("ship")) == 60
        assert len(db.table("fleet")) == 4
        db2 = company.build_database()
        assert len(db2.table("employee")) == 40
        assert len(db2.table("sale")) == 200
        db3 = geography.build_database()
        assert len(db3.table("country")) == 18

    def test_scalable_fleet(self):
        db = fleet.build_database(ships=200)
        assert len(db.table("ship")) == 200
        assert db.check_integrity() == []

    def test_ship_officer_name_overlap_exists(self):
        """The deliberate ambiguity must exist for T5 to be meaningful."""
        db = fleet.build_database()
        ships = set(db.table("ship").column_values("name"))
        officers = set(db.table("officer").column_values("name"))
        assert ships & officers

    def test_displacement_ranges_by_type(self):
        db = fleet.build_database()
        engine = Engine(db)
        carrier_min = engine.execute(
            "SELECT MIN(ship.displacement) FROM ship JOIN shiptype ON "
            "ship.type_id = shiptype.id WHERE shiptype.name = 'carrier'"
        ).scalar()
        frigate_max = engine.execute(
            "SELECT MAX(ship.displacement) FROM ship JOIN shiptype ON "
            "ship.type_id = shiptype.id WHERE shiptype.name = 'frigate'"
        ).scalar()
        assert carrier_min > frigate_max


class TestCorpora:
    def test_gold_sql_executes(self, bundle, corpus):
        engine = Engine(bundle.database)
        for item in corpus:
            result = engine.execute(item.gold_sql)
            assert result.columns, item.question

    def test_wild_gold_sql_executes(self, bundle):
        engine = Engine(bundle.database)
        wild = load_goldset(bundle.name, kind="wild")
        assert wild
        for item in wild:
            engine.execute(item.gold_sql)

    def test_dialogue_gold_sql_executes(self, bundle):
        engine = Engine(bundle.database)
        scripts = dialogue_scripts(load_gold_records(bundle.name))
        assert scripts
        for script in scripts:
            assert not script[0].followup
            for turn in script:
                engine.execute(turn.gold_sql)

    def test_corpus_size(self, corpus):
        assert len(corpus) >= 60

    def test_every_example_tagged(self, bundle, corpus):
        for item in corpus:
            assert item.tags, item.question
            assert item.domain == bundle.name

    def test_feature_coverage(self, corpus):
        tags = set()
        for item in corpus:
            tags |= set(item.tags)
        assert CONSTRUCTS <= tags

    def test_no_duplicate_questions(self, corpus):
        questions = [item.question for item in corpus]
        assert len(questions) == len(set(questions))

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown domain 'atlantis'"):
            load_bundle("atlantis")


class TestBaselinesOnCorpora:
    def test_keyword_baseline_answers_simple_lookups(self, bundle, corpus):
        from repro.baselines import KeywordBaseline
        from repro.evalkit import answers_match

        baseline = KeywordBaseline(bundle.database, bundle.model)
        engine = Engine(bundle.database)
        simple = [item for item in corpus if item.tags == ("select",)]
        assert simple
        wins = 0
        for item in simple:
            response = baseline.ask(item.question)
            gold = engine.execute(item.gold_sql)
            if response.ok and answers_match(response.answer.result, gold):
                wins += 1
        assert wins >= len(simple) // 2  # handles at least half of plain lists

    def test_keyword_baseline_fails_on_comparisons(self, bundle, corpus):
        from repro.baselines import KeywordBaseline
        from repro.evalkit import answers_match

        baseline = KeywordBaseline(bundle.database, bundle.model)
        engine = Engine(bundle.database)
        hard = [item for item in corpus if "compare" in item.tags]
        correct = 0
        for item in hard:
            response = baseline.ask(item.question)
            gold = engine.execute(item.gold_sql)
            if response.ok and answers_match(response.answer.result, gold):
                correct += 1
        assert correct <= len(hard) // 4  # structurally incapable

    def test_template_baseline_count_pattern(self):
        from repro.baselines import TemplateBaseline

        bundle = load_bundle("fleet")
        baseline = TemplateBaseline(bundle.database, bundle.model)
        response = baseline.ask("how many ships are there")
        assert response.answer.result.scalar() == 60

    def test_template_baseline_rejects_off_pattern(self):
        from repro.baselines import TemplateBaseline
        from repro.service import Status

        bundle = load_bundle("fleet")
        baseline = TemplateBaseline(bundle.database, bundle.model)
        response = baseline.ask("ships heavier than the enterprise")
        assert response.status is Status.FAILED
        assert response.error_type == "ParseFailure"
