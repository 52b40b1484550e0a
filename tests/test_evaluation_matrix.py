"""The evaluation matrix: gold files, runner cells, aggregation, CI gate.

The committed gold JSONL files are data — these tests keep them honest
(loadable, in-format, rejecting malformed records, and still agreeing
with their own gold SQL for every record kind) and
exercise the (domain × configuration) machinery on a few real cells so
the CI job cannot be green while the matrix is broken.
"""

import json

import pytest

from repro.datasets import ALL_DOMAINS, load_bundle
from repro.evaluation import (
    CellResult,
    GoldItem,
    cell_questions,
    get_configuration,
    load_gold_records,
    load_goldset,
    run_cell,
)
from repro.evaluation.collect_results import (
    BASELINE_PATH,
    check_baseline,
    matrix_json,
    matrix_markdown,
)
from repro.evaluation.goldsets import GOLD_DIR, gold_path, write_goldset
from repro.evaluation.make_gold import refresh_answers
from repro.sqlengine import Engine


@pytest.fixture(scope="module", params=ALL_DOMAINS)
def domain(request):
    return request.param


def _record(question, kind=None, **fields):
    """A minimal gold record; ``fields`` carry a dialogue turn's
    ``script``/``followup``."""
    record = {"kind": kind, **fields} if kind else {}
    return {
        **record,
        "question": question,
        "gold_sql": "SELECT 1",
        "tags": [],
        "columns": 1,
        "answer": [[1]],
    }


def _write_gold(directory, records):
    """A fleet gold file in ``directory``: a valid header, then ``records``."""
    header = {"format": "repro-gold", "version": 2, "domain": "fleet"}
    lines = [json.dumps({**header, "count": len(records)})]
    lines += [json.dumps(record) for record in records]
    gold_path("fleet", directory).write_text("\n".join(lines) + "\n")


class TestGoldFiles:
    def test_committed_gold_file_loads(self, domain):
        items = load_goldset(domain)
        assert len(items) >= 60
        for item in items:
            assert item.question and item.gold_sql and item.tags
            assert item.columns >= 1

    def test_stored_answers_still_match_gold_sql(self, domain):
        """Integrity: every stored answer, of every kind, is what its gold
        SQL produces today."""
        records = load_gold_records(domain)
        assert {"corpus", "wild", "dialogue"} <= {r.kind for r in records}
        engine = Engine(load_bundle(domain).database)
        for item in records:
            produced = engine.execute(item.gold_sql)
            assert len(produced.columns) == item.columns, item.question
            assert produced.answer_set() == item.answer_set, item.question

    def test_roundtrip(self, tmp_path):
        """load -> write -> load keeps every record of every kind, and the
        committed files are already in the writer's exact bytes."""
        for name in ALL_DOMAINS:
            records = load_gold_records(name)
            write_goldset(records, gold_path(name, tmp_path))
            assert load_gold_records(name, tmp_path) == records
            written = gold_path(name, tmp_path).read_bytes()
            assert written == gold_path(name).read_bytes()
        fleet_kinds = {r.kind for r in load_gold_records("fleet", tmp_path)}
        assert fleet_kinds == {"corpus", "wild", "dialogue", "ambiguous"}

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(ValueError, match="not a repro-gold"):
            load_goldset("fleet", tmp_path)

    def test_unknown_domain_is_rejected(self):
        with pytest.raises(ValueError, match="unknown domain 'atlantis'.*saas"):
            load_goldset("atlantis")

    def test_unknown_kind_is_rejected(self, tmp_path):
        _write_gold(tmp_path, [_record("q1"), _record("q2", kind="trivia")])
        with pytest.raises(ValueError, match=r"fleet\.jsonl:3: unknown kind 'trivia'"):
            load_gold_records("fleet", tmp_path)

    def test_dialogue_opening_with_followup_is_rejected(self, tmp_path):
        records = [
            _record("q1", "dialogue", script=1, followup=False),
            _record("q2", "dialogue", script=1, followup=True),
            _record("q3", "dialogue", script=2, followup=True),
        ]
        _write_gold(tmp_path, records)
        with pytest.raises(ValueError, match=r"\.jsonl:4: dialogue script 2 opens"):
            load_gold_records("fleet", tmp_path)

    @pytest.mark.parametrize("kind", [None, "wild"])
    def test_duplicate_question_is_rejected(self, tmp_path, kind):
        records = [_record("q1", kind), _record("q2", kind), _record("q1", kind)]
        _write_gold(tmp_path, records)
        with pytest.raises(ValueError, match=r"\.jsonl:4: duplicate .* 'q1'"):
            load_gold_records("fleet", tmp_path)

    def test_question_may_repeat_across_kinds(self, tmp_path):
        records = [_record("q1", kind) for kind in (None, "wild", "ambiguous")]
        records.append(_record("q1", "dialogue", script=0, followup=False))
        records.append(_record("q1", "dialogue", script=0, followup=True))
        _write_gold(tmp_path, records)
        assert len(load_gold_records("fleet", tmp_path)) == 5

    def test_refresh_rewrites_only_changed_answers(self, tmp_path):
        records = load_gold_records("fleet")
        write_goldset(records, gold_path("fleet", tmp_path))
        assert refresh_answers("fleet", tmp_path) == []
        lines = gold_path("fleet", tmp_path).read_text().splitlines()
        stale = json.loads(lines[-1])
        stale["answer"] = [["Nobody"]]
        lines[-1] = json.dumps(stale)
        gold_path("fleet", tmp_path).write_text("\n".join(lines) + "\n")
        changed = refresh_answers("fleet", tmp_path)
        assert [item.question for item in changed] == [records[-1].question]
        assert load_gold_records("fleet", tmp_path) == records

    def test_all_domains_have_committed_files(self):
        committed = {p.stem for p in GOLD_DIR.glob("*.jsonl")}
        assert committed == set(ALL_DOMAINS)


class TestCellQuestions:
    def test_clean_configuration_is_identity(self):
        items = load_goldset("fleet")
        config = get_configuration("nli")
        assert cell_questions("fleet", config, items) == [i.question for i in items]

    def test_corruption_is_reproducible(self):
        items = load_goldset("fleet")
        config = get_configuration("nli-corrupt")
        first = cell_questions("fleet", config, items)
        second = cell_questions("fleet", config, items)
        assert first == second
        assert first != [i.question for i in items]

    def test_corruption_is_per_domain(self):
        """Different domains draw from independent RNG streams."""
        config = get_configuration("nli-corrupt")
        fleet = cell_questions("fleet", config, load_goldset("fleet"))
        saas = cell_questions("saas", config, load_goldset("saas"))
        assert fleet != saas


class TestRunCell:
    def test_nli_cell_is_perfect_on_clean_questions(self):
        cell = run_cell("saas", get_configuration("nli"))
        assert cell.total >= 60
        assert cell.accuracy == 1.0
        assert cell.gold_drift == 0
        assert cell.clarifications == 0

    def test_steiner_join_questions_answered(self):
        """The new schemas answer cross-table (2-hop) join questions."""
        for name in ("saas", "events"):
            items = [item for item in load_goldset(name) if "join" in item.tags]
            assert items, f"{name} has no join questions"
            cell = run_cell(name, get_configuration("nli"), items)
            assert cell.accuracy == 1.0, (name, cell.misses)

    def test_wide_margin_cell_takes_clarification_path(self):
        cell = run_cell("fleet", get_configuration("nli-clarify-0.75"))
        assert cell.clarifications > 0
        assert cell.resolved_correct > cell.strict_correct
        # Every clarification offered the gold reading among its choices.
        assert cell.taxonomy["clarification_miss"] == 0
        assert cell.resolved_accuracy == 1.0

    def test_keyword_cell_fails_structurally(self):
        cell = run_cell("events", get_configuration("keyword"))
        assert 0.0 < cell.accuracy < 1.0
        assert sum(cell.taxonomy.values()) == cell.total - cell.strict_correct
        assert cell.misses


def _cell(configuration, domain, correct, total=10):
    return CellResult(
        domain=domain,
        configuration=configuration,
        total=total,
        strict_correct=correct,
        resolved_correct=correct,
    )


class TestAggregation:
    def test_matrix_json_shape(self):
        cells = [_cell("nli", d, 10) for d in ALL_DOMAINS]
        document = matrix_json(cells)
        assert set(document["cells"]["nli"]) == set(ALL_DOMAINS)
        assert document["cells"]["nli"]["fleet"]["accuracy"] == 1.0

    def test_matrix_markdown_covers_every_cell(self):
        cells = [
            _cell(c, d, 5)
            for c in ("nli", "keyword", "template")
            for d in ALL_DOMAINS
        ]
        markdown = matrix_markdown(cells)
        for d in ALL_DOMAINS:
            assert d in markdown
        assert "| `nli` |" in markdown
        assert "50.0%" in markdown


class TestBaselineGate:
    def _baseline(self, tmp_path, cells):
        path = tmp_path / "baseline_matrix.json"
        path.write_text(json.dumps(matrix_json(cells)))
        return path

    def test_equal_accuracy_passes(self, tmp_path):
        cells = [_cell("nli", "fleet", 8)]
        path = self._baseline(tmp_path, cells)
        assert check_baseline(cells, path) == []

    def test_improvement_passes(self, tmp_path):
        path = self._baseline(tmp_path, [_cell("nli", "fleet", 8)])
        assert check_baseline([_cell("nli", "fleet", 9)], path) == []

    def test_drop_is_flagged(self, tmp_path):
        path = self._baseline(tmp_path, [_cell("nli", "fleet", 8)])
        problems = check_baseline([_cell("nli", "fleet", 7)], path)
        assert len(problems) == 1
        assert "regressed" in problems[0]

    def test_missing_cell_is_flagged(self, tmp_path):
        cells = [_cell("nli", "fleet", 8), _cell("nli", "saas", 8)]
        path = self._baseline(tmp_path, cells)
        problems = check_baseline([_cell("nli", "fleet", 8)], path)
        assert problems == ["cell (nli, saas) missing from this run"]

    def test_new_cell_without_baseline_passes(self, tmp_path):
        path = self._baseline(tmp_path, [_cell("nli", "fleet", 8)])
        extra = [_cell("nli", "fleet", 8), _cell("nli", "events", 1)]
        assert check_baseline(extra, path) == []

    def test_committed_baseline_covers_full_matrix(self):
        """Every (configuration, domain) cell has a recorded floor."""
        baseline = json.loads(BASELINE_PATH.read_text())
        from repro.evaluation import CONFIGURATION_NAMES

        assert set(baseline["cells"]) == set(CONFIGURATION_NAMES)
        for domains in baseline["cells"].values():
            assert set(domains) == set(ALL_DOMAINS)


class TestGoldItemApi:
    def test_answer_set_is_hash_comparable(self):
        item = GoldItem(
            domain="fleet",
            question="q",
            gold_sql="s",
            tags=("select",),
            columns=1,
            answer=((1,), (2,)),
        )
        assert item.answer_set == frozenset({(1,), (2,)})
