"""T4 (Table 4) — elliptical follow-up resolution in scripted dialogues.

The sessions are the ``dialogue`` records of each domain's gold file.
"""

from __future__ import annotations

from repro.evalkit import evaluate_dialogues, format_table
from repro.evaluation.goldsets import dialogue_scripts, load_gold_records

from benchmarks.conftest import emit


def _rows(bundles):
    rows = []
    for bundle in bundles:
        scripts = dialogue_scripts(load_gold_records(bundle.name))
        outcome = evaluate_dialogues(bundle, scripts)
        rows.append([
            bundle.name,
            len(scripts),
            str(outcome.first_turns),
            str(outcome.followups),
        ])
    return rows


def test_t4_dialogue(benchmark, all_bundles):
    rows = benchmark.pedantic(_rows, args=(all_bundles,), rounds=1, iterations=1)
    table = format_table(
        ["domain", "sessions", "first turns", "follow-ups (ellipsis/pronoun)"],
        rows,
        title="T4: dialogue — scripted sessions, follow-up resolution",
    )
    emit("T4", table)
    for row in rows:
        followup_acc = float(row[3].split("(")[1].rstrip("%)"))
        assert followup_acc >= 80.0
