"""T3 (Table 3) — accuracy by linguistic/SQL construct, plus the A4
join-inference ablation (Steiner tree vs pairwise shortest paths)."""

from __future__ import annotations

from repro.core.config import NliConfig
from repro.evalkit import evaluate_nli, format_table, pct, per_feature_accuracy
from repro.evaluation.goldsets import load_goldset

from benchmarks.conftest import emit

FEATURES = [
    "select", "attr", "join", "count", "agg", "group",
    "super", "compare", "negation", "member", "nested", "order",
]


def _construct_rows(bundles):
    per_domain = {
        b.name: per_feature_accuracy(b, load_goldset(b.name)) for b in bundles
    }
    rows = []
    for feature in FEATURES:
        row = [feature]
        for bundle in bundles:
            tally = per_domain[bundle.name].get(feature)
            row.append(str(tally) if tally else "-")
        rows.append(row)
    return rows


def _ablation_rows(bundles):
    rows = []
    for mode in ("steiner", "pairwise"):
        config = NliConfig(join_inference=mode)
        accs = [
            pct(evaluate_nli(b, load_goldset(b.name), config).stages.accuracy)
            for b in bundles
        ]
        rows.append([mode, *accs])
    return rows


def test_t3_constructs(benchmark, all_bundles):
    rows = benchmark.pedantic(
        _construct_rows, args=(all_bundles,), rounds=1, iterations=1
    )
    names = [b.name for b in all_bundles]
    emit("T3", format_table(
        ["construct", *names], rows,
        title="T3: accuracy by construct (correct/total)",
    ))


def test_t3_join_ablation(benchmark, all_bundles):
    rows = benchmark.pedantic(
        _ablation_rows, args=(all_bundles,), rounds=1, iterations=1
    )
    names = [b.name for b in all_bundles]
    emit("T3-A4", format_table(
        ["join inference", *names], rows,
        title="T3/A4 ablation: Steiner-tree vs pairwise join inference",
    ))
    # On snowflake/star schemas both connect the same terminals.
    assert rows[0][1:] == rows[1][1:]
