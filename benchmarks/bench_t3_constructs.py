"""T3 (Table 3) — accuracy by linguistic/SQL construct."""

from __future__ import annotations

from repro.evalkit import format_table, per_feature_accuracy
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


def test_t3_constructs(benchmark, all_bundles):
    rows = benchmark.pedantic(
        _construct_rows, args=(all_bundles,), rounds=1, iterations=1
    )
    names = [b.name for b in all_bundles]
    emit("T3", format_table(
        ["construct", *names], rows,
        title="T3: accuracy by construct (correct/total)",
    ))

