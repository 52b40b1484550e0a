"""T2 (Table 2) — end-to-end answer accuracy vs the two baselines.

The semantic-grammar system must beat keyword lookup and pattern
templates by a wide margin on every domain (the paper generation's core
claim for grammar-based NLIDB).
"""

from __future__ import annotations

from repro.baselines import KeywordBaseline, TemplateBaseline
from repro.evalkit import evaluate_nli, evaluate_system, format_table, pct
from repro.evaluation.goldsets import load_goldset

from benchmarks.conftest import emit


def _rows(bundles):
    rows = []
    for bundle in bundles:
        items = load_goldset(bundle.name)
        nli = evaluate_nli(bundle, items).stages.accuracy
        keyword = evaluate_system(
            KeywordBaseline(bundle.database, bundle.model), bundle, items
        ).accuracy
        template = evaluate_system(
            TemplateBaseline(bundle.database, bundle.model), bundle, items
        ).accuracy
        rows.append([
            bundle.name, len(items), pct(nli), pct(keyword), pct(template),
        ])
    return rows


def test_t2_accuracy(benchmark, all_bundles):
    rows = benchmark.pedantic(_rows, args=(all_bundles,), rounds=1, iterations=1)
    table = format_table(
        ["domain", "n", "semantic-grammar NLI", "keyword lookup", "templates"],
        rows,
        title="T2: answer accuracy, NLI vs baselines",
    )
    emit("T2", table)
    for row in rows:
        nli, keyword, template = (float(row[i].rstrip("%")) for i in (2, 3, 4))
        assert nli > keyword + 20.0
        assert nli > template + 20.0
