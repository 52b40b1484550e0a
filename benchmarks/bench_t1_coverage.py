"""T1 (Table 1) — grammar coverage per domain.

Columns: questions, % parsed, % interpreted, % executed, % correct;
separate rows for the in-grammar corpora and the unrestricted "wild"
phrasing sets (era systems reported exactly this split).  Both sets are
the corpus and ``wild`` records of each domain's gold file.
"""

from __future__ import annotations

from repro.evalkit import evaluate_nli, format_table, pct
from repro.evaluation.goldsets import load_goldset

from benchmarks.conftest import emit


def _rows(bundles):
    rows = []
    for bundle in bundles:
        for label in ("corpus", "wild"):
            result = evaluate_nli(bundle, load_goldset(bundle.name, kind=label))
            stages = result.stages
            rows.append([
                bundle.name, label, stages.total,
                pct(stages.parse_rate), pct(stages.interpret_rate),
                pct(stages.execute_rate), pct(stages.accuracy),
            ])
    return rows


def test_t1_coverage(benchmark, all_bundles):
    rows = benchmark.pedantic(_rows, args=(all_bundles,), rounds=1, iterations=1)
    table = format_table(
        ["domain", "set", "n", "parsed", "interpreted", "executed", "correct"],
        rows,
        title="T1: grammar coverage (tokenise -> parse -> interpret -> execute)",
    )
    emit("T1", table)
    # Reproduction shape: near-total coverage on in-grammar corpora,
    # clearly lower on unrestricted phrasing.
    corpus_rows = [r for r in rows if r[1] == "corpus"]
    wild_rows = [r for r in rows if r[1] == "wild"]
    for row in corpus_rows:
        assert float(row[6].rstrip("%")) >= 90.0
    for row in wild_rows:
        assert float(row[6].rstrip("%")) <= 90.0
