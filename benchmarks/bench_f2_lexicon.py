"""F2 (Figure 2) — accuracy vs synonym-dictionary size (ablation A2).

Sweeps the fraction of hand-curated synonyms loaded into the lexicon;
catalog-derived names always load.  The curve shows how much of the
system's coverage comes from the auto-generated lexicon alone versus the
human vocabulary layered on top.
"""

from __future__ import annotations

from repro.core.config import NliConfig
from repro.evalkit import evaluate_nli, format_series, pct
from repro.evaluation.goldsets import load_goldset

from benchmarks.conftest import emit

FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _sweep(bundle):
    items = load_goldset(bundle.name)
    points = []
    for fraction in FRACTIONS:
        config = NliConfig(synonym_fraction=fraction)
        result = evaluate_nli(bundle, items, config=config)
        points.append(
            (f"{fraction:.2f}", [pct(result.stages.parse_rate),
                                 pct(result.stages.accuracy)])
        )
    return points


def test_f2_lexicon_sweep(benchmark, fleet_bundle):
    points = benchmark.pedantic(
        _sweep, args=(fleet_bundle,), rounds=1, iterations=1
    )
    emit("F2", format_series(
        "synonym fraction", ["parsed", "correct"], points,
        title="F2: coverage vs synonym-dictionary size (fleet corpus)",
    ))
    first = float(points[0][1][1].rstrip("%"))
    last = float(points[-1][1][1].rstrip("%"))
    # The curve must rise: synonyms buy real coverage.
    assert last >= first + 10.0
    # But the auto-generated lexicon alone already answers a solid chunk.
    assert first >= 20.0
