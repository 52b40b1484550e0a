"""F3 (Figure 3) — robustness to typos, with/without spelling correction
(ablation A1)."""

from __future__ import annotations

import random

from repro.core.config import NliConfig
from repro.core.pipeline import NaturalLanguageInterface
from repro.evalkit import answers_match, corrupt_question, format_series, pct
from repro.evaluation.goldsets import load_goldset
from repro.sqlengine.executor import Engine

from benchmarks.conftest import emit

RATES = (0.0, 0.1, 0.2, 0.3)


def _accuracy_at(bundle, items, nli, rate: float, seed: int) -> float:
    rng = random.Random(seed)
    gold_engine = Engine(bundle.database)
    correct = 0
    for item in items:
        question = corrupt_question(item.question, rate, rng)
        gold = gold_engine.execute(item.gold_sql)
        response = nli.ask(question)
        if response.ok and answers_match(response.answer.result, gold):
            correct += 1
    return correct / len(items)


def _sweep(bundle):
    with_corr = NaturalLanguageInterface(
        bundle.database, domain=bundle.model,
        config=NliConfig(spelling_correction=True),
    )
    without_corr = NaturalLanguageInterface(
        bundle.database, domain=bundle.model,
        config=NliConfig(spelling_correction=False),
    )
    items = load_goldset(bundle.name)
    points = []
    for rate in RATES:
        on = _accuracy_at(bundle, items, with_corr, rate, seed=42)
        off = _accuracy_at(bundle, items, without_corr, rate, seed=42)
        points.append((f"{int(rate * 100)}%", [pct(on), pct(off)]))
    return points


def test_f3_spelling_robustness(benchmark, fleet_bundle):
    points = benchmark.pedantic(
        _sweep, args=(fleet_bundle,), rounds=1, iterations=1
    )
    emit("F3", format_series(
        "typo rate", ["correction ON", "correction OFF"], points,
        title="F3: accuracy vs word-corruption rate (fleet corpus)",
    ))
    # At zero corruption both configurations agree...
    assert points[0][1][0] == points[0][1][1]
    # ...and under corruption the corrector recovers a clear margin.
    on_20 = float(points[2][1][0].rstrip("%"))
    off_20 = float(points[2][1][1].rstrip("%"))
    assert on_20 > off_20 + 10.0
