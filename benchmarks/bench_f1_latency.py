"""F1 (Figure 1) — end-to-end latency vs question length.

The series shows per-question wall time bucketed by token count; the
pytest-benchmark timing covers a single representative question so the
suite also tracks regressions.
"""

from __future__ import annotations

import time

from repro.core.pipeline import NaturalLanguageInterface
from repro.evalkit import format_series
from repro.evaluation.goldsets import load_goldset

from benchmarks.conftest import emit


def _latency_series(bundle):
    nli = NaturalLanguageInterface(bundle.database, domain=bundle.model)
    buckets: dict[str, list[float]] = {}
    for item in load_goldset(bundle.name):
        tokens = len(item.question.split())
        if tokens <= 4:
            bucket = "2-4"
        elif tokens <= 6:
            bucket = "5-6"
        elif tokens <= 8:
            bucket = "7-8"
        else:
            bucket = "9+"
        start = time.perf_counter()
        response = nli.ask(item.question)
        elapsed = (time.perf_counter() - start) * 1000.0
        if not response.ok:
            continue
        buckets.setdefault(bucket, []).append(elapsed)
    points = []
    for bucket in ("2-4", "5-6", "7-8", "9+"):
        values = buckets.get(bucket, [])
        if not values:
            continue
        mean = sum(values) / len(values)
        points.append((bucket, [len(values), f"{mean:.1f}", f"{max(values):.1f}"]))
    return points


def test_f1_latency(benchmark, fleet_bundle):
    points = _latency_series(fleet_bundle)
    emit("F1", format_series(
        "tokens", ["questions", "mean ms", "max ms"], points,
        title="F1: end-to-end latency vs question length (fleet corpus)",
    ))
    # Interactive-rate requirement: every bucket answers well under a second.
    for _, values in points:
        assert float(values[1]) < 1000.0

    nli = NaturalLanguageInterface(
        fleet_bundle.database, domain=fleet_bundle.model
    )
    benchmark(nli.ask, "how many ships are in the pacific fleet")
