"""Aggregate functions over groups of values.

Aggregates follow SQL semantics: NULL inputs are skipped; ``COUNT(*)``
counts rows; an empty group yields NULL for everything except COUNT
(which yields 0).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ExecutionError

AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


def _non_null(values: Iterable[Any]) -> list[Any]:
    return [v for v in values if v is not None]


_NUMBER_TYPES = frozenset({int, float})


def _numeric(values: list[Any], fn_name: str) -> list[float | int]:
    if set(map(type, values)) <= _NUMBER_TYPES:
        return values  # the common case, checked in C
    out: list[float | int] = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(f"{fn_name}() requires numeric input, got {value!r}")
        out.append(value)
    return out


def agg_count(values: Iterable[Any], distinct: bool = False) -> int:
    kept = _non_null(values)
    if distinct:
        return len(set(kept))
    return len(kept)


def agg_sum(values: Iterable[Any], distinct: bool = False) -> Any:
    kept = _numeric(_non_null(values), "sum")
    if distinct:
        kept = list(set(kept))
    if not kept:
        return None
    return sum(kept)


def agg_avg(values: Iterable[Any], distinct: bool = False) -> Any:
    kept = _numeric(_non_null(values), "avg")
    if distinct:
        kept = list(set(kept))
    if not kept:
        return None
    return sum(kept) / len(kept)


def agg_min(values: Iterable[Any], distinct: bool = False) -> Any:
    kept = _non_null(values)
    if not kept:
        return None
    try:
        return min(kept)
    except TypeError as exc:
        raise ExecutionError("min() over incomparable values") from exc


def agg_max(values: Iterable[Any], distinct: bool = False) -> Any:
    kept = _non_null(values)
    if not kept:
        return None
    try:
        return max(kept)
    except TypeError as exc:
        raise ExecutionError("max() over incomparable values") from exc


AGGREGATES = {
    "count": agg_count,
    "sum": agg_sum,
    "avg": agg_avg,
    "min": agg_min,
    "max": agg_max,
}
