"""Incremental table statistics for the cost-based optimizer.

Every :class:`~repro.sqlengine.table.Table` owns a :class:`TableStatistics`
that is updated on each insert/delete/update, so the optimizer can consult
row counts, per-column distinct counts, null counts and min/max bounds
without ever scanning.

Selectivity estimation is **histogram-based**: each column maintains a
bounded summary — an equi-depth bucket histogram plus a most-common-values
(MCV) list with exact counts — rebuilt lazily from the maintained value
counts.  Equality estimates are exact for MCV values and uniform-within-
bucket otherwise; range and BETWEEN estimates walk the buckets, counting
full buckets outright and interpolating inside the boundary bucket.  Text
columns bucket like any other sortable type, so string ranges estimate
from data instead of a blanket guess.

The exact value→count substrate is itself bounded: past
:data:`MAX_TRACKED_VALUES` distinct values a column *compresses* — the
histogram/MCV summary becomes authoritative and is maintained
approximately in place, so memory stays O(MAX_TRACKED_VALUES + buckets)
no matter how wide the column grows.  Until compression, ``frequency()``
stays exact (and the maintenance tests rely on that); after it, frequency
answers are estimates.

Selectivities are returned in ``[0, 1]`` and multiply: the optimizer uses
them to order multi-join plans smallest-first and to pick hash-join build
sides.  :func:`estimate_equi_join_rows` is the join-cardinality companion:
``|L ⋈ R| = |L|·|R| / max(d(L.key), d(R.key))``, with the optimizer
supplying distinct counts sharpened by PK/FK metadata.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.sqlengine.schema import TableSchema

#: Fallback selectivity for predicates the estimator cannot classify
#: (LIKE, inequality, subqueries, ...) — the classic System R guess.
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Equi-depth bucket count for per-column histograms.
HISTOGRAM_BUCKETS = 32

#: Most-common-value entries kept with exact counts alongside the buckets.
MCV_ENTRIES = 16

#: Distinct-value bound on the exact value→count substrate; beyond it the
#: column compresses to its histogram/MCV summary (see module docstring).
MAX_TRACKED_VALUES = 16_384


class Histogram:
    """Bounded equi-depth summary of one column's non-null values.

    ``mcv`` maps the most common values to exact row counts; ``buckets``
    cover the rest as ``[low, high, rows, distinct]`` spans, sorted and
    non-overlapping.  All row-estimate methods raise ``TypeError`` when
    the probe value is not comparable with the stored bounds — callers
    translate that into their own fallback.
    """

    __slots__ = ("buckets", "mcv")

    def __init__(self, buckets: list[list[Any]], mcv: dict[Any, int]) -> None:
        self.buckets = buckets
        self.mcv = mcv

    @property
    def total_rows(self) -> float:
        return float(sum(self.mcv.values()) + sum(b[2] for b in self.buckets))

    def bucket_bounds(self) -> list[tuple[Any, Any, int, int]]:
        """``(low, high, rows, distinct)`` per bucket, for tests/diagnostics."""
        return [(b[0], b[1], b[2], b[3]) for b in self.buckets]

    # -- row estimates ------------------------------------------------------

    def eq_rows(self, value: Any) -> float:
        """Estimated rows equal to ``value`` (exact for MCV entries)."""
        count = self.mcv.get(value)
        if count is not None:
            return float(count)
        for low, high, rows, distinct in self.buckets:
            if low <= value <= high:
                return rows / max(1, distinct)
        return 0.0

    def _rows_below(self, value: Any, inclusive: bool) -> float:
        out = 0.0
        for entry, count in self.mcv.items():
            if entry < value or (inclusive and entry == value):
                out += count
        for low, high, rows, _distinct in self.buckets:
            if high < value or (inclusive and high == value):
                out += rows
            elif low < value:
                # Boundary bucket: interpolate for numeric bounds, split
                # in half otherwise (strings bucket but do not interpolate).
                if (
                    isinstance(low, (int, float))
                    and isinstance(high, (int, float))
                    and isinstance(value, (int, float))
                    and high > low
                ):
                    fraction = (value - low) / (high - low)
                    out += rows * max(0.0, min(1.0, fraction))
                else:
                    out += rows * 0.5
        return out

    def cmp_rows(self, op: str, value: Any) -> float:
        """Estimated rows satisfying ``column <op> value``."""
        if op == "<":
            return self._rows_below(value, inclusive=False)
        if op == "<=":
            return self._rows_below(value, inclusive=True)
        if op == ">":
            return max(0.0, self.total_rows - self._rows_below(value, True))
        if op == ">=":
            return max(0.0, self.total_rows - self._rows_below(value, False))
        raise ValueError(f"unknown range operator {op!r}")

    def between_rows(self, low: Any, high: Any) -> float:
        return max(0.0, self._rows_below(high, True) - self._rows_below(low, False))

    # -- approximate in-place maintenance (compressed columns) --------------

    def add_approx(self, value: Any) -> None:
        """Count one more row, widening an edge bucket when out of range."""
        try:
            count = self.mcv.get(value)
            if count is not None:
                self.mcv[value] = count + 1
                return
            if not self.buckets:
                self.buckets.append([value, value, 1, 1])
                return
            for bucket in self.buckets:
                if bucket[0] <= value <= bucket[1]:
                    bucket[2] += 1
                    return
            first, last = self.buckets[0], self.buckets[-1]
            if value < first[0]:
                first[0] = value
                first[2] += 1
            elif value > last[1]:
                last[1] = value
                last[2] += 1
            else:  # gap between buckets: extend the next bucket downward
                for bucket in self.buckets:
                    if value <= bucket[1]:
                        bucket[0] = min(bucket[0], value)
                        bucket[2] += 1
                        return
        except TypeError:
            return  # incomparable stray value: estimates-only layer, ignore

    def remove_approx(self, value: Any) -> None:
        """Discount one row; bucket bounds stay (harmless upper bounds)."""
        try:
            count = self.mcv.get(value)
            if count is not None:
                if count <= 1:
                    del self.mcv[value]
                else:
                    self.mcv[value] = count - 1
                return
            for bucket in self.buckets:
                if bucket[0] <= value <= bucket[1]:
                    bucket[2] = max(0, bucket[2] - 1)
                    return
        except TypeError:
            return

    def clone(self) -> "Histogram":
        return Histogram([list(b) for b in self.buckets], dict(self.mcv))


def _build_histogram(
    counts: dict[Any, int],
    n_buckets: int = HISTOGRAM_BUCKETS,
    mcv_entries: int = MCV_ENTRIES,
) -> Histogram | None:
    """Equi-depth histogram + MCV list from exact value counts.

    Returns ``None`` when the values are not mutually sortable (mixed
    incomparable types) — callers then keep their legacy fallbacks.
    """
    if not counts:
        return Histogram([], {})
    try:
        items = sorted(counts.items())
    except TypeError:
        return None
    if len(items) <= mcv_entries:
        return Histogram([], dict(counts))
    total = sum(count for _, count in items)
    average = total / len(items)
    # MCVs: values clearly above the average frequency, most frequent
    # first; rank-in-sorted-order breaks ties deterministically.
    ranked = sorted(range(len(items)), key=lambda i: (-items[i][1], i))[:mcv_entries]
    mcv_positions = {i for i in ranked if items[i][1] > average}
    mcv = {items[i][0]: items[i][1] for i in mcv_positions}
    rest = [items[i] for i in range(len(items)) if i not in mcv_positions]
    buckets: list[list[Any]] = []
    if rest:
        rest_total = sum(count for _, count in rest)
        depth = max(1.0, rest_total / n_buckets)
        acc_rows = 0
        acc_distinct = 0
        low = rest[0][0]
        for value, count in rest:
            if acc_rows == 0:
                low = value
            acc_rows += count
            acc_distinct += 1
            if acc_rows >= depth and len(buckets) < n_buckets - 1:
                buckets.append([low, value, acc_rows, acc_distinct])
                acc_rows = 0
                acc_distinct = 0
        if acc_rows:
            buckets.append([low, rest[-1][0], acc_rows, acc_distinct])
    return Histogram(buckets, mcv)


def estimate_equi_join_rows(
    left_rows: float,
    right_rows: float,
    left_distinct: float | None,
    right_distinct: float | None,
) -> float:
    """Classic equi-join cardinality: ``|L|·|R| / max(d_l, d_r)``.

    Falls back to ``max(|L|, |R|)`` when neither key's distinct count is
    known.  The optimizer sharpens the distinct counts with PK/FK
    metadata: a PK key has exactly ``row_count`` distincts, and an FK
    key's distincts are capped by the parent's row count.
    """
    d = max(left_distinct or 0.0, right_distinct or 0.0)
    if d <= 0.0:
        return max(left_rows, right_rows)
    return left_rows * right_rows / d


class ColumnStats:
    """Distinct/null counts, min/max bounds and a histogram for one column.

    Maintained incrementally: :meth:`add` / :meth:`remove` are called by the
    owning table for every row mutation.  Min/max are recomputed lazily only
    when a deletion removes the current extremum; the histogram is rebuilt
    lazily on the next estimate after any mutation.  Past
    :attr:`max_tracked` distinct values the column compresses (see module
    docstring): ``_counts`` shrinks to the MCV entries and the histogram is
    maintained approximately in place.
    """

    __slots__ = (
        "_counts",
        "_nulls",
        "_non_null",
        "_min",
        "_max",
        "_extrema_dirty",
        "_hist",
        "_hist_dirty",
        "_compressed",
        "_distinct_est",
        "_new_ratio",
    )

    #: Class-level so tests can lower it to exercise compression cheaply.
    max_tracked = MAX_TRACKED_VALUES

    def __init__(self) -> None:
        self._counts: dict[Any, int] = {}
        self._nulls = 0
        self._non_null = 0
        self._min: Any = None
        self._max: Any = None
        self._extrema_dirty = False
        self._hist: Histogram | None = None
        self._hist_dirty = True
        self._compressed = False
        self._distinct_est = 0.0
        self._new_ratio = 1.0

    # -- maintenance -------------------------------------------------------

    def add(self, value: Any) -> None:
        if value is None:
            self._nulls += 1
            return
        self._non_null += 1
        if not self._extrema_dirty:
            try:
                if self._min is None or value < self._min:
                    self._min = value
                if self._max is None or value > self._max:
                    self._max = value
            except TypeError:  # mixed types; fall back to lazy recompute
                self._extrema_dirty = True
        if self._compressed:
            count = self._counts.get(value)
            if count is not None:
                self._counts[value] = count + 1
            else:
                assert self._hist is not None
                self._hist.add_approx(value)
                self._distinct_est += self._new_ratio
            return
        self._counts[value] = self._counts.get(value, 0) + 1
        self._hist_dirty = True
        if len(self._counts) > self.max_tracked:
            self._compress()

    def remove(self, value: Any) -> None:
        if value is None:
            self._nulls = max(0, self._nulls - 1)
            return
        if self._compressed:
            self._non_null = max(0, self._non_null - 1)
            count = self._counts.get(value)
            if count is not None:
                if count <= 1:
                    del self._counts[value]
                else:
                    self._counts[value] = count - 1
            else:
                assert self._hist is not None
                self._hist.remove_approx(value)
                self._distinct_est = max(
                    float(len(self._counts)), self._distinct_est - self._new_ratio
                )
            if value == self._min or value == self._max:
                self._extrema_dirty = True
            return
        count = self._counts.get(value)
        if count is None:
            return
        self._non_null = max(0, self._non_null - 1)
        self._hist_dirty = True
        if count <= 1:
            del self._counts[value]
            # The extremum may have left the column; recompute on demand.
            if value == self._min or value == self._max:
                self._extrema_dirty = True
        else:
            self._counts[value] = count - 1

    def _compress(self) -> None:
        """Swap the exact substrate for its bounded histogram summary."""
        hist = _build_histogram(self._counts)
        if hist is None:
            return  # incomparable values cannot bucket; keep exact counts
        self._distinct_est = float(len(self._counts))
        self._new_ratio = (
            min(1.0, len(self._counts) / self._non_null) if self._non_null else 1.0
        )
        self._hist = hist
        self._hist_dirty = False
        self._counts = hist.mcv  # the retained exact entries, shared
        self._compressed = True

    def _refresh_extrema(self) -> None:
        if self._compressed:
            assert self._hist is not None
            candidates = list(self._counts)
            if self._hist.buckets:
                candidates.append(self._hist.buckets[0][0])
                candidates.append(self._hist.buckets[-1][1])
            try:
                self._min = min(candidates) if candidates else None
                self._max = max(candidates) if candidates else None
            except TypeError:
                self._min = self._max = None
            self._extrema_dirty = False
            return
        if not self._counts:
            self._min = self._max = None
        else:
            try:
                self._min = min(self._counts)
                self._max = max(self._counts)
            except TypeError:
                self._min = self._max = None
        self._extrema_dirty = False

    # -- accessors ---------------------------------------------------------

    @property
    def compressed(self) -> bool:
        """True once the column dropped its exact substrate (bounded mode)."""
        return self._compressed

    @property
    def distinct(self) -> int:
        if self._compressed:
            return max(len(self._counts), int(round(self._distinct_est)))
        return len(self._counts)

    @property
    def null_count(self) -> int:
        return self._nulls

    @property
    def non_null_count(self) -> int:
        return self._non_null

    @property
    def min_value(self) -> Any:
        if self._extrema_dirty:
            self._refresh_extrema()
        return self._min

    @property
    def max_value(self) -> Any:
        if self._extrema_dirty:
            self._refresh_extrema()
        return self._max

    def frequency(self, value: Any) -> int:
        """Live rows holding ``value``: exact until the column compresses,
        a histogram estimate afterwards."""
        if value is None:
            return self._nulls
        if self._compressed:
            count = self._counts.get(value)
            if count is not None:
                return count
            assert self._hist is not None
            try:
                return int(round(self._hist.eq_rows(value)))
            except TypeError:
                return 0
        return self._counts.get(value, 0)

    def histogram(self) -> Histogram | None:
        """The column's bounded summary, rebuilt lazily after mutations.

        ``None`` when the values are not mutually sortable — estimation
        then falls back to pre-histogram behaviour.
        """
        if self._compressed:
            return self._hist
        if self._hist_dirty:
            self._hist = _build_histogram(self._counts)
            self._hist_dirty = False
        return self._hist

    def clone(self) -> ColumnStats:
        """Independent copy, used when a COW table detaches from a snapshot."""
        out = ColumnStats()
        out._nulls = self._nulls
        out._non_null = self._non_null
        out._min = self._min
        out._max = self._max
        out._extrema_dirty = self._extrema_dirty
        out._hist = self._hist.clone() if self._hist is not None else None
        out._hist_dirty = self._hist_dirty
        out._compressed = self._compressed
        out._distinct_est = self._distinct_est
        out._new_ratio = self._new_ratio
        if self._compressed and out._hist is not None:
            out._counts = out._hist.mcv  # keep the MCV aliasing invariant
        else:
            out._counts = dict(self._counts)
        return out


class TableStatistics:
    """Row count plus per-column :class:`ColumnStats` for one table.

    :attr:`version` is a monotone stamp bumped by every stats-changing
    mutation of *this* table, mirroring the owning table's per-table
    version: consumers that cache derived estimates (cardinalities, join
    orders) can key their validity on it without watching other tables.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._row_count = 0
        self._version = 0
        self._columns: dict[str, ColumnStats] = {
            name: ColumnStats() for name in schema.column_names
        }

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def version(self) -> int:
        """Monotone stamp bumped whenever these statistics change."""
        return self._version

    def clone(self) -> TableStatistics:
        """Independent copy sharing only the (immutable) schema.

        Taken by :meth:`Table._materialise_for_write` so a pinned snapshot
        keeps consistent statistics while the live table's copy keeps
        updating incrementally.
        """
        out = TableStatistics.__new__(TableStatistics)
        out.schema = self.schema
        out._row_count = self._row_count
        out._version = self._version
        out._columns = {name: col.clone() for name, col in self._columns.items()}
        return out

    def column(self, name: str) -> ColumnStats:
        return self._columns[name.lower()]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._columns

    def column_distinct(self, name: str) -> int | None:
        """Distinct count for a column, or None when unknown."""
        stats = self._columns.get(name.lower())
        return None if stats is None else stats.distinct

    # -- hooks called by Table ---------------------------------------------

    def on_insert_many(self, rows: list[tuple[Any, ...]]) -> None:
        """Count a batch of inserted rows, column by column.

        Each column sees its values in row order, so the result — counts,
        extrema, the compression point and the compressed summary — is
        exactly that of one insert at a time.
        """
        self._row_count += len(rows)
        self._version += len(rows)
        for name, values in zip(self.schema.column_names, zip(*rows)):
            add = self._columns[name].add
            for value in values:
                add(value)

    def on_delete(self, row: tuple[Any, ...]) -> None:
        self._row_count = max(0, self._row_count - 1)
        self._version += 1
        for name, value in zip(self.schema.column_names, row):
            self._columns[name].remove(value)

    def on_update(self, old: tuple[Any, ...], new: tuple[Any, ...]) -> None:
        self._version += 1
        for name, before, after in zip(self.schema.column_names, old, new):
            if before is not after and before != after:
                stats = self._columns[name]
                stats.remove(before)
                stats.add(after)

    # -- selectivity estimation --------------------------------------------

    def eq_selectivity(self, column: str, value: Any) -> float:
        """Fraction of rows expected to satisfy ``column = value``."""
        if self._row_count == 0:
            return 0.0
        stats = self._columns.get(column.lower())
        if stats is None:
            return DEFAULT_SELECTIVITY
        if value is None:
            return 0.0  # `= NULL` never matches
        hist = stats.histogram()
        if hist is None:
            # Unsortable values: fall back to the exact substrate.
            try:
                return min(1.0, stats.frequency(value) / self._row_count)
            except TypeError:  # unhashable — should not happen for SQL values
                distinct = stats.distinct
                return 1.0 / distinct if distinct else DEFAULT_SELECTIVITY
        try:
            return min(1.0, hist.eq_rows(value) / self._row_count)
        except TypeError:
            return 0.0  # type-mismatched literal can never equal a value

    def in_selectivity(self, column: str, values: Iterable[Any]) -> float:
        return min(1.0, sum(self.eq_selectivity(column, v) for v in values))

    def range_selectivity(self, column: str, op: str, value: Any) -> float:
        """Fraction of rows expected to satisfy ``column <op> value``.

        Histogram-driven: full buckets count outright, the boundary bucket
        interpolates (numeric) or splits in half (text).  Falls back to
        :data:`DEFAULT_SELECTIVITY` when the column has no histogram or the
        probe value is not comparable with it.
        """
        if self._row_count == 0:
            return 0.0
        stats = self._columns.get(column.lower())
        if stats is None or value is None:
            return DEFAULT_SELECTIVITY
        hist = stats.histogram()
        if hist is None:
            return DEFAULT_SELECTIVITY
        try:
            rows = hist.cmp_rows(op, value)
        except TypeError:
            return DEFAULT_SELECTIVITY
        return max(0.0, min(1.0, rows / self._row_count))

    def between_selectivity(self, column: str, low: Any, high: Any) -> float:
        if self._row_count == 0:
            return 0.0
        stats = self._columns.get(column.lower())
        if stats is None or low is None or high is None:
            return DEFAULT_SELECTIVITY
        hist = stats.histogram()
        if hist is None:
            return DEFAULT_SELECTIVITY
        try:
            rows = hist.between_rows(low, high)
        except TypeError:
            return DEFAULT_SELECTIVITY
        return max(0.0, min(1.0, rows / self._row_count))

    def describe(self) -> str:
        """Human-readable dump used by diagnostics and tests."""
        lines = [f"{self.schema.name}: {self._row_count} rows"]
        for name in self.schema.column_names:
            stats = self._columns[name]
            lines.append(
                f"  {name}: distinct={stats.distinct} nulls={stats.null_count}"
                f" min={stats.min_value!r} max={stats.max_value!r}"
            )
        return "\n".join(lines)
