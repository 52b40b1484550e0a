"""Plan execution and full statement evaluation.

:class:`Engine` is the public façade: it parses, plans, optimizes and runs
statements against a :class:`~repro.sqlengine.database.Database`.

There is one executor.  Every node of the access plan (scans, joins,
filters) runs as a batch kernel (:func:`~repro.sqlengine.columnar.install_kernels`),
and the plan produces a batch of row tuples; the executor then applies the
"upper" query semantics — grouping and aggregation, HAVING, projection
with star expansion, DISTINCT, ORDER BY and LIMIT — from the AST.
Every expression above the plan — projection, GROUP BY keys, grouped
items, HAVING, ORDER BY keys, UPDATE SET and INSERT VALUES — runs as a
closure from the one expression compiler
(:func:`~repro.sqlengine.columnar.compile_expr`), compiled once per
statement execution; a grouped expression compiles over a whole group
(:func:`~repro.sqlengine.columnar.compile_group_expr`).  The projection is
output rows plus one list per ORDER BY key, sorted as an index permutation
(:func:`~repro.sqlengine.types.sort_permutation`).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.errors import (
    ExecutionError,
    PlanError,
    SchemaError,
    SqlSyntaxError,
)
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.aggregates import AGGREGATE_NAMES
from repro.sqlengine.columnar import (
    Batch,
    Outer,
    RowFn,
    column_position,
    compile_expr,
    compile_group_expr,
    install_kernels,
)
from repro.sqlengine.database import Database
from repro.sqlengine.expressions import Scope
from repro.sqlengine.optimizer import install_index_hints, optimize
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.plancache import PlanCache
from repro.sqlengine.planner import (
    PlanNode,
    ScanNode,
    build_plan,
    qualify_expr,
    split_conjuncts,
)
from repro.sqlengine.result import ResultSet
from repro.sqlengine.schema import Column, ForeignKey, TableSchema
from repro.sqlengine.types import SqlType, sort_permutation
from repro.storage.transactions import TransactionManager

#: A projection: output column names, output rows, and one list per ORDER
#: BY item holding that key's value for every output row.
Projected = tuple[list[str], list[tuple[Any, ...]], list[list[Any]]]

_TYPE_NAMES = {
    "int": SqlType.INT,
    "integer": SqlType.INT,
    "float": SqlType.FLOAT,
    "real": SqlType.FLOAT,
    "double": SqlType.FLOAT,
    "text": SqlType.TEXT,
    "varchar": SqlType.TEXT,
    "char": SqlType.TEXT,
    "string": SqlType.TEXT,
    "bool": SqlType.BOOL,
    "boolean": SqlType.BOOL,
}


def _read_bindings(select: ast.Select) -> frozenset[str] | None:
    """Bindings the select list, GROUP BY, HAVING and ORDER BY read.

    None when one of them holds a ``*`` item, an unqualified column or a
    subquery, whose bindings are not known before the plan runs; the
    optimizer then keeps every join.  ``COUNT(*)`` reads no binding.
    """
    if any(isinstance(item.expr, ast.Star) for item in select.items):
        return None
    exprs = [item.expr for item in select.items] + list(select.group_by)
    if select.having is not None:
        exprs.append(select.having)
    exprs.extend(order.expr for order in select.order_by)
    found: set[str] = set()
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, (ast.InSubquery, ast.ScalarSubquery, ast.Exists)):
                return None
            if isinstance(node, ast.ColumnRef):
                if node.table is None:
                    return None
                found.add(node.table.lower())
    return frozenset(found)


def _tuple_of(fns: list[RowFn]) -> RowFn:
    """One row closure returning the tuple of ``fns``' values, in order."""
    return lambda row: tuple([fn(row) for fn in fns])


class Engine:
    """Executes SQL statements against an in-memory database.

    >>> from repro.sqlengine.database import Database
    >>> engine = Engine(Database())
    >>> engine.execute("SELECT 1 + 1 AS two").scalar()
    2
    """

    def __init__(
        self,
        database: Database,
        use_optimizer: bool = True,
        use_indexes: bool = True,
        use_plan_cache: bool = True,
        plan_cache_size: int = 256,
        max_cached_result_rows: int = 10_000,
    ) -> None:
        self.database = database
        self.use_optimizer = use_optimizer
        self.use_indexes = use_indexes
        self.plan_cache = (
            PlanCache(plan_cache_size, max_cached_result_rows)
            if use_plan_cache
            else None
        )
        #: Transaction scope: BEGIN/COMMIT/ROLLBACK routing plus the WAL
        #: record hook for committed DML/DDL (a no-op until a
        #: StorageManager attaches itself as the sink).
        self.transactions = TransactionManager(database)
        #: Per-thread stack of pinned read sources (database snapshots):
        #: concurrent readers share one Engine, each executing against its
        #: own snapshot, so the current source must be thread-local.
        self._tls = threading.local()

    def _source(self) -> Any:
        """The current read source: a pinned snapshot, or the live database."""
        stack = getattr(self._tls, "sources", None)
        return stack[-1] if stack else self.database

    # -- public API ------------------------------------------------------------

    def execute(
        self, statement: str | ast.Statement, snapshot: Any = None
    ) -> ResultSet:
        """Parse (if needed) and execute one statement.

        With ``snapshot`` (a :class:`~repro.sqlengine.snapshot.DatabaseSnapshot`),
        the statement must be a SELECT and every table read — including
        subqueries — resolves against the pinned snapshot instead of the
        live database, so the result is consistent with one version even
        while writers commit concurrently.  Plan-cache entries produced
        this way are stamped with the snapshot's table versions, so they
        can never serve rows across versions.
        """
        if snapshot is not None:
            return self._execute_pinned(statement, snapshot)
        if isinstance(statement, str):
            stmt = self._parse_cached(statement)
            if isinstance(stmt, ast.Select) and self.plan_cache is not None:
                # Reuse the raw text as the cache key so the statement and
                # its plan/result share one LRU entry and the hot path
                # avoids re-rendering the AST.
                return self._execute_select(stmt, cache_key=statement)
        else:
            stmt = statement
        if isinstance(stmt, ast.Select):
            return self._execute_select(stmt)
        if isinstance(stmt, ast.Explain):
            return self._execute_explain(stmt)
        if isinstance(stmt, ast.BeginTransaction):
            self.transactions.begin()
            return ResultSet(["status"], [("BEGIN",)])
        if isinstance(stmt, ast.CommitTransaction):
            self.transactions.commit()
            return ResultSet(["status"], [("COMMIT",)])
        if isinstance(stmt, ast.RollbackTransaction):
            self.transactions.rollback()
            return ResultSet(["status"], [("ROLLBACK",)])
        text = statement if isinstance(statement, str) else None
        if isinstance(stmt, ast.CreateTable):
            return self._execute_logged(stmt, text, self._execute_create)
        if isinstance(stmt, ast.Insert):
            return self._execute_logged(stmt, text, self._execute_insert)
        if isinstance(stmt, ast.Delete):
            return self._execute_logged(stmt, text, self._execute_delete)
        if isinstance(stmt, ast.Update):
            return self._execute_logged(stmt, text, self._execute_update)
        raise SqlSyntaxError(f"unsupported statement {type(stmt).__name__}")

    def _execute_logged(self, stmt: Any, text: str | None, runner: Any) -> ResultSet:
        """Run one DML/DDL statement and hand its SQL text to the
        transaction scope (WAL buffering, or an autocommit append).

        Mutation and record share one database statement scope, so a
        checkpoint rotation — which also holds the scope — can never
        separate a mutation from its WAL record; a due checkpoint then
        runs in ``after_statement`` off the lock.
        """
        with self.database.statement_scope():
            result = runner(stmt)
            self.transactions.record(text if text is not None else stmt.render())
        self.transactions.after_statement()
        return result

    def _execute_pinned(
        self, statement: str | ast.Statement, snapshot: Any
    ) -> ResultSet:
        """Run one SELECT with the thread's read source pinned to ``snapshot``."""
        cache_key: str | None = None
        if isinstance(statement, str):
            stmt = self._parse_cached(statement)
            cache_key = statement if self.plan_cache is not None else None
        else:
            stmt = statement
        if not isinstance(stmt, ast.Select):
            raise ExecutionError("snapshot execution supports only SELECT statements")
        stack = getattr(self._tls, "sources", None)
        if stack is None:
            stack = self._tls.sources = []
        stack.append(snapshot)
        try:
            return self._execute_select(stmt, cache_key=cache_key)
        finally:
            stack.pop()

    def explain(self, sql: str) -> str:
        """Describe the (optimized) access plan for a SELECT.

        Accepts either bare SELECT text or ``EXPLAIN SELECT ...``.  Plans
        against a *pinned snapshot* (the committed pre-transaction view
        while a transaction is open), so EXPLAIN never blocks behind a
        writer holding the commit lock; cache entries are stamped with
        the snapshot's table versions.
        """
        stmt = self._parse_cached(sql)
        cache_key: str | None = sql
        if isinstance(stmt, ast.Explain):
            stmt, cache_key = stmt.query, None
        if not isinstance(stmt, ast.Select):
            raise SqlSyntaxError("EXPLAIN supports only SELECT")
        return self._explain_plan(stmt, cache_key)

    def _explain_plan(self, select: ast.Select, cache_key: str | None) -> str:
        snapshot = self.database.snapshot()
        try:
            stack = getattr(self._tls, "sources", None)
            if stack is None:
                stack = self._tls.sources = []
            stack.append(snapshot)
            try:
                plan = self._plan_for(select, cache_key=cache_key)
            finally:
                stack.pop()
        finally:
            snapshot.close()
        if plan is None:
            return "NoTable"
        return plan.describe()

    def _execute_explain(self, stmt: ast.Explain) -> ResultSet:
        description = self._explain_plan(stmt.query, None)
        return ResultSet(["plan"], [(line,) for line in description.splitlines()])

    # -- SELECT ------------------------------------------------------------------

    def _parse_cached(self, text: str) -> ast.Statement:
        """Parse ``text``, reusing the cached AST when available.

        Parsed statements are pure functions of the text, so they are never
        invalidated — only evicted by LRU pressure.
        """
        if self.plan_cache is None:
            return parse_sql(text)
        stmt = self.plan_cache.statement(text)
        if stmt is None:
            stmt = parse_sql(text)
            self.plan_cache.store_statement(text, stmt)
        return stmt

    @staticmethod
    def _statement_key(select: ast.Select) -> str:
        """Rendered text of ``select``, memoized on the (immutable) node.

        Correlated subqueries hit this once per outer row; rendering is
        deterministic for a frozen AST, so cache it on the object.
        """
        key = getattr(select, "_rendered_key", None)
        if key is None:
            key = select.render()
            object.__setattr__(select, "_rendered_key", key)
        return key

    @staticmethod
    def _dependencies(select: ast.Select) -> frozenset[str]:
        """Tables ``select`` reads (incl. subqueries), memoized on the node."""
        deps = getattr(select, "_dep_tables", None)
        if deps is None:
            deps = ast.referenced_tables(select)
            object.__setattr__(select, "_dep_tables", deps)
        return deps

    @staticmethod
    def _reads(select: ast.Select) -> frozenset[str] | None:
        """:func:`_read_bindings` of ``select``, memoized on the node."""
        reads = getattr(select, "_read_bindings", False)
        if reads is False:
            reads = _read_bindings(select)
            object.__setattr__(select, "_read_bindings", reads)
        return reads

    def _dependency_stamps(self, select: ast.Select) -> dict[str, int]:
        """``{table: version}`` stamps for the statement's tables, as seen
        by the current read source (the pinned snapshot when executing
        against one, else the live database)."""
        source = self._source()
        stamps: dict[str, int] = {}
        for name in self._dependencies(select):
            version = source.table_version(name)
            if version is not None:
                stamps[name] = version
        return stamps

    def _plan_for(
        self, select: ast.Select, cache_key: str | None = None
    ) -> PlanNode | None:
        source = self._source()
        if self.plan_cache is not None:
            if cache_key is None:
                cache_key = self._statement_key(select)
            hit, plan = self.plan_cache.plan(cache_key, source.table_version)
            if hit:
                return plan
        plan = build_plan(select, source)
        if self.use_optimizer:
            plan = optimize(
                plan, source, use_indexes=self.use_indexes, reads=self._reads(select)
            )
        if plan is not None:
            install_kernels(plan, source)
        if self.plan_cache is not None:
            assert cache_key is not None
            self.plan_cache.store_plan(cache_key, self._dependency_stamps(select), plan)
        return plan

    def _run_subquery(self, select: ast.Select, outer: Outer) -> list[tuple[Any, ...]]:
        return self._execute_select(select, outer=outer).rows

    def _execute_select(
        self,
        select: ast.Select,
        outer: Outer = None,
        cache_key: str | None = None,
    ) -> ResultSet:
        if self.plan_cache is not None:
            if cache_key is None:
                cache_key = self._statement_key(select)
            if outer is None:
                # Top-level selects can reuse materialized results outright;
                # correlated/sub-selects depend on the outer row, so only
                # their plans are shared.
                cached = self.plan_cache.result(cache_key, self._source().table_version)
                if cached is not None:
                    columns, rows = cached
                    return ResultSet(list(columns), list(rows))
        plan = self._plan_for(select, cache_key)
        if plan is None:
            scope, batch = Scope([]), Batch([()], range(1))
        else:
            scope, batch = self._run_plan_batch(plan, outer)
        if self._is_aggregate_query(select):
            projected = self._project_groups_batch(select, scope, batch, outer)
        else:
            projected = self._project_batch(select, scope, batch, outer)
        columns, rows, keys = projected
        if select.distinct:
            if not keys:
                rows = list(dict.fromkeys(rows))
            else:
                # ORDER BY keys ride along: keep each first row's position.
                first: dict[tuple[Any, ...], int] = {}
                for position, row in enumerate(rows):
                    first.setdefault(row, position)
                if len(first) < len(rows):
                    kept = list(first.values())
                    rows = [rows[i] for i in kept]
                    keys = [[column[i] for i in kept] for column in keys]
        if select.order_by and len(rows) > 1:
            order = sort_permutation(
                keys, [item.descending for item in select.order_by]
            )
            rows = [rows[i] for i in order[: select.limit]]
        elif select.limit is not None:
            rows = rows[: select.limit]
        result = ResultSet(columns, rows)
        if cache_key is not None and outer is None and self.plan_cache is not None:
            self.plan_cache.store_result(
                cache_key,
                self._dependency_stamps(select),
                result.columns,
                result.rows,
            )
        return result

    # -- projection --------------------------------------------------------------

    def _is_aggregate_query(self, select: ast.Select) -> bool:
        if select.group_by:
            return True
        for item in select.items:
            if not isinstance(item.expr, ast.Star) and ast.contains_aggregate(
                item.expr, AGGREGATE_NAMES
            ):
                return True
        if select.having is not None:
            return True
        return False

    def _expand_items(
        self, select: ast.Select, scope: Scope
    ) -> list[tuple[ast.Expr, str]]:
        """Expand stars and name every output column."""
        out: list[tuple[ast.Expr, str]] = []
        for item in select.items:
            expr = item.expr
            if isinstance(expr, ast.Star):
                matching = [
                    (binding, column)
                    for binding, column in scope.entries
                    if expr.table is None or binding == expr.table.lower()
                ]
                if not matching:
                    raise PlanError(f"star {expr.render()!r} matches no table in scope")
                counts: dict[str, int] = {}
                for _, column in matching:
                    counts[column] = counts.get(column, 0) + 1
                for binding, column in matching:
                    name = column if counts[column] == 1 else f"{binding}.{column}"
                    out.append((ast.ColumnRef(column, table=binding), name))
                continue
            if item.alias:
                name = item.alias
            elif isinstance(expr, ast.ColumnRef):
                name = expr.name
            else:
                name = expr.render().lower()
            out.append((expr, name))
        return out

    def _order_exprs(
        self, select: ast.Select, items: list[tuple[ast.Expr, str]]
    ) -> list[tuple[ast.Expr | None, int | None]]:
        """Resolve ORDER BY items to (expr, select-item index) pairs.

        A bare identifier matching an output column name (or a 1-based
        ordinal literal) orders by the projected value; anything else is an
        expression evaluated in the row/group environment.
        """
        resolved: list[tuple[ast.Expr | None, int | None]] = []
        names = [name for _, name in items]
        for order in select.order_by:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not 0 <= index < len(items):
                    raise PlanError(f"ORDER BY ordinal {expr.value} out of range")
                resolved.append((None, index))
                continue
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name in names
            ):
                resolved.append((None, names.index(expr.name)))
                continue
            resolved.append((expr, None))
        return resolved

    def _project_batch(
        self,
        select: ast.Select,
        scope: Scope,
        batch: Batch,
        outer: Outer,
    ) -> Projected:
        """Project a batch row by row, each output and ORDER BY expression
        compiled once for the batch.

        When every output and ORDER BY expression is a plain column —
        nothing can raise, so evaluation order is unobservable — the rows
        are built column by column in C.
        """
        items = self._expand_items(select, scope)
        order = self._order_exprs(select, items)
        columns = [name for _, name in items]
        positions = [column_position(expr, scope) for expr, _ in items]
        order_positions = [
            None if expr is None else column_position(expr, scope)
            for expr, _ in order
        ]
        if None not in positions and all(
            expr is None or position is not None
            for (expr, _), position in zip(order, order_positions)
        ):
            source = batch.materialize()
            rows = list(zip(*[map(itemgetter(p), source) for p in positions]))
            keys = [
                list(map(itemgetter(index), rows))
                if position is None
                else list(map(itemgetter(position), source))
                for (_, index), position in zip(order, order_positions)
            ]
            return columns, rows, keys
        item_fns = [compile_expr(expr, scope, self, outer) for expr, _ in items]
        #: int -> projected-column index; callable -> the key's row closure.
        order_keys: list[Any] = [
            index if expr is None else compile_expr(expr, scope, self, outer)
            for expr, index in order
        ]
        rows = []
        keys = [[] for _ in order_keys]
        for r in map(batch.rows.__getitem__, batch.sel):
            row = tuple([fn(r) for fn in item_fns])
            rows.append(row)
            for column, key in zip(keys, order_keys):
                column.append(row[key] if isinstance(key, int) else key(r))
        return columns, rows, keys

    def _group_items(
        self, select: ast.Select, scope: Scope
    ) -> tuple[list[tuple[ast.Expr, str]], list[tuple[ast.Expr | None, int | None]]]:
        """Output items and ORDER BY keys of an aggregate query."""
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                raise PlanError("'*' cannot appear in an aggregate query")
        items = self._expand_items(select, scope)
        return items, self._order_exprs(select, items)

    def _project_groups_batch(
        self,
        select: ast.Select,
        scope: Scope,
        batch: Batch,
        outer: Outer,
    ) -> Projected:
        """Group a batch, then emit HAVING, the output row and the ORDER BY
        keys of each group, in first-seen group order.

        Rows stay plain tuples.  Grouped expressions compile once per
        statement, over a group row (:func:`compile_group_expr`): the
        group's first row, or all NULLs for the one empty group of an
        ungrouped aggregate over no rows, plus the group's rows.
        """
        items, order = self._group_items(select, scope)
        key_fns = [compile_expr(expr, scope, self, outer) for expr in select.group_by]
        rows = batch.materialize()
        groups: Iterable[list[tuple[Any, ...]]] = [rows]
        if key_fns:
            # Grouping by a bare value or by its 1-tuple is the same
            # partition, so a single key skips the tuple.
            key_fn = key_fns[0] if len(key_fns) == 1 else _tuple_of(key_fns)
            by_key: defaultdict[Any, list[tuple[Any, ...]]] = defaultdict(list)
            for row in rows:
                by_key[key_fn(row)].append(row)
            groups = by_key.values()
        having = (
            None
            if select.having is None
            else compile_group_expr(select.having, scope, self, outer)
        )
        item_fns = [compile_group_expr(expr, scope, self, outer) for expr, _ in items]
        #: int -> projected-column index; callable -> the key's group closure.
        order_keys: list[Any] = [
            index if expr is None else compile_group_expr(expr, scope, self, outer)
            for expr, index in order
        ]
        null_row = (None,) * len(scope)
        out_rows = []
        keys: list[list[Any]] = [[] for _ in order]
        for group in groups:
            group_row = (group[0] if group else null_row) + (group,)
            if having is not None and having(group_row) is not True:
                continue
            out = tuple([fn(group_row) for fn in item_fns])
            out_rows.append(out)
            for column, key in zip(keys, order_keys):
                column.append(out[key] if isinstance(key, int) else key(group_row))
        return [name for _, name in items], out_rows, keys

    # -- plan execution --------------------------------------------------------------

    def _run_plan_batch(self, plan: PlanNode, outer: Outer) -> tuple[Scope, Batch]:
        """Run a sub-plan through its kernel."""
        return plan._kernel(self, plan, outer)

    def _scan_candidate_ids(self, plan: ScanNode, table: Any) -> set[int] | None:
        """Row ids selected by the scan's index hints (None = all rows)."""
        candidate_ids: set[int] | None = None
        for column, value in plan.eq_filters:
            # `is None` (not `or`): index truthiness calls the O(distinct)
            # __len__, which would put a full-index sum on every lookup.
            index = table.hash_index(column)
            if index is None:
                index = table.sorted_index(column)
            assert index is not None
            ids = set(index.lookup(value))
            candidate_ids = ids if candidate_ids is None else candidate_ids & ids
        for column, values in plan.in_filters:
            # `is None` (not `or`): index truthiness calls the O(distinct)
            # __len__, which would put a full-index sum on every lookup.
            index = table.hash_index(column)
            if index is None:
                index = table.sorted_index(column)
            assert index is not None
            ids = set()
            for value in values:
                ids.update(index.lookup(value))
            candidate_ids = ids if candidate_ids is None else candidate_ids & ids
        for column, op, value in plan.range_filters:
            index = table.sorted_index(column)
            assert index is not None
            if op in ("<", "<="):
                ids = set(index.range_lookup(high=value, high_inclusive=op == "<="))
            else:
                ids = set(index.range_lookup(low=value, low_inclusive=op == ">="))
            candidate_ids = ids if candidate_ids is None else candidate_ids & ids
        return candidate_ids

    # -- DDL / DML ---------------------------------------------------------------------

    def _execute_create(self, stmt: ast.CreateTable) -> ResultSet:
        columns = []
        primary_key: str | None = None
        foreign_keys = []
        for col in stmt.columns:
            type_name = col.type_name.lower()
            if type_name not in _TYPE_NAMES:
                raise SchemaError(f"unknown type {col.type_name!r}")
            nullable = not (col.not_null or col.primary_key)
            columns.append(Column(col.name, _TYPE_NAMES[type_name], nullable))
            if col.primary_key:
                if primary_key is not None:
                    raise SchemaError("multiple PRIMARY KEY columns")
                primary_key = col.name
            if col.references is not None:
                foreign_keys.append(
                    ForeignKey(col.name, col.references[0], col.references[1])
                )
        schema = TableSchema(stmt.name, columns, primary_key, foreign_keys)
        self.database.create_table(schema)
        return ResultSet(["rows_affected"], [(0,)])

    def _const(self, expr: ast.Expr) -> Any:
        """One INSERT value: an expression over no columns."""
        return compile_expr(expr, Scope([]), self)(())

    def _execute_insert(self, stmt: ast.Insert) -> ResultSet:
        table = self.database.table(stmt.table)

        def rows() -> Iterator[dict[str, Any] | list[Any]]:
            for row_exprs in stmt.rows:
                values = [self._const(expr) for expr in row_exprs]
                if stmt.columns:
                    if len(values) != len(stmt.columns):
                        raise PlanError("INSERT column/value count mismatch")
                    yield dict(zip(stmt.columns, values))
                else:
                    if len(values) != len(table.schema.columns):
                        raise PlanError("INSERT value count mismatch")
                    yield values

        # One all-or-nothing batch: a failing row leaves the table
        # untouched, and a concurrent snapshot sees all rows or none.
        count = self.database.insert_many(stmt.table, rows())
        return ResultSet(["rows_affected"], [(count,)])

    def _matching_row_ids(self, table_name: str, where: ast.Expr | None) -> list[int]:
        """Row ids matching a DML WHERE clause, through the scan kernel.

        The predicate goes through the same index-hint installation and
        scan kernel as a SELECT scan, so UPDATE/DELETE on an indexed column
        avoids the full table scan and other conjuncts get fused selectors.
        Positions in the table's batch storage are its row ids.
        """
        table = self.database.table(table_name)
        scan = ScanNode(table.name, table.name)
        if where is not None:
            bindings = {col: [table.name] for col in table.schema.column_names}
            scan.residual_filters = split_conjuncts(qualify_expr(where, bindings))
        if self.use_optimizer and self.use_indexes:
            install_index_hints(scan, self.database)
        install_kernels(scan, self.database)
        _scope, batch = self._run_plan_batch(scan, None)
        return list(batch.sel)

    def _execute_delete(self, stmt: ast.Delete) -> ResultSet:
        table = self.database.table(stmt.table)
        ids = self._matching_row_ids(stmt.table, stmt.where)
        # One batched tombstone pass: a bulk DELETE emits a single
        # coalesced TableDelta (and one version bump) for the whole
        # statement instead of one listener callback per row.
        count = table.delete_rows(ids)
        return ResultSet(["rows_affected"], [(count,)])

    def _execute_update(self, stmt: ast.Update) -> ResultSet:
        table = self.database.table(stmt.table)
        for column, _ in stmt.assignments:
            if not table.schema.has_column(column):
                raise SchemaError(f"table {table.name!r} has no column {column!r}")
        ids = self._matching_row_ids(stmt.table, stmt.where)
        updated_rows = self._assign(table, ids, stmt.assignments)
        # In-place update: rows keep their ids and their position in the
        # table's insertion order (a delete+reinsert would move them to the
        # end and change their ids).  Routed through the database so
        # foreign keys are enforced in both directions (changed FK values
        # must match a parent; a rewritten parent key must not strand
        # children); PK and FK state are validated before mutating, so a
        # violation leaves the table untouched.
        self.database.update_rows(stmt.table, updated_rows)
        return ResultSet(["rows_affected"], [(len(ids),)])

    def _assign(
        self, table: Any, ids: list[int], assignments: tuple[tuple[str, ast.Expr], ...]
    ) -> list[tuple[int, dict[str, Any]]]:
        """``(row id, new column values)`` for each row an UPDATE matched,
        every SET expression read from the row as it was before."""
        names = table.schema.column_names
        scope = Scope([(table.name, col) for col in names])
        setters = [
            (column.lower(), compile_expr(expr, scope, self))
            for column, expr in assignments
        ]
        updated_rows = []
        for row_id in ids:
            row = table.row_by_id(row_id)
            assert row is not None
            values = dict(zip(names, row))
            for column, fn in setters:
                values[column] = fn(row)
            updated_rows.append((row_id, values))
        return updated_rows
