"""A row plan interpreter with a tree-walking expression evaluator: the
oracle for the batch kernels and the expression compiler.

Each operator materializes a list of row tuples, and every expression —
predicates, join keys, projections, group keys, grouped items, HAVING,
ORDER BY keys, UPDATE SET and INSERT VALUES — is evaluated by walking its
tree (:class:`Evaluator`) over one :class:`Env` per row.  An ``Env``
chains to the enclosing rows, so a correlated subquery's outer
references are looked up per row, innermost first, and an unknown or
ambiguous name raises when a row reaches it.  It is slow but simple
enough to read as the definition of what a statement computes, which is
what ``tests/test_columnar_differential.py`` needs: :class:`Engine` must
return the same rows, in the same order, or raise the same error, as
:class:`RowEngine`.  The two share no evaluation code — this module never
calls the compiler, a kernel, or the engine's group emission.  Test-only —
it is not part of the package.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from repro.errors import ExecutionError, UnknownColumnError
from repro.sqlengine import Engine
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.aggregates import AGGREGATE_NAMES, AGGREGATES
from repro.sqlengine.columnar import Batch
from repro.sqlengine.executor import Projected
from repro.sqlengine.expressions import Scope, like_to_regex
from repro.sqlengine.functions import SCALAR_FUNCTIONS
from repro.sqlengine.optimizer import install_index_hints, optimize
from repro.sqlengine.planner import (
    FilterNode,
    HashJoinNode,
    JoinNode,
    PlanNode,
    ReorderNode,
    ScanNode,
    SemiJoinNode,
    build_plan,
    qualify_expr,
    split_conjuncts,
)
from repro.sqlengine.types import compare_values

# ==========================================================================
# Expression evaluation over row environments
# ==========================================================================


class Env:
    """One row's values under a scope, chaining to an outer environment."""

    __slots__ = ("scope", "row", "outer")

    def __init__(
        self, scope: Scope, row: tuple[Any, ...], outer: "Env | None" = None
    ) -> None:
        self.scope = scope
        self.row = row
        self.outer = outer

    def lookup(self, column: str, table: str | None = None) -> Any:
        position = self.scope.resolve(column, table)
        if position is not None:
            return self.row[position]
        if self.outer is not None:
            return self.outer.lookup(column, table)
        qualifier = f"{table}." if table else ""
        raise UnknownColumnError(f"unknown column {qualifier}{column!r}")


#: Signature of the hook the evaluator calls to run a subquery.
SubqueryRunner = Callable[[ast.Select, Env], list[tuple[Any, ...]]]


def _arith(left: Any, right: Any, fn: Callable[[Any, Any], Any], op: str) -> Any:
    ok_left = isinstance(left, (int, float)) and not isinstance(left, bool)
    ok_right = isinstance(right, (int, float)) and not isinstance(right, bool)
    if not (ok_left and ok_right):
        raise ExecutionError(
            f"arithmetic {op!r} needs numbers, got {left!r} and {right!r}"
        )
    return fn(left, right)


def _truncated_mod(left: Any, right: Any) -> Any:
    """The remainder of division truncated toward zero: Python's floored
    remainder, moved by one divisor when the operands' signs differ."""
    if isinstance(left, float) or isinstance(right, float):
        return math.fmod(left, right) or 0.0
    remainder = left % right
    if remainder and (left < 0) != (right < 0):
        remainder -= right
    return remainder


class Evaluator:
    """Evaluates :mod:`ast_nodes` expressions against an :class:`Env`.

    SQL three-valued logic: ``None`` propagates through comparisons and
    arithmetic, and ``AND``/``OR`` follow Kleene semantics.
    ``subquery_runner`` executes a SELECT for subquery expressions, with
    the current env passed as the correlation context.
    """

    def __init__(self, subquery_runner: SubqueryRunner) -> None:
        self._run_subquery = subquery_runner

    def evaluate(self, expr: ast.Expr, env: Env) -> Any:
        method = getattr(self, f"_eval_{type(expr).__name__.lower()}", None)
        if method is None:
            raise ExecutionError(f"cannot evaluate {type(expr).__name__}")
        return method(expr, env)

    def is_true(self, expr: ast.Expr, env: Env) -> bool:
        """WHERE-clause truth: unknown (NULL) counts as false."""
        return self.evaluate(expr, env) is True

    def _eval_literal(self, expr: ast.Literal, env: Env) -> Any:
        return expr.value

    def _eval_columnref(self, expr: ast.ColumnRef, env: Env) -> Any:
        return env.lookup(expr.name, expr.table)

    def _eval_unaryop(self, expr: ast.UnaryOp, env: Env) -> Any:
        value = self.evaluate(expr.operand, env)
        if expr.op.upper() == "NOT":
            if value is None:
                return None
            return not value
        if expr.op == "-":
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ExecutionError(f"cannot negate {value!r}")
            return -value
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    def _eval_binaryop(self, expr: ast.BinaryOp, env: Env) -> Any:
        op = expr.op.upper()
        if op == "AND":
            left = self.evaluate(expr.left, env)
            if left is False:
                return False
            right = self.evaluate(expr.right, env)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.evaluate(expr.left, env)
            if left is True:
                return True
            right = self.evaluate(expr.right, env)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            cmp = compare_values(left, right)
            if cmp is None:
                return None
            return {
                "=": cmp == 0,
                "!=": cmp != 0,
                "<": cmp < 0,
                "<=": cmp <= 0,
                ">": cmp > 0,
                ">=": cmp >= 0,
            }[op]
        if left is None or right is None:
            return None
        if op == "+":
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return _arith(left, right, lambda a, b: a + b, "+")
        if op == "-":
            return _arith(left, right, lambda a, b: a - b, "-")
        if op == "*":
            return _arith(left, right, lambda a, b: a * b, "*")
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            return _arith(left, right, lambda a, b: a / b, "/")
        if op == "%":
            if right == 0:
                raise ExecutionError("modulo by zero")
            return _arith(left, right, _truncated_mod, "%")
        raise ExecutionError(f"unknown operator {expr.op!r}")

    def _eval_functioncall(self, expr: ast.FunctionCall, env: Env) -> Any:
        fn = SCALAR_FUNCTIONS.get(expr.name.lower())
        if fn is None:
            raise ExecutionError(
                f"unknown function {expr.name!r} (aggregates are only valid "
                "in SELECT/HAVING/ORDER BY of a grouped query)"
            )
        args = [self.evaluate(arg, env) for arg in expr.args]
        return fn(*args)

    def _eval_isnull(self, expr: ast.IsNull, env: Env) -> Any:
        value = self.evaluate(expr.operand, env)
        result = value is None
        return (not result) if expr.negated else result

    def _eval_between(self, expr: ast.Between, env: Env) -> Any:
        value = self.evaluate(expr.operand, env)
        low = self.evaluate(expr.low, env)
        high = self.evaluate(expr.high, env)
        lo_cmp = (
            compare_values(value, low)
            if value is not None and low is not None
            else None
        )
        hi_cmp = (
            compare_values(value, high)
            if value is not None and high is not None
            else None
        )
        if lo_cmp is None or hi_cmp is None:
            return None
        result = lo_cmp >= 0 and hi_cmp <= 0
        return (not result) if expr.negated else result

    def _eval_like(self, expr: ast.Like, env: Env) -> Any:
        value = self.evaluate(expr.operand, env)
        pattern = self.evaluate(expr.pattern, env)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise ExecutionError("LIKE requires string operands")
        result = like_to_regex(pattern).match(value) is not None
        return (not result) if expr.negated else result

    def _eval_inlist(self, expr: ast.InList, env: Env) -> Any:
        value = self.evaluate(expr.operand, env)
        if value is None:
            return None
        saw_null = False
        for item in expr.items:
            candidate = self.evaluate(item, env)
            if candidate is None:
                saw_null = True
                continue
            if compare_values(value, candidate) == 0:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _eval_insubquery(self, expr: ast.InSubquery, env: Env) -> Any:
        value = self.evaluate(expr.operand, env)
        if value is None:
            return None
        rows = self._run_subquery(expr.subquery, env)
        saw_null = False
        for row in rows:
            if len(row) != 1:
                raise ExecutionError("IN subquery must return one column")
            candidate = row[0]
            if candidate is None:
                saw_null = True
                continue
            if compare_values(value, candidate) == 0:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated

    def _eval_scalarsubquery(self, expr: ast.ScalarSubquery, env: Env) -> Any:
        rows = self._run_subquery(expr.subquery, env)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if len(rows[0]) != 1:
            raise ExecutionError("scalar subquery must return one column")
        return rows[0][0]

    def _eval_exists(self, expr: ast.Exists, env: Env) -> Any:
        rows = self._run_subquery(expr.subquery, env)
        result = bool(rows)
        return (not result) if expr.negated else result

    def _eval_star(self, expr: ast.Star, env: Env) -> Any:
        raise ExecutionError("'*' is only valid in a select list or COUNT(*)")


class _AggregateEvaluator(Evaluator):
    """Evaluates expressions over a *group* of rows.

    Aggregate calls compute over all group rows; everything else resolves
    against the group's representative (first) row, matching the
    permissive semantics of engines like MySQL for non-grouped columns.
    Group rows are Envs, and an aggregate's argument is evaluated through
    the base evaluator in each row's Env.
    """

    def __init__(self, base: Evaluator, group: list[Env]) -> None:
        super().__init__(base._run_subquery)
        self._base = base
        self._group = group

    def evaluate(self, expr: ast.Expr, env: Env) -> Any:
        if isinstance(expr, ast.FunctionCall) and expr.name.lower() in AGGREGATE_NAMES:
            return self._eval_aggregate(expr)
        return super().evaluate(expr, env)

    def _eval_aggregate(self, expr: ast.FunctionCall) -> Any:
        name = expr.name.lower()
        if len(expr.args) == 1 and isinstance(expr.args[0], ast.Star):
            if name != "count":
                raise ExecutionError(f"{expr.name}(*) is not valid")
            return len(self._group)
        if len(expr.args) != 1:
            raise ExecutionError(f"{expr.name}() takes exactly one argument")
        values = [self._base.evaluate(expr.args[0], env) for env in self._group]
        return AGGREGATES[name](values, distinct=expr.distinct)


# ==========================================================================
# The row engine
# ==========================================================================


class RowEngine(Engine):
    """An :class:`Engine` that never calls a kernel or the compiler.

    Plans are built, optimized and cached exactly as :class:`Engine` builds
    them, but get no kernels, so both engines run the same plan; this one
    interprets it with the row operators below and evaluates every
    expression through the :class:`Evaluator`, one Env per row.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._evaluator = Evaluator(self._run_subquery)

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
        if self.plan_cache is not None:
            assert cache_key is not None
            self.plan_cache.store_plan(cache_key, self._dependency_stamps(select), plan)
        return plan

    # -- plan interpretation ----------------------------------------------

    def _run_plan_batch(
        self, plan: PlanNode, outer_env: Env | None
    ) -> tuple[Scope, Batch]:
        scope, rows = self._run_plan(plan, outer_env)
        return scope, Batch(rows, range(len(rows)))

    def _run_plan(
        self, plan: PlanNode, outer_env: Env | None
    ) -> tuple[Scope, list[tuple[Any, ...]]]:
        if isinstance(plan, ScanNode):
            return self._run_scan(plan, outer_env)
        if isinstance(plan, FilterNode):
            scope, rows = self._run_plan(plan.child, outer_env)
            kept = [
                row
                for row in rows
                if self._evaluator.is_true(plan.predicate, Env(scope, row, outer_env))
            ]
            return scope, kept
        if isinstance(plan, HashJoinNode):
            return self._run_hash_join(plan, outer_env)
        if isinstance(plan, SemiJoinNode):
            return self._run_semi_join(plan, outer_env)
        if isinstance(plan, JoinNode):
            return self._run_nested_join(plan, outer_env)
        if isinstance(plan, ReorderNode):
            return self._run_reorder(plan, outer_env)
        raise ExecutionError(f"unknown plan node {type(plan).__name__}")

    def _run_scan(
        self, plan: ScanNode, outer_env: Env | None
    ) -> tuple[Scope, list[tuple[Any, ...]]]:
        table = self._source().table(plan.table_name)
        scope = Scope([(plan.binding, col) for col in table.schema.column_names])
        candidate_ids = self._scan_candidate_ids(plan, table)
        if candidate_ids is None:
            rows: Iterable[tuple[Any, ...]] = table.rows()
        else:
            rows = (
                row
                for row_id in sorted(candidate_ids)
                if (row := table.row_by_id(row_id)) is not None
            )
        out = [
            row
            for row in rows
            if all(
                self._evaluator.is_true(pred, Env(scope, row, outer_env))
                for pred in plan.residual_filters
            )
        ]
        return scope, out

    def _run_reorder(
        self, plan: ReorderNode, outer_env: Env | None
    ) -> tuple[Scope, list[tuple[Any, ...]]]:
        scope, rows = self._run_plan(plan.child, outer_env)
        # Each binding's columns occupy one contiguous segment of the row.
        segments: dict[str, tuple[int, int]] = {}
        for i, (binding, _) in enumerate(scope.entries):
            start, _end = segments.get(binding, (i, i))
            segments[binding] = (start, i + 1)
        slices = [slice(*segments[binding]) for binding in plan.order]
        entries: list[tuple[str, str]] = []
        for binding in plan.order:
            start, end = segments[binding]
            entries.extend(scope.entries[start:end])
        out = [tuple(value for s in slices for value in row[s]) for row in rows]
        return Scope(entries), out

    def _run_nested_join(
        self, plan: JoinNode, outer_env: Env | None
    ) -> tuple[Scope, list[tuple[Any, ...]]]:
        left_scope, left_rows = self._run_plan(plan.left, outer_env)
        right_scope, right_rows = self._run_plan(plan.right, outer_env)
        scope = left_scope.merge(right_scope)
        null_pad = tuple([None] * len(right_scope))
        out = []
        for left_row in left_rows:
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if plan.condition is None or self._evaluator.is_true(
                    plan.condition, Env(scope, combined, outer_env)
                ):
                    matched = True
                    out.append(combined)
            if plan.kind == "LEFT" and not matched:
                out.append(left_row + null_pad)
        return scope, out

    def _run_hash_join(
        self, plan: HashJoinNode, outer_env: Env | None
    ) -> tuple[Scope, list[tuple[Any, ...]]]:
        left_scope, left_rows = self._run_plan(plan.left, outer_env)
        right_scope, right_rows = self._run_plan(plan.right, outer_env)
        scope = left_scope.merge(right_scope)
        evaluate = self._evaluator.evaluate
        buckets: dict[Any, list[tuple[Any, ...]]] = {}
        if plan.build == "left" and plan.kind == "INNER":
            # Build on the left input and probe with right rows; output
            # tuples keep the left+right column order either way.
            for left_row in left_rows:
                key = evaluate(plan.left_key, Env(left_scope, left_row, outer_env))
                if key is not None:
                    buckets.setdefault(key, []).append(left_row)
            out = []
            for right_row in right_rows:
                key = evaluate(plan.right_key, Env(right_scope, right_row, outer_env))
                if key is None:
                    continue
                for left_row in buckets.get(key, []):
                    combined = left_row + right_row
                    if plan.residual is None or self._evaluator.is_true(
                        plan.residual, Env(scope, combined, outer_env)
                    ):
                        out.append(combined)
            return scope, out
        for right_row in right_rows:
            key = evaluate(plan.right_key, Env(right_scope, right_row, outer_env))
            if key is not None:
                buckets.setdefault(key, []).append(right_row)
        null_pad = tuple([None] * len(right_scope))
        out = []
        for left_row in left_rows:
            key = evaluate(plan.left_key, Env(left_scope, left_row, outer_env))
            matched = False
            if key is not None:
                for right_row in buckets.get(key, []):
                    combined = left_row + right_row
                    if plan.residual is None or self._evaluator.is_true(
                        plan.residual, Env(scope, combined, outer_env)
                    ):
                        matched = True
                        out.append(combined)
            if plan.kind == "LEFT" and not matched:
                out.append(left_row + null_pad)
        return scope, out

    def _run_semi_join(
        self, plan: SemiJoinNode, outer_env: Env | None
    ) -> tuple[Scope, list[tuple[Any, ...]]]:
        """The hash join the semi-join replaced, cut to its kept side's
        columns."""
        join = HashJoinNode(
            plan.left, plan.right, plan.left_key, plan.right_key, build=plan.build
        )
        scope, rows = self._run_hash_join(join, outer_env)
        left = set(plan.left.bindings())
        split = sum(binding in left for binding, _ in scope.entries)
        cut = slice(None, split) if plan.keep == "left" else slice(split, None)
        return Scope(scope.entries[cut]), [row[cut] for row in rows]

    # -- projection through one Env per row ----------------------------------

    def _envs(self, scope: Scope, batch: Batch, outer_env: Env | None) -> list[Env]:
        return [Env(scope, row, outer_env) for row in batch.materialize()]

    def _project_batch(
        self,
        select: ast.Select,
        scope: Scope,
        batch: Batch,
        outer_env: Env | None,
    ) -> Projected:
        items = self._expand_items(select, scope)
        order = self._order_exprs(select, items)
        evaluate = self._evaluator.evaluate
        rows = []
        keys: list[list[Any]] = [[] for _ in order]
        for env in self._envs(scope, batch, outer_env):
            row = tuple(evaluate(expr, env) for expr, _ in items)
            rows.append(row)
            for column, (expr, index) in zip(keys, order):
                column.append(row[index] if expr is None else evaluate(expr, env))
        return [name for _, name in items], rows, keys

    def _project_groups_batch(
        self,
        select: ast.Select,
        scope: Scope,
        batch: Batch,
        outer_env: Env | None,
    ) -> Projected:
        items, order = self._group_items(select, scope)
        evaluate = self._evaluator.evaluate
        envs = self._envs(scope, batch, outer_env)
        groups: Iterable[list[Env]] = [envs]
        if select.group_by:
            by_key: dict[tuple[Any, ...], list[Env]] = {}
            for env in envs:
                key = tuple(evaluate(expr, env) for expr in select.group_by)
                by_key.setdefault(key, []).append(env)
            groups = by_key.values()
        null_env = Env(scope, (None,) * len(scope), outer_env)
        rows = []
        keys: list[list[Any]] = [[] for _ in order]
        for group in groups:
            # HAVING, the output row and the ORDER BY keys, each evaluated
            # over the group from its representative row's Env.
            agg = _AggregateEvaluator(self._evaluator, group)
            representative = group[0] if group else null_env
            if (
                select.having is not None
                and agg.evaluate(select.having, representative) is not True
            ):
                continue
            row = tuple(agg.evaluate(expr, representative) for expr, _ in items)
            rows.append(row)
            for column, (expr, index) in zip(keys, order):
                column.append(
                    row[index] if expr is None else agg.evaluate(expr, representative)
                )
        return [name for _, name in items], rows, keys

    # -- DML -----------------------------------------------------------------

    def _matching_row_ids(self, table_name: str, where: ast.Expr | None) -> list[int]:
        table = self.database.table(table_name)
        scan = ScanNode(table.name, table.name)
        if where is not None:
            bindings = {col: [table.name] for col in table.schema.column_names}
            scan.residual_filters = split_conjuncts(qualify_expr(where, bindings))
        if self.use_optimizer and self.use_indexes:
            install_index_hints(scan, self.database)
        scope = Scope([(table.name, col) for col in table.schema.column_names])
        candidate_ids = self._scan_candidate_ids(scan, table)
        if candidate_ids is None:
            pairs: Iterable[tuple[int, tuple[Any, ...]]] = table.rows_with_ids()
        else:
            pairs = (
                (row_id, row)
                for row_id in sorted(candidate_ids)
                if (row := table.row_by_id(row_id)) is not None
            )
        return [
            row_id
            for row_id, row in pairs
            if all(
                self._evaluator.is_true(pred, Env(scope, row))
                for pred in scan.residual_filters
            )
        ]

    def _assign(
        self,
        table: Any,
        ids: list[int],
        assignments: tuple[tuple[str, ast.Expr], ...],
    ) -> list[tuple[int, dict[str, Any]]]:
        scope = Scope([(table.name, col) for col in table.schema.column_names])
        updated_rows = []
        for row_id in ids:
            row = table.row_by_id(row_id)
            env = Env(scope, row)
            values = dict(zip(table.schema.column_names, row))
            for column, expr in assignments:
                values[column.lower()] = self._evaluator.evaluate(expr, env)
            updated_rows.append((row_id, values))
        return updated_rows

    def _const(self, expr: ast.Expr) -> Any:
        return self._evaluator.evaluate(expr, Env(Scope([]), ()))
