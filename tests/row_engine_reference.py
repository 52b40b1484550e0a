"""A row plan interpreter: the oracle for the batch kernels.

Each operator materializes a list of row tuples, and every expression —
predicates, join keys, projections, group keys and aggregate arguments —
is evaluated through an :class:`Env` per row and the
:class:`Evaluator`.  It is slow but simple enough to read as the
definition of what a plan computes, which is what
``tests/test_columnar_differential.py`` needs: :class:`Engine` must
return the same rows, in the same order, or raise the same error, as
:class:`RowEngine`.  Test-only — it is not part of the package.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable

from repro.errors import ExecutionError
from repro.sqlengine import Engine
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.aggregates import AGGREGATE_NAMES
from repro.sqlengine.columnar import Batch
from repro.sqlengine.executor import Projected
from repro.sqlengine.expressions import Env, Scope
from repro.sqlengine.optimizer import install_index_hints
from repro.sqlengine.planner import (
    FilterNode,
    HashJoinNode,
    JoinNode,
    PlanNode,
    ReorderNode,
    ScanNode,
    qualify_expr,
    split_conjuncts,
)


class RowEngine(Engine):
    """An :class:`Engine` that never calls a kernel.

    Plans are built, optimized and cached exactly as :class:`Engine` builds
    them, so both engines run the same plan; this one interprets it with
    the row operators below and projects through one Env per row.
    """

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
        # Group rows are Envs, so each aggregate argument evaluates
        # through its row's Env.
        roots = [expr for expr, _ in items] + [e for e, _ in order if e is not None]
        if select.having is not None:
            roots.append(select.having)
        arg_fns = {
            id(node): partial(evaluate, node.args[0])
            for root in roots
            for node in ast.walk(root)
            if isinstance(node, ast.FunctionCall)
            and node.name.lower() in AGGREGATE_NAMES
            and len(node.args) == 1
        }
        null_env = Env(scope, (None,) * len(scope), outer_env)
        return self._emit_groups(
            select,
            items,
            order,
            ((group, group[0] if group else null_env) for group in groups),
            arg_fns,
        )

    # -- DML WHERE -------------------------------------------------------------

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
