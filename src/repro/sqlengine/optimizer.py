"""Cost-based plan optimizer.

Rewrites, applied in order:

1. **Predicate pushdown** — conjuncts of a FilterNode that mention only the
   bindings of one scan move into that scan; conjuncts spanning exactly the
   two sides of a join become join conditions.
2. **Join reordering** — left-deep chains of INNER joins over base scans are
   re-ordered smallest-estimated-first (statistics-driven), wrapped in a
   :class:`~repro.sqlengine.planner.ReorderNode` so output column order is
   unchanged.
3. **Hash-join selection** — an INNER/LEFT join whose condition contains an
   equi-conjunct between the two sides becomes a :class:`HashJoinNode`; the
   build side is the one with the smaller estimated cardinality.
4. **Semi-joins** — an INNER hash join with no residual whose one side is
   a scan joined on its table's primary key, where nothing above reads
   that scan, becomes a :class:`SemiJoinNode`: it narrows the other
   side's selection and builds no joined row.  "Above" is the bindings
   the statement reads over the plan (``reads``, from the executor; None
   turns the rewrite off), every ancestor join key and residual, and
   every filter above.
5. **Index hints** — scan-local equality/range/IN/BETWEEN predicates on
   indexed columns become index access hints (``eq_filters`` /
   ``range_filters`` / ``in_filters``).

Cardinality estimates come from :class:`~repro.sqlengine.statistics.
TableStatistics`, which every table maintains incrementally.  The optimizer
never changes result semantics; every rewrite is covered by equivalence
tests against the naive plan.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.database import Database
from repro.sqlengine.planner import (
    FilterNode,
    HashJoinNode,
    JoinNode,
    PlanNode,
    ReorderNode,
    ScanNode,
    SemiJoinNode,
    conjoin,
    expr_bindings,
    split_conjuncts,
)
from repro.sqlengine.statistics import DEFAULT_SELECTIVITY, estimate_equi_join_rows
from repro.sqlengine.types import SqlType, is_numeric

_RANGE_OPS = {"<", "<=", ">", ">="}

#: Default guess for the selectivity of a join condition when combining
#: sub-plan estimates (equi-joins use max(left, right) instead).
_FILTER_GUESS = DEFAULT_SELECTIVITY


def optimize(
    plan: PlanNode | None,
    database: Database,
    use_indexes: bool = True,
    reads: frozenset[str] | None = None,
) -> PlanNode | None:
    """Optimize ``plan`` (may return a new tree).

    ``reads`` holds the bindings the statement reads above the plan; only
    with it may a join that nothing reads become a semi-join.
    """
    if plan is None:
        return None
    plan = _push_down(plan)
    plan = _reorder_joins(plan, database)
    plan = _select_hash_joins(plan, database)
    if reads is not None:
        plan = _semi_joins(plan, database, reads)
    if use_indexes:
        install_index_hints(plan, database)
    return plan


# -- predicate pushdown -------------------------------------------------------


def _push_down(plan: PlanNode) -> PlanNode:
    if isinstance(plan, FilterNode):
        child = _push_down(plan.child)
        conjuncts = split_conjuncts(plan.predicate)
        remaining = []
        for conjunct in conjuncts:
            child, pushed = _try_push(child, conjunct)
            if not pushed:
                remaining.append(conjunct)
        residual = conjoin(remaining)
        return FilterNode(child, residual) if residual is not None else child
    if isinstance(plan, JoinNode):
        return JoinNode(
            _push_down(plan.left), _push_down(plan.right), plan.condition, plan.kind
        )
    return plan


def _try_push(plan: PlanNode, conjunct: ast.Expr) -> tuple[PlanNode, bool]:
    """Try to sink ``conjunct`` into ``plan``; returns (new plan, pushed?)."""
    scope = set(plan.bindings())
    refs = expr_bindings(conjunct, scope)
    if refs is None or not refs <= scope:
        return plan, False
    if isinstance(plan, ScanNode):
        plan.residual_filters.append(conjunct)
        return plan, True
    if isinstance(plan, JoinNode):
        # LEFT joins must not receive pushed predicates on the right side:
        # that would turn preserved NULL rows into filtered rows.
        left_scope = set(plan.left.bindings())
        right_scope = set(plan.right.bindings())
        if refs <= left_scope:
            new_left, pushed = _try_push(plan.left, conjunct)
            if pushed:
                return JoinNode(new_left, plan.right, plan.condition, plan.kind), True
        if refs <= right_scope and plan.kind != "LEFT":
            new_right, pushed = _try_push(plan.right, conjunct)
            if pushed:
                return JoinNode(plan.left, new_right, plan.condition, plan.kind), True
        if plan.kind != "LEFT":
            # Spans both sides: fold into the join condition.
            condition = (
                conjunct
                if plan.condition is None
                else ast.BinaryOp("AND", plan.condition, conjunct)
            )
            kind = "INNER" if plan.kind == "CROSS" else plan.kind
            return JoinNode(plan.left, plan.right, condition, kind), True
        return plan, False
    if isinstance(plan, FilterNode):
        new_child, pushed = _try_push(plan.child, conjunct)
        if pushed:
            return FilterNode(new_child, plan.predicate), True
        return plan, False
    return plan, False


# -- predicate classification (shared by estimator and index hints) -----------


def _literal_value(expr: ast.Expr) -> tuple[bool, Any]:
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if (
        isinstance(expr, ast.UnaryOp)
        and expr.op == "-"
        and isinstance(expr.operand, ast.Literal)
    ):
        value = expr.operand.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return True, -value
    return False, None


def _own_column(expr: ast.Expr, binding: str, table: Any) -> str | None:
    """The lowered column name when ``expr`` is a column of this scan."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None and expr.table != binding:
        return None
    if not table.schema.has_column(expr.name):
        return None
    return expr.name.lower()


def _classify_predicate(conjunct: ast.Expr, binding: str, table: Any):
    """Classify a scan-local conjunct into an index-usable shape.

    Returns one of ``("eq", column, value)``, ``("range", column, op,
    value)``, ``("in", column, values)``, ``("between", column, low,
    high)`` or ``None``.  Classification is purely syntactic — index
    availability is checked separately by the hint installer, so the
    selectivity estimator can use the same shapes without indexes.
    """
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        column = _own_column(conjunct.operand, binding, table)
        low_lit, low = _literal_value(conjunct.low)
        high_lit, high = _literal_value(conjunct.high)
        if (
            column is not None
            and low_lit
            and high_lit
            and low is not None
            and high is not None
        ):
            return "between", column, low, high
        return None
    if isinstance(conjunct, ast.InList) and not conjunct.negated:
        column = _own_column(conjunct.operand, binding, table)
        if column is None:
            return None
        values = []
        for item in conjunct.items:
            is_lit, value = _literal_value(item)
            if not is_lit or value is None:
                return None
            values.append(value)
        if not values:
            return None
        return "in", column, tuple(values)
    if not isinstance(conjunct, ast.BinaryOp):
        return None
    op = conjunct.op
    if op not in _RANGE_OPS and op != "=":
        return None
    column: str | None = None
    literal: Any = None
    flipped = False
    is_lit, value = _literal_value(conjunct.right)
    if is_lit:
        column, literal = _own_column(conjunct.left, binding, table), value
    if column is None:
        is_lit, value = _literal_value(conjunct.left)
        if is_lit:
            column, literal = _own_column(conjunct.right, binding, table), value
            flipped = True
    if column is None or literal is None:
        return None
    if op == "=":
        return "eq", column, literal
    if flipped:  # literal OP column  ==  column (flip OP) literal
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
    return "range", column, op, literal


# -- cardinality estimation ---------------------------------------------------


def _predicate_selectivity(conjunct: ast.Expr, binding: str, table: Any) -> float:
    stats = table.statistics
    spec = _classify_predicate(conjunct, binding, table)
    if spec is None:
        if isinstance(conjunct, ast.IsNull):
            column = _own_column(conjunct.operand, binding, table)
            if column is not None and stats.row_count:
                fraction = stats.column(column).null_count / stats.row_count
                return 1.0 - fraction if conjunct.negated else fraction
        return DEFAULT_SELECTIVITY
    if spec[0] == "eq":
        return stats.eq_selectivity(spec[1], spec[2])
    if spec[0] == "in":
        return stats.in_selectivity(spec[1], spec[2])
    if spec[0] == "between":
        return stats.between_selectivity(spec[1], spec[2], spec[3])
    return stats.range_selectivity(spec[1], spec[2], spec[3])


def estimate_scan_rows(scan: ScanNode, database: Database) -> float:
    """Estimated output rows of a scan, from table statistics."""
    table = database.table(scan.table_name)
    stats = table.statistics
    rows = float(stats.row_count)
    if rows <= 0.0:
        return 0.0
    selectivity = 1.0
    for conjunct in scan.residual_filters:
        selectivity *= _predicate_selectivity(conjunct, scan.binding, table)
    for column, value in scan.eq_filters:
        selectivity *= stats.eq_selectivity(column, value)
    for column, values in scan.in_filters:
        selectivity *= stats.in_selectivity(column, values)
    for column, op, value in scan.range_filters:
        selectivity *= stats.range_selectivity(column, op, value)
    return rows * selectivity


def _binding_tables(plan: PlanNode) -> dict[str, str]:
    """Map every scan binding in ``plan`` to its base table name."""
    out: dict[str, str] = {}
    _collect_binding_tables(plan, out)
    return out


def _collect_binding_tables(node: PlanNode, out: dict[str, str]) -> None:
    # Module-level on purpose: a self-recursive closure is a reference
    # cycle, garbage for the cyclic collector on every call.
    if isinstance(node, ScanNode):
        out[node.binding] = node.table_name
    elif isinstance(node, (JoinNode, HashJoinNode, SemiJoinNode)):
        _collect_binding_tables(node.left, out)
        _collect_binding_tables(node.right, out)
    elif isinstance(node, (FilterNode, ReorderNode)):
        _collect_binding_tables(node.child, out)


def _join_key_distinct(
    database: Database, table_name: str, column: str
) -> float | None:
    """FK/PK-aware distinct count of a join-key column, or None if unknown.

    A primary key has exactly ``row_count`` distinct values; a foreign key
    can reference at most the parent table's row count — both bounds are
    usually far sharper than the maintained per-column distinct count on
    freshly-filtered or growing tables.
    """
    if not database.has_table(table_name):
        return None
    table = database.table(table_name)
    schema = table.schema
    if not schema.has_column(column):
        return None
    column = column.lower()
    stats = table.statistics
    if schema.primary_key == column:
        return float(stats.row_count)
    distinct = stats.column_distinct(column)
    result = float(distinct) if distinct else None
    fk = schema.foreign_key_for(column)
    if fk is not None and database.has_table(fk.ref_table):
        cap = float(database.statistics(fk.ref_table).row_count)
        result = cap if result is None else min(result, cap)
    return result


def _key_distinct(
    key: ast.Expr, bindings: dict[str, str], database: Database
) -> float | None:
    """Distinct count of a join-key expression when it is a base column."""
    if not isinstance(key, ast.ColumnRef):
        return None
    if key.table is not None:
        table_name = bindings.get(key.table)
    elif len(bindings) == 1:
        table_name = next(iter(bindings.values()))
    else:
        return None  # unqualified key over multiple scans: ambiguous
    if table_name is None:
        return None
    return _join_key_distinct(database, table_name, key.name)


def estimate_rows(plan: PlanNode, database: Database) -> float:
    """Estimated output rows of any plan subtree."""
    if isinstance(plan, ScanNode):
        return estimate_scan_rows(plan, database)
    if isinstance(plan, FilterNode):
        rows = estimate_rows(plan.child, database)
        return rows * _FILTER_GUESS ** len(split_conjuncts(plan.predicate))
    if isinstance(plan, ReorderNode):
        return estimate_rows(plan.child, database)
    if isinstance(plan, (HashJoinNode, SemiJoinNode)):
        left = estimate_rows(plan.left, database)
        right = estimate_rows(plan.right, database)
        return estimate_equi_join_rows(
            left,
            right,
            _key_distinct(plan.left_key, _binding_tables(plan.left), database),
            _key_distinct(plan.right_key, _binding_tables(plan.right), database),
        )
    if isinstance(plan, JoinNode):
        left = estimate_rows(plan.left, database)
        right = estimate_rows(plan.right, database)
        if plan.condition is None:  # cross product
            return left * right
        left_scope = set(plan.left.bindings())
        right_scope = set(plan.right.bindings())
        for conjunct in split_conjuncts(plan.condition):
            keys = _equi_key(conjunct, left_scope, right_scope)
            if keys is not None:
                return estimate_equi_join_rows(
                    left,
                    right,
                    _key_distinct(keys[0], _binding_tables(plan.left), database),
                    _key_distinct(keys[1], _binding_tables(plan.right), database),
                )
        # Non-equi condition: fall back to the key-join guess.
        return max(left, right)
    return 0.0  # pragma: no cover - defensive


# -- join reordering ----------------------------------------------------------


def _collect_inner_chain(
    plan: PlanNode,
) -> tuple[list[ScanNode], list[ast.Expr]] | None:
    """Scans + condition conjuncts of a left-deep INNER/CROSS chain, or None."""
    if isinstance(plan, ScanNode):
        return [plan], []
    if isinstance(plan, JoinNode) and plan.kind in ("INNER", "CROSS"):
        if not isinstance(plan.right, ScanNode):
            return None
        left = _collect_inner_chain(plan.left)
        if left is None:
            return None
        scans, conjuncts = left
        return scans + [plan.right], conjuncts + split_conjuncts(plan.condition)
    return None


def _reorder_joins(plan: PlanNode, database: Database) -> PlanNode:
    if isinstance(plan, FilterNode):
        return FilterNode(_reorder_joins(plan.child, database), plan.predicate)
    if not isinstance(plan, JoinNode):
        return plan
    chain = _collect_inner_chain(plan)
    if chain is None or len(chain[0]) < 3:
        return JoinNode(
            _reorder_joins(plan.left, database),
            _reorder_joins(plan.right, database),
            plan.condition,
            plan.kind,
        )
    scans, conjuncts = chain
    all_bindings = {scan.binding for scan in scans}
    conjunct_refs: list[tuple[ast.Expr, set[str]]] = []
    for conjunct in conjuncts:
        refs = expr_bindings(conjunct, all_bindings)
        if refs is None:  # subquery or unresolvable ref: leave the plan alone
            return plan
        conjunct_refs.append((conjunct, refs))

    estimates = {scan.binding: estimate_scan_rows(scan, database) for scan in scans}
    tables = {scan.binding: scan.table_name for scan in scans}
    original_order = [scan.binding for scan in scans]
    position = {binding: i for i, binding in enumerate(original_order)}

    def rank(binding: str) -> tuple[float, int]:
        return estimates[binding], position[binding]  # stable on ties

    order = [min(all_bindings, key=rank)]
    placed = {order[0]}
    remaining = all_bindings - placed
    current_rows = estimates[order[0]]

    def joined_rows(binding: str) -> float:
        """Estimated rows after joining ``binding`` into the placed set.

        Uses the FK/PK-aware equi-join formula over the connecting
        conjuncts; several connecting keys keep the tightest estimate.
        """
        best: float | None = None
        for conjunct, refs in conjunct_refs:
            if (
                binding not in refs
                or not refs - {binding} <= placed
                or refs == {binding}
            ):
                continue
            keys = _equi_key(conjunct, placed, {binding})
            if keys is None:
                continue
            est = estimate_equi_join_rows(
                current_rows,
                estimates[binding],
                _key_distinct(keys[0], tables, database),
                _key_distinct(keys[1], tables, database),
            )
            best = est if best is None else min(best, est)
        if best is None:  # connected by a non-equi conjunct only
            best = max(current_rows, estimates[binding])
        return best

    while remaining:
        connected = [
            binding
            for binding in remaining
            if any(
                binding in refs and (refs - {binding}) & placed
                for _, refs in conjunct_refs
            )
        ]
        if connected:
            nxt = min(connected, key=lambda b: (joined_rows(b),) + rank(b))
            next_rows = joined_rows(nxt)
        else:  # cartesian island: fall back to smallest scan first
            nxt = min(remaining, key=rank)
            next_rows = current_rows * estimates[nxt]
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
        current_rows = next_rows

    if order == original_order:
        return plan

    by_binding = {scan.binding: scan for scan in scans}
    tree: PlanNode = by_binding[order[0]]
    built = {order[0]}
    pending = list(conjunct_refs)
    for binding in order[1:]:
        built.add(binding)
        attached = [c for c, refs in pending if refs <= built]
        pending = [(c, refs) for c, refs in pending if not refs <= built]
        condition = conjoin(attached)
        kind = "INNER" if condition is not None else "CROSS"
        tree = JoinNode(tree, by_binding[binding], condition, kind)
    return ReorderNode(tree, tuple(original_order))


# -- hash-join selection ---------------------------------------------------------


def _equi_key(
    conjunct: ast.Expr, left_scope: set[str], right_scope: set[str]
) -> tuple[ast.Expr, ast.Expr] | None:
    """If ``conjunct`` is ``left_col = right_col`` across sides, return keys."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    sides = []
    for operand in (conjunct.left, conjunct.right):
        refs = expr_bindings(operand, left_scope | right_scope)
        if refs is None or not refs:
            return None
        sides.append(refs)
    if sides[0] <= left_scope and sides[1] <= right_scope:
        return conjunct.left, conjunct.right
    if sides[0] <= right_scope and sides[1] <= left_scope:
        return conjunct.right, conjunct.left
    return None


def _select_hash_joins(plan: PlanNode, database: Database) -> PlanNode:
    if isinstance(plan, FilterNode):
        return FilterNode(_select_hash_joins(plan.child, database), plan.predicate)
    if isinstance(plan, ReorderNode):
        return ReorderNode(_select_hash_joins(plan.child, database), plan.order)
    if isinstance(plan, HashJoinNode):  # pragma: no cover - defensive
        return plan
    if not isinstance(plan, JoinNode):
        return plan
    left = _select_hash_joins(plan.left, database)
    right = _select_hash_joins(plan.right, database)
    if plan.kind not in ("INNER", "LEFT") or plan.condition is None:
        return JoinNode(left, right, plan.condition, plan.kind)
    left_scope = set(left.bindings())
    right_scope = set(right.bindings())
    conjuncts = split_conjuncts(plan.condition)
    for i, conjunct in enumerate(conjuncts):
        keys = _equi_key(conjunct, left_scope, right_scope)
        if keys is not None:
            residual = conjoin(conjuncts[:i] + conjuncts[i + 1 :])
            est_left = estimate_rows(left, database)
            est_right = estimate_rows(right, database)
            # Build on the smaller input.  LEFT joins must probe from the
            # preserved (left) side, so they always build right.
            build = "left" if plan.kind == "INNER" and est_left < est_right else "right"
            return HashJoinNode(
                left,
                right,
                keys[0],
                keys[1],
                kind=plan.kind,
                residual=residual,
                build=build,
                est_left=est_left,
                est_right=est_right,
            )
    return JoinNode(left, right, plan.condition, plan.kind)


# -- semi-joins ------------------------------------------------------------------


def _semi_joins(plan: PlanNode, database: Database, above: frozenset[str]) -> PlanNode:
    """Rewrite the joins under ``plan`` that only filter into semi-joins.

    ``above`` holds the bindings read above ``plan``.  A filter or join
    condition whose bindings cannot be told (a subquery, an unqualified
    column) leaves its subtree as it is.
    """
    if isinstance(plan, FilterNode):
        refs = expr_bindings(plan.predicate, set(plan.child.bindings()))
        if refs is None:
            return plan
        child = _semi_joins(plan.child, database, above | refs)
        return FilterNode(child, plan.predicate)
    if isinstance(plan, ReorderNode):
        child = _semi_joins(plan.child, database, above)
        kept = child.bindings()
        order = tuple(binding for binding in plan.order if binding in kept)
        # What is left may already be in order (always so with one binding).
        return child if list(order) == kept else ReorderNode(child, order)
    if isinstance(plan, HashJoinNode):
        exprs = [plan.left_key, plan.right_key, plan.residual]
    elif isinstance(plan, JoinNode):
        exprs = [plan.condition]
    else:
        return plan
    scope = set(plan.bindings())
    below = above
    for expr in exprs:
        refs = set() if expr is None else expr_bindings(expr, scope)
        if refs is None:
            return plan
        below |= refs
    left = _semi_joins(plan.left, database, below)
    right = _semi_joins(plan.right, database, below)
    if isinstance(plan, JoinNode):
        return JoinNode(left, right, plan.condition, plan.kind)
    dropped = _filter_side(plan, database, above)
    if dropped is None:
        return replace(plan, left=left, right=right)
    return SemiJoinNode(
        left,
        right,
        plan.left_key,
        plan.right_key,
        keep="right" if dropped == "left" else "left",
        build=plan.build,
        est_left=plan.est_left,
        est_right=plan.est_right,
    )


def _filter_side(
    plan: HashJoinNode, database: Database, above: frozenset[str]
) -> str | None:
    """The side of ``plan`` that only filters the other, or None.

    That side is one scan that nothing above reads, joined on its table's
    primary key: each row of the other side then matches at most once, so
    the join changes no row's multiplicity.  The build side is preferred
    when both qualify.
    """
    if plan.kind != "INNER" or plan.residual is not None:
        return None
    keys = {"left": plan.left_key, "right": plan.right_key}
    if not all(
        isinstance(key, ast.ColumnRef) and key.table is not None
        for key in keys.values()
    ):
        return None
    sides = {"left": plan.left, "right": plan.right}
    probe = "left" if plan.build == "right" else "right"
    for side in (plan.build, probe):
        scan, key = sides[side], keys[side]
        if (
            isinstance(scan, ScanNode)
            and key.table == scan.binding
            and scan.binding not in above
            and database.table(scan.table_name).schema.primary_key == key.name.lower()
        ):
            return side
    return None


# -- index hints -----------------------------------------------------------------


def install_index_hints(plan: PlanNode, database: Database) -> None:
    """Move index-usable scan predicates into access hints, in place.

    Also used by the engine's DML path, so UPDATE/DELETE row matching
    benefits from the same index access as SELECT.
    """
    if isinstance(plan, FilterNode):
        install_index_hints(plan.child, database)
        return
    if isinstance(plan, ReorderNode):
        install_index_hints(plan.child, database)
        return
    if isinstance(plan, (JoinNode, HashJoinNode, SemiJoinNode)):
        install_index_hints(plan.left, database)
        install_index_hints(plan.right, database)
        return
    if not isinstance(plan, ScanNode):  # pragma: no cover - defensive
        return
    table = database.table(plan.table_name)
    kept: list[ast.Expr] = []
    for conjunct in plan.residual_filters:
        hints = _scan_hint(conjunct, plan.binding, table)
        if hints is None:
            kept.append(conjunct)
            continue
        for hint in hints:
            if hint[0] == "eq":
                plan.eq_filters.append((hint[1], hint[2]))
            elif hint[0] == "in":
                plan.in_filters.append((hint[1], hint[2]))
            else:
                plan.range_filters.append((hint[1], hint[2], hint[3]))
    plan.residual_filters = kept


def _literal_fits_column(table: Any, column: str, value: Any) -> bool:
    """True when comparing ``value`` with the column cannot type-error.

    Index lookups silently miss on type mismatches, but the compiled
    residual raises ``TypeMismatchError`` — so a mismatched literal must
    stay residual or the indexed and naive plans disagree on semantics.
    """
    sql_type = table.schema.column(column).sql_type
    if isinstance(value, bool):
        return sql_type is SqlType.BOOL
    if isinstance(value, (int, float)):
        return is_numeric(sql_type)
    if isinstance(value, str):
        return sql_type is SqlType.TEXT
    return False


def _scan_hint(conjunct: ast.Expr, binding: str, table: Any):
    """Index-access hints for one conjunct, or None to keep it residual.

    Returns a list because a BETWEEN expands into a pair of range hints
    over the same sorted index.
    """
    spec = _classify_predicate(conjunct, binding, table)
    if spec is None:
        return None
    kind, column = spec[0], spec[1]
    has_hash = table.hash_index(column) is not None
    has_sorted = table.sorted_index(column) is not None
    if kind == "eq":
        if (has_hash or has_sorted) and _literal_fits_column(table, column, spec[2]):
            return [("eq", column, spec[2])]
        return None
    if kind == "in":
        # Literal IN-lists become a multi-equality lookup (union of row ids).
        if (has_hash or has_sorted) and all(
            _literal_fits_column(table, column, value) for value in spec[2]
        ):
            return [("in", column, spec[2])]
        return None
    if kind == "between":
        # BETWEEN becomes a sorted-index range pair (the executor
        # intersects the two half-open lookups).
        if has_sorted and all(
            _literal_fits_column(table, column, value) for value in (spec[2], spec[3])
        ):
            return [
                ("range", column, ">=", spec[2]),
                ("range", column, "<=", spec[3]),
            ]
        return None
    if not has_sorted or not _literal_fits_column(table, column, spec[3]):
        return None
    return [("range", column, spec[2], spec[3])]
