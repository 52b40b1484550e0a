"""Batch execution kernels and the expression compiler: how every SELECT
plan runs.

:func:`install_kernels` gives every plan node a *kernel* that runs its
operator over batches:

* a :class:`Batch` is shared row storage plus a selection vector of live
  positions — filters narrow the selection without copying rows, and
  output tuples materialize late (at joins and at projection);
* scan predicates compile to **selectors** — tight list-comprehension
  loops over one column (``[i for i in sel if rows[i][pos] > lit]``) when
  the predicate's shape and the column's declared type guarantee the loop
  cannot raise; anything else compiles to a per-row closure;
* hash joins compile their key and residual expressions to closures and
  run build/probe loops; an INNER join with no residual probes in one
  comprehension over the selection; a semi-join narrows its kept side's
  selection by the other side's key set and builds no row; nested-loop
  joins run left-major, right-minor, NULL-padding LEFT rows.

:func:`compile_expr` is the engine's one implementation of SQL expression
semantics: three-valued logic (Kleene AND/OR short-circuit, NULL
propagation) and error checks in a fixed evaluation order.  Every
expression compiles to a closure over one row tuple:

* a subquery compiles to a call of the engine's subquery runner, passing
  the current row as the innermost enclosing frame;
* an outer reference — a name the expression's own scope lacks — is
  looked up once per run in the enclosing rows, innermost first, and
  compiles to that run's constant;
* a name, function or ``*`` that cannot be evaluated compiles to a
  closure raising the error, so it raises only when a row reaches it and
  an empty input still answers.

An expression that needs neither the engine nor the enclosing rows
compiles once, when its kernel is installed; any other compiles once per
kernel run (:func:`bind_expr`).  The executor uses the same compiler
above the plan: projection, GROUP BY keys, UPDATE SET and INSERT VALUES
compile over rows, and grouped items, HAVING and ORDER BY over groups
(:func:`compile_group_expr`); :func:`column_position` picks out the plain
columns it can gather column by column.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple

from repro.errors import ExecutionError, UnknownColumnError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.aggregates import AGGREGATE_NAMES, AGGREGATES
from repro.sqlengine.expressions import Scope, like_to_regex
from repro.sqlengine.functions import SCALAR_FUNCTIONS
from repro.sqlengine.planner import (
    FilterNode,
    HashJoinNode,
    JoinNode,
    PlanNode,
    ReorderNode,
    ScanNode,
    SemiJoinNode,
)
from repro.sqlengine.types import SqlType, compare_values, is_numeric

#: A compiled expression: value of the expression for one row tuple.
RowFn = Callable[[tuple], Any]

#: A compiled scan predicate: narrows a selection over shared storage.
SelectorFn = Callable[[list, Iterable[int]], list]

#: The rows enclosing a subquery run: a ``(scope, row, outer)`` frame for
#: the innermost one, chained to the next, or None outside any subquery.
Outer = tuple | None

#: A node expression prepared at install time; called once per kernel run
#: as ``bind(engine, outer)`` it returns the run's closure.
Binder = Callable[[Any, Outer], Any]


class Batch:
    """Shared row storage plus the selection of live positions.

    ``rows`` may be a table's internal storage (with ``None`` tombstones)
    or an operator's materialized output; ``sel`` holds the positions that
    are part of the batch, in output order.
    """

    __slots__ = ("rows", "sel")

    def __init__(self, rows: list, sel: Iterable[int]) -> None:
        self.rows = rows
        self.sel = sel

    def materialize(self) -> list[tuple[Any, ...]]:
        return list(map(self.rows.__getitem__, self.sel))


# -- expression compilation ----------------------------------------------------

_CMP_OPS: dict[str, Callable[[int], bool]] = {
    "=": lambda c: c == 0,
    "!=": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}

_SUBQUERIES = (ast.InSubquery, ast.ScalarSubquery, ast.Exists)


class _Context(NamedTuple):
    """What one compilation knows besides the expression."""

    scope: Scope
    #: The running engine (its subquery runner), or None at install time.
    engine: Any
    outer: Outer
    #: In a grouped expression, the row position holding the group's rows.
    group_slot: int | None


def compile_expr(
    expr: ast.Expr, scope: Scope, engine: Any = None, outer: Outer = None
) -> RowFn:
    """Compile ``expr`` to a closure over one row tuple of ``scope``.

    ``engine`` runs the subqueries and ``outer`` holds the rows enclosing
    this run; both may be omitted for an expression that
    :func:`_run_dependent` clears.
    """
    return _compile(expr, _Context(scope, engine, outer, None))


def compile_group_expr(
    expr: ast.Expr, scope: Scope, engine: Any, outer: Outer
) -> RowFn:
    """Compile a grouped item, HAVING or ORDER BY key over a *group row*:
    the group's first row (all NULL for an empty group) with the list of
    the group's rows appended.  Aggregate calls read that list; everything
    else reads the first row."""
    return _compile(expr, _Context(scope, engine, outer, len(scope)))


def _compile(expr: ast.Expr, cx: _Context) -> RowFn:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.ColumnRef):
        return _compile_column(expr, cx)
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr, cx)
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, cx)
    if isinstance(expr, ast.FunctionCall):
        return _compile_call(expr, cx)
    if isinstance(expr, ast.IsNull):
        fn = _compile(expr.operand, cx)
        if expr.negated:
            return lambda row: fn(row) is not None
        return lambda row: fn(row) is None
    if isinstance(expr, ast.Between):
        return _compile_between(expr, cx)
    if isinstance(expr, ast.Like):
        return _compile_like(expr, cx)
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr, cx)
    if isinstance(expr, _SUBQUERIES):
        return _compile_subquery(expr, cx)
    if isinstance(expr, ast.Star):
        return _raiser(ExecutionError, "'*' is only valid in a select list or COUNT(*)")
    return _raiser(ExecutionError, f"cannot evaluate {type(expr).__name__}")


def _raiser(error: type[Exception], message: str) -> RowFn:
    """A closure raising ``error(message)`` for any row that reaches it."""

    def raise_fn(row: tuple) -> Any:
        raise error(message)

    return raise_fn


def column_position(expr: ast.Expr, scope: Scope) -> int | None:
    """Tuple position of ``expr`` when it is a plain column of ``scope``.

    None for any other expression, an outer-row reference, or an
    ambiguous name (its closure raises that one per row).  A plain
    column cannot raise, so callers may read it in any order.
    """
    if not isinstance(expr, ast.ColumnRef):
        return None
    try:
        return scope.resolve(expr.name, expr.table)
    except UnknownColumnError:
        return None


def _compile_column(expr: ast.ColumnRef, cx: _Context) -> RowFn:
    try:
        pos = cx.scope.resolve(expr.name, expr.table)
        if pos is not None:
            return itemgetter(pos)
        value = _outer_value(expr, cx.outer)
    except UnknownColumnError as exc:
        return _raiser(UnknownColumnError, str(exc))
    return lambda row: value


def _outer_value(expr: ast.ColumnRef, outer: Outer) -> Any:
    """The value an outer reference holds for this run: the first
    enclosing scope, innermost first, that has the name (or finds it
    ambiguous, which raises) decides."""
    while outer is not None:
        scope, row, outer = outer
        pos = scope.resolve(expr.name, expr.table)
        if pos is not None:
            return row[pos]
    qualifier = f"{expr.table}." if expr.table else ""
    raise UnknownColumnError(f"unknown column {qualifier}{expr.name!r}")


def _run_dependent(expr: ast.Expr, scope: Scope) -> bool:
    """True when ``expr``'s closure depends on the run: it holds a
    subquery (the engine runs it) or a name ``scope`` lacks (an outer
    reference, or an unknown name whose error the enclosing rows decide).
    """
    for node in ast.walk(expr):
        if isinstance(node, _SUBQUERIES):
            return True
        if isinstance(node, ast.ColumnRef):
            try:
                if scope.resolve(node.name, node.table) is None:
                    return True
            except UnknownColumnError:
                pass  # ambiguous here: raises whatever the enclosing rows
    return False


def bind_expr(expr: ast.Expr, scope: Scope) -> Binder:
    """``expr``'s closure for a kernel: compiled once at install time, or
    once per run when it depends on the run (:func:`_run_dependent`)."""
    if _run_dependent(expr, scope):
        return partial(compile_expr, expr, scope)
    fn = compile_expr(expr, scope)
    return lambda engine, outer: fn


def _compile_unary(expr: ast.UnaryOp, cx: _Context) -> RowFn:
    fn = _compile(expr.operand, cx)
    if expr.op.upper() == "NOT":

        def not_fn(row: tuple) -> Any:
            value = fn(row)
            return None if value is None else (not value)

        return not_fn
    if expr.op == "-":

        def neg_fn(row: tuple) -> Any:
            value = fn(row)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ExecutionError(f"cannot negate {value!r}")
            return -value

        return neg_fn
    message = f"unknown unary operator {expr.op!r}"

    def unknown_fn(row: tuple) -> Any:
        fn(row)
        raise ExecutionError(message)

    return unknown_fn


def _arith(left: Any, right: Any, fn: Callable[[Any, Any], Any], op: str) -> Any:
    ok_left = isinstance(left, (int, float)) and not isinstance(left, bool)
    ok_right = isinstance(right, (int, float)) and not isinstance(right, bool)
    if not (ok_left and ok_right):
        raise ExecutionError(
            f"arithmetic {op!r} needs numbers, got {left!r} and {right!r}"
        )
    return fn(left, right)


def _mod(left: Any, right: Any) -> Any:
    """SQL's ``%``: the remainder takes the dividend's sign (-7 % 3 is -1),
    as in SQL's MOD, sqlite and PostgreSQL, not Python's floored one."""
    if isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return -remainder if left < 0 else remainder
    return math.fmod(left, right) or 0.0  # no -0.0


def _compile_binary(expr: ast.BinaryOp, cx: _Context) -> RowFn:
    lf = _compile(expr.left, cx)
    rf = _compile(expr.right, cx)
    op = expr.op.upper()
    if op == "AND":
        # Kleene AND with short-circuit: the right operand is evaluated
        # (and may raise) unless the left is False.
        def and_fn(row: tuple) -> Any:
            left = lf(row)
            if left is False:
                return False
            right = rf(row)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True

        return and_fn
    if op == "OR":

        def or_fn(row: tuple) -> Any:
            left = lf(row)
            if left is True:
                return True
            right = rf(row)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False

        return or_fn
    cmp_op = _CMP_OPS.get(expr.op)
    if cmp_op is not None:

        def cmp_fn(row: tuple) -> Any:
            cmp = compare_values(lf(row), rf(row))
            return None if cmp is None else cmp_op(cmp)

        return cmp_fn
    if op == "+":

        def add_fn(row: tuple) -> Any:
            left, right = lf(row), rf(row)
            if left is None or right is None:
                return None
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            return _arith(left, right, lambda a, b: a + b, "+")

        return add_fn
    if op in ("-", "*"):
        arith = (lambda a, b: a - b) if op == "-" else (lambda a, b: a * b)

        def sub_mul_fn(row: tuple, arith=arith, op=op) -> Any:
            left, right = lf(row), rf(row)
            if left is None or right is None:
                return None
            return _arith(left, right, arith, op)

        return sub_mul_fn
    if op in ("/", "%"):
        message = "division by zero" if op == "/" else "modulo by zero"
        arith = (lambda a, b: a / b) if op == "/" else _mod

        def div_mod_fn(row: tuple, arith=arith, op=op, message=message) -> Any:
            left, right = lf(row), rf(row)
            if left is None or right is None:
                return None
            if right == 0:
                raise ExecutionError(message)
            return _arith(left, right, arith, op)

        return div_mod_fn
    message = f"unknown operator {expr.op!r}"

    def unknown_fn(row: tuple) -> Any:
        left, right = lf(row), rf(row)
        if left is None or right is None:
            return None
        raise ExecutionError(message)

    return unknown_fn


def _compile_call(expr: ast.FunctionCall, cx: _Context) -> RowFn:
    name = expr.name.lower()
    if cx.group_slot is not None and name in AGGREGATE_NAMES:
        return _compile_aggregate(expr, cx)
    fn = SCALAR_FUNCTIONS.get(name)
    if fn is None:
        return _raiser(
            ExecutionError,
            f"unknown function {expr.name!r} (aggregates are only valid "
            "in SELECT/HAVING/ORDER BY of a grouped query)",
        )
    arg_fns = [_compile(arg, cx) for arg in expr.args]
    return lambda row: fn(*[arg_fn(row) for arg_fn in arg_fns])


def _compile_aggregate(expr: ast.FunctionCall, cx: _Context) -> RowFn:
    """An aggregate call over the group row's list of rows; its argument
    compiles over one row."""
    slot = cx.group_slot
    if len(expr.args) == 1 and isinstance(expr.args[0], ast.Star):
        if expr.name.lower() != "count":
            return _raiser(ExecutionError, f"{expr.name}(*) is not valid")
        return lambda row: len(row[slot])
    if len(expr.args) != 1:
        return _raiser(ExecutionError, f"{expr.name}() takes exactly one argument")
    arg_fn = _compile(expr.args[0], cx._replace(group_slot=None))
    aggregate = AGGREGATES[expr.name.lower()]
    distinct = expr.distinct
    return lambda row: aggregate(list(map(arg_fn, row[slot])), distinct=distinct)


def _compile_subquery(
    expr: ast.InSubquery | ast.ScalarSubquery | ast.Exists, cx: _Context
) -> RowFn:
    """A call of the engine's subquery runner, with the current row as the
    innermost enclosing frame."""
    run = cx.engine._run_subquery
    select, scope, outer = expr.subquery, cx.scope, cx.outer
    if isinstance(expr, ast.Exists):
        negated = expr.negated

        def exists_fn(row: tuple) -> Any:
            found = bool(run(select, (scope, row, outer)))
            return (not found) if negated else found

        return exists_fn
    if isinstance(expr, ast.ScalarSubquery):

        def scalar_fn(row: tuple) -> Any:
            rows = run(select, (scope, row, outer))
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise ExecutionError("scalar subquery must return one column")
            return rows[0][0]

        return scalar_fn
    vf = _compile(expr.operand, cx)
    negated = expr.negated

    def in_fn(row: tuple) -> Any:
        value = vf(row)
        if value is None:
            return None
        saw_null = False
        for sub_row in run(select, (scope, row, outer)):
            if len(sub_row) != 1:
                raise ExecutionError("IN subquery must return one column")
            candidate = sub_row[0]
            if candidate is None:
                saw_null = True
                continue
            if compare_values(value, candidate) == 0:
                return not negated
        if saw_null:
            return None
        return negated

    return in_fn


def _compile_between(expr: ast.Between, cx: _Context) -> RowFn:
    vf = _compile(expr.operand, cx)
    lof = _compile(expr.low, cx)
    hif = _compile(expr.high, cx)
    negated = expr.negated

    def between_fn(row: tuple) -> Any:
        value, low, high = vf(row), lof(row), hif(row)
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
        return (not result) if negated else result

    return between_fn


def _compile_like(expr: ast.Like, cx: _Context) -> RowFn:
    vf = _compile(expr.operand, cx)
    pf = _compile(expr.pattern, cx)
    negated = expr.negated
    if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
        regex = like_to_regex(expr.pattern.value)

        def like_lit_fn(row: tuple) -> Any:
            value = vf(row)
            if value is None:
                return None
            if not isinstance(value, str):
                raise ExecutionError("LIKE requires string operands")
            result = regex.match(value) is not None
            return (not result) if negated else result

        return like_lit_fn

    def like_fn(row: tuple) -> Any:
        value, pattern = vf(row), pf(row)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise ExecutionError("LIKE requires string operands")
        result = like_to_regex(pattern).match(value) is not None
        return (not result) if negated else result

    return like_fn


def _compile_in_list(expr: ast.InList, cx: _Context) -> RowFn:
    vf = _compile(expr.operand, cx)
    item_fns = [_compile(item, cx) for item in expr.items]
    negated = expr.negated

    def in_fn(row: tuple) -> Any:
        value = vf(row)
        if value is None:
            return None
        saw_null = False
        for item_fn in item_fns:
            candidate = item_fn(row)
            if candidate is None:
                saw_null = True
                continue
            if compare_values(value, candidate) == 0:
                return not negated
        if saw_null:
            return None
        return negated

    return in_fn


# -- fused scan selectors ------------------------------------------------------


def _literal_of(expr: ast.Expr) -> tuple[bool, Any]:
    """Literal (or negated numeric literal) value of ``expr``."""
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


def _typed_column(expr: ast.Expr, scope: Scope, schema: Any) -> tuple[int, Any] | None:
    """(position, sql_type) when ``expr`` is a column of this scan."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if not schema.has_column(expr.name):
        return None
    try:
        pos = scope.resolve(expr.name, expr.table)
    except UnknownColumnError:
        return None
    if pos is None:
        return None
    return pos, schema.column(expr.name).sql_type


def _fits(sql_type: Any, value: Any) -> bool:
    """True when comparing ``value`` against the column cannot type-error.

    Mirrors the optimizer's index-hint gate: declared column types
    guarantee stored values share the literal's comparison family, so the
    fused loop can use plain Python operators.
    """
    if isinstance(value, bool):
        return sql_type is SqlType.BOOL
    if isinstance(value, (int, float)):
        return is_numeric(sql_type)
    if isinstance(value, str):
        return sql_type is SqlType.TEXT
    return False


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _fused_selector(conjunct: ast.Expr, scope: Scope, schema: Any) -> SelectorFn | None:
    """A no-raise tight-loop selector for a common predicate shape, or None.

    Only produced when the declared column type guarantees the comparison
    cannot raise — everything else goes through the generic compiled
    predicate, which keeps the compiler's error behaviour.
    """
    if isinstance(conjunct, ast.IsNull):
        col = _typed_column(conjunct.operand, scope, schema)
        if col is None:
            return None
        pos = col[0]
        if conjunct.negated:
            return lambda rows, sel: [i for i in sel if rows[i][pos] is not None]
        return lambda rows, sel: [i for i in sel if rows[i][pos] is None]
    if isinstance(conjunct, ast.Between):
        col = _typed_column(conjunct.operand, scope, schema)
        lo_lit, low = _literal_of(conjunct.low)
        hi_lit, high = _literal_of(conjunct.high)
        if col is None or not lo_lit or not hi_lit:
            return None
        pos, sql_type = col
        if not _fits(sql_type, low) or not _fits(sql_type, high):
            return None
        if conjunct.negated:
            return lambda rows, sel: [
                i
                for i in sel
                if (v := rows[i][pos]) is not None and not low <= v <= high
            ]
        return lambda rows, sel: [
            i for i in sel if (v := rows[i][pos]) is not None and low <= v <= high
        ]
    if isinstance(conjunct, ast.InList):
        col = _typed_column(conjunct.operand, scope, schema)
        if col is None:
            return None
        pos, sql_type = col
        values = []
        for item in conjunct.items:
            is_lit, value = _literal_of(item)
            if not is_lit or value is None or not _fits(sql_type, value):
                return None  # NULL items need three-valued IN semantics
            values.append(value)
        members = frozenset(values)
        if conjunct.negated:
            return lambda rows, sel: [
                i for i in sel if (v := rows[i][pos]) is not None and v not in members
            ]
        return lambda rows, sel: [
            i for i in sel if (v := rows[i][pos]) is not None and v in members
        ]
    if isinstance(conjunct, ast.Like) and isinstance(conjunct.pattern, ast.Literal):
        pattern = conjunct.pattern.value
        col = _typed_column(conjunct.operand, scope, schema)
        if col is None or not isinstance(pattern, str):
            return None
        pos, sql_type = col
        if sql_type is not SqlType.TEXT:
            return None  # non-text operands must raise as compiled
        match = like_to_regex(pattern).match
        if conjunct.negated:
            return lambda rows, sel: [
                i for i in sel if (v := rows[i][pos]) is not None and match(v) is None
            ]
        return lambda rows, sel: [
            i for i in sel if (v := rows[i][pos]) is not None and match(v) is not None
        ]
    if not isinstance(conjunct, ast.BinaryOp) or conjunct.op not in _CMP_OPS:
        return None
    op = conjunct.op
    col = _typed_column(conjunct.left, scope, schema)
    is_lit, literal = _literal_of(conjunct.right)
    if col is None:
        col = _typed_column(conjunct.right, scope, schema)
        is_lit, literal = _literal_of(conjunct.left)
        if op in _FLIP:
            op = _FLIP[op]
    if col is None or not is_lit or literal is None:
        return None
    pos, sql_type = col
    if not _fits(sql_type, literal):
        return None
    if op == "=":
        return lambda rows, sel: [
            i for i in sel if (v := rows[i][pos]) is not None and v == literal
        ]
    if op == "!=":
        return lambda rows, sel: [
            i for i in sel if (v := rows[i][pos]) is not None and v != literal
        ]
    if op == "<":
        return lambda rows, sel: [
            i for i in sel if (v := rows[i][pos]) is not None and v < literal
        ]
    if op == "<=":
        return lambda rows, sel: [
            i for i in sel if (v := rows[i][pos]) is not None and v <= literal
        ]
    if op == ">":
        return lambda rows, sel: [
            i for i in sel if (v := rows[i][pos]) is not None and v > literal
        ]
    return lambda rows, sel: [
        i for i in sel if (v := rows[i][pos]) is not None and v >= literal
    ]


def _pred_selector(pred: RowFn) -> SelectorFn:
    return lambda rows, sel: [i for i in sel if pred(rows[i]) is True]


def bind_selector(conjunct: ast.Expr, scope: Scope, schema: Any) -> Binder:
    """One scan residual conjunct as a selection-vector narrowing: a fused
    loop when its shape allows, else its compiled predicate."""
    selector = _fused_selector(conjunct, scope, schema)
    if selector is not None:
        return lambda engine, outer: selector
    bind = bind_expr(conjunct, scope)
    return lambda engine, outer: _pred_selector(bind(engine, outer))


# -- kernel installation -------------------------------------------------------


def install_kernels(plan: PlanNode, database: Any) -> Scope:
    """Attach a kernel to every node, bottom-up; returns the plan's scope.

    A kernel is a ``_kernel`` attribute, a callable
    ``kernel(engine, node, outer) -> (Scope, Batch)`` called with the
    node it hangs on.  Kernels capture only compiled expressions, the AST
    of run-dependent ones, and column positions — never table data, and never
    the node itself, which would make every plan a reference cycle — so
    cached plans revalidate against fresh storage on every execution and
    dropped plans are freed by reference counting.
    """
    if isinstance(plan, ScanNode):
        return _install_scan(plan, database)
    if isinstance(plan, FilterNode):
        return _install_filter(plan, database)
    if isinstance(plan, HashJoinNode):
        return _install_hash_join(plan, database)
    if isinstance(plan, SemiJoinNode):
        return _install_semi_join(plan, database)
    if isinstance(plan, ReorderNode):
        return _install_reorder(plan, database)
    if isinstance(plan, JoinNode):
        return _install_nested_join(plan, database)
    raise ExecutionError(f"unknown plan node {type(plan).__name__}")


def _install_scan(plan: ScanNode, database: Any) -> Scope:
    schema = database.table(plan.table_name).schema
    scope = Scope([(plan.binding, col) for col in schema.column_names])
    selectors = [
        bind_selector(conjunct, scope, schema) for conjunct in plan.residual_filters
    ]

    def kernel(engine: Any, node: ScanNode, outer: Outer) -> tuple[Scope, Batch]:
        table = engine._source().table(node.table_name)
        rows, sel = table.batch_storage()
        candidate_ids = engine._scan_candidate_ids(node, table)
        if candidate_ids is not None:
            sel = [i for i in sorted(candidate_ids) if rows[i] is not None]
        # Applying selectors in conjunct order over the shrinking selection
        # evaluates exactly the (row, conjunct) pairs a per-row AND
        # short-circuit does: a later predicate only ever evaluates rows
        # the earlier ones accepted.
        for bind in selectors:
            if not sel:
                break
            sel = bind(engine, outer)(rows, sel)
        return scope, Batch(rows, sel)

    plan._kernel = kernel
    return scope


def _install_filter(plan: FilterNode, database: Any) -> Scope:
    scope = install_kernels(plan.child, database)
    bind_pred = bind_expr(plan.predicate, scope)

    def kernel(engine: Any, node: FilterNode, outer: Outer) -> tuple[Scope, Batch]:
        child_scope, batch = engine._run_plan_batch(node.child, outer)
        pred = bind_pred(engine, outer)
        rows = batch.rows
        sel = [i for i in batch.sel if pred(rows[i]) is True]
        return child_scope, Batch(rows, sel)

    plan._kernel = kernel
    return scope


def _install_nested_join(plan: JoinNode, database: Any) -> Scope:
    left_scope = install_kernels(plan.left, database)
    right_scope = install_kernels(plan.right, database)
    scope = left_scope.merge(right_scope)
    bind_cond = None if plan.condition is None else bind_expr(plan.condition, scope)
    left_join = plan.kind == "LEFT"
    null_pad = (None,) * len(right_scope)

    def kernel(engine: Any, node: JoinNode, outer: Outer) -> tuple[Scope, Batch]:
        _lscope, lbatch = engine._run_plan_batch(node.left, outer)
        _rscope, rbatch = engine._run_plan_batch(node.right, outer)
        cond = None if bind_cond is None else bind_cond(engine, outer)
        right_rows = rbatch.materialize()
        out = []
        for left_row in map(lbatch.rows.__getitem__, lbatch.sel):
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if cond is None or cond(combined) is True:
                    matched = True
                    out.append(combined)
            if left_join and not matched:
                out.append(left_row + null_pad)
        return scope, Batch(out, range(len(out)))

    plan._kernel = kernel
    return scope


def _install_hash_join(plan: HashJoinNode, database: Any) -> Scope:
    left_scope = install_kernels(plan.left, database)
    right_scope = install_kernels(plan.right, database)
    scope = left_scope.merge(right_scope)
    bind_left = bind_expr(plan.left_key, left_scope)
    bind_right = bind_expr(plan.right_key, right_scope)
    bind_residual = None if plan.residual is None else bind_expr(plan.residual, scope)
    build_left = plan.build == "left" and plan.kind == "INNER"
    left_join = plan.kind == "LEFT"
    # An INNER join without a residual probes in one comprehension.  NULL
    # probe keys find no bucket (NULLs are never built), and equal numbers
    # hash equal, so 1 meets 1.0 as in SQL.
    plain_inner = plan.kind == "INNER" and plan.residual is None

    def kernel(engine: Any, node: HashJoinNode, outer: Outer) -> tuple[Scope, Batch]:
        lscope, lbatch = engine._run_plan_batch(node.left, outer)
        rscope, rbatch = engine._run_plan_batch(node.right, outer)
        left_key = bind_left(engine, outer)
        right_key = bind_right(engine, outer)
        residual = None if bind_residual is None else bind_residual(engine, outer)
        out_scope = lscope.merge(rscope)
        lrows, lsel = lbatch.rows, lbatch.sel
        rrows, rsel = rbatch.rows, rbatch.sel
        out: list[tuple[Any, ...]]
        if build_left:
            buckets = _hash_build(lrows, lsel, left_key)
            if plain_inner:
                out = [
                    left_row + right_row
                    for right_row in map(rrows.__getitem__, rsel)
                    for left_row in buckets.get(right_key(right_row), ())
                ]
                return out_scope, Batch(out, range(len(out)))
            out = []
            for j in rsel:
                right_row = rrows[j]
                key = right_key(right_row)
                if key is None:
                    continue
                for left_row in buckets.get(key, ()):
                    combined = left_row + right_row
                    if residual(combined) is True:
                        out.append(combined)
            return out_scope, Batch(out, range(len(out)))
        buckets = _hash_build(rrows, rsel, right_key)
        if plain_inner:
            out = [
                left_row + right_row
                for left_row in map(lrows.__getitem__, lsel)
                for right_row in buckets.get(left_key(left_row), ())
            ]
            return out_scope, Batch(out, range(len(out)))
        out = []
        null_pad = (None,) * len(rscope)
        for i in lsel:
            left_row = lrows[i]
            key = left_key(left_row)
            matched = False
            if key is not None:
                bucket = buckets.get(key)
                if bucket:
                    if residual is None:
                        matched = True
                        for right_row in bucket:
                            out.append(left_row + right_row)
                    else:
                        for right_row in bucket:
                            combined = left_row + right_row
                            if residual(combined) is True:
                                matched = True
                                out.append(combined)
            if left_join and not matched:
                out.append(left_row + null_pad)
        return out_scope, Batch(out, range(len(out)))

    plan._kernel = kernel
    return scope


def _hash_build(rows: list, sel: Iterable[int], key_fn: RowFn) -> dict[Any, list]:
    """Hash table of the selected rows by join key, NULL keys left out."""
    buckets: dict[Any, list] = {}
    for i in sel:
        row = rows[i]
        key = key_fn(row)
        if key is None:
            continue
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return buckets


def _install_semi_join(plan: SemiJoinNode, database: Any) -> Scope:
    left_scope = install_kernels(plan.left, database)
    right_scope = install_kernels(plan.right, database)
    bind_left = bind_expr(plan.left_key, left_scope)
    bind_right = bind_expr(plan.right_key, right_scope)
    keep_left = plan.keep == "left"
    kept_scope = left_scope if keep_left else right_scope
    kept_expr = plan.left_key if keep_left else plan.right_key
    kept_pos = column_position(kept_expr, kept_scope)
    # The hash join this replaces emitted its probe side's order: the kept
    # side's own when it built on the other side, else the other side's.
    probe_kept = plan.build != plan.keep

    def kernel(engine: Any, node: SemiJoinNode, outer: Outer) -> tuple[Scope, Batch]:
        # Both sides run, in plan order, so the same error surfaces first.
        lscope, lbatch = engine._run_plan_batch(node.left, outer)
        rscope, rbatch = engine._run_plan_batch(node.right, outer)
        left_key = bind_left(engine, outer)
        right_key = bind_right(engine, outer)
        if keep_left:
            scope, kept, other = lscope, lbatch, rbatch
            kept_key, other_key = left_key, right_key
        else:
            scope, kept, other = rscope, rbatch, lbatch
            kept_key, other_key = right_key, left_key
        rows = kept.rows
        if not probe_kept:
            # The other side's key is its primary key, so each bucket is
            # emitted at most once.
            buckets = _hash_build(rows, kept.sel, kept_key)
            out = [
                row
                for other_row in map(other.rows.__getitem__, other.sel)
                for row in buckets.get(other_key(other_row), ())
            ]
            return scope, Batch(out, range(len(out)))
        keys = set(map(other_key, map(other.rows.__getitem__, other.sel)))
        keys.discard(None)
        if kept_pos is None:
            sel = [i for i in kept.sel if kept_key(rows[i]) in keys]
        else:  # indexing in the loop beats calling the key's itemgetter
            sel = [i for i in kept.sel if rows[i][kept_pos] in keys]
        return scope, Batch(rows, sel)

    plan._kernel = kernel
    return kept_scope


def _install_reorder(plan: ReorderNode, database: Any) -> Scope:
    child_scope = install_kernels(plan.child, database)
    segments: dict[str, tuple[int, int]] = {}
    for i, (binding, _) in enumerate(child_scope.entries):
        start, _end = segments.get(binding, (i, i))
        segments[binding] = (start, i + 1)
    slices = [slice(*segments[binding]) for binding in plan.order]
    entries: list[tuple[str, str]] = []
    for binding in plan.order:
        start, end = segments[binding]
        entries.extend(child_scope.entries[start:end])
    scope = Scope(entries)

    # Two or more bindings, so at least two positions: the getter returns
    # the reordered row as a tuple.
    reorder = itemgetter(*[i for s in slices for i in range(s.start, s.stop)])

    def kernel(engine: Any, node: ReorderNode, outer: Outer) -> tuple[Scope, Batch]:
        _child_scope, batch = engine._run_plan_batch(node.child, outer)
        out = list(map(reorder, map(batch.rows.__getitem__, batch.sel)))
        return scope, Batch(out, range(len(out)))

    plan._kernel = kernel
    return scope
