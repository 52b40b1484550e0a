"""Logical access plans for the FROM/WHERE part of a SELECT.

The planner turns the relational core of a statement (table refs, joins and
the WHERE predicate) into a tree of plan nodes.  Grouping, projection,
ordering and limiting are handled above the plan by the executor, since
they need full expression semantics over the produced row stream.

Plan nodes:

* :class:`ScanNode` — one base table under a binding, with optional pushed
  filters and index hints chosen by the optimizer.
* :class:`JoinNode` — nested-loop join (INNER/LEFT/CROSS) with a condition.
* :class:`HashJoinNode` — equi-join specialisation created by the optimizer.
* :class:`SemiJoinNode` — an INNER equi-join to a primary key whose side
  nothing above reads: it only filters the other side.
* :class:`FilterNode` — residual predicate on a sub-plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import PlanError, UnknownTableError
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.database import Database


@dataclass
class PlanNode:
    """Base class for plan nodes."""

    def bindings(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass
class ScanNode(PlanNode):
    """Scan of ``table_name`` under alias ``binding``.

    ``eq_filters`` / ``range_filters`` are index-usable predicates installed
    by the optimizer; ``residual_filters`` are evaluated per row.
    """

    table_name: str
    binding: str
    eq_filters: list[tuple[str, Any]] = field(default_factory=list)
    range_filters: list[tuple[str, str, Any]] = field(default_factory=list)
    in_filters: list[tuple[str, tuple[Any, ...]]] = field(default_factory=list)
    residual_filters: list[ast.Expr] = field(default_factory=list)

    def bindings(self) -> list[str]:
        return [self.binding]

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        hints = []
        if self.eq_filters:
            hints.append("eq=" + ",".join(c for c, _ in self.eq_filters))
        if self.range_filters:
            hints.append("range=" + ",".join(c for c, _, _ in self.range_filters))
        if self.in_filters:
            hints.append("in=" + ",".join(c for c, _ in self.in_filters))
        if self.residual_filters:
            hints.append(f"residual={len(self.residual_filters)}")
        tail = f" [{' '.join(hints)}]" if hints else ""
        return f"{pad}Scan({self.table_name} AS {self.binding}){tail}"


@dataclass
class JoinNode(PlanNode):
    """Nested-loop join of two sub-plans."""

    left: PlanNode
    right: PlanNode
    condition: ast.Expr | None
    kind: str = "INNER"  # INNER | LEFT | CROSS

    def bindings(self) -> list[str]:
        return self.left.bindings() + self.right.bindings()

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        cond = self.condition.render() if self.condition is not None else "TRUE"
        return (
            f"{pad}NestedLoopJoin[{self.kind}] ON {cond}\n"
            f"{self.left.describe(indent + 1)}\n{self.right.describe(indent + 1)}"
        )


@dataclass
class HashJoinNode(PlanNode):
    """Equi-join evaluated by building a hash table on one side.

    ``build`` names the side the hash table is built on; the optimizer
    picks the side with the smaller estimated cardinality (``est_left`` /
    ``est_right``, from table statistics).  LEFT joins always build right,
    because probing must iterate the preserved side.
    """

    left: PlanNode
    right: PlanNode
    left_key: ast.Expr
    right_key: ast.Expr
    kind: str = "INNER"  # INNER | LEFT
    residual: ast.Expr | None = None
    build: str = "right"  # left | right
    est_left: float | None = None
    est_right: float | None = None

    def bindings(self) -> list[str]:
        return self.left.bindings() + self.right.bindings()

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        res = f" residual={self.residual.render()}" if self.residual else ""
        est = ""
        if self.est_left is not None and self.est_right is not None:
            est = f" est={self.est_left:.0f}x{self.est_right:.0f}"
        return (
            f"{pad}HashJoin[{self.kind} build={self.build}{est}] "
            f"{self.left_key.render()} = {self.right_key.render()}{res}\n"
            f"{self.left.describe(indent + 1)}\n{self.right.describe(indent + 1)}"
        )


@dataclass
class SemiJoinNode(PlanNode):
    """An INNER equi-join whose ``keep`` side passes through unchanged.

    The optimizer rewrites a :class:`HashJoinNode` into this node when the
    other side is one scan joined on its table's primary key and nothing
    above reads that scan: each kept row then matches at most once, so the
    join only filters.  Its output is the kept side's rows in the order of
    the hash join it replaces, which ``build`` still names.
    """

    left: PlanNode
    right: PlanNode
    left_key: ast.Expr
    right_key: ast.Expr
    keep: str = "left"  # left | right
    build: str = "right"  # left | right
    est_left: float | None = None
    est_right: float | None = None

    def bindings(self) -> list[str]:
        return (self.left if self.keep == "left" else self.right).bindings()

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        est = ""
        if self.est_left is not None and self.est_right is not None:
            est = f" est={self.est_left:.0f}x{self.est_right:.0f}"
        return (
            f"{pad}SemiJoin[keep={self.keep}{est}] "
            f"{self.left_key.render()} = {self.right_key.render()}\n"
            f"{self.left.describe(indent + 1)}\n{self.right.describe(indent + 1)}"
        )


@dataclass
class ReorderNode(PlanNode):
    """Presents a reordered join's output in the original binding order.

    The statistics-driven join reordering changes which table feeds which
    side of the join tree; this wrapper restores the query's declared
    column order (so ``SELECT *`` output is unchanged) by permuting each
    row's per-binding segments.
    """

    child: PlanNode
    order: tuple[str, ...]  # binding order to present

    def bindings(self) -> list[str]:
        return list(self.order)

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}Reorder({', '.join(self.order)})\n"
            f"{self.child.describe(indent + 1)}"
        )


@dataclass
class FilterNode(PlanNode):
    """Residual predicate over a sub-plan."""

    child: PlanNode
    predicate: ast.Expr

    def bindings(self) -> list[str]:
        return self.child.bindings()

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}Filter({self.predicate.render()})\n"
            f"{self.child.describe(indent + 1)}"
        )


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a predicate into its AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    """Re-assemble conjuncts into one AND expression (or None)."""
    if not conjuncts:
        return None
    out = conjuncts[0]
    for conjunct in conjuncts[1:]:
        out = ast.BinaryOp("AND", out, conjunct)
    return out


def expr_bindings(expr: ast.Expr, scope_bindings: set[str]) -> set[str] | None:
    """The set of table bindings an expression references.

    Returns ``None`` when the expression contains a subquery or an
    unqualified column (either makes pushdown decisions unsafe).
    """
    found: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, (ast.InSubquery, ast.ScalarSubquery, ast.Exists)):
            return None
        if isinstance(node, ast.ColumnRef):
            if node.table is None:
                return None
            if node.table not in scope_bindings:
                return None
            found.add(node.table)
    return found


def qualify_expr(expr: ast.Expr, column_bindings: dict[str, list[str]]) -> ast.Expr:
    """Rewrite unqualified column refs to qualified ones when unambiguous.

    Qualification never descends into subqueries — their inner scopes may
    shadow outer names, and correlated refs resolve at execution time.
    """
    if isinstance(expr, ast.ColumnRef):
        if expr.table is None:
            bindings = column_bindings.get(expr.name.lower(), [])
            if len(bindings) == 1:
                return ast.ColumnRef(expr.name, table=bindings[0])
        return expr
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, qualify_expr(expr.operand, column_bindings))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            qualify_expr(expr.left, column_bindings),
            qualify_expr(expr.right, column_bindings),
        )
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(
            expr.name,
            tuple(qualify_expr(arg, column_bindings) for arg in expr.args),
            expr.distinct,
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(qualify_expr(expr.operand, column_bindings), expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(
            qualify_expr(expr.operand, column_bindings),
            qualify_expr(expr.low, column_bindings),
            qualify_expr(expr.high, column_bindings),
            expr.negated,
        )
    if isinstance(expr, ast.InList):
        return ast.InList(
            qualify_expr(expr.operand, column_bindings),
            tuple(qualify_expr(item, column_bindings) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.InSubquery):
        return ast.InSubquery(
            qualify_expr(expr.operand, column_bindings), expr.subquery, expr.negated
        )
    if isinstance(expr, ast.Like):
        return ast.Like(
            qualify_expr(expr.operand, column_bindings),
            qualify_expr(expr.pattern, column_bindings),
            expr.negated,
        )
    return expr


def build_plan(select: ast.Select, database: Database) -> PlanNode | None:
    """Build the naive (unoptimised) access plan for ``select``.

    Returns ``None`` for table-less selects (e.g. ``SELECT 1``).
    """
    if select.from_table is None:
        if select.joins:
            raise PlanError("JOIN without FROM")
        return None
    seen: set[str] = set()
    column_bindings: dict[str, list[str]] = {}

    def make_scan(ref: ast.TableRef) -> ScanNode:
        if not database.has_table(ref.name):
            raise UnknownTableError(f"no table named {ref.name!r}")
        binding = ref.binding
        if binding in seen:
            raise PlanError(f"duplicate table binding {binding!r}")
        seen.add(binding)
        for column in database.table(ref.name).schema.column_names:
            column_bindings.setdefault(column, []).append(binding)
        return ScanNode(ref.name, binding)

    scans = [make_scan(select.from_table)]
    scans.extend(make_scan(join.table) for join in select.joins)

    plan: PlanNode = scans[0]
    for scan, join in zip(scans[1:], select.joins):
        condition = (
            qualify_expr(join.condition, column_bindings)
            if join.condition is not None
            else None
        )
        plan = JoinNode(plan, scan, condition, kind=join.kind)
    if select.where is not None:
        plan = FilterNode(plan, qualify_expr(select.where, column_bindings))
    return plan
