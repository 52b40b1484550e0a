"""AST node definitions for the SQL subset.

All nodes are frozen dataclasses; ``render()`` reproduces valid SQL text so
generated queries can round-trip through the parser (tested property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class Node:
    """Base class for AST nodes."""

    def render(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions."""


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, str, bool or None (NULL)."""

    value: Any

    def render(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A column reference, optionally qualified by table or alias."""

    name: str
    table: str | None = None

    def render(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``t.*`` in a select list or COUNT(*)."""

    table: str | None = None

    def render(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # '-', 'NOT'
    operand: Expr

    def render(self) -> str:
        if self.op.upper() == "NOT":
            return f"NOT ({self.operand.render()})"
        return f"{self.op}({self.operand.render()})"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # arithmetic: + - * / %, comparison: = != < <= > >=, logic: AND OR
    left: Expr
    right: Expr

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Aggregate or scalar function call."""

    name: str
    args: tuple[Expr, ...] = ()
    distinct: bool = False

    def render(self) -> str:
        inner = ", ".join(arg.render() for arg in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name.upper()}({inner})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def render(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.render()} {suffix})"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def render(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.render()} {word} "
            f"{self.low.render()} AND {self.high.render()})"
        )


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def render(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        inner = ", ".join(item.render() for item in self.items)
        return f"({self.operand.render()} {word} ({inner}))"


@dataclass(frozen=True)
class InSubquery(Expr):
    operand: Expr
    subquery: "Select"
    negated: bool = False

    def render(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        return f"({self.operand.render()} {word} ({self.subquery.render()}))"


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    subquery: "Select"

    def render(self) -> str:
        return f"({self.subquery.render()})"


@dataclass(frozen=True)
class Exists(Expr):
    subquery: "Select"
    negated: bool = False

    def render(self) -> str:
        word = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{word} ({self.subquery.render()})"


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def render(self) -> str:
        word = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.render()} {word} {self.pattern.render()})"


# --------------------------------------------------------------------------
# Select machinery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem(Node):
    """One item of the select list, optionally aliased."""

    expr: Expr
    alias: str | None = None

    def render(self) -> str:
        if self.alias:
            return f"{self.expr.render()} AS {self.alias}"
        return self.expr.render()


@dataclass(frozen=True)
class TableRef(Node):
    """A FROM-clause table with optional alias."""

    name: str
    alias: str | None = None

    def render(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name

    @property
    def binding(self) -> str:
        """The name this table is visible under in the query scope."""
        return self.alias or self.name


@dataclass(frozen=True)
class Join(Node):
    """An explicit join: ``<left> JOIN <table> ON <condition>``."""

    table: TableRef
    condition: Expr | None
    kind: str = "INNER"  # INNER | LEFT | CROSS

    def render(self) -> str:
        prefix = {"INNER": "JOIN", "LEFT": "LEFT JOIN", "CROSS": "CROSS JOIN"}[
            self.kind
        ]
        if self.condition is None:
            return f"{prefix} {self.table.render()}"
        return f"{prefix} {self.table.render()} ON {self.condition.render()}"


@dataclass(frozen=True)
class OrderItem(Node):
    expr: Expr
    descending: bool = False

    def render(self) -> str:
        return f"{self.expr.render()} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class Select(Node):
    """A full SELECT statement (usable as a subquery)."""

    items: tuple[SelectItem, ...]
    from_table: TableRef | None = None
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False

    def render(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.render() for item in self.items))
        if self.from_table is not None:
            parts.append("FROM")
            parts.append(self.from_table.render())
            for join in self.joins:
                parts.append(join.render())
        if self.where is not None:
            parts.append(f"WHERE {self.where.render()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(g.render() for g in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.render()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.render() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


# --------------------------------------------------------------------------
# Other statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef(Node):
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    references: tuple[str, str] | None = None  # (table, column)

    def render(self) -> str:
        parts = [self.name, self.type_name]
        if self.primary_key:
            parts.append("PRIMARY KEY")
        if self.not_null:
            parts.append("NOT NULL")
        if self.references:
            parts.append(f"REFERENCES {self.references[0]}({self.references[1]})")
        return " ".join(parts)


@dataclass(frozen=True)
class CreateTable(Node):
    name: str
    columns: tuple[ColumnDef, ...]

    def render(self) -> str:
        inner = ", ".join(col.render() for col in self.columns)
        return f"CREATE TABLE {self.name} ({inner})"


@dataclass(frozen=True)
class Insert(Node):
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expr, ...], ...]

    def render(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        rows = ", ".join(
            "(" + ", ".join(v.render() for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass(frozen=True)
class Delete(Node):
    table: str
    where: Expr | None = None

    def render(self) -> str:
        tail = f" WHERE {self.where.render()}" if self.where is not None else ""
        return f"DELETE FROM {self.table}{tail}"


@dataclass(frozen=True)
class Update(Node):
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None

    def render(self) -> str:
        sets = ", ".join(f"{col} = {expr.render()}" for col, expr in self.assignments)
        tail = f" WHERE {self.where.render()}" if self.where is not None else ""
        return f"UPDATE {self.table} SET {sets}{tail}"


@dataclass(frozen=True)
class BeginTransaction(Node):
    """``BEGIN [TRANSACTION|WORK]`` — open a multi-statement transaction."""

    def render(self) -> str:
        return "BEGIN"


@dataclass(frozen=True)
class CommitTransaction(Node):
    """``COMMIT [TRANSACTION|WORK]`` — make the open transaction durable."""

    def render(self) -> str:
        return "COMMIT"


@dataclass(frozen=True)
class RollbackTransaction(Node):
    """``ROLLBACK [TRANSACTION|WORK]`` — restore the pre-transaction state."""

    def render(self) -> str:
        return "ROLLBACK"


@dataclass(frozen=True)
class Explain(Node):
    """``EXPLAIN <select>`` — describe the physical plan, one row per line."""

    query: Select

    def render(self) -> str:
        return f"EXPLAIN {self.query.render()}"


Statement = (
    Select
    | CreateTable
    | Insert
    | Delete
    | Update
    | Explain
    | BeginTransaction
    | CommitTransaction
    | RollbackTransaction
)


def walk(expr: Expr):
    """Yield ``expr`` and all sub-expressions, depth-first."""
    yield expr
    if isinstance(expr, UnaryOp):
        yield from walk(expr.operand)
    elif isinstance(expr, BinaryOp):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from walk(arg)
    elif isinstance(expr, IsNull):
        yield from walk(expr.operand)
    elif isinstance(expr, Between):
        yield from walk(expr.operand)
        yield from walk(expr.low)
        yield from walk(expr.high)
    elif isinstance(expr, InList):
        yield from walk(expr.operand)
        for item in expr.items:
            yield from walk(item)
    elif isinstance(expr, (InSubquery, Like)):
        yield from walk(expr.operand)
        if isinstance(expr, Like):
            yield from walk(expr.pattern)


def contains_aggregate(expr: Expr, aggregate_names: frozenset[str]) -> bool:
    """True when ``expr`` contains a call to any aggregate function."""
    return any(
        isinstance(node, FunctionCall) and node.name.lower() in aggregate_names
        for node in walk(expr)
    )


def referenced_tables(select: "Select") -> frozenset[str]:
    """All table names a SELECT reads from, including inside subqueries.

    This is the dependency set the plan cache stamps entries with: a cached
    plan/result is valid only while the version of *every* referenced table
    is unchanged.  Unlike :func:`walk` (expressions only), this descends
    into ``IN (SELECT ...)``, scalar subqueries and ``EXISTS``.
    """
    found: set[str] = set()
    _visit_select_tables(select, found)
    return frozenset(found)


# Module-level on purpose: nested functions that call each other form a
# reference cycle, garbage for the cyclic collector on every call.
def _visit_expr_tables(expr: Expr, found: set[str]) -> None:
    for node in walk(expr):
        if isinstance(node, (InSubquery, ScalarSubquery, Exists)):
            _visit_select_tables(node.subquery, found)


def _visit_select_tables(node: Select, found: set[str]) -> None:
    if node.from_table is not None:
        found.add(node.from_table.name.lower())
    for join in node.joins:
        found.add(join.table.name.lower())
        if join.condition is not None:
            _visit_expr_tables(join.condition, found)
    for item in node.items:
        if not isinstance(item.expr, Star):
            _visit_expr_tables(item.expr, found)
    for clause in (node.where, node.having):
        if clause is not None:
            _visit_expr_tables(clause, found)
    for group in node.group_by:
        _visit_expr_tables(group, found)
    for order in node.order_by:
        _visit_expr_tables(order.expr, found)
