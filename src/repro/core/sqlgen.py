"""SQL generation: LogicalQuery -> ``repro.sqlengine`` AST.

The generator reuses the engine's own AST, so generated queries are valid
by construction and render to SQL text via ``Select.render()``.
"""

from __future__ import annotations

from repro.errors import InterpretationError
from repro.core.interpret import display_attrs
from repro.lexicon.domain import DomainModel
from repro.logical.forms import (
    AttrRef,
    BetweenCondition,
    CompareCondition,
    CompareToAggregate,
    CompareToInstance,
    Condition,
    LogicalQuery,
    MembershipCondition,
    NullCondition,
    ValueCondition,
)
from repro.schemagraph.graph import JoinEdge, SchemaGraph
from repro.schemagraph.steiner import steiner_join_tree
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.database import Database


class SqlGenerator:
    """Generates SELECT statements for logical queries."""

    def __init__(
        self,
        database: Database,
        graph: SchemaGraph,
        domain: DomainModel | None = None,
    ) -> None:
        self.database = database
        self.graph = graph
        self.domain = domain

    # -- public --------------------------------------------------------------

    def generate(self, query: LogicalQuery) -> ast.Select:
        from_table, joins = self._from_clause(query)
        where = self._where_clause(query.conditions)
        has_joins = bool(joins)

        items, group_by = self._select_list(query, has_joins)
        order_by, limit = self._order_limit(query)

        distinct = (
            has_joins
            and query.aggregate is None
            and query.group_by is None
        )
        return ast.Select(
            items=tuple(items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=None,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def generate_sql(self, query: LogicalQuery) -> str:
        return self.generate(query).render()

    # -- FROM / joins -----------------------------------------------------------

    def _join_edges(self, query: LogicalQuery) -> list[JoinEdge]:
        return steiner_join_tree(self.graph, query.condition_tables())

    def _from_clause(
        self, query: LogicalQuery
    ) -> tuple[ast.TableRef, list[ast.Join]]:
        edges = self._join_edges(query)
        root = query.target.table
        from_table = ast.TableRef(root)
        if not edges:
            return from_table, []
        adjacency: dict[str, list[JoinEdge]] = {}
        for edge in edges:
            adjacency.setdefault(edge.from_table, []).append(edge)
            adjacency.setdefault(edge.to_table, []).append(edge.reversed())
        joins: list[ast.Join] = []
        visited = {root}
        frontier = [root]
        while frontier:
            current = frontier.pop(0)
            for edge in sorted(
                adjacency.get(current, []), key=lambda e: e.to_table
            ):
                if edge.to_table in visited:
                    continue
                visited.add(edge.to_table)
                frontier.append(edge.to_table)
                condition = ast.BinaryOp(
                    "=",
                    ast.ColumnRef(edge.from_column, table=edge.from_table),
                    ast.ColumnRef(edge.to_column, table=edge.to_table),
                )
                joins.append(ast.Join(ast.TableRef(edge.to_table), condition))
        if len(visited) < len({t for e in edges for t in (e.from_table, e.to_table)} | {root}):
            raise InterpretationError("join tree is not connected to the target")
        return from_table, joins

    # -- WHERE ---------------------------------------------------------------------

    def _where_clause(self, conditions: tuple[Condition, ...]) -> ast.Expr | None:
        exprs = [self._condition_expr(c) for c in conditions]
        if not exprs:
            return None
        out = exprs[0]
        for expr in exprs[1:]:
            out = ast.BinaryOp("AND", out, expr)
        return out

    @staticmethod
    def _col(attr: AttrRef) -> ast.ColumnRef:
        return ast.ColumnRef(attr.column, table=attr.table)

    def _condition_expr(self, condition: Condition) -> ast.Expr:
        if isinstance(condition, ValueCondition):
            ref = condition.value
            op = "!=" if condition.negated else "="
            return ast.BinaryOp(
                op,
                ast.ColumnRef(ref.column, table=ref.table),
                ast.Literal(ref.value),
            )
        if isinstance(condition, MembershipCondition):
            first = condition.values[0]
            return ast.InList(
                ast.ColumnRef(first.column, table=first.table),
                tuple(ast.Literal(v.value) for v in condition.values),
                negated=condition.negated,
            )
        if isinstance(condition, CompareCondition):
            expr: ast.Expr = ast.BinaryOp(
                condition.op, self._col(condition.attr), ast.Literal(condition.operand)
            )
            if condition.negated:
                expr = ast.UnaryOp("NOT", expr)
            return expr
        if isinstance(condition, BetweenCondition):
            return ast.Between(
                self._col(condition.attr),
                ast.Literal(condition.low),
                ast.Literal(condition.high),
                negated=condition.negated,
            )
        if isinstance(condition, NullCondition):
            return ast.IsNull(self._col(condition.attr), negated=condition.negated)
        if isinstance(condition, CompareToAggregate):
            subquery = ast.Select(
                items=(
                    ast.SelectItem(
                        ast.FunctionCall(
                            condition.aggregate, (self._col(condition.agg_attr),)
                        )
                    ),
                ),
                from_table=ast.TableRef(condition.agg_attr.table),
            )
            expr = ast.BinaryOp(
                condition.op, self._col(condition.attr), ast.ScalarSubquery(subquery)
            )
            if condition.negated:
                expr = ast.UnaryOp("NOT", expr)
            return expr
        if isinstance(condition, CompareToInstance):
            instance = condition.instance
            inner = LogicalQuery(
                target=_entity_for(condition.attr.table),
                projections=(condition.attr,),
                conditions=(ValueCondition(instance),),
            )
            subquery = self.generate(inner)
            expr = ast.BinaryOp(
                condition.op, self._col(condition.attr), ast.ScalarSubquery(subquery)
            )
            if condition.negated:
                expr = ast.UnaryOp("NOT", expr)
            return expr
        raise InterpretationError(f"cannot generate SQL for {condition!r}")

    # -- SELECT list ------------------------------------------------------------------

    def _target_pk(self, query: LogicalQuery) -> AttrRef:
        schema = self.database.table(query.target.table).schema
        column = schema.primary_key or schema.columns[0].name
        return AttrRef(query.target.table, column)

    def _select_list(
        self, query: LogicalQuery, has_joins: bool
    ) -> tuple[list[ast.SelectItem], list[ast.Expr]]:
        items: list[ast.SelectItem] = []
        group_exprs: list[ast.Expr] = []

        if query.group_by is not None:
            group_col = self._col(query.group_by)
            group_exprs.append(group_col)
            items.append(ast.SelectItem(group_col, alias=query.group_by.column))

        if query.aggregate is not None:
            agg = query.aggregate
            if agg.function == "count":
                if has_joins or query.group_by is not None:
                    pk = self._target_pk(query)
                    call = ast.FunctionCall("count", (self._col(pk),), distinct=True)
                else:
                    call = ast.FunctionCall("count", (ast.Star(),))
                items.append(ast.SelectItem(call, alias="n"))
            else:
                assert agg.attr is not None
                call = ast.FunctionCall(
                    agg.function, (self._col(agg.attr),), distinct=agg.distinct
                )
                items.append(
                    ast.SelectItem(call, alias=f"{agg.function}_{agg.attr.column}")
                )
            return items, group_exprs

        if query.group_by is not None:
            # grouped non-aggregate query: default to counting
            pk = self._target_pk(query)
            items.append(
                ast.SelectItem(
                    ast.FunctionCall("count", (self._col(pk),), distinct=True),
                    alias="n",
                )
            )
            return items, group_exprs

        attrs = query.projections or display_attrs(
            self.database, self.domain, query.target.table
        )
        for attr in attrs:
            items.append(ast.SelectItem(self._col(attr)))
        return items, group_exprs

    # -- ORDER / LIMIT -------------------------------------------------------------------

    def _order_limit(
        self, query: LogicalQuery
    ) -> tuple[list[ast.OrderItem], int | None]:
        order_by: list[ast.OrderItem] = []
        limit = query.limit
        if query.superlative is not None:
            sup = query.superlative
            order_by.append(
                ast.OrderItem(self._col(sup.attr), descending=sup.direction == "max")
            )
            limit = sup.k if limit is None else min(limit, sup.k)
        if query.order_by is not None:
            order_by.append(
                ast.OrderItem(
                    self._col(query.order_by.attr),
                    descending=query.order_by.descending,
                )
            )
        if query.aggregate is not None and query.group_by is not None:
            # deterministic group output: order by group column
            order_by.append(ast.OrderItem(self._col(query.group_by)))
        return order_by, limit


def _entity_for(table: str):
    from repro.logical.forms import EntityRef

    return EntityRef(table, phrase=table)
