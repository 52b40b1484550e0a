"""Interpretation: sketches -> ranked logical queries.

The grammar's sketches are already schema-grounded (payloads are refs),
so interpretation validates them, resolves defaults (display columns,
group-by targets), checks join connectivity and scores each candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import InterpretationError
from repro.grammar.sketch import Sketch
from repro.lexicon.domain import DomainModel
from repro.logical.forms import (
    Aggregate,
    AttrRef,
    EntityRef,
    LogicalQuery,
    MembershipCondition,
)
from repro.schemagraph.graph import SchemaGraph
from repro.schemagraph.steiner import steiner_join_tree
from repro.sqlengine.database import Database


@dataclass(frozen=True)
class Interpretation:
    """One resolved reading of the question."""

    query: LogicalQuery
    score: float
    join_hops: int

    def describe(self) -> str:
        return self.query.describe()


def display_attr(
    database: Database, domain: DomainModel | None, table: str
) -> AttrRef:
    """The attribute shown when a user asks for an entity by name."""
    if domain is not None:
        columns = domain.display_columns_for(table)
        if columns:
            return AttrRef(table, columns[0], phrase=columns[0].replace("_", " "))
    schema = database.table(table).schema
    if schema.has_column("name"):
        return AttrRef(table, "name", phrase="name")
    if schema.primary_key:
        return AttrRef(table, schema.primary_key, phrase=schema.primary_key)
    first = schema.columns[0].name
    return AttrRef(table, first, phrase=first)


def display_attrs(
    database: Database, domain: DomainModel | None, table: str
) -> tuple[AttrRef, ...]:
    """All display attributes for list answers."""
    if domain is not None:
        columns = domain.display_columns_for(table)
        if columns:
            return tuple(
                AttrRef(table, column, phrase=column.replace("_", " "))
                for column in columns
            )
    return (display_attr(database, domain, table),)


class Interpreter:
    """Validates and scores sketches against one database."""

    def __init__(
        self,
        database: Database,
        graph: SchemaGraph,
        domain: DomainModel | None = None,
    ) -> None:
        self.database = database
        self.graph = graph
        self.domain = domain

    # -- public ---------------------------------------------------------------

    def interpret(self, sketches: list[Sketch]) -> list[Interpretation]:
        """All valid interpretations, best first.

        Sketches that fail validation are silently dropped; if *all* fail,
        the most informative error is raised.
        """
        interpretations: list[Interpretation] = []
        seen: set[str] = set()
        last_error: InterpretationError | None = None
        for sketch in sketches:
            try:
                interpretation = self._interpret_one(sketch)
            except InterpretationError as exc:
                last_error = exc
                continue
            key = repr(interpretation.query)
            if key not in seen:
                seen.add(key)
                interpretations.append(interpretation)
        if not interpretations:
            raise last_error or InterpretationError("no valid interpretation")
        interpretations.sort(key=lambda i: (-i.score, i.join_hops, repr(i.query)))
        return interpretations

    # -- internals ---------------------------------------------------------------

    def _interpret_one(self, sketch: Sketch) -> Interpretation:
        if sketch.fragment:
            raise InterpretationError(
                "elliptical fragment needs dialogue context"
            )
        query = self.resolve(sketch)
        interpretation = self.score(query)
        if sketch.penalty:
            interpretation = replace(
                interpretation, score=interpretation.score - sketch.penalty
            )
        return interpretation

    def resolve(self, sketch: Sketch, default_entity: EntityRef | None = None) -> LogicalQuery:
        """Turn a sketch into a LogicalQuery (schema-validated)."""
        entity = sketch.entity or default_entity
        if entity is None:
            entity = self._infer_entity(sketch)
        if not self.database.has_table(entity.table):
            raise InterpretationError(f"unknown entity table {entity.table!r}")

        aggregate = None
        if sketch.agg_function:
            if sketch.agg_function != "count" and sketch.agg_attr is None:
                raise InterpretationError(
                    f"aggregate {sketch.agg_function!r} needs an attribute"
                )
            aggregate = Aggregate(sketch.agg_function, sketch.agg_attr)

        group_by = None
        if sketch.group_by is not None:
            group_by = self._resolve_group_target(sketch.group_by)

        self._validate_conditions(sketch)

        projections = tuple(sketch.projections)
        query = LogicalQuery(
            target=entity,
            projections=projections,
            aggregate=aggregate,
            conditions=tuple(sketch.conditions),
            superlative=sketch.superlative,
            group_by=group_by,
            order_by=sketch.order_by,
            limit=sketch.limit,
        )
        # Join connectivity check (raises when tables cannot be connected).
        self.join_tree(query)
        return query

    def _infer_entity(self, sketch: Sketch) -> EntityRef:
        """Pick a target entity for entity-less sketches (attr lookups)."""
        if sketch.projections:
            table = sketch.projections[0].table
            return EntityRef(table, phrase=table)
        if sketch.agg_attr is not None:
            return EntityRef(sketch.agg_attr.table, phrase=sketch.agg_attr.table)
        for condition in sketch.conditions:
            tables = LogicalQuery(
                target=EntityRef("x"), conditions=(condition,)
            ).condition_tables() - {"x"}
            if tables:
                table = sorted(tables)[0]
                return EntityRef(table, phrase=table)
        raise InterpretationError("cannot determine what the question is about")

    def _resolve_group_target(self, target) -> AttrRef:
        if isinstance(target, AttrRef):
            return target
        if isinstance(target, EntityRef):
            return display_attr(self.database, self.domain, target.table)
        raise InterpretationError(f"cannot group by {target!r}")

    def _validate_conditions(self, sketch: Sketch) -> None:
        for condition in sketch.conditions:
            if isinstance(condition, MembershipCondition):
                columns = {(v.table, v.column) for v in condition.values}
                if len(columns) > 1:
                    raise InterpretationError(
                        "values in an or-list must come from one column: "
                        + ", ".join(sorted(f"{t}.{c}" for t, c in columns))
                    )

    # -- joins & scoring ---------------------------------------------------------

    def join_tree(self, query: LogicalQuery):
        return steiner_join_tree(self.graph, query.condition_tables())

    def score(self, query: LogicalQuery) -> Interpretation:
        """Scoring follows the era's heuristics: prefer compact join trees,
        conditions close to the target entity, and typed agreement."""
        edges = self.join_tree(query)
        hops = len(edges)
        score = 10.0
        score -= 1.5 * hops
        score += 1.0 * len(query.conditions)
        # Value conditions on the target's own table are the most direct
        # reading ("kennedy" as a ship name beats "kennedy" as an officer).
        from repro.logical.forms import MembershipCondition, ValueCondition

        for condition in query.conditions:
            tables = LogicalQuery(
                target=query.target, conditions=(condition,)
            ).condition_tables()
            if tables == {query.target.table}:
                score += 0.5
            # Identity columns ("name") are likelier referents than
            # descriptive columns ("headquarters") for a bare value.
            refs = []
            if isinstance(condition, ValueCondition):
                refs = [condition.value]
            elif isinstance(condition, MembershipCondition):
                refs = list(condition.values)
            if refs and all(ref.column == "name" for ref in refs):
                score += 0.3
            # Stem-approximate value matches lose to exact ones.
            score -= 1.0 * sum(1 for ref in refs if ref.approx)
        if query.aggregate is not None:
            score += 0.25
        if query.superlative is not None:
            score += 0.25
            # A superlative grounded in another entity's attribute is a
            # stretch ("largest" meaning population when asking for rivers).
            if query.superlative.attr.table != query.target.table:
                score -= 2.0
        if (
            query.aggregate is not None
            and query.aggregate.attr is not None
            and query.aggregate.attr.table != query.target.table
        ):
            score -= 0.5
        # Numeric comparisons on non-numeric columns are suspicious.
        from repro.logical.forms import CompareCondition
        from repro.sqlengine.types import is_numeric

        for condition in query.conditions:
            if isinstance(condition, CompareCondition) and isinstance(
                condition.operand, (int, float)
            ):
                column = self.database.table(condition.attr.table).schema.column(
                    condition.attr.column
                )
                if not is_numeric(column.sql_type):
                    score -= 3.0
        # "heavier than the kennedy": prefer reading 'kennedy' as an
        # instance of the compared attribute's own table.
        from repro.logical.forms import CompareToInstance

        for condition in query.conditions:
            if isinstance(condition, CompareToInstance):
                if condition.instance.table == condition.attr.table:
                    score += 1.0
        return Interpretation(query, score, hops)
