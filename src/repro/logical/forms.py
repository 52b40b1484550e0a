"""The intermediate logical query form (IQF).

The semantic grammar produces an IQF; the interpreter resolves it against
the schema; the SQL generator turns it into a ``repro.sqlengine`` AST.
Keeping this layer explicit is what made the 1978-era systems debuggable:
every stage's output is inspectable and paraphrasable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Union


@dataclass(frozen=True)
class EntityRef:
    """A reference to a domain entity (a table)."""

    table: str
    phrase: str = ""

    def describe(self) -> str:
        return self.phrase or self.table


@dataclass(frozen=True)
class AttrRef:
    """A reference to an entity attribute (a column)."""

    table: str
    column: str
    phrase: str = ""

    def describe(self) -> str:
        return self.phrase or self.column

    @property
    def key(self) -> tuple[str, str]:
        return (self.table, self.column)


@dataclass(frozen=True)
class ValueRef:
    """A reference to a concrete data value found in the database.

    ``approx`` marks matches reached through stem-folding ("engineers"
    matching the stored value "engineer"); ranking prefers exact hits.
    """

    table: str
    column: str
    value: Any
    phrase: str = ""
    approx: bool = False

    def describe(self) -> str:
        return str(self.value)


# --------------------------------------------------------------------------
# Conditions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueCondition:
    """Entity is linked to a known value, e.g. "... in the pacific fleet"."""

    value: ValueRef
    negated: bool = False

    def describe(self) -> str:
        verb = "is not" if self.negated else "is"
        return f"{self.value.column} {verb} {self.value.describe()}"


@dataclass(frozen=True)
class CompareCondition:
    """Numeric/text comparison on an attribute, e.g. displacement > 3000."""

    attr: AttrRef
    op: str  # = != < <= > >=
    operand: Any
    negated: bool = False

    def describe(self) -> str:
        words = {"=": "is", "!=": "is not", "<": "is below", "<=": "is at most",
                 ">": "is above", ">=": "is at least"}
        return f"{self.attr.describe()} {words.get(self.op, self.op)} {self.operand}"


@dataclass(frozen=True)
class BetweenCondition:
    """Attribute within an inclusive range."""

    attr: AttrRef
    low: Any
    high: Any
    negated: bool = False

    def describe(self) -> str:
        middle = "is not between" if self.negated else "is between"
        return f"{self.attr.describe()} {middle} {self.low} and {self.high}"


@dataclass(frozen=True)
class NullCondition:
    """Attribute is (not) missing."""

    attr: AttrRef
    negated: bool = False  # negated=True means IS NOT NULL

    def describe(self) -> str:
        state = "is known" if self.negated else "is unknown"
        return f"{self.attr.describe()} {state}"


@dataclass(frozen=True)
class CompareToAggregate:
    """Comparison against a global aggregate — yields a nested query.

    Example: "ships heavier than the average displacement" becomes
    ``displacement > (SELECT AVG(displacement) FROM ship)``.
    """

    attr: AttrRef
    op: str
    aggregate: str  # avg | min | max | sum
    agg_attr: AttrRef
    negated: bool = False

    def describe(self) -> str:
        return (
            f"{self.attr.describe()} {self.op} the {self.aggregate} "
            f"{self.agg_attr.describe()} of all rows"
        )


@dataclass(frozen=True)
class MembershipCondition:
    """Disjunction over values, e.g. "in norfolk or san diego".

    All values must resolve to the same column; the interpreter enforces
    that and the SQL generator emits an ``IN`` list.
    """

    values: tuple[ValueRef, ...]
    negated: bool = False

    def describe(self) -> str:
        names = " or ".join(v.describe() for v in self.values)
        verb = "is not one of" if self.negated else "is one of"
        column = self.values[0].column if self.values else "?"
        return f"{column} {verb} {names}"


@dataclass(frozen=True)
class CompareToInstance:
    """Comparison against a named instance's attribute — nested query.

    Example: "ships heavier than the kennedy" becomes
    ``displacement > (SELECT displacement FROM ship WHERE name = 'Kennedy')``.
    """

    attr: AttrRef
    op: str
    instance: ValueRef
    negated: bool = False

    def describe(self) -> str:
        return (
            f"{self.attr.describe()} {self.op} that of {self.instance.describe()}"
        )


Condition = Union[
    ValueCondition,
    CompareCondition,
    BetweenCondition,
    NullCondition,
    CompareToAggregate,
    MembershipCondition,
    CompareToInstance,
]


# --------------------------------------------------------------------------
# Aggregation / superlatives
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Aggregate:
    """COUNT/SUM/AVG/MIN/MAX over the result."""

    function: str  # count | sum | avg | min | max
    attr: AttrRef | None = None  # None only valid for count
    distinct: bool = False

    def describe(self) -> str:
        if self.function == "count":
            return "the number"
        noun = {"sum": "total", "avg": "average", "min": "smallest", "max": "largest"}
        target = self.attr.describe() if self.attr else ""
        return f"the {noun.get(self.function, self.function)} {target}".strip()


@dataclass(frozen=True)
class Superlative:
    """Top-k by an attribute, e.g. "the 3 largest ships"."""

    attr: AttrRef
    direction: str  # 'max' | 'min'
    k: int = 1

    def describe(self) -> str:
        word = "highest" if self.direction == "max" else "lowest"
        prefix = f"{self.k} " if self.k != 1 else ""
        return f"the {prefix}{word} {self.attr.describe()}"


@dataclass(frozen=True)
class OrderSpec:
    attr: AttrRef
    descending: bool = False


# --------------------------------------------------------------------------
# The query itself
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LogicalQuery:
    """A complete, schema-resolved logical question.

    ``target`` names the entity being asked about; projections default to
    the entity's display attributes when empty.
    """

    target: EntityRef
    projections: tuple[AttrRef, ...] = ()
    aggregate: Aggregate | None = None
    conditions: tuple[Condition, ...] = ()
    superlative: Superlative | None = None
    group_by: AttrRef | None = None
    order_by: OrderSpec | None = None
    limit: int | None = None

    # -- ellipsis / dialogue algebra ------------------------------------------

    def add_condition(self, condition: Condition) -> "LogicalQuery":
        return replace(self, conditions=self.conditions + (condition,))

    def describe(self) -> str:
        """A compact, deterministic one-line summary (used for ranking ties
        and clarification menus; the full paraphraser lives in repro.nlg)."""
        parts = []
        if self.aggregate:
            parts.append(self.aggregate.describe())
            parts.append("of")
        parts.append(self.target.describe())
        for condition in self.conditions:
            parts.append(f"[{condition.describe()}]")
        if self.superlative:
            parts.append(f"<{self.superlative.describe()}>")
        if self.group_by:
            parts.append(f"per {self.group_by.describe()}")
        return " ".join(parts)

    def condition_tables(self) -> set[str]:
        """All tables touched by the query (for join inference)."""
        tables = {self.target.table}
        for condition in self.conditions:
            if isinstance(condition, ValueCondition):
                tables.add(condition.value.table)
            elif isinstance(condition, MembershipCondition):
                tables.update(v.table for v in condition.values)
            elif isinstance(
                condition,
                (CompareCondition, BetweenCondition, NullCondition,
                 CompareToAggregate, CompareToInstance),
            ):
                tables.add(condition.attr.table)
        for attr in self.projections:
            tables.add(attr.table)
        if self.aggregate and self.aggregate.attr:
            tables.add(self.aggregate.attr.table)
        if self.superlative:
            tables.add(self.superlative.attr.table)
        if self.group_by:
            tables.add(self.group_by.table)
        if self.order_by:
            tables.add(self.order_by.attr.table)
        return tables
