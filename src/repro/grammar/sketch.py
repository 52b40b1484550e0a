"""Semantic sketches: the values the grammar's actions build.

A :class:`Sketch` is an under-specified :class:`~repro.logical.forms.
LogicalQuery`: the entity may be missing (fragments), conditions are raw,
and nothing has been validated against the schema yet.  The interpreter
turns sketches into logical queries.

Actions combine child sketches/tags with the small algebra below.  All
types are frozen so the parser can deduplicate semantic values by repr.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.logical.forms import (
    AttrRef,
    Condition,
    EntityRef,
    OrderSpec,
    Superlative,
)


@dataclass(frozen=True)
class Sketch:
    """Grammar-level meaning of (part of) a question."""

    qtype: str = "list"  # list | count | agg | attr
    entity: EntityRef | None = None
    projections: tuple[AttrRef, ...] = ()
    agg_function: str | None = None  # count | sum | avg | min | max
    agg_attr: AttrRef | None = None
    conditions: tuple[Condition, ...] = ()
    superlative: Superlative | None = None
    group_by: Any | None = None  # AttrRef | EntityRef (resolved later)
    order_by: OrderSpec | None = None
    limit: int | None = None
    fragment: bool = False  # elliptical follow-up, needs dialogue context
    #: Semantic-agreement penalty accumulated by grammar actions (e.g. a
    #: head noun that does not match its value's table).  Subtracted from
    #: the interpretation score, so mismatched readings lose ties.
    penalty: float = 0.0

    def merge_tags(self, tags: "list[Tag]") -> "Sketch":
        """Fold modifier tags (conditions/superlatives/order) into self."""
        sketch = self
        for tag in tags:
            if tag.kind == "cond":
                sketch = replace(sketch, conditions=sketch.conditions + (tag.value,))
            elif tag.kind == "super":
                sketch = replace(sketch, superlative=tag.value)
            elif tag.kind == "order":
                sketch = replace(sketch, order_by=tag.value)
            elif tag.kind == "group":
                sketch = replace(sketch, group_by=tag.value)
            elif tag.kind == "limit":
                sketch = replace(sketch, limit=tag.value)
            elif tag.kind == "penalty":
                sketch = replace(sketch, penalty=sketch.penalty + tag.value)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown tag kind {tag.kind!r}")
        return sketch


@dataclass(frozen=True)
class Tag:
    """A modifier produced by a post-/pre-modifier production."""

    kind: str  # cond | super | order | group | limit
    value: Any


def cond(value: Condition) -> Tag:
    return Tag("cond", value)


def penalty_tag(amount: float) -> Tag:
    return Tag("penalty", amount)


def flatten_tags(value: Any) -> list[Tag]:
    """Normalise action children into a flat tag list."""
    if value is None:
        return []
    if isinstance(value, Tag):
        return [value]
    if isinstance(value, (list, tuple)):
        out: list[Tag] = []
        for item in value:
            out.extend(flatten_tags(item))
        return out
    raise ValueError(f"not a tag: {value!r}")
