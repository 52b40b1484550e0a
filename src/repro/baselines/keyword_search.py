"""Keyword-lookup baseline — the pre-semantic-grammar state of the art.

Models the early keyword systems (BANKS/SQAK ancestry): strip stopwords,
bind each remaining keyword to a schema element or a data value via the
value index, pick the entity table, AND the value constraints together,
and return the display column.  No grammar, no aggregates beyond a
"how many" special case, no comparisons, no negation — which is exactly
why the semantic-grammar system beats it (Table 2).
"""

from __future__ import annotations

from repro.baselines.base import Baseline
from repro.errors import InterpretationError
from repro.lexicon.entries import CategoricalEntity, Category
from repro.logical.forms import (
    Aggregate,
    EntityRef,
    LogicalQuery,
    ValueCondition,
    ValueRef,
)
from repro.nlp.stemmer import stem
from repro.nlp.stopwords import STOPWORDS


class KeywordBaseline(Baseline):
    """Keyword matcher over schema terms and data values."""

    name = "keyword lookup"

    def _query(self, question: str, words: list[str]) -> LogicalQuery:
        count_mode = "how" in words and "many" in words
        content = [w for w in words if w not in STOPWORDS]
        stems = [stem(w) for w in content]

        entity: EntityRef | None = None
        conditions: list[ValueCondition] = []
        i = 0
        while i < len(content):
            matched = False
            # longest-first lexicon lookup for the entity noun
            for length, entry in self.lexicon.prefix_matches(stems, i):
                if entry.category is Category.ENTITY:
                    payload = entry.payload
                    if isinstance(payload, CategoricalEntity):
                        if entity is None:
                            entity = payload.entity
                        conditions.append(payload.condition)
                    elif entity is None:
                        entity = payload
                    i += length
                    matched = True
                    break
            if matched:
                continue
            hits = self.value_index.lookup_prefix(content[i:])
            if hits:
                length, hit = hits[0]
                conditions.append(
                    ValueCondition(ValueRef(hit.table, hit.column, hit.value))
                )
                i += length
                continue
            i += 1

        if entity is None and conditions:
            entity = EntityRef(conditions[0].value.table)
        if entity is None:
            raise InterpretationError("keyword baseline found no entity")

        # Deduplicate conditions on the same column (keep the first).
        seen: set[tuple[str, str]] = set()
        unique = []
        for condition in conditions:
            key = (condition.value.table, condition.value.column)
            if key in seen:
                continue
            seen.add(key)
            unique.append(condition)

        return LogicalQuery(
            target=entity,
            aggregate=Aggregate("count") if count_mode else None,
            conditions=tuple(unique),
        )
