"""Pattern-template baseline — fixed sentence patterns, no grammar.

Models the template NLIDBs that predated semantic grammars: a handful of
regex-like patterns ("how many E are there", "what is the A of V",
"show the E in V") each mapped to a query skeleton.  Anything that does
not literally match a pattern fails — the brittleness the 1978 systems
were designed to overcome.
"""

from __future__ import annotations

from repro.baselines.base import Baseline
from repro.errors import ParseFailure
from repro.lexicon.entries import CategoricalEntity, Category
from repro.logical.forms import (
    Aggregate,
    AttrRef,
    EntityRef,
    LogicalQuery,
    ValueCondition,
    ValueRef,
)
from repro.nlp.stemmer import stem


class TemplateBaseline(Baseline):
    """Five fixed patterns; everything else is a parse failure."""

    name = "pattern templates"

    # -- slot matchers ------------------------------------------------------

    def _entity_at(
        self, words: list[str], i: int
    ) -> tuple[int, EntityRef, list] | None:
        stems = [stem(w) for w in words]
        for length, entry in self.lexicon.prefix_matches(stems, i):
            if entry.category is Category.ENTITY:
                payload = entry.payload
                if isinstance(payload, CategoricalEntity):
                    return length, payload.entity, [payload.condition]
                return length, payload, []
        return None

    def _attr_at(self, words: list[str], i: int) -> tuple[int, AttrRef] | None:
        stems = [stem(w) for w in words]
        for length, entry in self.lexicon.prefix_matches(stems, i):
            if entry.category is Category.ATTR:
                return length, entry.payload
        return None

    def _value_at(self, words: list[str], i: int) -> tuple[int, ValueRef] | None:
        hits = self.value_index.lookup_prefix(words[i:])
        if hits:
            length, hit = hits[0]
            return length, ValueRef(hit.table, hit.column, hit.value)
        stems = [stem(w) for w in words]
        for length, entry in self.lexicon.prefix_matches(stems, i):
            if entry.category is Category.VALUE:
                return length, entry.payload
        return None

    @staticmethod
    def _drop_articles(words: list[str]) -> list[str]:
        return [w for w in words if w not in ("the", "a", "an", "all", "me")]

    # -- the patterns ----------------------------------------------------------

    def _query(self, question: str, words: list[str]) -> LogicalQuery:
        words = self._drop_articles(words)
        query = (
            self._pattern_how_many(words)
            or self._pattern_attr_of_value(words)
            or self._pattern_show_entity_in_value(words)
            or self._pattern_show_entity(words)
            or self._pattern_list_value(words)
        )
        if query is None:
            raise ParseFailure(f"no template matches: {question!r}")
        return query

    def _pattern_how_many(self, words: list[str]) -> LogicalQuery | None:
        """how many E [in V] [are there]"""
        if words[:2] != ["how", "many"]:
            return None
        rest = [
            w
            for w in words[2:]
            if w not in ("are", "there", "is", "in", "of", "does", "have")
        ]
        entity_match = self._entity_at(rest, 0)
        if entity_match is None:
            return None
        length, entity, conditions = entity_match
        i = length
        while i < len(rest):
            value_match = self._value_at(rest, i)
            if value_match is None:
                return None  # unbindable word -> template fails
            vlen, ref = value_match
            conditions.append(ValueCondition(ref))
            i += vlen
        return LogicalQuery(
            target=entity, aggregate=Aggregate("count"), conditions=tuple(conditions)
        )

    def _pattern_attr_of_value(self, words: list[str]) -> LogicalQuery | None:
        """what is A of V"""
        if words[:2] == ["what", "is"]:
            words = words[2:]
        attr_match = self._attr_at(words, 0)
        if attr_match is None:
            return None
        alen, attr = attr_match
        if words[alen : alen + 1] != ["of"]:
            return None
        value_match = self._value_at(words, alen + 1)
        if value_match is None:
            return None
        _, ref = value_match
        return LogicalQuery(
            target=EntityRef(attr.table),
            projections=(attr,),
            conditions=(ValueCondition(ref),),
        )

    def _pattern_show_entity_in_value(self, words: list[str]) -> LogicalQuery | None:
        """show E in V"""
        if not words or words[0] not in (
            "show",
            "list",
            "display",
            "find",
            "which",
            "what",
        ):
            return None
        rest = words[1:]
        entity_match = self._entity_at(rest, 0)
        if entity_match is None:
            return None
        length, entity, conditions = entity_match
        rest = rest[length:]
        if not rest or rest[0] not in ("in", "from", "at", "of"):
            return None
        value_match = self._value_at(rest, 1)
        if value_match is None or 1 + value_match[0] != len(rest):
            return None
        conditions.append(ValueCondition(value_match[1]))
        return LogicalQuery(target=entity, conditions=tuple(conditions))

    def _pattern_show_entity(self, words: list[str]) -> LogicalQuery | None:
        """show E"""
        if not words or words[0] not in ("show", "list", "display", "find"):
            return None
        entity_match = self._entity_at(words, 1)
        if entity_match is None:
            return None
        length, entity, conditions = entity_match
        if 1 + length != len(words):
            return None
        return LogicalQuery(target=entity, conditions=tuple(conditions))

    def _pattern_list_value(self, words: list[str]) -> LogicalQuery | None:
        """bare 'E' or 'V E' noun phrases"""
        entity_match = self._entity_at(words, 0)
        if entity_match is not None and entity_match[0] == len(words):
            _, entity, conditions = entity_match
            return LogicalQuery(target=entity, conditions=tuple(conditions))
        value_match = self._value_at(words, 0)
        if value_match is not None:
            vlen, ref = value_match
            entity_match = self._entity_at(words, vlen)
            if entity_match is not None and vlen + entity_match[0] == len(words):
                _, entity, conditions = entity_match
                conditions.append(ValueCondition(ref))
                return LogicalQuery(target=entity, conditions=tuple(conditions))
        return None
