"""Automatic lexicon generation from the database catalog + domain model.

This is the LADDER idea of deriving most of the vocabulary from the
database itself:

* every table name becomes an ENTITY phrase;
* every column name (underscores split) becomes an ATTR phrase;
* domain-model phrases add the human vocabulary on top.
"""

from __future__ import annotations

from repro.lexicon.domain import DomainModel
from repro.lexicon.entries import CategoricalEntity, Category
from repro.lexicon.lexicon import Lexicon
from repro.logical.forms import AttrRef, EntityRef, ValueCondition, ValueRef
from repro.sqlengine.database import Database


def data_dependent_columns(domain: DomainModel | None) -> set[tuple[str, str]]:
    """The ``(table, column)`` pairs whose *live data* feeds the lexicon.

    Everything else in the lexicon derives from the catalog and the domain
    model, which only change on DDL.  Categorical entity nouns, however,
    are enumerated from the rows of their source column — so the NLI's
    delta-driven refresh only needs to rebuild the lexicon when a mutation
    touches one of these columns.
    """
    if domain is None:
        return set()
    # Deltas carry schema-normalized (lowercase) names; domain specs may
    # not, so normalize here or mixed-case specs would never match.
    return {
        (spec.via_table.lower(), spec.via_column.lower())
        for spec in domain.categorical_entities
    }


def build_lexicon(database: Database, domain: DomainModel | None = None) -> Lexicon:
    """Build the lexicon for ``database``: catalog names, then the domain
    model's vocabulary when there is one."""
    lexicon = Lexicon()

    # 1. Catalog-derived entries (always present).
    for table in database.tables():
        entity_ref = EntityRef(table.name, phrase=table.name.replace("_", " "))
        lexicon.add(table.name, Category.ENTITY, entity_ref, weight=1.0)
        for column in table.schema.columns:
            phrase = column.name.replace("_", " ")
            attr_ref = AttrRef(table.name, column.name, phrase=phrase)
            lexicon.add(phrase, Category.ATTR, attr_ref, weight=1.0)

    if domain is None:
        return lexicon
    domain.validate(database)

    # 2. Entity synonyms.
    for spec in domain.entities:
        for i, phrase in enumerate(spec.phrases):
            ref = EntityRef(spec.table, phrase=phrase)
            lexicon.add(phrase, Category.ENTITY, ref, weight=2.0 if i == 0 else 1.5)

    # 3. Attribute synonyms and units.
    for spec in domain.attributes:
        name = spec.phrases[0] if spec.phrases else spec.column
        ref = AttrRef(spec.table, spec.column, phrase=name)
        for phrase in spec.phrases:
            lexicon.add(phrase, Category.ATTR, ref, weight=2.0)
        for unit in spec.units:
            lexicon.add(unit, Category.UNIT, ref, weight=1.0)

    # 4. Adjectives (superlatives / comparatives).
    for spec in domain.adjectives:
        ref = AttrRef(spec.table, spec.column, phrase=spec.column.replace("_", " "))
        for word in spec.superlative_max:
            lexicon.add(word, Category.SUPER, (ref, "max"), weight=1.5)
        for word in spec.superlative_min:
            lexicon.add(word, Category.SUPER, (ref, "min"), weight=1.5)
        for word in spec.comparative_more:
            lexicon.add(word, Category.COMP, (ref, ">"), weight=1.5)
        for word in spec.comparative_less:
            lexicon.add(word, Category.COMP, (ref, "<"), weight=1.5)

    # 5. Value synonyms ("us" -> country.name = 'usa').
    for spec in domain.value_synonyms:
        ref = ValueRef(spec.table, spec.column, spec.value, phrase=spec.phrase)
        lexicon.add(spec.phrase, Category.VALUE, ref, weight=1.5)

    # 6. Categorical entity nouns ("carrier" = ship with type carrier),
    #    enumerated from the live data.  Value synonyms that point at a
    #    categorical column ("subs" -> shiptype.name = 'submarine') also
    #    become entity nouns, so "how many subs are there" counts ships.
    for spec in domain.categorical_entities:
        table = database.table(spec.via_table)
        values = sorted(
            {v for v in table.column_values(spec.via_column) if isinstance(v, str)}
        )
        for value in values:
            payload = CategoricalEntity(
                EntityRef(spec.table, phrase=value),
                ValueCondition(
                    ValueRef(spec.via_table, spec.via_column, value, phrase=value)
                ),
            )
            lexicon.add(value, Category.ENTITY, payload, weight=1.8)
        for synonym in domain.value_synonyms:
            if (synonym.table, synonym.column) != (spec.via_table, spec.via_column):
                continue
            payload = CategoricalEntity(
                EntityRef(spec.table, phrase=synonym.phrase),
                ValueCondition(
                    ValueRef(
                        synonym.table,
                        synonym.column,
                        synonym.value,
                        phrase=synonym.phrase,
                    )
                ),
            )
            lexicon.add(synonym.phrase, Category.ENTITY, payload, weight=1.6)

    return lexicon
