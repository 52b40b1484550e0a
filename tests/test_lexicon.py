"""Tests for the lexicon: entries, store, auto-builder and domain model."""

import pytest

from repro.datasets import fleet
from repro.errors import LexiconError
from repro.lexicon import (
    AttributeSpec,
    Category,
    DomainModel,
    EntitySpec,
    Lexicon,
    build_lexicon,
    phrase_key,
)
from repro.lexicon.entries import CategoricalEntity
from repro.logical.forms import AttrRef, EntityRef


@pytest.fixture(scope="module")
def fleet_db():
    return fleet.build_database()


@pytest.fixture(scope="module")
def lexicon(fleet_db):
    return build_lexicon(fleet_db, fleet.domain())


class TestPhraseKey:
    def test_lowercase_and_stem(self):
        assert phrase_key("Ships") == ("ship",)

    def test_underscores_split(self):
        assert phrase_key("home_port") == ("home", "port")

    def test_multiword(self):
        assert phrase_key("crew size") == ("crew", "size")


class TestLexiconStore:
    def test_add_and_lookup(self):
        lex = Lexicon()
        ref = EntityRef("ship")
        lex.add("vessel", Category.ENTITY, ref)
        assert lex.lookup(("vessel",))[0].payload == ref

    def test_stemmed_lookup(self):
        lex = Lexicon()
        lex.add("carrier", Category.ENTITY, EntityRef("ship"))
        matches = lex.prefix_matches(["carrier"], 0)
        assert matches

    def test_duplicate_entries_deduped(self):
        lex = Lexicon()
        ref = EntityRef("ship")
        lex.add("boat", Category.ENTITY, ref)
        lex.add("boat", Category.ENTITY, ref)
        assert len(lex.lookup(("boat",))) == 1

    def test_same_phrase_different_payloads_kept(self):
        lex = Lexicon()
        lex.add("name", Category.ATTR, AttrRef("ship", "name"))
        lex.add("name", Category.ATTR, AttrRef("fleet", "name"))
        assert len(lex.lookup(("name",))) == 2

    def test_prefix_longest_first(self):
        lex = Lexicon()
        lex.add("crew", Category.ATTR, AttrRef("ship", "crew"))
        lex.add("crew size", Category.ATTR, AttrRef("ship", "crew"))
        matches = lex.prefix_matches(["crew", "size"], 0)
        assert matches[0][0] == 2

    def test_empty_phrase_rejected(self):
        lex = Lexicon()
        with pytest.raises(ValueError):
            lex.add("   ", Category.ENTITY, EntityRef("x"))

    def test_knows_word_includes_plural(self):
        lex = Lexicon()
        lex.add("ship", Category.ENTITY, EntityRef("ship"))
        assert lex.knows_word("ship")
        # plural added to the correction vocabulary
        assert lex.correct_word("shps") == "ships"


class TestBuilder:
    def test_catalog_tables_become_entities(self, lexicon):
        entries = lexicon.lookup(phrase_key("ship"))
        assert any(e.category is Category.ENTITY for e in entries)

    def test_catalog_columns_become_attrs(self, lexicon):
        entries = lexicon.lookup(phrase_key("displacement"))
        assert any(e.category is Category.ATTR for e in entries)

    def test_underscore_columns_split(self, lexicon):
        entries = lexicon.lookup(phrase_key("home port id"))
        assert any(
            e.category is Category.ATTR and e.payload.column == "home_port_id"
            for e in entries
        )

    def test_domain_synonyms(self, lexicon):
        entries = lexicon.lookup(phrase_key("vessel"))
        assert any(e.payload == EntityRef("ship", phrase="vessel") for e in entries)

    def test_adjectives_superlative(self, lexicon):
        entries = lexicon.lookup(phrase_key("heaviest"))
        assert any(
            e.category is Category.SUPER and e.payload[1] == "max" for e in entries
        )

    def test_adjectives_comparative(self, lexicon):
        entries = lexicon.lookup(phrase_key("lighter"))
        assert any(
            e.category is Category.COMP and e.payload[1] == "<" for e in entries
        )

    def test_units(self, lexicon):
        entries = lexicon.lookup(phrase_key("tons"))
        assert any(
            e.category is Category.UNIT and e.payload.column == "displacement"
            for e in entries
        )

    def test_value_synonyms(self, lexicon):
        entries = lexicon.lookup(phrase_key("flattop"))
        assert any(
            e.category is Category.VALUE and e.payload.value == "carrier"
            for e in entries
        )

    def test_categorical_entities_enumerated(self, lexicon):
        entries = lexicon.lookup(phrase_key("submarine"))
        categorical = [
            e for e in entries if isinstance(e.payload, CategoricalEntity)
        ]
        assert categorical
        assert categorical[0].payload.entity.table == "ship"

    def test_category_counts(self, lexicon):
        counts = lexicon.category_counts()
        assert counts["ENTITY"] > 5
        assert counts["ATTR"] > 10
        assert counts["SUPER"] >= 8


class TestDomainValidation:
    def test_unknown_table_rejected(self, fleet_db):
        model = DomainModel("bad", entities=[EntitySpec("ghost", ("g",))])
        with pytest.raises(LexiconError):
            model.validate(fleet_db)

    def test_unknown_column_rejected(self, fleet_db):
        model = DomainModel(
            "bad", attributes=[AttributeSpec("ship", "ghost", ("g",))]
        )
        with pytest.raises(LexiconError):
            model.validate(fleet_db)

    def test_unknown_display_column_rejected(self, fleet_db):
        model = DomainModel(
            "bad", entities=[EntitySpec("ship", ("ship",), ("ghost",))]
        )
        with pytest.raises(LexiconError):
            model.validate(fleet_db)

    def test_all_bundled_domains_valid(self):
        from repro.datasets import company, geography

        fleet.domain().validate(fleet.build_database())
        company.domain().validate(company.build_database())
        geography.domain().validate(geography.build_database())

    def test_display_columns_for(self):
        model = fleet.domain()
        assert model.display_columns_for("ship") == ("name",)
        assert model.display_columns_for("unknown") == ()
