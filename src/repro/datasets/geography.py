"""The geography domain — a GEOBASE-style world of countries, cities,
rivers and mountains.

Real names, synthetic-but-plausible numbers (fixed, not random, so the
domain doubles as a readable demo).  "largest" is deliberately ambiguous
(population for countries and cities, length for rivers, height for
mountains) to exercise the adjective machinery across tables.
"""

from __future__ import annotations

from repro.lexicon.domain import (
    AdjectiveSpec,
    AttributeSpec,
    DomainModel,
    EntitySpec,
    ValueSynonymSpec,
)
from repro.sqlengine import Column, Database, ForeignKey, SqlType, TableSchema

# (name, continent, population-in-thousands, area 1000 km^2)
_COUNTRIES = [
    ("usa", "north america", 216000, 9363),
    ("canada", "north america", 23300, 9976),
    ("mexico", "north america", 64600, 1973),
    ("brazil", "south america", 116000, 8512),
    ("argentina", "south america", 26400, 2777),
    ("peru", "south america", 16800, 1285),
    ("france", "europe", 53100, 547),
    ("germany", "europe", 61400, 357),
    ("spain", "europe", 36400, 505),
    ("italy", "europe", 56400, 301),
    ("poland", "europe", 34700, 313),
    ("egypt", "africa", 38700, 1001),
    ("nigeria", "africa", 66600, 924),
    ("zaire", "africa", 26300, 2345),
    ("china", "asia", 958000, 9597),
    ("india", "asia", 638000, 3288),
    ("japan", "asia", 114000, 372),
    ("australia", "oceania", 14100, 7687),
]

# (name, country, population-in-thousands, capital?)
_CITIES = [
    ("washington", "usa", 700, True), ("new york", "usa", 7400, False),
    ("chicago", "usa", 3100, False), ("los angeles", "usa", 2800, False),
    ("ottawa", "canada", 300, True), ("toronto", "canada", 2800, False),
    ("mexico city", "mexico", 8900, True), ("brasilia", "brazil", 800, True),
    ("sao paulo", "brazil", 7200, False), ("buenos aires", "argentina", 2900, True),
    ("lima", "peru", 3300, True), ("paris", "france", 2300, True),
    ("berlin", "germany", 3100, True), ("madrid", "spain", 3200, True),
    ("rome", "italy", 2900, True), ("warsaw", "poland", 1500, True),
    ("cairo", "egypt", 5100, True), ("lagos", "nigeria", 1100, True),
    ("kinshasa", "zaire", 2000, True), ("peking", "china", 8500, True),
    ("shanghai", "china", 10900, False), ("delhi", "india", 4700, True),
    ("bombay", "india", 6000, False), ("tokyo", "japan", 8600, True),
    ("osaka", "japan", 2700, False), ("canberra", "australia", 220, True),
    ("sydney", "australia", 3100, False),
]

# (name, country, length in km)
_RIVERS = [
    ("mississippi", "usa", 3770), ("missouri", "usa", 3725),
    ("rio grande", "usa", 3030), ("mackenzie", "canada", 4240),
    ("amazon", "brazil", 6400), ("parana", "argentina", 4880),
    ("seine", "france", 776), ("rhine", "germany", 1230),
    ("ebro", "spain", 930), ("po", "italy", 652),
    ("vistula", "poland", 1047), ("nile", "egypt", 6650),
    ("niger", "nigeria", 4180), ("congo", "zaire", 4700),
    ("yangtze", "china", 6300), ("yellow", "china", 5460),
    ("ganges", "india", 2525), ("murray", "australia", 2508),
]

# (name, country, height in meters)
_MOUNTAINS = [
    ("mckinley", "usa", 6194), ("whitney", "usa", 4418),
    ("logan", "canada", 5959), ("orizaba", "mexico", 5700),
    ("aconcagua", "argentina", 6961), ("huascaran", "peru", 6768),
    ("mont blanc", "france", 4808), ("zugspitze", "germany", 2962),
    ("mulhacen", "spain", 3479), ("gran paradiso", "italy", 4061),
    ("rysy", "poland", 2499), ("kilimanjaro", "nigeria", 5895),
    ("everest", "china", 8848), ("k2", "india", 8611),
    ("fuji", "japan", 3776), ("kosciuszko", "australia", 2228),
]


def build_database(seed: int = 0) -> Database:
    """Build the geography database (fixed contents; seed kept for API parity)."""
    db = Database("geography")
    db.create_table(TableSchema(
        "country",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("continent", SqlType.TEXT),
            Column("population", SqlType.INT, comment="thousands"),
            Column("area", SqlType.INT, comment="1000 km^2"),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "city",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("country_id", SqlType.INT),
            Column("population", SqlType.INT, comment="thousands"),
            Column("capital", SqlType.BOOL),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("country_id", "country", "id")],
    ))
    db.create_table(TableSchema(
        "river",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("country_id", SqlType.INT),
            Column("length", SqlType.INT, comment="km"),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("country_id", "country", "id")],
    ))
    db.create_table(TableSchema(
        "mountain",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("country_id", SqlType.INT),
            Column("height", SqlType.INT, comment="meters"),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("country_id", "country", "id")],
    ))

    db.insert_many("country", ((i, *row) for i, row in enumerate(_COUNTRIES, start=1)))
    country_ids = {name: i for i, (name, *_) in enumerate(_COUNTRIES, start=1)}
    # City, river and mountain rows are (name, country, ...): the country
    # becomes its id.
    located = {"city": _CITIES, "river": _RIVERS, "mountain": _MOUNTAINS}
    for table, rows in located.items():
        db.insert_many(
            table,
            (
                (i, name, country_ids[country], *rest)
                for i, (name, country, *rest) in enumerate(rows, start=1)
            ),
        )
    return db


def domain() -> DomainModel:
    """NL configuration for the geography database."""
    return DomainModel(
        name="geography",
        entities=[
            EntitySpec("country", ("country", "nation", "state"), ("name",)),
            EntitySpec("city", ("city", "town"), ("name",)),
            EntitySpec("river", ("river",), ("name",)),
            EntitySpec("mountain", ("mountain", "peak"), ("name",)),
        ],
        attributes=[
            AttributeSpec("country", "population", ("population", "people"),
                          ("inhabitants",)),
            AttributeSpec("country", "area", ("area", "size", "surface")),
            AttributeSpec("country", "continent", ("continent",)),
            AttributeSpec("city", "population", ("population", "people"),
                          ("inhabitants",)),
            AttributeSpec("river", "length", ("length",), ("km", "kilometers")),
            AttributeSpec("mountain", "height", ("height", "elevation", "altitude"),
                          ("meters", "metres")),
        ],
        adjectives=[
            AdjectiveSpec(
                "country", "population",
                superlative_max=("largest", "biggest", "most populous"),
                superlative_min=("smallest", "least populous"),
                comparative_more=("larger", "bigger", "more populous"),
                comparative_less=("smaller",),
            ),
            AdjectiveSpec(
                "city", "population",
                superlative_max=("largest", "biggest"),
                superlative_min=("smallest",),
                comparative_more=("larger", "bigger"),
                comparative_less=("smaller",),
            ),
            AdjectiveSpec(
                "river", "length",
                superlative_max=("longest",),
                superlative_min=("shortest",),
                comparative_more=("longer",),
                comparative_less=("shorter",),
            ),
            AdjectiveSpec(
                "mountain", "height",
                superlative_max=("highest", "tallest"),
                superlative_min=("lowest",),
                comparative_more=("higher", "taller"),
                comparative_less=("lower",),
            ),
        ],
        value_synonyms=[
            ValueSynonymSpec("america", "country", "name", "usa"),
            ValueSynonymSpec("united states", "country", "name", "usa"),
            ValueSynonymSpec("us", "country", "name", "usa"),
            # BOOL flags work as value synonyms too: "the capitals"
            ValueSynonymSpec("capital", "city", "capital", True),  # type: ignore[arg-type]
        ],
    )
