"""The navy/fleet domain — LADDER's world, rebuilt synthetically.

Schema (snowflake around ``ship``)::

    fleet(id, name, ocean, headquarters)
    port(id, name, country)
    officer(id, name, rank, nationality)
    shiptype(id, name, category)
    ship(id, name, type_id->shiptype, fleet_id->fleet,
         home_port_id->port, commander_id->officer,
         displacement, length, speed, commissioned, crew)
    deployment(id, ship_id->ship, mission, ocean, year)

Ship and officer names deliberately overlap ("Kennedy" is both) so that
ambiguity handling is exercised.
"""

from __future__ import annotations

from repro.datasets.base import pick_unique, rng_for
from repro.lexicon.domain import (
    AdjectiveSpec,
    AttributeSpec,
    CategoricalEntitySpec,
    DomainModel,
    EntitySpec,
    ValueSynonymSpec,
)
from repro.sqlengine import Column, Database, ForeignKey, SqlType, TableSchema

_FLEETS = [
    ("Pacific", "Pacific", "Pearl Harbor"),
    ("Atlantic", "Atlantic", "Norfolk"),
    ("Mediterranean", "Mediterranean", "Naples"),
    ("Indian", "Indian", "Diego Garcia"),
]

_PORTS = [
    ("Norfolk", "usa"), ("San Diego", "usa"), ("Pearl Harbor", "usa"),
    ("Yokosuka", "japan"), ("Naples", "italy"), ("Rota", "spain"),
    ("Bremerton", "usa"), ("Mayport", "usa"), ("Sasebo", "japan"),
    ("Groton", "usa"), ("Charleston", "usa"), ("Apra", "guam"),
]

_SHIP_TYPES = [
    ("carrier", "surface"), ("cruiser", "surface"), ("destroyer", "surface"),
    ("frigate", "surface"), ("submarine", "subsurface"),
]

_SHIP_NAMES = [
    "Kennedy", "Enterprise", "Nimitz", "Midway", "Saratoga", "Forrestal",
    "Ranger", "Independence", "Kitty Hawk", "Constellation", "America",
    "Eisenhower", "Vinson", "Long Beach", "Bainbridge", "Truxtun",
    "California", "South Carolina", "Virginia", "Texas", "Mississippi",
    "Arkansas", "Spruance", "Foster", "Kinkaid", "Hewitt", "Elliot",
    "Arthur", "Peterson", "Caron", "David Ray", "Oldendorf", "John Young",
    "Knox", "Roark", "Gray", "Hepburn", "Connole", "Rathburne", "Meyerkord",
    "Sturgeon", "Whale", "Tautog", "Grayling", "Pogy", "Aspro", "Sunfish",
    "Pargo", "Queenfish", "Puffer", "Flasher", "Greenling", "Gato",
    "Haddock", "Guitarro", "Hawkbill", "Bergall", "Spadefish", "Seahorse",
    "Finback",
]

_OFFICER_FIRST = [
    "Hall", "Kennedy", "Rickover", "Halsey", "Nimitz", "Spruance", "Burke",
    "Mitscher", "King", "Leahy", "Zumwalt", "Holloway", "Hayward", "Watkins",
    "Trost", "Kelso", "Moorer", "McDonald", "Anderson", "Carney", "Fechteler",
    "Sherman", "Denfeld", "Stark", "Leary", "Ingersoll", "Edwards", "Horne",
    "Royal", "Blandy", "Ramsey", "Towers", "Fitch", "Jacobs", "McCain",
    "Radford", "Ofstie", "Duncan", "Price", "Boone", "Combs", "Gardner",
    "Sallada", "Sprague", "Bogan", "Durgin", "Ballentine", "Pride", "Soucek",
    "Cassady", "Whitehead", "Tomlinson", "Greer", "Martin", "Sides",
    "Clark", "Wright", "Struble", "Ewen", "Hoskins",
]

_RANKS = ["admiral", "captain", "commander", "lieutenant"]
_NATIONALITIES = ["usa", "uk", "canada", "australia"]
_MISSIONS = ["patrol", "exercise", "escort", "survey", "transit"]
_OCEANS = ["Pacific", "Atlantic", "Mediterranean", "Indian"]

#: Displacement ranges (tons) per ship type — keeps adjectives meaningful.
_DISPLACEMENT = {
    "carrier": (60000, 95000),
    "cruiser": (9000, 18000),
    "destroyer": (5000, 9000),
    "frigate": (3000, 4500),
    "submarine": (4000, 7000),
}
_LENGTH = {
    "carrier": (990, 1100),
    "cruiser": (550, 720),
    "destroyer": (500, 565),
    "frigate": (410, 445),
    "submarine": (290, 365),
}
_SPEED = {
    "carrier": (30, 34),
    "cruiser": (30, 34),
    "destroyer": (30, 33),
    "frigate": (27, 29),
    "submarine": (20, 30),
}
_CREW = {
    "carrier": (4500, 5600),
    "cruiser": (500, 1100),
    "destroyer": (250, 350),
    "frigate": (220, 280),
    "submarine": (100, 140),
}


def build_database(seed: int = 7, ships: int = 60) -> Database:
    """Build the fleet database (deterministic in ``seed``)."""
    db = Database("fleet")
    db.create_table(TableSchema(
        "fleet",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("ocean", SqlType.TEXT),
            Column("headquarters", SqlType.TEXT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "port",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("country", SqlType.TEXT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "officer",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("rank", SqlType.TEXT),
            Column("nationality", SqlType.TEXT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "shiptype",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("category", SqlType.TEXT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "ship",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("type_id", SqlType.INT),
            Column("fleet_id", SqlType.INT),
            Column("home_port_id", SqlType.INT),
            Column("commander_id", SqlType.INT),
            Column("displacement", SqlType.INT, comment="full-load tons"),
            Column("length", SqlType.INT, comment="feet"),
            Column("speed", SqlType.INT, comment="knots"),
            Column("commissioned", SqlType.INT, comment="year"),
            Column("crew", SqlType.INT),
        ],
        primary_key="id",
        foreign_keys=[
            ForeignKey("type_id", "shiptype", "id"),
            ForeignKey("fleet_id", "fleet", "id"),
            ForeignKey("home_port_id", "port", "id"),
            ForeignKey("commander_id", "officer", "id"),
        ],
    ))
    db.create_table(TableSchema(
        "deployment",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("ship_id", SqlType.INT),
            Column("mission", SqlType.TEXT),
            Column("ocean", SqlType.TEXT),
            Column("year", SqlType.INT),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("ship_id", "ship", "id")],
    ))

    db.insert_many("fleet", ((i, *row) for i, row in enumerate(_FLEETS, start=1)))
    db.insert_many("port", ((i, *row) for i, row in enumerate(_PORTS, start=1)))
    rng = rng_for(seed, "officers")
    officer_names = pick_unique(rng, _OFFICER_FIRST, ships)
    db.insert_many(
        "officer",
        (
            (i, name, rng.choice(_RANKS), rng.choice(_NATIONALITIES))
            for i, name in enumerate(officer_names, start=1)
        ),
    )
    db.insert_many(
        "shiptype", ((i, *row) for i, row in enumerate(_SHIP_TYPES, start=1))
    )

    rng = rng_for(seed, "ships")
    ship_names = pick_unique(rng, _SHIP_NAMES, ships)

    def ship_rows():
        for i, name in enumerate(ship_names, start=1):
            type_id = rng.randint(1, len(_SHIP_TYPES))
            type_name = _SHIP_TYPES[type_id - 1][0]
            displacement = rng.randint(*_DISPLACEMENT[type_name])
            yield (
                i,
                name,
                type_id,
                rng.randint(1, len(_FLEETS)),
                rng.randint(1, len(_PORTS)),
                i,  # each ship gets its own commander
                displacement,
                rng.randint(*_LENGTH[type_name]),
                rng.randint(*_SPEED[type_name]),
                rng.randint(1955, 1977),
                rng.randint(*_CREW[type_name]),
            )

    db.insert_many("ship", ship_rows())

    rng = rng_for(seed, "deployments")

    def deployment_rows():
        deployment_id = 1
        for ship_id in range(1, ships + 1):
            for _ in range(rng.randint(1, 3)):
                yield (
                    deployment_id,
                    ship_id,
                    rng.choice(_MISSIONS),
                    rng.choice(_OCEANS),
                    rng.randint(1970, 1977),
                )
                deployment_id += 1

    db.insert_many("deployment", deployment_rows())
    return db


def domain() -> DomainModel:
    """NL configuration for the fleet database."""
    def ship_attr(column, phrases, units=()):
        return AttributeSpec("ship", column, tuple(phrases), tuple(units))
    return DomainModel(
        name="fleet",
        entities=[
            EntitySpec("ship", ("ship", "vessel", "boat"), ("name",)),
            EntitySpec("fleet", ("fleet",), ("name",)),
            EntitySpec("port", ("port", "harbor", "base"), ("name",)),
            EntitySpec(
                "officer",
                ("officer", "commander", "captain", "skipper"),
                ("name",),
            ),
            EntitySpec("shiptype", ("type", "class"), ("name",)),
            EntitySpec("deployment", ("deployment", "mission", "cruise"), ("mission",)),
        ],
        attributes=[
            ship_attr("displacement", ("displacement", "tonnage", "weight"), ("tons", "ton")),
            ship_attr("length", ("length",), ("feet", "foot")),
            ship_attr("speed", ("speed",), ("knots", "knot")),
            ship_attr(
                "commissioned",
                ("commissioned", "built", "launched", "commissioning year"),
            ),
            ship_attr("crew", ("crew", "complement", "crew size"), ("men", "sailors")),
            AttributeSpec("fleet", "ocean", ("ocean",)),
            AttributeSpec("fleet", "headquarters", ("headquarters",)),
            AttributeSpec("port", "country", ("country",)),
            AttributeSpec("officer", "rank", ("rank",)),
            AttributeSpec("officer", "nationality", ("nationality",)),
            AttributeSpec("deployment", "year", ("year",)),
        ],
        adjectives=[
            AdjectiveSpec(
                "ship", "displacement",
                superlative_max=("largest", "biggest", "heaviest"),
                superlative_min=("smallest", "lightest"),
                comparative_more=("larger", "bigger", "heavier"),
                comparative_less=("smaller", "lighter"),
            ),
            AdjectiveSpec(
                "ship", "length",
                superlative_max=("longest",),
                superlative_min=("shortest",),
                comparative_more=("longer",),
                comparative_less=("shorter",),
            ),
            AdjectiveSpec(
                "ship", "speed",
                superlative_max=("fastest",),
                superlative_min=("slowest",),
                comparative_more=("faster",),
                comparative_less=("slower",),
            ),
            AdjectiveSpec(
                "ship", "commissioned",
                superlative_max=("newest",),
                superlative_min=("oldest",),
                comparative_more=("newer",),
                comparative_less=("older",),
            ),
        ],
        value_synonyms=[
            ValueSynonymSpec("sub", "shiptype", "name", "submarine"),
            ValueSynonymSpec("subs", "shiptype", "name", "submarine"),
            ValueSynonymSpec("flattop", "shiptype", "name", "carrier"),
        ],
        categorical_entities=[
            # "the carriers", "all submarines" — type names as ship nouns
            CategoricalEntitySpec("ship", "shiptype", "name"),
            # "the admirals", "every captain" — ranks as officer nouns
            CategoricalEntitySpec("officer", "officer", "rank"),
        ],
    )
