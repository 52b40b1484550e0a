"""The events domain — a time-series/operations world of datacenters,
hosts, services and the event stream they emit.

Schema (a fact table ``event`` with two dimension chains)::

    datacenter(id, name, country)
    host(id, name, cpus, datacenter_id->datacenter)
    service(id, name, tier)
    event(id, kind, severity, duration, day,
          host_id->host, service_id->service)

The location chain matters: "how many errors happened in frankfurt" must
route event -> host -> datacenter through a table the question never
names (the Steiner-tree join-inference case), while ``day`` gives the
corpus a time axis for range questions.
"""

from __future__ import annotations

from repro.datasets.base import rng_for
from repro.lexicon.domain import (
    AdjectiveSpec,
    AttributeSpec,
    CategoricalEntitySpec,
    DomainModel,
    EntitySpec,
    ValueSynonymSpec,
)
from repro.sqlengine import Column, Database, ForeignKey, SqlType, TableSchema

# (name, country)
_DATACENTERS = [
    ("frankfurt", "germany"),
    ("dublin", "ireland"),
    ("oregon", "usa"),
    ("virginia", "usa"),
    ("singapore", "singapore"),
    ("sydney", "australia"),
    ("tokyo", "japan"),
]

# NATO alphabet hostnames: word-like, distinct from every service name.
_HOST_NAMES = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliett", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
    "victor", "whiskey", "zulu",
]

_CPU_SIZES = [8, 16, 32, 64]

# (name, tier)
_SERVICES = [
    ("checkout", "critical"), ("billing", "critical"), ("search", "standard"),
    ("auth", "critical"), ("gateway", "standard"), ("reports", "batch"),
    ("ingest", "batch"), ("notify", "standard"),
]

_KINDS = ["error", "warning", "deploy", "restart", "alert"]


def build_database(seed: int = 23, events: int = 240) -> Database:
    """Build the events database (deterministic in ``seed``)."""
    db = Database("events")
    db.create_table(TableSchema(
        "datacenter",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("country", SqlType.TEXT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "host",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("cpus", SqlType.INT),
            Column("datacenter_id", SqlType.INT),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("datacenter_id", "datacenter", "id")],
    ))
    db.create_table(TableSchema(
        "service",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("tier", SqlType.TEXT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "event",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("kind", SqlType.TEXT, nullable=False),
            Column("severity", SqlType.INT, comment="1 (info) .. 5 (page)"),
            Column("duration", SqlType.INT, comment="milliseconds"),
            Column("day", SqlType.INT, comment="observation day 1..90"),
            Column("host_id", SqlType.INT),
            Column("service_id", SqlType.INT),
        ],
        primary_key="id",
        foreign_keys=[
            ForeignKey("host_id", "host", "id"),
            ForeignKey("service_id", "service", "id"),
        ],
    ))

    db.insert_many(
        "datacenter", ((i, *row) for i, row in enumerate(_DATACENTERS, start=1))
    )

    rng = rng_for(seed, "hosts")
    db.insert_many(
        "host",
        (
            (i, name, rng.choice(_CPU_SIZES), rng.randint(1, len(_DATACENTERS)))
            for i, name in enumerate(_HOST_NAMES, start=1)
        ),
    )
    db.insert_many("service", ((i, *row) for i, row in enumerate(_SERVICES, start=1)))

    rng = rng_for(seed, "events")
    db.insert_many(
        "event",
        (
            (
                i,
                rng.choice(_KINDS),
                rng.randint(1, 5),
                rng.randint(5, 5000),
                rng.randint(1, 90),
                rng.randint(1, len(_HOST_NAMES)),
                rng.randint(1, len(_SERVICES)),
            )
            for i in range(1, events + 1)
        ),
    )
    return db


def domain() -> DomainModel:
    """NL configuration for the events database."""
    return DomainModel(
        name="events",
        entities=[
            EntitySpec("datacenter", ("datacenter", "site"), ("name",)),
            EntitySpec("host", ("host", "machine", "server", "box"), ("name",)),
            EntitySpec("service", ("service",), ("name",)),
            EntitySpec("event", ("event", "incident"), ("id",)),
        ],
        attributes=[
            AttributeSpec("datacenter", "country", ("country",)),
            AttributeSpec("host", "cpus", ("cpus", "cores", "cpu count"), ("cores",)),
            AttributeSpec("service", "tier", ("tier",)),
            AttributeSpec("event", "kind", ("kind",)),
            AttributeSpec("event", "severity", ("severity",)),
            AttributeSpec(
                "event", "duration",
                ("duration", "latency"),
                ("milliseconds", "ms"),
            ),
            AttributeSpec("event", "day", ("day",)),
        ],
        adjectives=[
            AdjectiveSpec(
                "event", "duration",
                superlative_max=("longest", "slowest"),
                superlative_min=("shortest", "quickest"),
                comparative_more=("longer", "slower"),
                comparative_less=("shorter", "quicker"),
            ),
            AdjectiveSpec(
                "event", "severity",
                superlative_max=("gravest", "most severe"),
                superlative_min=("mildest",),
                comparative_more=("graver",),
                comparative_less=("milder",),
            ),
            AdjectiveSpec(
                "event", "day",
                superlative_max=("latest", "newest"),
                superlative_min=("earliest", "oldest"),
                comparative_more=("later",),
                comparative_less=("earlier",),
            ),
            AdjectiveSpec(
                "host", "cpus",
                superlative_max=("beefiest", "largest"),
                superlative_min=("smallest",),
                comparative_more=("beefier",),
                comparative_less=("leaner",),
            ),
        ],
        value_synonyms=[
            ValueSynonymSpec("failure", "event", "kind", "error"),
            ValueSynonymSpec("failures", "event", "kind", "error"),
            ValueSynonymSpec("rollout", "event", "kind", "deploy"),
        ],
        categorical_entities=[
            # "the errors", "every deploy" — kinds as event nouns
            CategoricalEntitySpec("event", "event", "kind"),
        ],
    )
