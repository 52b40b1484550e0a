"""The saas domain — a multi-tenant SaaS back office.

Schema (a chain, deliberately deeper than the star/snowflake domains)::

    tenant(id, name, plan, region, seats)
    member(id, name, role, tenant_id->tenant)
    project(id, name, stage, tenant_id->tenant)
    ticket(id, code, status, priority, opened,
           project_id->project, assignee_id->member)

Tickets hang off *projects*, not tenants, so a question like "how many
tickets does acme have" must route ticket -> project -> tenant through an
intermediate table the question never mentions — exactly the Steiner-tree
join-inference case the snowflake domains cannot exercise.
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

# (name, plan, region, seats)
_TENANTS = [
    ("Acme", "enterprise", "americas", 500),
    ("Globex", "starter", "europe", 40),
    ("Initech", "professional", "americas", 120),
    ("Umbrella", "enterprise", "europe", 800),
    ("Hooli", "free", "americas", 15),
    ("Vandelay", "starter", "asia", 30),
    ("Cyberdyne", "professional", "asia", 200),
    ("Soylent", "free", "europe", 10),
]

_MEMBER_NAMES = [
    "Okafor", "Svensson", "Tanaka", "Rossi", "Dubois", "Novak", "Silva",
    "Haddad", "Olsen", "Weber", "Moreau", "Costa", "Petrov", "Yamada",
    "Iyer", "Fischer", "Brennan", "Kowalski", "Lindgren", "Vargas",
    "Nakamura", "Bauer", "Eriksen", "Fontaine", "Marino", "Castro",
    "Jensen", "Keller", "Bianchi", "Duval", "Soto", "Larsen", "Meier",
    "Romano", "Vega", "Holm", "Klein", "Ricci", "Berg", "Aalto",
]

_ROLES = ["owner", "admin", "developer", "viewer"]

_PROJECT_NAMES = [
    "Apollo", "Zephyr", "Borealis", "Cascade", "Drift", "Ember",
    "Flux", "Granite", "Harbor", "Ivory", "Juniper", "Krypton",
    "Lumen", "Meridian", "Nimbus", "Orbit",
]

_STAGES = ["alpha", "beta", "live"]
_STATUSES = ["open", "closed", "pending"]


def build_database(seed: int = 17, members: int = 40, tickets: int = 160) -> Database:
    """Build the saas database (deterministic in ``seed``)."""
    db = Database("saas")
    db.create_table(TableSchema(
        "tenant",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("plan", SqlType.TEXT),
            Column("region", SqlType.TEXT),
            Column("seats", SqlType.INT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "member",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("role", SqlType.TEXT),
            Column("tenant_id", SqlType.INT),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("tenant_id", "tenant", "id")],
    ))
    db.create_table(TableSchema(
        "project",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("stage", SqlType.TEXT),
            Column("tenant_id", SqlType.INT),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("tenant_id", "tenant", "id")],
    ))
    db.create_table(TableSchema(
        "ticket",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("code", SqlType.TEXT, nullable=False),
            Column("status", SqlType.TEXT),
            Column("priority", SqlType.INT, comment="1 (low) .. 5 (urgent)"),
            Column("opened", SqlType.INT, comment="year"),
            Column("project_id", SqlType.INT),
            Column("assignee_id", SqlType.INT),
        ],
        primary_key="id",
        foreign_keys=[
            ForeignKey("project_id", "project", "id"),
            ForeignKey("assignee_id", "member", "id"),
        ],
    ))

    db.insert_many("tenant", ((i, *row) for i, row in enumerate(_TENANTS, start=1)))

    def tenant_of(i: int) -> int:
        return (i - 1) % len(_TENANTS) + 1

    rng = rng_for(seed, "members")
    names = pick_unique(rng, _MEMBER_NAMES, members)
    # Round-robin tenants so every tenant has members; a ticket's assignee
    # is then drawn from the *owning* tenant's members, which keeps the two
    # 2-hop join readings of "tickets of acme" (via project vs via
    # assignee) extensionally equivalent — the corpus gold SQL stays
    # well-defined whichever tree the Steiner inference picks.
    members_of: dict[int, list[int]] = {}
    for i in range(1, len(names) + 1):
        members_of.setdefault(tenant_of(i), []).append(i)
    db.insert_many(
        "member",
        (
            (i, name, rng.choice(_ROLES), tenant_of(i))
            for i, name in enumerate(names, start=1)
        ),
    )

    rng = rng_for(seed, "projects")
    # Two projects per tenant, so every tenant answers ticket questions.
    db.insert_many(
        "project",
        (
            (i, name, rng.choice(_STAGES), tenant_of(i))
            for i, name in enumerate(_PROJECT_NAMES, start=1)
        ),
    )

    rng = rng_for(seed, "tickets")

    def ticket_rows():
        for i in range(1, tickets + 1):
            project_id = rng.randint(1, len(_PROJECT_NAMES))
            yield (
                i,
                f"T{1000 + i}",
                rng.choice(_STATUSES),
                rng.randint(1, 5),
                rng.randint(1970, 1977),
                project_id,
                rng.choice(members_of[tenant_of(project_id)]),
            )

    db.insert_many("ticket", ticket_rows())
    return db


def domain() -> DomainModel:
    """NL configuration for the saas database."""
    return DomainModel(
        name="saas",
        entities=[
            EntitySpec("tenant", ("tenant", "customer", "organization"), ("name",)),
            EntitySpec("member", ("member", "user", "teammate"), ("name",)),
            EntitySpec("project", ("project", "workspace"), ("name",)),
            EntitySpec("ticket", ("ticket", "issue", "bug"), ("code",)),
        ],
        attributes=[
            AttributeSpec("tenant", "plan", ("plan", "tier", "subscription")),
            AttributeSpec("tenant", "region", ("region",)),
            AttributeSpec("tenant", "seats", ("seats", "seat count"), ("seats",)),
            AttributeSpec("member", "role", ("role",)),
            AttributeSpec("project", "stage", ("stage",)),
            AttributeSpec("ticket", "status", ("status",)),
            AttributeSpec("ticket", "priority", ("priority", "urgency")),
            AttributeSpec("ticket", "opened", ("opened", "filed", "opening year")),
        ],
        adjectives=[
            AdjectiveSpec(
                "tenant", "seats",
                superlative_max=("largest", "biggest"),
                superlative_min=("smallest",),
                comparative_more=("larger", "bigger"),
                comparative_less=("smaller",),
            ),
            AdjectiveSpec(
                "ticket", "priority",
                superlative_max=("hottest", "most urgent"),
                superlative_min=("mildest",),
                comparative_more=("hotter",),
                comparative_less=("milder",),
            ),
            AdjectiveSpec(
                "ticket", "opened",
                superlative_max=("newest", "latest"),
                superlative_min=("oldest", "earliest"),
                comparative_more=("newer",),
                comparative_less=("older",),
            ),
        ],
        value_synonyms=[
            ValueSynonymSpec("pro", "tenant", "plan", "professional"),
            ValueSynonymSpec("dev", "member", "role", "developer"),
            ValueSynonymSpec("devs", "member", "role", "developer"),
        ],
        categorical_entities=[
            # "the admins", "every developer" — roles as member nouns
            CategoricalEntitySpec("member", "member", "role"),
        ],
    )
