"""The company domain: departments, employees, customers, products, sales.

The schema shape deliberately differs from the fleet domain (a fact table
``sale`` with three FKs) so join inference is exercised on a star shape.
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

_DEPARTMENTS = [
    ("Sales", "Chicago"), ("Engineering", "Boston"), ("Marketing", "New York"),
    ("Finance", "Chicago"), ("Support", "Denver"), ("Research", "Boston"),
]

_TITLES = ["manager", "engineer", "analyst", "clerk", "director"]

_EMPLOYEE_NAMES = [
    "Garcia", "Smith", "Chen", "Patel", "Johnson", "Brown", "Davis",
    "Miller", "Wilson", "Moore", "Taylor", "Anderson", "Thomas", "Jackson",
    "White", "Harris", "Martin", "Thompson", "Martinez", "Robinson",
    "Clark", "Rodriguez", "Lewis", "Lee", "Walker", "Hall", "Allen",
    "Young", "Hernandez", "King", "Wright", "Lopez", "Hill", "Scott",
    "Green", "Adams", "Baker", "Gonzalez", "Nelson", "Carter",
]

_CUSTOMERS = [
    ("Acme Corp", "Chicago", "manufacturing"),
    ("Globex", "New York", "finance"),
    ("Initech", "Austin", "software"),
    ("Umbrella", "Raleigh", "pharma"),
    ("Stark Industries", "New York", "manufacturing"),
    ("Wayne Enterprises", "Gotham", "finance"),
    ("Tyrell", "Los Angeles", "software"),
    ("Cyberdyne", "Sunnyvale", "software"),
    ("Soylent", "New York", "food"),
    ("Hooli", "Palo Alto", "software"),
    ("Vandelay", "New York", "import"),
    ("Wonka", "Chicago", "food"),
]

_PRODUCTS = [
    ("Widget", "hardware", 19.99), ("Gadget", "hardware", 34.5),
    ("Sprocket", "hardware", 12.0), ("Gizmo", "hardware", 55.25),
    ("Doohickey", "hardware", 8.75), ("Console", "electronics", 249.0),
    ("Terminal", "electronics", 420.0), ("Printer", "electronics", 175.5),
    ("Compiler", "software", 99.0), ("Debugger", "software", 59.0),
]


def build_database(seed: int = 11, employees: int = 40, sales: int = 200) -> Database:
    """Build the company database (deterministic in ``seed``)."""
    db = Database("company")
    db.create_table(TableSchema(
        "department",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("city", SqlType.TEXT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "employee",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("title", SqlType.TEXT),
            Column("salary", SqlType.INT),
            Column("hired", SqlType.INT, comment="year"),
            Column("dept_id", SqlType.INT),
        ],
        primary_key="id",
        foreign_keys=[ForeignKey("dept_id", "department", "id")],
    ))
    db.create_table(TableSchema(
        "customer",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("city", SqlType.TEXT),
            Column("industry", SqlType.TEXT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "product",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("name", SqlType.TEXT, nullable=False),
            Column("category", SqlType.TEXT),
            Column("price", SqlType.FLOAT),
        ],
        primary_key="id",
    ))
    db.create_table(TableSchema(
        "sale",
        [
            Column("id", SqlType.INT, nullable=False),
            Column("product_id", SqlType.INT),
            Column("customer_id", SqlType.INT),
            Column("employee_id", SqlType.INT),
            Column("amount", SqlType.INT, comment="units sold"),
            Column("year", SqlType.INT),
        ],
        primary_key="id",
        foreign_keys=[
            ForeignKey("product_id", "product", "id"),
            ForeignKey("customer_id", "customer", "id"),
            ForeignKey("employee_id", "employee", "id"),
        ],
    ))

    db.insert_many(
        "department", ((i, *row) for i, row in enumerate(_DEPARTMENTS, start=1))
    )
    rng = rng_for(seed, "employees")
    names = pick_unique(rng, _EMPLOYEE_NAMES, employees)

    def employee_rows():
        for i, name in enumerate(names, start=1):
            title = rng.choice(_TITLES)
            base = {"manager": 60000, "engineer": 52000, "analyst": 45000,
                    "clerk": 30000, "director": 80000}[title]
            yield (
                i, name, title,
                base + rng.randint(-5000, 15000),
                rng.randint(1960, 1977),
                rng.randint(1, len(_DEPARTMENTS)),
            )

    db.insert_many("employee", employee_rows())
    db.insert_many("customer", ((i, *row) for i, row in enumerate(_CUSTOMERS, start=1)))
    db.insert_many("product", ((i, *row) for i, row in enumerate(_PRODUCTS, start=1)))
    rng = rng_for(seed, "sales")
    db.insert_many(
        "sale",
        (
            (
                i,
                rng.randint(1, len(_PRODUCTS)),
                rng.randint(1, len(_CUSTOMERS)),
                rng.randint(1, employees),
                rng.randint(1, 500),
                rng.randint(1974, 1977),
            )
            for i in range(1, sales + 1)
        ),
    )
    return db


def domain() -> DomainModel:
    """NL configuration for the company database."""
    return DomainModel(
        name="company",
        entities=[
            EntitySpec(
                "employee",
                ("employee", "worker", "person", "staff member", "salesman",
                 "everybody", "everyone"),
                ("name",),
            ),
            EntitySpec("department", ("department", "division"), ("name",)),
            EntitySpec("customer", ("customer", "client", "account"), ("name",)),
            EntitySpec("product", ("product", "item", "good"), ("name",)),
            EntitySpec("sale", ("sale", "order", "transaction"), ("id",)),
        ],
        attributes=[
            AttributeSpec("employee", "salary", ("salary", "pay", "wage", "earnings"),
                          ("dollars",)),
            AttributeSpec("employee", "hired", ("hired", "joined", "hiring year")),
            AttributeSpec("employee", "title", ("title", "job", "position", "role")),
            AttributeSpec("department", "city", ("city", "location")),
            AttributeSpec("customer", "industry", ("industry", "sector")),
            AttributeSpec("product", "price", ("price", "cost"), ("dollars",)),
            AttributeSpec("product", "category", ("category",)),
            AttributeSpec("sale", "amount", ("amount", "quantity", "units"),
                          ("units",)),
            AttributeSpec("sale", "year", ("year",)),
        ],
        adjectives=[
            AdjectiveSpec(
                "employee", "salary",
                superlative_max=("richest", "highest paid", "best paid"),
                superlative_min=("lowest paid", "worst paid"),
                comparative_more=("richer", "earning", "making"),
                comparative_less=("poorer",),
            ),
            AdjectiveSpec(
                "employee", "hired",
                superlative_max=("newest",),
                superlative_min=("oldest", "longest serving"),
                comparative_more=("newer",),
            ),
            AdjectiveSpec(
                "product", "price",
                superlative_max=("priciest", "most expensive", "dearest"),
                superlative_min=("cheapest", "least expensive"),
                comparative_more=("pricier", "costlier"),
                comparative_less=("cheaper",),
            ),
        ],
        value_synonyms=[
            ValueSynonymSpec("nyc", "department", "city", "New York"),
            ValueSynonymSpec("tech", "customer", "industry", "software"),
        ],
        categorical_entities=[
            # "the managers", "every engineer" — titles as employee nouns
            CategoricalEntitySpec("employee", "employee", "title"),
        ],
    )
