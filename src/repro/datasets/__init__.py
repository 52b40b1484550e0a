"""Synthetic evaluation domains: fleet (navy), company, geography,
saas (multi-tenant back office) and events (time-series operations).

Each domain module builds a seeded database and its domain model; the
questions asked of it live in ``repro/evaluation/gold/<domain>.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets import company, events, fleet, geography, saas
from repro.lexicon.domain import DomainModel
from repro.sqlengine.database import Database

_MODULES = {
    "fleet": fleet,
    "company": company,
    "geography": geography,
    "saas": saas,
    "events": events,
}

ALL_DOMAINS = tuple(_MODULES)


@dataclass
class DomainBundle:
    """Database + domain model for one domain."""

    name: str
    database: Database
    model: DomainModel


def load_bundle(name: str) -> DomainBundle:
    """Build the database and domain model for ``name``."""
    module = _MODULES.get(name)
    if module is None:
        raise ValueError(
            f"unknown domain {name!r} (available: {', '.join(ALL_DOMAINS)})"
        )
    return DomainBundle(name, module.build_database(), module.domain())


__all__ = [
    "ALL_DOMAINS",
    "DomainBundle",
    "company",
    "events",
    "fleet",
    "geography",
    "load_bundle",
    "saas",
]
