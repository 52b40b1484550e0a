"""Shared helpers for the synthetic domain generators.

All generators are deterministic: the same seed always produces the same
database, so corpora with embedded gold values stay valid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.lexicon.domain import DomainModel
from repro.sqlengine.database import Database


@dataclass
class Domain:
    """A bundled dataset: database builder + NL domain model + corpus."""

    name: str
    database: Database
    model: DomainModel

    def summary(self) -> str:
        return self.database.summary()


def rng_for(seed: int, stream: str) -> random.Random:
    """Independent deterministic stream per generator component."""
    return random.Random(f"{seed}:{stream}")


def pick_unique(rng: random.Random, pool: list[str], count: int) -> list[str]:
    """Sample ``count`` distinct names, suffixing when the pool runs out."""
    if count <= len(pool):
        return rng.sample(pool, count)
    out = list(pool)
    index = 2
    while len(out) < count:
        for name in pool:
            out.append(f"{name} {_roman(index)}")
            if len(out) == count:
                break
        index += 1
    return out[:count]


def _roman(number: int) -> str:
    numerals = [
        (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"),
        (90, "XC"), (50, "L"), (40, "XL"), (10, "X"), (9, "IX"),
        (5, "V"), (4, "IV"), (1, "I"),
    ]
    out = []
    for value, symbol in numerals:
        while number >= value:
            out.append(symbol)
            number -= value
    return "".join(out)
