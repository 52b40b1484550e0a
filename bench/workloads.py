"""The seeded input generator.

``--seed`` drives the misspellings, the order and popularity draws, the
write mix and the scaled database; the program under test receives only
the strings produced here.  What the seed does *not* move is each
workload's shape — which question is popular, how many variants exist,
the read/write shares — because two seeds must measure the same mix for
their numbers to be comparable.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator

from repro.datasets.base import rng_for
from repro.evalkit.corruption import corrupt_word
from repro.evaluation.goldsets import GoldItem

#: Handles later issues use; descriptions live in BENCHMARK.json/README.
WORKLOADS = ("cold-language", "hot-repeat", "big-scan", "mixed-durable", "http-2proc")

#: A candidate misspelling the pipeline cannot answer is redrawn this often
#: before the variant falls back to a re-cased spelling.
TYPO_TRIES = 12

_RESTYLES: tuple[Callable[[str], str], ...] = (
    str.upper,
    str.title,
    lambda text: text.capitalize() + "?",
)


def typo(question: str, rng: random.Random) -> str:
    """One seeded misspelling: a single keyboard-neighbour edit in one word."""
    words = question.split()
    eligible = [i for i, word in enumerate(words) if len(word) >= 4 and word.isalpha()]
    if not eligible:
        return question
    position = rng.choice(eligible)
    words[position] = corrupt_word(words[position], rng)
    return " ".join(words)


def restyle(question: str, rng: random.Random) -> str:
    """A seeded case/punctuation variant: same words, different string."""
    return rng.choice(_RESTYLES)(question)


def question_variants(
    items: list[GoldItem],
    seed: int,
    counts: list[int],
    accepts: Callable[[GoldItem, str], bool],
) -> tuple[list[list[str]], int]:
    """``counts[i]`` distinct spellings of gold question ``i``, gold text first.

    The extra spellings are misspellings.  ``accepts`` decides whether a
    candidate is answerable (the caller asks a reference service and
    compares with the reference answer): a workload must hold no
    operation that fails, so a rejected misspelling is redrawn — after
    ``TYPO_TRIES`` as a re-cased spelling, which always parses — and the
    number rejected is returned: a speller regression shows there as a
    count that repeats exactly for a seed.
    """
    rng = rng_for(seed, "variants")
    rejected = 0
    out = []
    for item, count in zip(items, counts):
        spellings = [item.question]
        while len(spellings) < count:
            for attempt in range(TYPO_TRIES + len(_RESTYLES) * 4):
                make = typo if attempt < TYPO_TRIES else restyle
                candidate = make(item.question, rng)
                if candidate in spellings:
                    continue
                if accepts(item, candidate):
                    break
                rejected += 1
            else:
                raise ValueError(f"no answerable variant of {item.question!r}")
            spellings.append(candidate)
        out.append(spellings)
    return out, rejected


def zipf_draws(n: int, seed: int, stream: str) -> Iterator[int]:
    """Endless Zipf(1.0) draws over ranks ``0..n-1`` (rank 0 most popular)."""
    rng = rng_for(seed, stream)
    cumulative = list(itertools.accumulate(1.0 / rank for rank in range(1, n + 1)))
    ranks = range(n)
    while True:
        yield from rng.choices(ranks, cum_weights=cumulative, k=4096)


def neutral_update(rng: random.Random, ships: int, officers: int) -> str:
    """A real write to ``ship`` that no fleet gold answer depends on.

    ``commander_id`` is read by no gold statement, so the stored/oracle
    references stay valid, while the table version moves: every cached
    plan and materialized result over ``ship`` is stale afterwards.
    Numeric-only, so the language layers' prepared cache is left alone.
    """
    return (
        f"UPDATE ship SET commander_id = {rng.randint(1, officers)} "
        f"WHERE id = {rng.randint(1, ships)}"
    )


_SYLLABLES = ("zor", "vex", "qua", "ryx", "jin", "tok", "wub", "gax", "nuv", "pyl")
_MISSIONS = ("patrol", "exercise", "escort", "survey", "transit")
_OCEANS = ("Pacific", "Atlantic", "Mediterranean", "Indian")


class FleetWriteMix:
    """The autocommit DML of ``mixed-durable``, as lists of statements.

    Half the operations UPDATE a numeric ship column, a quarter INSERT a
    newly named ship plus one deployment, a quarter DELETE the oldest
    such ship (and its deployment), so the tables stay bounded.  Every
    new or removed name is a value-index delta refresh that empties the
    prepared cache: with one every ~20 operations most asks re-run the
    language layers, which puts the median ask clearly on the
    re-preparation path rather than on the border between hit and miss.
    Every written number is fresh, so writes never create ties at a LIMIT
    cut.
    """

    _COLUMNS = ("displacement", "length", "speed", "crew")

    def __init__(self, seed: int, ships: int, deployments: int, officers: int):
        self._rng = rng_for(seed, "writes")
        self._seed_ships = ships
        self._officers = officers
        self._next_ship = ships + 1
        self._next_deployment = deployments + 1
        self._fresh = itertools.count(200_000)
        self._live: list[int] = []
        self.inserted = 0
        self.deleted = 0

    def next(self) -> list[str]:
        rng = self._rng
        draw = rng.random()
        if draw < 0.50:
            return [
                f"UPDATE ship SET {rng.choice(self._COLUMNS)} = {next(self._fresh)} "
                f"WHERE id = {rng.randint(1, self._seed_ships)}"
            ]
        if draw < 0.75 or not self._live:
            return self._insert()
        ship = self._live.pop(0)
        self.deleted += 1
        return [
            f"DELETE FROM deployment WHERE ship_id = {ship}",
            f"DELETE FROM ship WHERE id = {ship}",
        ]

    def _insert(self) -> list[str]:
        rng = self._rng
        ship, self._next_ship = self._next_ship, self._next_ship + 1
        deployment = self._next_deployment
        self._next_deployment += 1
        # Alphabetic and unique: a seeded syllable, then the id spelt in syllables.
        name = rng.choice(_SYLLABLES) + "".join(_SYLLABLES[int(d)] for d in str(ship))
        self._live.append(ship)
        self.inserted += 1
        ship_row = (
            ship, f"'{name.capitalize()}'", rng.randint(1, 5), rng.randint(1, 4),
            rng.randint(1, 12), rng.randint(1, self._officers), next(self._fresh),
            next(self._fresh), next(self._fresh), rng.randint(1955, 1977),
            next(self._fresh),
        )
        deployment_row = (
            deployment, ship, f"'{rng.choice(_MISSIONS)}'", f"'{rng.choice(_OCEANS)}'",
            rng.randint(1970, 1977),
        )
        return [
            f"INSERT INTO ship VALUES ({', '.join(map(str, ship_row))})",
            f"INSERT INTO deployment VALUES ({', '.join(map(str, deployment_row))})",
        ]
