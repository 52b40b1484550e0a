"""Prepared answers survive writes, and a survivor answers like a cold ask.

A delta refresh evicts only the prepared entries whose stamp meets what
the delta changed in the value index: the words of a value whose
occurrence count crossed zero, or any vocabulary weight for an entry that
consulted ``fuzzy_word``.  The invariant held here: after every write, a
warm ``ask(q).to_dict()`` equals the same ask on a fresh interface over
the same database.  The questions cover value words, a stemmed value, a
multi-word value, a typo the lexicon corrects and typos only
``fuzzy_word`` corrects.  The first four writes and the lexicon rebuild
each change how at least one of them is read.
"""

from __future__ import annotations

from repro.core import NaturalLanguageInterface
from repro.datasets import fleet
from repro.service import NliService

DOMAIN = fleet.domain()

QUESTIONS = [
    "ships from norfolk",
    "how many ships are in the pacific fleet",
    "which ships are in the atlantic fleet",
    "officers who are not admirals",
    "what is the displacement of the kitty hawk",
    "how many shps are there",
    "ships from norfolc",
    "the crew of the sturgeen",
    "the crew of the sturgeon",
    "show the whale",
    "show the carriers",
    "how many submarines are there",
    "how many ships are there",
    "the fastest ship",
    "ships from apra or bremerton",
    "ships with crew less than 150",
    "how many ships per type",
    "the 3 oldest ships",
    "what is the displacement of the saratoga",
    "show the ships in the indian fleet",
    "ships heavier than the vinson",
    "list the fleets",
    "how many officers per rank",
    "which ship has the largest displacement",
    "what about the atlantic fleet",
]

PACIFIC = "how many ships are in the pacific fleet"


def ship(ship_id: int, name: str) -> str:
    return (
        f"INSERT INTO ship VALUES ({ship_id}, '{name}', 3, 1, 1, 1, "
        "8000, 600, 30, 1976, 150)"
    )


def cached_entries(nli: NaturalLanguageInterface) -> list:
    return list(nli._prepared._data.values())


def assert_warm_equals_cold(warm: NaturalLanguageInterface, label: str) -> None:
    cold = NaturalLanguageInterface(warm.database, domain=DOMAIN)
    for question in QUESTIONS:
        assert warm.ask(question).to_dict() == cold.ask(question).to_dict(), (
            label,
            question,
        )


def test_warm_answers_equal_cold_answers_after_every_write():
    warm = NaturalLanguageInterface(fleet.build_database(), domain=DOMAIN)
    assert_warm_equals_cold(warm, "no write yet")
    writes = [
        # "the fastest ship" now also names a ship; "admirals" reaches the
        # new name only through its stem.
        (
            "ships named like question words",
            [ship(901, "Fastest"), ship(902, "Admiral")],
        ),
        # "shps" was a typo the lexicon corrected; now it is a value.
        ("a value equal to a raw typo token", [ship(903, "Shps")]),
        # One edit from "sturgeen", tied with "sturgeon" on weight, and
        # first alphabetically: the fuzzy correction moves.
        ("a value one edit from a fuzzy token", [ship(904, "Sturgean")]),
        (
            "a DELETE of the last row holding a word",
            ["DELETE FROM ship WHERE name = 'Whale'"],
        ),
        (
            "an extra occurrence of an existing value",
            ["INSERT INTO deployment VALUES (900, 1, 'patrol', 'Pacific', 1975)"],
        ),
        (
            "a lexicon rebuild",
            ["UPDATE shiptype SET name = 'boat' WHERE name = 'submarine'"],
        ),
        ("a numeric UPDATE", ["UPDATE ship SET crew = 999 WHERE name = 'Sturgeon'"]),
        (
            "a rolled-back block",
            ["BEGIN", ship(905, "Norfold"), ship(906, "Norfold"), "ROLLBACK"],
        ),
    ]
    for label, statements in writes:
        before = cached_entries(warm)
        invalidated = warm.stats["prepared_invalidated"]
        for sql in statements:
            warm.engine.execute(sql)
        warm.refresh_if_needed()
        dropped = warm.stats["prepared_invalidated"] - invalidated
        assert_warm_equals_cold(warm, label)
        if label == "an extra occurrence of an existing value":
            # No phrase appeared or disappeared: only the entries that read
            # the vocabulary weights (fuzzy corrections) go.
            assert dropped == sum(entry.stamp.fuzzy for entry in before) > 0
            assert ("parse", PACIFIC, True) in warm._prepared
        elif label in ("a lexicon rebuild", "a rolled-back block"):
            # ROLLBACK bumps the catalog version: a full rebuild.
            assert dropped == len(before)
        elif label == "a numeric UPDATE":
            assert dropped == 0
        else:
            assert 0 < dropped < len(before), label


def test_a_stale_reader_neither_publishes_nor_sees_newer_entries():
    database = fleet.build_database()
    nli = NaturalLanguageInterface(database, domain=DOMAIN)
    question = "how many shps are there"
    before_write = NaturalLanguageInterface(database, domain=DOMAIN).ask(question)
    layers, snapshot = nli._pin()
    try:
        nli.engine.execute(ship(903, "Shps"))
        nli.refresh()
        # The old reader finishes after the publish: it answers on its own
        # generation, and its entries must not land in the cache.
        stale = nli._ask_pinned(question, None, False, layers, snapshot)
        assert stale.to_dict() == before_write.to_dict()
        after_write = NaturalLanguageInterface(database, domain=DOMAIN).ask(question)
        assert nli.ask(question).to_dict() == after_write.to_dict()
        assert stale.tokens != after_write.tokens
        # Entries born at the new epoch are cached now; the old reader
        # must not be served them.
        again = nli._ask_pinned(question, None, False, layers, snapshot)
        assert again.to_dict() == before_write.to_dict()
    finally:
        snapshot.close()


def test_born_refusals_are_misses_and_invalidations_are_counted():
    service = NliService(fleet.build_database(), domain=DOMAIN)
    nli = service.nli
    question = "the crew of the sturgeen"
    service.ask(question)
    layers, snapshot = nli._pin()
    try:
        service.execute(ship(904, "Sturgean"))
        assert service.stats["prepared_invalidated"] == 2  # normalize + parse
        service.ask(question)  # caches entries born after the pin
        hits, misses = nli.stats["prepared_hits"], nli.stats["prepared_misses"]
        nli._ask_pinned(question, None, False, layers, snapshot)
    finally:
        snapshot.close()
    assert nli.stats["prepared_hits"] == hits
    assert nli.stats["prepared_misses"] == misses + 2
    service.ask(question)
    assert nli.stats["prepared_hits"] == hits + 2
    # A lexicon rebuild clears the cache and counts every entry it drops.
    cached = len(nli._prepared)
    service.execute("UPDATE shiptype SET name = 'boat' WHERE name = 'submarine'")
    assert service.stats["prepared_invalidated"] == 2 + cached
    service.close()
