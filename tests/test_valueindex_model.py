"""The value index against a plain dict-of-counts model.

The model keeps one live-occurrence count per ``(table, column, value)``
in a dict whose order is (re)admission order, and derives everything the
index answers from it: phrase and stem lookups, prefix matches, the word
vocabulary, ``stats()`` and a brute-force nearest-word search for
``fuzzy_word``.  Random ``add_value`` / ``remove_value`` / ``apply_delta``
/ ``clone`` sequences, over an initial build and sometimes under a
per-column cap, must leave the index equal to the model after every step.
A clone's own mutations go to a copy of the model, never to the model the
original is checked against.  Every delta's reported change is checked
against the diff of the phrase map before and after it.

Two example tests pin the one-pass build to successive ``add_value``
calls: node for node on a bundled domain, and on the capped build, where
a later occurrence of an admitted value must still be counted.
"""

from __future__ import annotations

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import fleet
from repro.nlp.spelling import _threshold, damerau_levenshtein
from repro.nlp.stemmer import stem
from repro.sqlengine import Database
from repro.sqlengine.schema import Column, TableSchema
from repro.sqlengine.table import TableDelta
from repro.sqlengine.types import SqlType
from repro.valueindex import ValueHit, ValueIndex
from tests.test_persistent_maps import _shape

WORDS = ["port", "ports", "north", "nroth", "new", "york", "sea", "seas", "alpha"]
VALUES = [
    "Port",
    "ports",
    "north sea",
    "North-Sea",
    "new york",
    "New York port",
    "nroth",
    "seas",
    "alpha alpha",
    "York",
    "-",
    "",
]
COLUMNS = [("a", "x"), ("a", "y"), ("b", "z")]
PROBES = [
    *([word] for word in WORDS),
    ["north", "sea"],
    ["new", "york", "port"],
    ["new", "york"],
    ["port", "seas"],
    ["nosuchword"],
]
# "pors", "seaz" and "nrth" sit one edit from two words each, so word
# weights decide them.
TYPOS = ["prot", "pors", "seaz", "nrth", "yrok", "alpah", "NORTH", "seass", "qqqqq"]


@cache
def _phrase(value: str) -> tuple[str, ...]:
    return tuple(value.lower().replace("-", " ").split())


@cache
def _stemmed(words: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(stem(word) for word in words)


@cache
def _distance(a: str, b: str) -> int:
    return damerau_levenshtein(a, b)


def _text_table(db: Database, name: str, *columns: str) -> None:
    schema = [Column("id", SqlType.INT, nullable=False)]
    schema += [Column(column, SqlType.TEXT) for column in columns]
    db.create_table(TableSchema(name, schema, primary_key="id"))


def _database(rows: list[tuple[str | None, str | None, str | None]]) -> Database:
    db = Database()
    _text_table(db, "a", "x", "y")
    _text_table(db, "b", "z")
    db.insert_many("a", [(i, x, y) for i, (x, y, _) in enumerate(rows)])
    db.insert_many("b", [(i, z) for i, (_, _, z) in enumerate(rows)])
    return db


class Model:
    """What the index should answer, from live-occurrence counts alone."""

    def __init__(self, cap: int | None, excluded: set[tuple[str, str]]) -> None:
        self.cap = cap
        self.excluded = excluded
        self.counts: dict[tuple[str, str, str], int] = {}
        self.max_phrase_len = 1

    def copy(self) -> Model:
        out = Model(self.cap, self.excluded)
        out.counts = dict(self.counts)
        out.max_phrase_len = self.max_phrase_len
        return out

    def add(self, table: str, column: str, value: str) -> bool:
        key = (table, column, value)
        if key not in self.counts and self.cap is not None:
            live = sum(n for (t, c, _), n in self.counts.items() if (t, c) == key[:2])
            if live >= self.cap:
                return False
        self.counts[key] = self.counts.get(key, 0) + 1
        if self.counts[key] == 1 and _phrase(value):
            self.max_phrase_len = max(self.max_phrase_len, len(_phrase(value)))
        return True

    def remove(self, table: str, column: str, value: str) -> None:
        key = (table, column, value)
        if key in self.counts:
            self.counts[key] -= 1
            if not self.counts[key]:
                del self.counts[key]

    def apply_delta(self, delta: TableDelta) -> None:
        for column, value in delta.removed:
            if (delta.table, column) not in self.excluded:
                self.remove(delta.table, column, value)
        for column, value in delta.added:
            if (delta.table, column) not in self.excluded:
                self.add(delta.table, column, value)

    def weights(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_, _, value), count in self.counts.items():
            for word in _phrase(value):
                out[word] = out.get(word, 0) + count
        return out

    def lookup(self, words: list[str]) -> list[ValueHit]:
        key = tuple(word.lower() for word in words)
        hits = [
            ValueHit(*live, exact=True)
            for live in self.counts
            if _phrase(live[2]) == key
        ]
        exact = {(h.table, h.column, h.value) for h in hits}
        for live in self.counts:
            phrase = _phrase(live[2])
            stemmed = _stemmed(phrase)
            if stemmed != phrase and stemmed == _stemmed(key) and live not in exact:
                hits.append(ValueHit(*live, exact=False))
        return hits

    def lookup_prefix(self, words: list[str]) -> list[tuple[int, ValueHit]]:
        limit = min(len(words), self.max_phrase_len)
        return [
            (length, hit)
            for length in range(limit, 0, -1)
            for hit in self.lookup(words[:length])
        ]

    def stats(self) -> dict[str, int]:
        phrases = {_phrase(value) for _, _, value in self.counts} - {()}
        return {
            "phrases": len(phrases),
            "words": len(self.weights()),
            "max_phrase_len": self.max_phrase_len,
        }

    def fuzzy_word(self, word: str, weights: dict[str, int]) -> str | None:
        lowered = word.lower()
        budget = _threshold(len(lowered))
        if lowered in weights or budget == 0:
            return None
        scored = [
            (_distance(lowered, candidate), -weight, candidate)
            for candidate, weight in weights.items()
        ]
        best = min((key for key in scored if key[0] <= budget), default=None)
        return None if best is None else best[2]


def assert_matches(index: ValueIndex, model: Model) -> None:
    for words in PROBES:
        assert index.lookup(words) == model.lookup(words), words
        if len(words) > 1:  # a one-word prefix search is one lookup
            assert index.lookup_prefix(words) == model.lookup_prefix(words), words
    weights = model.weights()
    for word in WORDS + ["nosuchword", "NORTH"]:
        assert index.contains_word(word) == (word.lower() in weights), word
    assert index.stats() == model.stats()
    for typo in TYPOS + WORDS:
        assert index.fuzzy_word(typo) == model.fuzzy_word(typo, weights), typo


def assert_change_is_the_phrase_diff(index: ValueIndex, delta: TableDelta) -> None:
    """Apply ``delta``; its reported change must be exactly the words (and
    stems) of the phrase keys whose bucket moved, and ``weights_moved``
    exactly whether any vocabulary weight did.  A value both removed and
    added by one delta may come back to the same bucket: then the report
    may only be larger."""
    phrases = dict(index._phrase_map.items())
    weights = dict(index._word_vocabulary._vocabulary.items())
    change = index.apply_delta(delta)
    after = dict(index._phrase_map.items())
    moved = {
        word
        for key in phrases.keys() | after.keys()
        if phrases.get(key) != after.get(key)
        for word in key
    }
    diff = moved | {stem(word) for word in moved}
    weights_moved = weights != dict(index._word_vocabulary._vocabulary.items())
    if set(delta.added) & set(delta.removed):
        assert change.words >= diff
        assert change.weights_moved >= weights_moved
    else:
        assert change.words == diff
        assert change.weights_moved == weights_moved


columns = st.sampled_from(COLUMNS)
# Half the draws come from three values, so repeated occurrences (and
# removals that leave a value live) are common.
values = st.one_of(st.sampled_from(VALUES[:3]), st.sampled_from(VALUES))
pairs = st.tuples(columns, values)
mutation = st.one_of(
    st.tuples(st.just("add"), pairs),
    st.tuples(st.just("remove"), pairs),  # often of an absent value
    st.tuples(st.just("drop"), st.integers(min_value=0, max_value=63)),
    st.tuples(
        st.just("delta"),
        columns,
        st.lists(values, max_size=3),
        st.lists(values, max_size=3),
    ),
)
step = st.one_of(mutation, st.tuples(st.just("clone"), st.lists(mutation, max_size=4)))
cell = st.one_of(st.none(), values)


def _mutate(index: ValueIndex, model: Model, op: tuple) -> None:
    if op[0] == "drop":  # remove one occurrence of a live value
        live = list(model.counts)
        if live:
            table, column, value = live[op[1] % len(live)]
            index.remove_value(table, column, value)
            model.remove(table, column, value)
        return
    if op[0] == "delta":
        _, (table, column), removed, added = op
        delta = TableDelta(
            table,
            added=tuple((column, value) for value in added),
            removed=tuple((column, value) for value in removed),
        )
        assert_change_is_the_phrase_diff(index, delta)
        model.apply_delta(delta)
        return
    (table, column), value = op[1]
    if op[0] == "add":
        assert index.add_value(table, column, value) == model.add(table, column, value)
    else:
        index.remove_value(table, column, value)
        model.remove(table, column, value)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    rows=st.lists(st.tuples(cell, cell, cell), max_size=6),
    cap=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    exclude_y=st.booleans(),
    steps=st.lists(step, max_size=12),
)
def test_index_matches_dict_of_counts_model(rows, cap, exclude_y, steps):
    excluded = {("a", "y")} if exclude_y else set()
    db = _database(rows)
    index = ValueIndex(db, max_values_per_column=cap, excluded_columns=excluded)
    model = Model(cap, excluded)
    for table, column in COLUMNS:  # the order the build visits them
        if (table, column) not in excluded:
            for value in db.table(table).column_values(column):
                if value is not None:
                    model.add(table, column, value)
    assert_matches(index, model)
    for op in steps:
        if op[0] == "clone":
            clone, clone_model = index.clone(), model.copy()
            for mutation_op in op[1]:
                _mutate(clone, clone_model, mutation_op)
            assert_matches(clone, clone_model)
        else:
            _mutate(index, model, op)
        assert_matches(index, model)


def _fed(db: Database, cap: int | None) -> ValueIndex:
    """An index over no rows, fed ``db``'s values one ``add_value`` at a time
    in the order the build visits them."""
    index = ValueIndex(Database(), max_values_per_column=cap)
    for table in db.tables():
        for column in table.schema.columns:
            if column.sql_type is SqlType.TEXT:
                for value in table.column_values(column.name):
                    if value is not None:
                        index.add_value(table.name, column.name, value)
    return index


def _maps(index: ValueIndex) -> list:
    vocabulary = index._word_vocabulary
    maps = (index._phrase_map, index._stem_map, index._occurrences, index._column_seen)
    maps += (vocabulary._vocabulary, vocabulary._by_length)
    return [_shape(pmap._root) for pmap in maps] + [index.max_phrase_len]


def test_build_equals_successive_adds_node_for_node():
    db = fleet.build_database(seed=3, ships=120)
    for cap in (None, 5):
        assert _maps(ValueIndex(db, max_values_per_column=cap)) == _maps(_fed(db, cap))


def test_capped_build_counts_later_occurrences_of_admitted_values():
    db = Database()
    _text_table(db, "t", "v")
    db.insert_many("t", [(1, "alpha"), (2, "beta"), (3, "gamma"), (4, "alpha")])
    built, fed = ValueIndex(db, max_values_per_column=2), _fed(db, 2)
    assert dict(built._occurrences.items()) == dict(fed._occurrences.items())
    assert built._occurrences.get(("t", "v", "alpha")) == 2
    assert built.lookup(["gamma"]) == []
    # Deleting one of the two live "alpha" rows keeps the value indexed.
    built.apply_delta(TableDelta("t", removed=(("v", "alpha"),)))
    assert built.lookup(["alpha"]) == [ValueHit("t", "v", "alpha", exact=True)]
