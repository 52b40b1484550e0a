"""Inverted index over database string values.

Maps word sequences in questions ("norfolk", "pacific", "stanislaw lem")
to the ``(table, column, value)`` triples that contain them, so the tagger
can turn unknown words into :class:`~repro.logical.forms.ValueRef`
candidates — the mechanism SODA and friends called *value-based lookup*,
and that 1978 systems implemented as "file-content lexicons".

The index is **incrementally maintainable**: every entry is reference
counted per live row, so :meth:`ValueIndex.apply_delta` can consume the
row-level :class:`~repro.sqlengine.table.TableDelta` stream emitted by
table mutations and add/remove phrase entries in O(changed values) instead
of rebuilding from the whole database.  A full rebuild is only needed on
catalog DDL (create/drop table), which the NLI layer handles.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

from repro.nlp.spelling import SpellingCorrector
from repro.nlp.stemmer import stem
from repro.pmap import PMap
from repro.sqlengine.database import Database
from repro.sqlengine.table import TableDelta
from repro.sqlengine.types import SqlType


@dataclass(frozen=True)
class ValueHit:
    """One value match for a question phrase."""

    table: str
    column: str
    value: str
    exact: bool  # False when reached via spelling correction


@dataclass(frozen=True)
class IndexChange:
    """What a delta changed that a question can observe.

    ``words`` holds every word, and the stem of every word, of each value
    whose live-occurrence count crossed zero: only those values enter or
    leave a phrase bucket, and a word joins or leaves the vocabulary only
    together with one of them.  ``weights_moved`` is set when any
    vocabulary weight changed, which can move a fuzzy tie-break.  A value
    that only gains or loses one more occurrence adds no word.
    """

    words: frozenset[str] = frozenset()
    weights_moved: bool = False

    def __or__(self, other: IndexChange) -> IndexChange:
        return IndexChange(
            self.words | other.words, self.weights_moved or other.weights_moved
        )


def _normalise_phrase(text: str) -> tuple[str, ...]:
    return tuple(word for word in text.lower().replace("-", " ").split() if word)


class ValueIndex:
    """Phrase index over all TEXT columns of a database.

    ``max_values_per_column`` guards against indexing an enormous free-text
    column; high-cardinality prose columns are unlikely to be referenced by
    name in a question anyway.  The cap is enforced per column across the
    initial build *and* later incremental additions.
    """

    def __init__(
        self,
        database: Database,
        max_values_per_column: int | None = None,
        excluded_columns: set[tuple[str, str]] | None = None,
    ) -> None:
        self.database = database
        self._max_values_per_column = max_values_per_column
        self._excluded = excluded_columns or set()
        # One pass over the TEXT columns into local dicts, admitting exactly
        # what successive add_value calls would; each map then becomes a
        # PMap in one from_dict build.
        cap = max_values_per_column
        phrase_map: dict[tuple[str, ...], Any] = {}
        stem_map: dict[tuple[str, ...], Any] = {}
        occurrences: dict[tuple[str, str, str], int] = {}
        column_seen: dict[tuple[str, str], int] = {}
        word_counts: dict[str, int] = {}
        max_phrase_len = 1
        for table in database.tables():
            for column in table.schema.columns:
                column_key = (table.name, column.name)
                if column.sql_type is not SqlType.TEXT or column_key in self._excluded:
                    continue
                seen = 0
                for value in table.column_values(column.name):
                    if value is None:
                        continue
                    occurrence_key = (table.name, column.name, value)
                    count = occurrences.get(occurrence_key, 0)
                    if count == 0 and cap is not None and seen >= cap:
                        continue  # the cap only turns away new values
                    seen += 1
                    occurrences[occurrence_key] = count + 1
                    phrase = _normalise_phrase(value)
                    for word in phrase:
                        word_counts[word] = word_counts.get(word, 0) + 1
                    if count or not phrase:
                        continue
                    hit = ValueHit(table.name, column.name, value, exact=True)
                    phrase_map.setdefault(phrase, []).append(hit)
                    stemmed = tuple(stem(word) for word in phrase)
                    if stemmed != phrase:
                        hit = ValueHit(table.name, column.name, value, exact=False)
                        stem_map.setdefault(stemmed, []).append(hit)
                    max_phrase_len = max(max_phrase_len, len(phrase))
                if seen:
                    column_seen[column_key] = seen
        for buckets in (phrase_map, stem_map):
            for key, hits in buckets.items():
                buckets[key] = tuple(hits)
        self._phrase_map = PMap.from_dict(phrase_map)
        self._stem_map = PMap.from_dict(stem_map)
        #: Live-row reference count per (table, column, value): entries are
        #: only unindexed when the *last* row holding the value goes away.
        self._occurrences = PMap.from_dict(occurrences)
        #: Occurrences admitted per (table, column), for the cap.
        self._column_seen = PMap.from_dict(column_seen)
        # Vocabulary weights are per occurrence, so frequent values win
        # spelling-correction tie-breaks; phrase entries are deduplicated.
        self._word_vocabulary = SpellingCorrector.from_counts(word_counts)
        self._max_phrase_len = max_phrase_len

    # -- incremental maintenance --------------------------------------------

    def clone(self) -> ValueIndex:
        """Independent copy sharing nothing *mutable* with the original.

        Used for copy-on-write refreshes: a publisher patches the clone
        with pending deltas and swaps it in atomically, so readers on the
        old index never observe a half-applied delta.  Every map is a
        :class:`~repro.pmap.PMap`, so the clone aliases the current maps —
        O(1) — and both sides' subsequent mutations build new structure
        without touching shared nodes.
        """
        out = copy.copy(self)
        out._word_vocabulary = self._word_vocabulary.clone()
        return out

    def add_value(self, table: str, column: str, value: str) -> bool:
        """Count one live occurrence of ``value``; index it when new.

        Returns False when the column's cap rejected the occurrence.  The
        cap only gates values *not yet indexed*: a further occurrence of an
        admitted value must always count, or the matching removal would
        steal the refcount of a still-live row.
        """
        column_key = (table, column)
        seen = self._column_seen.get(column_key, 0)
        occurrence_key = (table, column, value)
        count = self._occurrences.get(occurrence_key, 0)
        if (
            count == 0
            and self._max_values_per_column is not None
            and seen >= self._max_values_per_column
        ):
            return False
        self._column_seen = self._column_seen.set(column_key, seen + 1)
        self._occurrences = self._occurrences.set(occurrence_key, count + 1)
        phrase = _normalise_phrase(value)
        if not phrase:
            return True
        for word in phrase:
            self._word_vocabulary.add_word(word)
        if count == 0:
            self._index_phrase(phrase, table, column, value)
        return True

    def remove_value(self, table: str, column: str, value: str) -> None:
        """Drop one live occurrence; unindex when none remain."""
        occurrence_key = (table, column, value)
        count = self._occurrences.get(occurrence_key, 0)
        if count == 0:
            return  # never admitted (cap) or already gone
        column_key = (table, column)
        seen = max(0, self._column_seen.get(column_key, 0) - 1)
        self._column_seen = self._column_seen.set(column_key, seen)
        if count > 1:
            self._occurrences = self._occurrences.set(occurrence_key, count - 1)
        else:
            self._occurrences = self._occurrences.delete(occurrence_key)
        phrase = _normalise_phrase(value)
        for word in phrase:
            self._word_vocabulary.remove_word(word)
        if count == 1 and phrase:
            self._unindex_phrase(phrase, table, column, value)

    def apply_delta(self, delta: TableDelta) -> IndexChange:
        """Consume one table mutation's string-value delta.

        O(changed values): adds/removes exactly the phrases the mutation
        touched, and reports them as an :class:`IndexChange`.  A value
        that leaves and comes back within one delta is reported too: its
        bucket may list its hits in a new order.  DDL deltas (index
        creation) carry no values and change nothing.
        """
        crossed: set[str] = set()
        moved = False
        edits = [(self.remove_value, pair) for pair in delta.removed]
        edits += [(self.add_value, pair) for pair in delta.added]
        for edit, (column, value) in edits:
            if (delta.table, column) in self._excluded:
                continue
            key = (delta.table, column, value)
            before = self._occurrences.get(key, 0)
            edit(delta.table, column, value)
            after = self._occurrences.get(key, 0)
            if before == after:
                continue
            phrase = _normalise_phrase(value)
            moved = moved or bool(phrase)
            if not (before and after):
                crossed.update(phrase)
                crossed.update(stem(word) for word in phrase)
        return IndexChange(frozenset(crossed), moved)

    def _index_phrase(
        self, phrase: tuple[str, ...], table: str, column: str, value: str
    ) -> None:
        exact_hit = ValueHit(table, column, value, exact=True)
        self._phrase_map = self._phrase_map.set(
            phrase, self._phrase_map.get(phrase, ()) + (exact_hit,)
        )
        stemmed = tuple(stem(word) for word in phrase)
        if stemmed != phrase:
            stem_hit = ValueHit(table, column, value, exact=False)
            self._stem_map = self._stem_map.set(
                stemmed, self._stem_map.get(stemmed, ()) + (stem_hit,)
            )
        self._max_phrase_len = max(self._max_phrase_len, len(phrase))

    def _unindex_phrase(
        self, phrase: tuple[str, ...], table: str, column: str, value: str
    ) -> None:
        # _max_phrase_len stays a (harmless) upper bound: lookup_prefix
        # just probes lengths that no longer exist.
        doomed = (table, column, value)
        for attr, key in (
            ("_phrase_map", phrase),
            ("_stem_map", tuple(stem(word) for word in phrase)),
        ):
            mapping = getattr(self, attr)
            bucket = mapping.get(key)
            if bucket is None:
                continue
            bucket = tuple(h for h in bucket if (h.table, h.column, h.value) != doomed)
            setattr(
                self, attr, mapping.set(key, bucket) if bucket else mapping.delete(key)
            )

    # -- lookup -------------------------------------------------------------

    @property
    def max_phrase_len(self) -> int:
        return self._max_phrase_len

    def lookup(self, words: list[str]) -> list[ValueHit]:
        """Lookup of a word sequence: exact first, stemmed as fallback.

        The stemmed fallback lets "admirals" reach the stored value
        "admiral"; exact matches win when both exist.
        """
        key = tuple(w.lower() for w in words)
        hits = list(self._phrase_map.get(key, ()))
        stemmed = tuple(stem(w) for w in key)
        for hit in self._stem_map.get(stemmed, ()):
            if not any(
                h.table == hit.table and h.column == hit.column and h.value == hit.value
                for h in hits
            ):
                hits.append(hit)
        return hits

    def lookup_prefix(self, words: list[str]) -> list[tuple[int, ValueHit]]:
        """All value matches starting at the front of ``words``.

        Returns ``(length, hit)`` pairs, longest first, so the tagger can
        prefer maximal matches ("new york city" over "new york").
        """
        out: list[tuple[int, ValueHit]] = []
        limit = min(len(words), self._max_phrase_len)
        for length in range(limit, 0, -1):
            for hit in self.lookup(words[:length]):
                out.append((length, hit))
        return out

    def fuzzy_word(self, word: str) -> str | None:
        """Spelling-correct a single word against the value vocabulary."""
        correction = self._word_vocabulary.correct(word)
        if correction is None or correction.distance == 0:
            return None
        return correction.corrected

    def contains_word(self, word: str) -> bool:
        return word.lower() in self._word_vocabulary

    def vocabulary_words(self) -> int:
        return len(self._word_vocabulary)

    def stats(self) -> dict[str, int]:
        return {
            "phrases": len(self._phrase_map),
            "words": self.vocabulary_words(),
            "max_phrase_len": self._max_phrase_len,
        }


def stemmed_phrase_key(text: str) -> tuple[str, ...]:
    """Stem-normalised phrase key shared with the lexicon."""
    return tuple(stem(word) for word in _normalise_phrase(text))
