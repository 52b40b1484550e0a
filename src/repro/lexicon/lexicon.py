"""The lexicon store: stemmed-phrase lookup with longest-match preference."""

from __future__ import annotations

from typing import Iterable

from repro.lexicon.entries import Category, LexicalEntry
from repro.nlg.realize import pluralize
from repro.nlp.spelling import SpellingCorrector
from repro.nlp.stemmer import stem


def phrase_key(phrase: str) -> tuple[str, ...]:
    """Stem-normalised key for a phrase ("Home Ports" -> ('home', 'port'))."""
    return tuple(stem(word) for word in phrase.lower().replace("_", " ").split())


class Lexicon:
    """Phrase-keyed store of :class:`LexicalEntry` objects.

    Lookup happens over *stemmed* token sequences, so "ships", "ship" and
    "shipped" all reach the 'ship' entry.  Multiple entries may share a
    phrase (ambiguity is resolved later by the interpreter's ranking).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, ...], list[LexicalEntry]] = {}
        self._max_len = 1
        #: Spelling vocabulary as word -> weight; the corrector over it is
        #: built in one pass on first use, and any add() drops it.
        self._word_counts: dict[str, int] = {}
        self._corrector: SpellingCorrector | None = None

    def add(self, phrase: str, category: Category, payload, weight: float = 1.0) -> LexicalEntry:
        key = phrase_key(phrase)
        if not key:
            raise ValueError("empty lexicon phrase")
        entry = LexicalEntry(key, category, payload, phrase, weight)
        bucket = self._entries.setdefault(key, [])
        if not any(
            e.category == entry.category and e.payload == entry.payload for e in bucket
        ):
            bucket.append(entry)
        self._max_len = max(self._max_len, len(key))
        counts = self._word_counts
        for word in phrase.lower().replace("_", " ").split():
            # Plural forms let the spelling corrector fix "shps" -> "ships";
            # the stemmer folds the corrected plural back onto this entry.
            for form in (word, pluralize(word)):
                counts[form] = counts.get(form, 0) + 1
        self._corrector = None
        return entry

    def _vocabulary(self) -> SpellingCorrector:
        # Concurrent first readers may each build it; the results are equal.
        corrector = self._corrector
        if corrector is None:
            corrector = SpellingCorrector.from_counts(self._word_counts)
            self._corrector = corrector
        return corrector

    # -- lookup -----------------------------------------------------------------

    @property
    def max_phrase_len(self) -> int:
        return self._max_len

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())

    def entries(self) -> Iterable[LexicalEntry]:
        for bucket in self._entries.values():
            yield from bucket

    def lookup(self, stemmed_words: tuple[str, ...]) -> list[LexicalEntry]:
        return list(self._entries.get(stemmed_words, []))

    def prefix_matches(
        self, stemmed_words: list[str], start: int
    ) -> list[tuple[int, LexicalEntry]]:
        """All entries matching at ``start``; returns (match_length, entry).

        Longest matches come first so the tagger can prefer them.
        """
        out: list[tuple[int, LexicalEntry]] = []
        limit = min(len(stemmed_words) - start, self._max_len)
        for length in range(limit, 0, -1):
            key = tuple(stemmed_words[start : start + length])
            for entry in self._entries.get(key, []):
                out.append((length, entry))
        return out

    def knows_word(self, word: str) -> bool:
        return word.lower() in self._vocabulary()

    def correct_word(self, word: str) -> str | None:
        """Spelling-correct a word against the lexicon vocabulary."""
        correction = self._vocabulary().correct(word)
        if correction is None or correction.distance == 0:
            return None
        return correction.corrected

    def category_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries():
            counts[entry.category.value] = counts.get(entry.category.value, 0) + 1
        return counts
