"""Spelling correction against a known vocabulary.

LADDER-era systems corrected typos before parsing, because a single
misspelled domain word would otherwise kill the whole question.  The
corrector here uses Damerau–Levenshtein distance (insert, delete,
substitute, transpose) with a length-aware threshold and a frequency
tie-break.

Only words within the typo's budget of its length are candidates, and a
letter-set bound skips most of those before the distance is computed.
One edit changes the set of letters a word uses by at most two: an
insertion or a deletion adds or drops at most one letter, a substitution
at most two, an adjacent transposition none.  So a word whose letter
set differs from the typo's in more than ``2 * budget`` letters is
already beyond the budget, and skipping it leaves every correction
identical.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.pmap import PMap


def damerau_levenshtein(a: str, b: str, cap: int | None = None) -> int:
    """Damerau–Levenshtein edit distance (optimal string alignment).

    ``cap`` short-circuits: when the true distance provably exceeds it the
    function may return any value > cap.

    >>> damerau_levenshtein("ship", "sihp")
    1
    >>> damerau_levenshtein("kitten", "sitting")
    3
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if cap is not None and abs(la - lb) > cap:
        return cap + 1
    if la == 0:
        return lb
    if lb == 0:
        return la
    previous2: list[int] | None = None
    previous = list(range(lb + 1))
    for i in range(1, la + 1):
        current = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            current[j] = min(
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                previous[j - 1] + cost,  # substitution
            )
            if (
                previous2 is not None
                and i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                current[j] = min(current[j], previous2[j - 2] + 1)
        if cap is not None and min(current) > cap:
            return cap + 1
        previous2 = previous
        previous = current
    return previous[lb]


def _threshold(length: int) -> int:
    """Allowed edit distance by word length (short words correct less)."""
    if length <= 3:
        return 0
    if length <= 5:
        return 1
    return 2


@dataclass(frozen=True)
class Correction:
    """A corrected word with its provenance."""

    original: str
    corrected: str
    distance: int


class SpellingCorrector:
    """Corrects words to the nearest vocabulary entry.

    Vocabulary entries carry an integer weight (e.g. frequency in the
    database); among equal-distance candidates the highest weight wins, and
    ties break alphabetically for determinism.

    Both maps are structurally-shared :class:`~repro.pmap.PMap` instances
    (length buckets are tuples): every mutation replaces a map reference,
    so :meth:`clone` is O(1) and neither side ever sees the other's later
    mutations.
    """

    def __init__(self) -> None:
        self._vocabulary = PMap()
        self._by_length = PMap()

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> SpellingCorrector:
        """Corrector over lowercased, non-empty ``word -> weight`` items.

        Built in one pass: the maps equal, node for node, those that
        :meth:`add_word` per item in ``counts`` order would build.
        """
        by_length: dict[int, list[str]] = {}
        for word in counts:
            by_length.setdefault(len(word), []).append(word)
        out = cls()
        out._vocabulary = PMap.from_dict(counts)
        out._by_length = PMap.from_dict(
            {length: tuple(words) for length, words in by_length.items()}
        )
        return out

    def add_word(self, word: str, weight: int = 1) -> None:
        lowered = word.lower()
        if not lowered:
            return
        remaining = self._vocabulary.get(lowered)
        if remaining is None:
            bucket = self._by_length.get(len(lowered), ())
            self._by_length = self._by_length.set(len(lowered), bucket + (lowered,))
            self._vocabulary = self._vocabulary.set(lowered, weight)
        else:
            self._vocabulary = self._vocabulary.set(lowered, remaining + weight)

    def add_words(self, words: Iterable[str], weight: int = 1) -> None:
        for word in words:
            self.add_word(word, weight)

    def remove_word(self, word: str, weight: int = 1) -> None:
        """Withdraw ``weight`` from a word; drop it when nothing remains.

        The inverse of :meth:`add_word`, used by incrementally maintained
        indexes (the value index removes a deleted row's words so typos no
        longer correct toward values that left the database).
        """
        lowered = word.lower()
        remaining = self._vocabulary.get(lowered)
        if remaining is None:
            return
        if remaining > weight:
            self._vocabulary = self._vocabulary.set(lowered, remaining - weight)
            return
        self._vocabulary = self._vocabulary.delete(lowered)
        bucket = tuple(w for w in self._by_length.get(len(lowered), ()) if w != lowered)
        if bucket:
            self._by_length = self._by_length.set(len(lowered), bucket)
        else:
            self._by_length = self._by_length.delete(len(lowered))

    def clone(self) -> SpellingCorrector:
        """Independent copy of the vocabulary (weights included), used by
        copy-on-write publishers that patch a clone instead of mutating a
        corrector other threads are reading.  O(1): the clone aliases the
        current maps, and either side's next mutation replaces its own
        reference without touching the other."""
        return copy.copy(self)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._vocabulary

    def __len__(self) -> int:
        return len(self._vocabulary)

    def correct(self, word: str) -> Correction | None:
        """Best correction for ``word``, or None if nothing is close enough.

        Known words return distance-0 corrections immediately.  Among the
        words of a nearby length, only those the letter-set bound (see the
        module docstring) cannot rule out are scored.
        """
        lowered = word.lower()
        if lowered in self._vocabulary:
            return Correction(word, lowered, 0)
        budget = _threshold(len(lowered))
        if budget == 0:
            return None
        letters = set(lowered)
        best: tuple[int, int, str] | None = None  # (distance, -weight, word)
        for length in range(len(lowered) - budget, len(lowered) + budget + 1):
            for candidate in self._by_length.get(length, ()):
                if len(letters.symmetric_difference(candidate)) > 2 * budget:
                    continue  # letter-set bound: the distance exceeds budget
                distance = damerau_levenshtein(lowered, candidate, cap=budget)
                if distance > budget:
                    continue
                key = (distance, -self._vocabulary[candidate], candidate)
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        return Correction(word, best[2], best[0])
