"""The length-window spelling scan, kept as the oracle for the pruned one.

This is ``SpellingCorrector.correct`` as it was before the letter-set
bound: every vocabulary word whose length is within the typo's budget of
its own is scored with the capped Damerau–Levenshtein distance, and the
``(distance, -weight, word)`` key picks the winner.  It reads a plain
``word -> weight`` mapping, so ``tests/test_spelling_pruning.py`` can
check the production corrector (persistent maps, clones and all)
against a dictionary it maintains by hand.  Test-only — it is not part
of the package.
"""

from __future__ import annotations

from typing import Mapping

from repro.nlp.spelling import Correction, _threshold, damerau_levenshtein


def reference_correct(vocabulary: Mapping[str, int], word: str) -> Correction | None:
    """Best correction for ``word`` over lowercased ``vocabulary`` words."""
    by_length: dict[int, list[str]] = {}
    for known in vocabulary:
        by_length.setdefault(len(known), []).append(known)
    lowered = word.lower()
    if lowered in vocabulary:
        return Correction(word, lowered, 0)
    budget = _threshold(len(lowered))
    if budget == 0:
        return None
    best: tuple[int, int, str] | None = None  # (distance, -weight, word)
    for length in range(len(lowered) - budget, len(lowered) + budget + 1):
        for candidate in by_length.get(length, ()):
            distance = damerau_levenshtein(lowered, candidate, cap=budget)
            if distance > budget:
                continue
            key = (distance, -vocabulary[candidate], candidate)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return Correction(word, best[2], best[0])
