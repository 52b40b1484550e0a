"""A Porter-style stemmer, implemented from scratch.

This is the classic Porter (1980) algorithm — the same family of suffix
stripping the 1970s NLIDB systems used for morphological normalisation so
that "ships", "shipped" and "ship" share a lexicon entry.

The implementation follows the five-step description of the original
paper.  It is deliberately self-contained (no NLTK).
"""

from __future__ import annotations

import functools

_VOWELS = "aeiou"

#: Distinct words :func:`stem` remembers.  A value index stems every word
#: of every stored string, but a real vocabulary has few distinct words.
_MEMO_WORDS = 1 << 16


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """The Porter "measure" m: number of VC sequences in the stem."""
    m = 0
    previous_was_vowel = False
    for i in range(len(stem)):
        consonant = _is_consonant(stem, i)
        if consonant and previous_was_vowel:
            m += 1
        previous_was_vowel = not consonant
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


def _replace(word: str, suffix: str, replacement: str, min_measure: int) -> str | None:
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    flag = False
    if word.endswith("ed"):
        stem = word[:-2]
        if _contains_vowel(stem):
            word = stem
            flag = True
    elif word.endswith("ing"):
        stem = word[:-3]
        if _contains_vowel(stem):
            word = stem
            flag = True
    if flag:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _step2(word: str) -> str:
    for suffix, replacement in _STEP2:
        result = _replace(word, suffix, replacement, 0)
        if result is not None:
            return result
    return word


def _step3(word: str) -> str:
    for suffix, replacement in _STEP3:
        result = _replace(word, suffix, replacement, 0)
        if result is not None:
            return result
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                return stem
            return word
    if word.endswith("ion"):
        stem = word[:-3]
        if _measure(stem) > 1 and stem.endswith(("s", "t")):
            return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


@functools.lru_cache(maxsize=_MEMO_WORDS)
def stem(word: str) -> str:
    """Stem one lower-case word (memoised: a pure function of the word).

    >>> stem("ships")
    'ship'
    >>> stem("carriers")
    'carrier'
    >>> stem("relational")
    'relat'
    """
    if len(word) <= 2 or not word.isalpha():
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


def stem_phrase(phrase: str) -> str:
    """Stem each whitespace-separated word of a phrase."""
    return " ".join(stem(word) for word in phrase.lower().split())
