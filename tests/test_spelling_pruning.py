"""The letter-set bound in ``SpellingCorrector.correct`` changes no correction.

``correct`` skips a vocabulary word whose letter set differs from the
typo's in more than ``2 * budget`` letters, before it computes any
distance.  Two tests hold that down:

* a Hypothesis differential against the length-window scan kept in
  ``tests/spelling_reference.py``, over random weighted vocabularies with
  non-ASCII letters, typos from distance 0 to budget + 1 (transpositions
  included) and interleaved ``add_word`` / ``remove_word`` / ``clone``;
* a counting test on the fleet's lexicon and value vocabularies that pins
  how many distances a fixed list of typos computes, far fewer than the
  length window holds — it fails if the bound is dropped.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import fleet
from repro.lexicon import build_lexicon
from repro.nlp import spelling
from repro.nlp.spelling import SpellingCorrector, _threshold
from repro.valueindex import ValueIndex
from tests.spelling_reference import reference_correct

# A small alphabet makes near neighbours common; the accented letters,
# "ß" and "ø" check that nothing assumes ASCII.
ALPHABET = "aeinrstéñßø"
WORDS = st.text(alphabet=ALPHABET, min_size=1, max_size=9)
VOCABULARIES = st.dictionaries(WORDS, st.integers(1, 5), max_size=40)


def _edit(draw, word: str) -> str:
    """One random insertion, deletion, substitution or transposition."""
    kinds = ["insert", "substitute"]
    if word:
        kinds.append("delete")
    if len(word) > 1:
        kinds.append("transpose")
    kind = draw(st.sampled_from(kinds))
    letter = draw(st.sampled_from(ALPHABET))
    if kind == "insert":
        at = draw(st.integers(0, len(word)))
        return word[:at] + letter + word[at:]
    if kind == "delete":
        at = draw(st.integers(0, len(word) - 1))
        return word[:at] + word[at + 1 :]
    if kind == "transpose":
        at = draw(st.integers(0, len(word) - 2))
        return word[:at] + word[at + 1] + word[at] + word[at + 2 :]
    if not word:
        return letter
    at = draw(st.integers(0, len(word) - 1))
    return word[:at] + letter + word[at + 1 :]


@st.composite
def typos(draw, vocabulary: list[str]) -> str:
    """A vocabulary word (or a random one) after 0 to budget + 1 edits."""
    if vocabulary and draw(st.booleans()):
        word = draw(st.sampled_from(vocabulary))
    else:
        word = draw(WORDS)
    for _ in range(draw(st.integers(0, _threshold(len(word)) + 1))):
        word = _edit(draw, word)
    if draw(st.integers(0, 4)) == 0:
        word = word.upper()
    return word


def _assert_same(corrector: SpellingCorrector, model: dict[str, int], typo: str):
    assert corrector.correct(typo) == reference_correct(model, typo), typo


@settings(max_examples=150, deadline=None)
@given(VOCABULARIES, st.data())
def test_pruned_scan_equals_reference(counts, data):
    """Every correction equals the unpruned scan's, through add/remove/clone."""
    pairs = [(SpellingCorrector.from_counts(counts), dict(counts))]
    for _ in range(data.draw(st.integers(0, 12))):
        corrector, model = pairs[data.draw(st.integers(0, len(pairs) - 1))]
        op = data.draw(st.sampled_from(["add", "remove", "clone", "correct"]))
        if op == "add":
            word = data.draw(WORDS | st.sampled_from(sorted(model) or ["a"]))
            weight = data.draw(st.integers(1, 3))
            corrector.add_word(word, weight)
            model[word.lower()] = model.get(word.lower(), 0) + weight
        elif op == "remove":
            word = data.draw(WORDS | st.sampled_from(sorted(model) or ["a"]))
            weight = data.draw(st.integers(1, 3))
            corrector.remove_word(word, weight)
            remaining = model.get(word.lower())
            if remaining is not None and remaining > weight:
                model[word.lower()] = remaining - weight
            elif remaining is not None:
                del model[word.lower()]
        elif op == "clone":
            pairs.append((corrector.clone(), dict(model)))
        else:
            _assert_same(corrector, model, data.draw(typos(sorted(model))))
    for corrector, model in pairs:
        for _ in range(4):
            _assert_same(corrector, model, data.draw(typos(sorted(model))))


@pytest.mark.parametrize(
    "vocabulary, typo, expected",
    [
        ({"ship": 1}, "sihp", ("ship", 1)),  # transposition: same letter set
        ({"ships": 1}, "shps", ("ships", 1)),  # one deletion: one letter apart
        ({"ships": 1}, "shaps", ("ships", 1)),  # a substitution: two apart
        ({"carrier": 1}, "xyrrier", ("carrier", 2)),  # two substitutions: four
        ({"carrier": 1}, "xyzrier", None),  # three substitutions: five apart
        ({"señor": 1}, "senor", ("señor", 1)),  # non-ASCII substitution
    ],
)
def test_bound_keeps_edge_cases(vocabulary, typo, expected):
    """Words exactly at the bound's edge are still scored."""
    correction = SpellingCorrector.from_counts(vocabulary).correct(typo)
    got = None if correction is None else (correction.corrected, correction.distance)
    assert got == expected
    assert correction == reference_correct(vocabulary, typo)


#: Fleet typos across budgets 1 and 2: schema words, data values and a
#: word nothing is close to.
FLEET_TYPOS = ["shps", "pacifc", "destroyr", "commandr", "zzzzzzz"]

#: Distances the fleet typos compute with the bound, over both
#: vocabularies.  45 when pinned; the length window holds 1 009 words.
MAX_DISTANCES = 60


def test_fleet_typos_score_few_words(monkeypatch):
    """The bound leaves only a handful of words per typo to score."""
    database = fleet.build_database()
    correctors = [
        build_lexicon(database, fleet.domain())._vocabulary(),
        ValueIndex(database)._word_vocabulary,
    ]
    calls = 0
    distance = spelling.damerau_levenshtein

    def counting(a: str, b: str, cap: int | None = None) -> int:
        nonlocal calls
        calls += 1
        return distance(a, b, cap)

    monkeypatch.setattr(spelling, "damerau_levenshtein", counting)
    window = 0
    for corrector in correctors:
        vocabulary = dict(corrector._vocabulary.items())
        for typo in FLEET_TYPOS:
            budget = _threshold(len(typo))
            window += sum(
                1 for word in vocabulary if abs(len(word) - len(typo)) <= budget
            )
            assert corrector.correct(typo) == reference_correct(vocabulary, typo)
    assert calls <= MAX_DISTANCES
    assert window > 10 * MAX_DISTANCES
