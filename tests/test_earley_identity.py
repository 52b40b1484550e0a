"""The chart-indexed Earley parser returns what the textbook one returns.

``tests/earley_reference.py`` keeps the straightforward parser the
package started from.  The production parser indexes completions,
predicts each nonterminal once per position and prunes predictions by
FIRST sets; none of that may change a single parse, its production, or
the order of the results (the ``max_parses`` cut keeps the first ones).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import NaturalLanguageInterface, Session
from repro.core.pipeline import MAX_PARSES, _SessionTagger
from repro.datasets import ALL_DOMAINS, fleet, load_bundle
from repro.errors import ParseFailure
from repro.evalkit.corruption import corrupt_word
from repro.evaluation.goldsets import load_goldset
from repro.grammar import EarleyParser, GrammarBuilder, StaticMatcher, TerminalMatch
from tests.earley_reference import ReferenceEarleyParser


def outcome(parser, words, matcher, max_parses=16):
    """Everything a caller can observe: the ordered parses, or the failure."""
    try:
        results = parser.parse(words, matcher, max_parses=max_parses)
    except ParseFailure as failure:
        return ("ParseFailure", str(failure), failure.tokens)
    return [(repr(result.value), result.production) for result in results]


def assert_same(grammar, words, matcher, max_items=4000, max_parses=16):
    """Both parsers agree on ``words``; returns what they observed."""
    got = outcome(EarleyParser(grammar, max_items), words, matcher, max_parses)
    old = ReferenceEarleyParser(grammar, max_items)
    assert got == outcome(old, words, matcher, max_parses)
    return got


def one_typo(question: str, rng: random.Random) -> str:
    words = question.split()
    eligible = [i for i, word in enumerate(words) if len(word) >= 4 and word.isalpha()]
    if eligible:
        position = rng.choice(eligible)
        words[position] = corrupt_word(words[position], rng)
    return " ".join(words)


@pytest.mark.parametrize("domain", ALL_DOMAINS)
def test_gold_questions_and_typos_parse_identically(domain):
    bundle = load_bundle(domain)
    nli = NaturalLanguageInterface(bundle.database, domain=bundle.model)
    reference = ReferenceEarleyParser(nli.grammar)
    rng = random.Random(f"earley-identity-{domain}")
    mismatches = []
    failures = 0
    for item in load_goldset(domain):
        for question in (item.question, one_typo(item.question, rng)):
            tokens, _ = nli.normalize(question)
            matcher = _SessionTagger(nli.tag(tokens), None)
            words = [token.text for token in tokens]
            got = outcome(nli.parser, words, matcher, MAX_PARSES)
            if got != outcome(reference, words, matcher, MAX_PARSES):
                mismatches.append(question)
            failures += isinstance(got, tuple)
    assert mismatches == []
    # The typos are what exercises the failure path.
    assert failures > 0


def test_pronoun_entity_from_the_session_still_parses():
    nli = NaturalLanguageInterface(fleet.build_database(), domain=fleet.domain())
    session = Session()
    nli.ask("show the ships in the atlantic fleet", session=session)
    entity = session.last_query.target
    tokens, _ = nli.normalize("how many of them are submarines")
    words = [token.text for token in tokens]
    matcher = _SessionTagger(nli.tag(tokens), entity)
    got = outcome(nli.parser, words, matcher)
    assert got == outcome(ReferenceEarleyParser(nli.grammar), words, matcher)
    assert [r.value.entity for r in nli.parser.parse(words, matcher)] == [entity]
    with pytest.raises(ParseFailure):
        nli.parser.parse(words, _SessionTagger(nli.tag(tokens), None))


def test_nlis_share_one_grammar_and_one_set_of_tables():
    first = NaturalLanguageInterface(fleet.build_database(), domain=fleet.domain())
    second = NaturalLanguageInterface(fleet.build_database(), domain=fleet.domain())
    assert first.grammar is second.grammar
    assert first.parser._tables is second.parser._tables
    assert EarleyParser(first.grammar)._tables is first.parser._tables


def nouns(*positions):
    return StaticMatcher([TerminalMatch("NOUN", i, i + 1, f"n{i}") for i in positions])


def tree(lhs):
    return lambda children: (lhs, tuple(children))


class TestSmallGrammars:
    """What the question grammar never exercises: it has no empty rules."""

    def test_epsilon_production(self):
        grammar = (
            GrammarBuilder("Start")
            .rule("Start", "Opt 'a'", tree("Start"))
            .rule("Opt", "", tree("Opt"))
            .rule("Opt", "'b'", tree("Opt"))
            .build()
        )
        got = assert_same(grammar, ["a"], nouns())
        assert got[0][0] == repr(("Start", (("Opt", ()), "a")))
        assert_same(grammar, ["b", "a"], nouns())
        assert_same(grammar, [], nouns())

    def test_nullable_prefix(self):
        grammar = (
            GrammarBuilder("Start")
            .rule("Start", "Det Det NOUN", tree("Start"))
            .rule("Start", "Det NOUN 'of' NOUN", tree("Start"))
            .rule("Det", "", tree("Det"))
            .rule("Det", "'the'", tree("Det"))
            .build()
        )
        for words, matcher in (
            (["the", "x"], nouns(1)),
            (["the", "the", "x"], nouns(2)),
            (["x", "of", "y"], nouns(0, 2)),
        ):
            assert isinstance(assert_same(grammar, words, matcher), list)
        # The textbook loop's blind spot is kept as it is: once Det's empty
        # completion has run at a position, an item that comes to want Det
        # there later is not advanced over it.
        assert assert_same(grammar, ["x"], nouns(0))[0] == "ParseFailure"

    def test_left_recursion(self):
        grammar = (
            GrammarBuilder("Sum")
            .rule("Sum", "Sum 'plus' NOUN", lambda c: c[0] + [c[2]])
            .rule("Sum", "NOUN", lambda c: [c[0]])
            .build()
        )
        got = assert_same(grammar, ["a", "plus", "b", "plus", "c"], nouns(0, 2, 4))
        assert got[0][0] == repr(["n0", "n2", "n4"])

    def test_right_recursion(self):
        grammar = (
            GrammarBuilder("Items")
            .rule("Items", "NOUN 'and' Items", lambda c: [c[0]] + c[2])
            .rule("Items", "NOUN", lambda c: [c[0]])
            .build()
        )
        got = assert_same(grammar, ["a", "and", "b", "and", "c"], nouns(0, 2, 4))
        assert got[0][0] == repr(["n0", "n2", "n4"])

    def test_ambiguity_keeps_result_order_and_max_parses_cut(self):
        grammar = (
            GrammarBuilder("Start")
            .rule("Start", "Start 'and' Start", tree("And"))
            .rule("Start", "NOUN", tree("Leaf"))
            .build()
        )
        words = ["a", "and", "b", "and", "c", "and", "d"]
        assert len(assert_same(grammar, words, nouns(0, 2, 4, 6))) == 5
        assert len(assert_same(grammar, words, nouns(0, 2, 4, 6), max_parses=2)) == 2

    def test_item_cap_still_bounds_a_row(self):
        grammar = GrammarBuilder("Start").rule("Start", "'the' NOUN").build()
        readings = StaticMatcher(
            [TerminalMatch("NOUN", 1, 2, f"reading-{i}") for i in range(10)]
        )
        assert len(assert_same(grammar, ["the", "x"], readings)) == 10
        # Row 2 holds one completed item per reading; the cap keeps three.
        assert len(assert_same(grammar, ["the", "x"], readings, max_items=3)) == 3
        # Predictions count against the cap too: row 0 keeps Start and three
        # of the ten Word rules, so row 1 still has room for Start's
        # completion.
        builder = GrammarBuilder("Start").rule("Start", "Word", lambda c: c[0])
        for i in range(10):
            builder.rule("Word", "'x'", lambda c, i=i: i)
        got = assert_same(builder.build(), ["x"], nouns(), max_items=4)
        assert [value for value, _ in got] == ["0"]


_SYMBOLS = ("'a'", "'b'", "NOUN", "Aa", "Bb", "Cc", "Start")


def random_grammar(rng: random.Random, empty_rules: bool):
    builder = GrammarBuilder("Start")
    for lhs in ("Start", "Aa", "Bb", "Cc"):
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(0 if empty_rules else 1, 3)
            rhs = " ".join(rng.choice(_SYMBOLS) for _ in range(size))
            builder.rule(lhs, rhs, tree(lhs))
    return builder.build()


@pytest.mark.parametrize("empty_rules", [False, True], ids=["eps-free", "with-eps"])
def test_random_grammars_parse_identically_below_the_cap(empty_rules):
    # The cap is the one place the parsers may differ: pruned predictions
    # no longer take up room in a full row.  Cyclic random grammars fill
    # rows with ever-deeper trees, so compare only where the textbook
    # parser stayed under it.
    cap = 40
    rng = random.Random(21 + empty_rules)
    compared = 0
    for _ in range(120):
        grammar = random_grammar(rng, empty_rules)
        new = EarleyParser(grammar, cap)
        old = ReferenceEarleyParser(grammar, cap)
        for size in range(4):
            for word_list in itertools.product("abn", repeat=size):
                words = list(word_list)
                matcher = nouns(*(i for i, word in enumerate(words) if word == "n"))
                expected = outcome(old, words, matcher)
                if old.peak_row >= cap:
                    continue
                got = outcome(new, words, matcher)
                assert got == expected, (grammar.productions, words)
                compared += 1
    assert compared > 3000
