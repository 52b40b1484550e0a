"""The question tagger: lexicon + value-index lookup as an Earley matcher.

For each token position the tagger reports every terminal-category match
(the parse lattice): lexicon entries on stemmed words, database values on
raw words, and number expressions.  Ambiguity (a word that is both a
value and an attribute) simply yields several matches; ranking happens
after interpretation.
"""

from __future__ import annotations

from repro.grammar.earley import TerminalMatch
from repro.lexicon.lexicon import Lexicon
from repro.logical.forms import ValueRef
from repro.nlp.numbers import parse_number_words, parse_ordinal
from repro.nlp.stemmer import stem
from repro.nlp.tokenizer import Token
from repro.valueindex.index import ValueIndex


class QuestionTagger:
    """Pre-computes all terminal matches for one tokenised question."""

    def __init__(
        self,
        tokens: list[Token],
        lexicon: Lexicon,
        value_index: ValueIndex,
        protected_words: frozenset[str],
    ) -> None:
        self.tokens = tokens
        self._matches: dict[int, list[TerminalMatch]] = {}
        words = [t.text for t in tokens]
        stems = [stem(w) for w in words]
        n = len(tokens)
        for i in range(n):
            matches: list[TerminalMatch] = []
            # 1. lexicon (stem-normalised phrases)
            for length, entry in lexicon.prefix_matches(stems, i):
                matches.append(
                    TerminalMatch(
                        entry.category.value, i, i + length, entry.payload, entry.weight
                    )
                )
            # 2. value index (raw lower-cased words)
            for length, hit in value_index.lookup_prefix(words[i:]):
                if length == 1 and words[i] in protected_words:
                    continue  # "in", "the" … may occur inside values but
                    # never *are* values on their own
                ref = ValueRef(
                    hit.table,
                    hit.column,
                    hit.value,
                    phrase=" ".join(words[i : i + length]),
                    approx=not hit.exact,
                )
                matches.append(
                    TerminalMatch(
                        "VALUE", i, i + length, ref, 1.0 if hit.exact else 0.7
                    )
                )
            # 3. numbers ("3", "three thousand", "3rd")
            parsed = parse_number_words(words[i:])
            if parsed is not None:
                value, consumed = parsed
                matches.append(TerminalMatch("NUMBER", i, i + consumed, value, 1.0))
            ordinal = parse_ordinal(words[i])
            if ordinal is not None and (parsed is None or parsed[1] == 0):
                matches.append(TerminalMatch("NUMBER", i, i + 1, ordinal, 1.0))
            if matches:
                self._matches[i] = matches

    def matches_at(self, position: int) -> list[TerminalMatch]:
        return self._matches.get(position, [])

    def all_matches(self) -> list[TerminalMatch]:
        out: list[TerminalMatch] = []
        for bucket in self._matches.values():
            out.extend(bucket)
        return out

    def coverage(self) -> float:
        """Fraction of tokens covered by at least one match (diagnostics)."""
        if not self.tokens:
            return 0.0
        covered: set[int] = set()
        for bucket in self._matches.values():
            for match in bucket:
                covered.update(range(match.start, match.end))
        return len(covered) / len(self.tokens)
