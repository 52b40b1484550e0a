"""What the baseline systems share: lexicon, value index, SQL, envelope.

The baselines model 1970s systems whose only vocabulary was "here are
rows" or an error, but the evalkit compares every system through the
same :class:`~repro.service.Response` protocol.  A baseline supplies one
method, ``_query``, that turns the question's words into a
:class:`~repro.logical.forms.LogicalQuery` or raises; :meth:`Baseline.ask`
generates and executes the SQL and wraps the outcome.  Failure
diagnostics carry the whole-question token span, and the payload is a
wire-form :class:`~repro.core.answer.Answer` (no interpretation object —
these systems never build one).
"""

from __future__ import annotations

from repro.core.answer import Answer
from repro.core.sqlgen import SqlGenerator
from repro.errors import ReproError
from repro.lexicon.builder import build_lexicon
from repro.lexicon.domain import DomainModel
from repro.logical.forms import LogicalQuery
from repro.nlp.tokenizer import tokenize
from repro.schemagraph.graph import SchemaGraph
from repro.service.response import Response
from repro.sqlengine.database import Database
from repro.sqlengine.executor import Engine
from repro.valueindex.index import ValueIndex


class Baseline:
    """A grammar-less NLI: ``ask() -> Response`` over one query builder."""

    name = "baseline"

    def __init__(self, database: Database, domain: DomainModel | None = None) -> None:
        self.engine = Engine(database)
        self.lexicon = build_lexicon(database, domain)
        self.value_index = ValueIndex(database)
        self.sqlgen = SqlGenerator(database, SchemaGraph(database), domain)

    def _query(self, question: str, words: list[str]) -> LogicalQuery:
        """The question's query; raises a ``ReproError`` when it has none."""
        raise NotImplementedError

    def ask(self, question: str) -> Response:
        words = [t.text for t in tokenize(question).tokens]
        try:
            query = self._query(question, words)
            result = self.engine.execute(self.sqlgen.generate(query))
        except ReproError as exc:
            # ReproError, not just NliError: the generated SQL is executed
            # here, so engine-level failures must also become envelopes —
            # one bad question must not abort an eval run.
            return Response.from_error(question, exc, tokens=tuple(words))
        payload = Answer(
            question=question,
            normalized_words=words,
            corrections=[],
            interpretation=None,
            sql="",
            result=result,
            paraphrase=f"{self.name}: {len(result)} row(s)",
        )
        return Response.answered(question, payload)
