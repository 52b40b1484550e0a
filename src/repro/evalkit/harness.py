"""Evaluation harness: run systems over gold question lists and collect
metrics.

Every system under evaluation — the full pipeline and both baselines —
speaks the same :class:`~repro.service.Response` protocol, so the evalkit
compares like with like: an ``ask()`` that returns a structured envelope
whose diagnostics say *where* the pipeline gave up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.core.dialogue import Session
from repro.core.pipeline import NaturalLanguageInterface
from repro.datasets import DomainBundle
from repro.evalkit.metrics import StageCounts, Tally, answers_match, failure_stage
from repro.service.response import Response
from repro.sqlengine.executor import Engine

if TYPE_CHECKING:
    from repro.evaluation.goldsets import GoldItem

__all__ = [
    "DialogueEval",
    "EvalResult",
    "QuestionAnswerer",
    "evaluate_dialogues",
    "evaluate_nli",
    "evaluate_system",
    "per_feature_accuracy",
]


class QuestionAnswerer(Protocol):
    """Anything that answers an English question with a Response."""

    def ask(self, question: str) -> Response:  # pragma: no cover
        ...


@dataclass
class EvalResult:
    """Accuracy + per-stage coverage over one list of gold items."""

    system: str
    domain: str
    stages: StageCounts = field(default_factory=StageCounts)

    @property
    def accuracy(self) -> float:
        return self.stages.accuracy


def evaluate_nli(bundle: DomainBundle, items: list[GoldItem]) -> EvalResult:
    """Run the full pipeline over gold items with stage accounting."""
    nli = NaturalLanguageInterface(bundle.database, domain=bundle.model)
    gold_engine = Engine(bundle.database)
    result = EvalResult("nli", bundle.name)
    for item in items:
        gold = gold_engine.execute(item.gold_sql)
        response = nli.ask(item.question)
        if response.ok:
            correct = answers_match(response.answer.result, gold)
            result.stages.record(item.question, "answered", correct=correct)
        else:
            result.stages.record(item.question, failure_stage(response))
    return result


def evaluate_system(
    system: QuestionAnswerer, bundle: DomainBundle, items: list[GoldItem]
) -> Tally:
    """Answer-accuracy only (for baselines)."""
    gold_engine = Engine(bundle.database)
    tally = Tally()
    for item in items:
        gold = gold_engine.execute(item.gold_sql)
        response = system.ask(item.question)
        tally.add(response.ok and answers_match(response.answer.result, gold))
    return tally


@dataclass
class DialogueEval:
    """Outcome of scripted multi-turn sessions."""

    first_turns: Tally = field(default_factory=Tally)
    followups: Tally = field(default_factory=Tally)


def evaluate_dialogues(
    bundle: DomainBundle, scripts: list[list[GoldItem]]
) -> DialogueEval:
    """Run scripted sessions; follow-ups are scored separately (T4)."""
    nli = NaturalLanguageInterface(bundle.database, domain=bundle.model)
    gold_engine = Engine(bundle.database)
    outcome = DialogueEval()
    for session_script in scripts:
        session = Session()
        for turn in session_script:
            gold = gold_engine.execute(turn.gold_sql)
            response = nli.ask(turn.question, session=session)
            correct = response.ok and answers_match(response.answer.result, gold)
            if turn.followup:
                outcome.followups.add(correct)
            else:
                outcome.first_turns.add(correct)
    return outcome


def per_feature_accuracy(
    bundle: DomainBundle, items: list[GoldItem]
) -> dict[str, Tally]:
    """Accuracy partitioned by construct tag (drives Table 3)."""
    nli = NaturalLanguageInterface(bundle.database, domain=bundle.model)
    gold_engine = Engine(bundle.database)
    buckets: dict[str, Tally] = {}
    for item in items:
        gold = gold_engine.execute(item.gold_sql)
        response = nli.ask(item.question)
        correct = response.ok and answers_match(response.answer.result, gold)
        for feature in item.tags:
            buckets.setdefault(feature, Tally()).add(correct)
    return buckets
