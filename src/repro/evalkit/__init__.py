"""Evaluation kit: metrics, harness, corruption, report tables."""

from repro.evalkit.corruption import corrupt_question, corrupt_word
from repro.evalkit.harness import (
    DialogueEval,
    EvalResult,
    evaluate_dialogues,
    evaluate_nli,
    evaluate_system,
    per_feature_accuracy,
)
from repro.evalkit.metrics import (
    ResponseScore,
    StageCounts,
    Tally,
    answer_set_matches,
    answers_match,
    failure_stage,
    score_response,
)
from repro.evalkit.report import format_series, format_table, pct

__all__ = [
    "DialogueEval",
    "EvalResult",
    "ResponseScore",
    "StageCounts",
    "Tally",
    "answer_set_matches",
    "answers_match",
    "corrupt_question",
    "corrupt_word",
    "evaluate_dialogues",
    "evaluate_nli",
    "evaluate_system",
    "failure_stage",
    "format_series",
    "format_table",
    "pct",
    "per_feature_accuracy",
    "score_response",
]
