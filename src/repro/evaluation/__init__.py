"""Gold-dataset evaluation matrix.

Per-domain gold datasets (versioned JSONL: question, gold SQL, expected
answer, question-class tags — the only source of evaluation questions),
a runner executing every (domain × configuration) cell, and an
aggregator emitting one comparison table with per-cell accuracy,
clarification rate and failure taxonomy.
See ``docs/evaluation.md``.
"""

from repro.evaluation.configs import (
    CONFIGURATION_NAMES,
    CONFIGURATIONS,
    EvalConfiguration,
    get_configuration,
)
from repro.evaluation.goldsets import (
    GOLD_DIR,
    GoldItem,
    dialogue_scripts,
    gold_path,
    load_gold_records,
    load_goldset,
    normalize_answer,
    write_goldset,
)
from repro.evaluation.runner import (
    CellResult,
    cell_questions,
    run_cell,
    run_matrix,
)

__all__ = [
    "CONFIGURATIONS",
    "CONFIGURATION_NAMES",
    "CellResult",
    "EvalConfiguration",
    "GOLD_DIR",
    "GoldItem",
    "cell_questions",
    "dialogue_scripts",
    "gold_path",
    "get_configuration",
    "load_gold_records",
    "load_goldset",
    "normalize_answer",
    "run_cell",
    "run_matrix",
    "write_goldset",
]
