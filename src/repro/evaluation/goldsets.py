"""Versioned gold datasets: one JSONL file per domain.

These files are the only source of evaluation questions.  Each starts
with a header record pinning the format and the domain, followed by one
record per question::

    {"format": "repro-gold", "version": 2, "domain": "fleet", "count": 129}
    {"question": "...", "gold_sql": "...", "tags": [...],
     "columns": 1, "answer": [[...], ...]}
    {"kind": "wild", "question": "...", "gold_sql": "...", ...}
    {"kind": "dialogue", "script": 0, "followup": false, "question": "...", ...}

``count`` is the number of records after the header, every kind
included.  A record's ``kind`` names the question set it belongs to:

* no ``kind`` — the **corpus**: in-grammar questions tagged by construct
  (``select``, ``join``, ``count``, ``super``, ``nested``, ...), asked by
  the evaluation matrix and the T-benchmarks;
* ``wild`` — unrestricted phrasings the grammar may not cover (T1);
* ``dialogue`` — one turn of scripted session ``script``; ``followup``
  marks a turn that needs the session's context (T4).  A script's first
  turn is never a follow-up;
* ``ambiguous`` — questions with several plausible readings, paired with
  the reading a cooperative system should prefer (T5).

Questions are unique within the corpus and within the wild set; dialogue
turns may repeat corpus questions.

``answer`` is the *stored* expected answer set — the rows the gold SQL
produced when the answers were last refreshed (row order normalized).
Cells are scored against these stored rows, not against a re-execution
of the gold SQL, so an engine regression cannot silently re-derive a
wrong gold answer; a separate integrity pass (``gold_drift`` in the
runner, plus a tier-1 test) re-executes the SQL and flags any
divergence.

Questions, SQL and tags are edited in the files directly;
``python -m repro.evaluation.make_gold`` then refreshes the stored
answers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.datasets import ALL_DOMAINS
from repro.sqlengine.result import ResultSet

GOLD_FORMAT = "repro-gold"
GOLD_VERSION = 2

#: Record kinds, in file order.  A record without ``kind`` is a corpus one.
KINDS = ("corpus", "wild", "dialogue", "ambiguous")

#: Kinds whose questions must not repeat within the kind.
_UNIQUE_KINDS = ("corpus", "wild")

#: Directory holding the committed per-domain gold files.
GOLD_DIR = Path(__file__).resolve().parent / "gold"


@dataclass(frozen=True)
class GoldItem:
    """One gold question: text, SQL shape, tags and the expected answer."""

    domain: str
    question: str
    gold_sql: str
    tags: tuple[str, ...]
    columns: int
    answer: tuple[tuple[Any, ...], ...]
    kind: str = "corpus"
    #: Dialogue turns only: the script index and whether the turn needs
    #: the session's context.
    script: int | None = None
    followup: bool = False

    @property
    def answer_set(self) -> frozenset[tuple[Any, ...]]:
        return frozenset(self.answer)


def normalize_answer(result: ResultSet) -> list[list[Any]]:
    """The result's answer set as JSON-able rows in a stable order.

    Rows may mix value types across columns (and contain NULLs), so the
    sort key is the repr of the row — deterministic without requiring
    inter-type comparability.
    """
    return [list(row) for row in sorted(result.answer_set(), key=repr)]


def gold_path(domain: str, directory: Path | None = None) -> Path:
    return (directory or GOLD_DIR) / f"{domain}.jsonl"


def _record(item: GoldItem) -> dict[str, Any]:
    record: dict[str, Any] = {}
    if item.kind != "corpus":
        record["kind"] = item.kind
    if item.kind == "dialogue":
        record["script"] = item.script
        record["followup"] = item.followup
    record.update(
        question=item.question,
        gold_sql=item.gold_sql,
        tags=list(item.tags),
        columns=item.columns,
        answer=[list(row) for row in item.answer],
    )
    return record


def write_goldset(items: list[GoldItem], path: Path) -> None:
    """Serialize one domain's gold records (header first), in order."""
    if not items:
        raise ValueError("refusing to write an empty goldset")
    domains = {item.domain for item in items}
    if len(domains) != 1:
        raise ValueError(f"one goldset per domain, got {sorted(domains)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "format": GOLD_FORMAT,
            "version": GOLD_VERSION,
            "domain": items[0].domain,
            "count": len(items),
        }
        fh.write(json.dumps(header) + "\n")
        for item in items:
            fh.write(json.dumps(_record(item)) + "\n")


def load_gold_records(domain: str, directory: Path | None = None) -> list[GoldItem]:
    """Every record of one domain's gold file, in file order, validated."""
    if domain not in ALL_DOMAINS:
        raise ValueError(
            f"unknown domain {domain!r} (available: {', '.join(ALL_DOMAINS)})"
        )
    path = gold_path(domain, directory)
    with path.open(encoding="utf-8") as fh:
        lines = [(n, line) for n, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty gold file")
    header = json.loads(lines[0][1])
    if header.get("format") != GOLD_FORMAT:
        raise ValueError(f"{path}: not a {GOLD_FORMAT} file")
    if header.get("version") != GOLD_VERSION:
        raise ValueError(f"{path}: version {header.get('version')} != {GOLD_VERSION}")
    if header.get("domain") != domain:
        raise ValueError(f"{path}: header domain {header.get('domain')!r}")
    items = []
    seen: dict[str, set[str]] = {kind: set() for kind in _UNIQUE_KINDS}
    opened_scripts: set[int] = set()
    for lineno, line in lines[1:]:
        record = json.loads(line)
        kind = record.get("kind", "corpus")
        question = record["question"]
        if kind not in KINDS:
            raise ValueError(f"{path}:{lineno}: unknown kind {kind!r}")
        if kind in seen:
            if question in seen[kind]:
                raise ValueError(
                    f"{path}:{lineno}: duplicate {kind} question {question!r}"
                )
            seen[kind].add(question)
        if kind == "dialogue" and record["script"] not in opened_scripts:
            if record["followup"]:
                raise ValueError(
                    f"{path}:{lineno}: dialogue script {record['script']} "
                    "opens with a follow-up"
                )
            opened_scripts.add(record["script"])
        items.append(
            GoldItem(
                domain=domain,
                question=question,
                gold_sql=record["gold_sql"],
                tags=tuple(record["tags"]),
                columns=record["columns"],
                answer=tuple(tuple(row) for row in record["answer"]),
                kind=kind,
                script=record.get("script"),
                followup=record.get("followup", False),
            )
        )
    if len(items) != header.get("count"):
        raise ValueError(
            f"{path}: header count {header.get('count')} != {len(items)} items"
        )
    return items


def load_goldset(
    domain: str, directory: Path | None = None, kind: str = "corpus"
) -> list[GoldItem]:
    """One domain's committed gold items of one ``kind`` (the corpus by
    default), in file order."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r} (available: {', '.join(KINDS)})")
    return [item for item in load_gold_records(domain, directory) if item.kind == kind]


def dialogue_scripts(items: list[GoldItem]) -> list[list[GoldItem]]:
    """The dialogue turns among ``items``, grouped into scripts in order."""
    scripts: dict[int | None, list[GoldItem]] = {}
    for item in items:
        if item.kind == "dialogue":
            scripts.setdefault(item.script, []).append(item)
    return list(scripts.values())
