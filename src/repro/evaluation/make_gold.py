"""Refresh the stored answers in the committed gold JSONL files.

Usage::

    python -m repro.evaluation.make_gold [DOMAIN ...]

The gold files are the only source of evaluation questions: a question,
its gold SQL and its tags are edited in the JSONL directly.  This
command re-executes every record's gold SQL (every kind), rewrites
``columns``/``answer`` where they changed, and prints each question
whose stored answer changed.  It never adds, drops or reorders a record.
With no arguments, every domain is refreshed.  Review the result with
``git diff``, then re-run
``python -m repro.evaluation.collect_results --force --write-baseline``
if the matrix moved.
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path

from repro.datasets import ALL_DOMAINS, load_bundle
from repro.evaluation.goldsets import (
    GoldItem,
    gold_path,
    load_gold_records,
    normalize_answer,
    write_goldset,
)
from repro.sqlengine.executor import Engine


def refresh_answers(domain: str, directory: Path | None = None) -> list[GoldItem]:
    """Re-execute one domain's gold SQL; rewrite and return changed records."""
    items = load_gold_records(domain, directory)
    engine = Engine(load_bundle(domain).database)
    refreshed, changed = [], []
    for item in items:
        result = engine.execute(item.gold_sql)
        answer = tuple(tuple(row) for row in normalize_answer(result))
        new = dataclasses.replace(item, columns=len(result.columns), answer=answer)
        if new != item:
            changed.append(new)
        refreshed.append(new)
    if changed:
        write_goldset(refreshed, gold_path(domain, directory))
    return changed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.make_gold",
        description="Refresh the stored answers of the gold JSONL files.",
    )
    parser.add_argument(
        "domains",
        nargs="*",
        metavar="DOMAIN",
        help="domains to refresh (default: all)",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.domains) - set(ALL_DOMAINS))
    if unknown:
        parser.error(f"unknown domain(s): {', '.join(unknown)}")
    for domain in args.domains or ALL_DOMAINS:
        changed = refresh_answers(domain)
        for item in changed:
            print(f"{domain}: {item.kind}: {item.question}")
        print(f"{gold_path(domain)}: {len(changed)} answer(s) changed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
