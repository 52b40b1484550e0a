"""Domain registry: which databases one server hosts, and where.

A **domain** is one (database, domain model, corpus) bundle served under
a route name: ``POST /v1/d/fleet/ask`` or ``{"domain": "fleet", ...}`` in
the request body.  The registry is the single place the CLI's
``--domain NAME[=DIR]`` flags, the local multi-domain backend and the
cluster supervisor agree on what exists:

* :class:`DomainSpec` — parsed flag: bundled dataset name + optional
  durable data directory;
* :func:`build_local_service` — the one-process path (``--procs 1``):
  the service owns its own storage manager and session log, exactly as
  single-domain serving always has;
* :func:`build_parent_service` — the cluster path: the parent process
  builds the language stack and restores durable state *read-only*
  before forking, so every worker inherits the loaded corpus
  copy-on-write; storage is attached later, by the one writer child
  (see :mod:`repro.cluster.worker`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace as dc_replace

from repro.core.config import NliConfig
from repro.datasets import ALL_DOMAINS, load_bundle
from repro.service import NliService
from repro.storage import restore_database

__all__ = ["DomainSpec", "build_local_service", "build_parent_service"]


@dataclass(frozen=True)
class DomainSpec:
    """One hosted domain: bundled dataset ``name``, optional ``data_dir``."""

    name: str
    data_dir: str | None = None

    @classmethod
    def parse(cls, text: str) -> "DomainSpec":
        """Parse one ``--domain`` value: ``NAME`` or ``NAME=DATADIR``."""
        name, sep, data_dir = text.partition("=")
        name = name.strip()
        if name not in ALL_DOMAINS:
            raise ValueError(
                f"unknown domain {name!r} (available: {', '.join(ALL_DOMAINS)})"
            )
        if sep and not data_dir.strip():
            raise ValueError(f"--domain {text!r}: empty data directory")
        return cls(name, data_dir.strip() if sep else None)

    @property
    def durable(self) -> bool:
        return self.data_dir is not None

    @property
    def session_log_path(self) -> str | None:
        """The conversation log lives beside the WAL, one per domain."""
        if self.data_dir is None:
            return None
        return os.path.join(self.data_dir, "sessions.jsonl")


def build_local_service(spec: DomainSpec, config: NliConfig) -> NliService:
    """One in-process service for ``spec``: storage + session log attached
    the classic way (the service recovers and persists itself)."""
    bundle = load_bundle(spec.name)
    return NliService(
        bundle.database,
        domain=bundle.model,
        config=dc_replace(config, data_dir=spec.data_dir),
        persistence=spec.session_log_path,
    )


def build_parent_service(spec: DomainSpec, config: NliConfig) -> NliService:
    """The pre-fork service for ``spec``: corpus + language layers loaded
    (the expensive part — shared copy-on-write with every worker), durable
    state restored read-only, but **no** storage manager and **no** rate
    limiter — the writer child attaches storage after the fork, and rate
    limiting is the router's job so it is charged exactly once per
    request, not once per worker."""
    bundle = load_bundle(spec.name)
    service = NliService(
        bundle.database,
        domain=bundle.model,
        config=dc_replace(config, data_dir=None, rate_limit_qps=None),
    )
    if spec.durable:
        report = restore_database(service.nli.engine, spec.data_dir)
        if report.recovered:
            service.refresh(full=True)
    return service
