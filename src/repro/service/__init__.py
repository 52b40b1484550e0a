"""Service layer: the structured public API in front of the NL pipeline.

Everything a multi-user frontend needs that the single-caller,
exception-driven ``ask()`` of the paper era did not provide:

* :class:`Response` — a serializable envelope with an explicit status
  (``ANSWERED | AMBIGUOUS | NEEDS_CLARIFICATION | FAILED``), machine-
  readable :class:`Diagnostic` objects with token spans instead of raised
  exceptions, and enumerated :class:`Choice` objects for clarification
  dialogs;
* :class:`NliService` — a thread-safe facade over one
  :class:`~repro.core.pipeline.NaturalLanguageInterface` with MVCC
  snapshot reads: concurrent ``ask()`` calls run lock-free against
  pinned database snapshots while ``refresh()`` and DML writers
  serialize at a commit point (``docs/concurrency.md``).

See ``docs/api.md`` for the envelope reference and the migration guide
from the exception-based API.
"""

from repro.service.persistence import SessionLog
from repro.service.ratelimit import RateLimiter, TokenBucket
from repro.service.response import (
    Choice,
    Diagnostic,
    Response,
    Status,
)

__all__ = [
    "Choice",
    "Diagnostic",
    "NliService",
    "RateLimiter",
    "Response",
    "SessionLog",
    "Status",
    "Subscription",
    "SubscriptionFailed",
    "TokenBucket",
]


def __getattr__(name: str):
    # NliService (and the subscription types, which import the pipeline's
    # neighbours) are resolved lazily (PEP 562): the pipeline imports
    # repro.service.response at module load, which triggers this package's
    # __init__ — an eager `from .service import NliService` here would
    # close the cycle back into the half-initialized pipeline module.
    if name == "NliService":
        from repro.service.service import NliService

        return NliService
    if name in ("Subscription", "SubscriptionFailed"):
        from repro.service import subscriptions

        return getattr(subscriptions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
