"""Interactive console for the NLIDB — the 1978 terminal experience,
wired to the modern service API.

Run one of the bundled domains::

    python -m repro.cli fleet
    python -m repro.cli geography --explain
    echo "which rivers are in the usa" | python -m repro.cli geography --json

Or serve one over HTTP (see ``docs/http.md``), durably — ``--data-dir``
holds the WAL, snapshot checkpoints and the session log, and a restart
recovers to the last committed statement (``docs/storage.md``)::

    python -m repro.cli serve fleet --port 8977 --data-dir /var/lib/repro

Follow a standing question against a running server (one JSON frame
per line as committed writes change the answer — ``docs/streaming.md``)::

    python -m repro.cli subscribe "how many ships are there" --url http://127.0.0.1:8977

Commands inside the session: ``\\q`` quit, ``\\reset`` clear dialogue
context, ``\\explain <question>`` show the pipeline trace, ``\\sql
<statement>`` run raw SQL, ``\\schema`` print the catalog.  When a
question comes back ambiguous the choices are numbered — reply with the
bare number to resolve it.

``--json`` turns the console into a line protocol for scripting: every
input line is a question and every output line is one
``Response.to_dict()`` JSON object.  The exit code reflects the *last*
response's status: 0 answered, 2 failed, 3 ambiguous / needs
clarification.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.config import NliConfig
from repro.core.dialogue import Session
from repro.datasets import ALL_DOMAINS, load_bundle
from repro.errors import ClarificationError, ReproError
from repro.service import NliService, Response, Status

#: Score margin used by --clarify: readings within half a scoring point
#: are presented as a numbered clarification dialog instead of silently
#: picking the best.
CLARIFY_MARGIN = 0.5

#: ``Response.status`` -> process exit code (for --json scripting).
EXIT_CODES = {
    Status.ANSWERED: 0,
    Status.FAILED: 2,
    Status.AMBIGUOUS: 3,
    Status.NEEDS_CLARIFICATION: 3,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Ask English questions against a bundled database.",
    )
    parser.add_argument(
        "domain", choices=ALL_DOMAINS, nargs="?", default="fleet",
        help="which bundled domain to load (default: fleet)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the pipeline trace for every question",
    )
    parser.add_argument(
        "--json", action="store_true", dest="json_mode",
        help="emit one Response.to_dict() JSON object per input line "
             "(no banner, no prompt text; exit code reflects last status)",
    )
    parser.add_argument(
        "--clarify", action="store_true",
        help="report ties between readings as AMBIGUOUS with numbered "
             "choices instead of silently picking the best",
    )
    parser.add_argument(
        "--max-rows", type=int, default=15,
        help="result rows displayed per answer (default: 15)",
    )
    return parser


def _resolve_by_number(
    service: NliService, session: Session, line: str
) -> Response | None:
    """Turn a bare-digit reply to a pending clarification into a resolve.

    Returns None when the line is not a clarification reply; otherwise a
    Response — on a ClarificationError (e.g. number out of range) a FAILED
    envelope, so both render paths stay uniform. A bad number leaves the
    clarification pending: the user can just pick again.
    """
    if not line.isdigit() or session.pending_clarification is None:
        return None
    try:
        return service.resolve(session.pending_clarification, int(line) - 1)
    except ClarificationError as exc:
        return Response.from_error(line, exc)


def _print_response(response: Response, max_rows: int, out) -> None:
    """Human rendering of one envelope."""
    if response.status is Status.ANSWERED:
        answer = response.answer
        print(answer.paraphrase, file=out)
        if answer.corrections:
            fixes = ", ".join(f"{a!r}->{b!r}" for a, b in answer.corrections)
            print(f"(spelling: {fixes})", file=out)
        print(answer.result.pretty(max_rows=max_rows), file=out)
        if answer.alternatives:
            print(
                f"(other readings considered: {len(answer.alternatives)})", file=out
            )
        return
    if response.status is Status.AMBIGUOUS:
        print("That question is ambiguous — did you mean:", file=out)
        for choice in response.choices:
            print(f"  [{choice.index + 1}] {choice.paraphrase}", file=out)
        print("(reply with the number to choose)", file=out)
        return
    # FAILED / NEEDS_CLARIFICATION: lead with the primary diagnostic and
    # surface any per-token suggestions.
    primary = response.diagnostics[0] if response.diagnostics else None
    reason = primary.message if primary else response.status.value
    print(f"Sorry — {reason}", file=out)
    for diagnostic in response.diagnostics[1:]:
        if diagnostic.suggestions:
            word = " ".join(
                response.tokens[diagnostic.span[0] : diagnostic.span[1]]
            ) if diagnostic.span else "?"
            print(
                f"  ({word!r}: did you mean {', '.join(diagnostic.suggestions)}?)",
                file=out,
            )


def answer_one(
    service: NliService,
    session: Session,
    line: str,
    explain: bool,
    clarify: bool,
    max_rows: int,
    out,
) -> Response | None:
    """Process one console line; returns the Response for questions."""
    if line.startswith("\\sql "):
        try:
            print(service.execute(line[5:]).pretty(max_rows=max_rows), file=out)
        except ReproError as exc:
            print(f"SQL error: {exc}", file=out)
        return None
    if line.startswith("\\explain "):
        print(service.explain(line[9:], session=session), file=out)
        return None
    if line == "\\schema":
        print(service.database.summary(), file=out)
        return None
    if line == "\\reset":
        session.reset()
        print("(context cleared)", file=out)
        return None
    resolved = _resolve_by_number(service, session, line)
    if resolved is not None:
        _print_response(resolved, max_rows, out)
        return resolved
    response = service.ask(line, session=session, clarify=clarify)
    if explain and response.status is Status.ANSWERED:
        print(service.explain(line), file=out)
    _print_response(response, max_rows, out)
    return response


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a bundled domain over HTTP (stdlib asyncio; "
        "see docs/http.md for the endpoint reference).",
    )
    parser.add_argument(
        "domain", choices=ALL_DOMAINS, nargs="?", default="fleet",
        help="the default bundled domain to serve (default: fleet); "
             "--data-dir is its durable directory",
    )
    parser.add_argument(
        "--domain", action="append", default=None, dest="extra_domains",
        metavar="NAME[=DIR]",
        help="host an additional bundled domain on the same server, "
             "optionally durable under DIR; repeatable.  Routed by path "
             "(/v1/d/NAME/ask) or a 'domain' request field; the positional "
             "domain stays the default for paths without one",
    )
    parser.add_argument(
        "--procs", type=int, default=1, metavar="N",
        help="worker processes (default: 1 = classic in-process serving). "
             "With N > 1 the corpus is loaded once and forked N ways: "
             "DML goes to one writer and replicates synchronously, asks "
             "and SELECTs fan out round-robin, sessions stick to one "
             "worker and are handed off if it crashes (docs/cluster.md)",
    )
    parser.add_argument(
        "--respawn-delay", type=float, default=0.0, metavar="SECONDS",
        help="pause before respawning a crashed worker (default: 0); "
             "while any worker is down, DML answers 503 + Retry-After",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=60.0, metavar="SECONDS",
        help="with --procs > 1: a worker that holds one request longer "
             "than this is treated as wedged — killed and respawned like "
             "a crash — instead of hanging clients forever (0 disables; "
             "default: 60)",
    )
    parser.add_argument(
        "--domain-qps", type=float, default=None, metavar="RATE",
        help="per-domain rate limit, requests/second, layered on top of "
             "the per-session --qps limit (default: unlimited)",
    )
    parser.add_argument(
        "--domain-burst", type=int, default=8,
        help="per-domain rate-limit burst size (tokens; default: 8)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8977,
        help="bind port (0 picks an ephemeral port; default: 8977)",
    )
    parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="durable data directory: WAL + snapshot checkpoints for the "
             "database (crash recovery to the last committed statement) "
             "plus the session log at DIR/sessions.jsonl "
             "(default: in-memory only)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=512, metavar="N",
        help="committed WAL records between snapshot checkpoints; 0 "
             "checkpoints only at startup and graceful shutdown "
             "(default: 512)",
    )
    parser.add_argument(
        "--qps", type=float, default=None, metavar="RATE",
        help="per-session rate limit, questions/second (default: unlimited)",
    )
    parser.add_argument(
        "--burst", type=int, default=8,
        help="rate-limit burst size (tokens; default: 8)",
    )
    parser.add_argument(
        "--workers", type=int, default=8,
        help="worker *threads* answering questions — per process when "
             "--procs > 1 (default: 8).  --procs scales across cores; "
             "--workers scales concurrent snapshot readers within each "
             "process",
    )
    parser.add_argument(
        "--clarify-margin", type=float, default=CLARIFY_MARGIN,
        help="score margin within which readings are reported as AMBIGUOUS "
             f"when a request sets clarify (default: {CLARIFY_MARGIN})",
    )
    return parser


def _serve_specs(parser, args) -> list:
    """The positional domain (+ --data-dir) and every --domain flag as
    DomainSpecs, first one the default; duplicates are an error."""
    from repro.cluster import DomainSpec

    specs = [DomainSpec(args.domain, args.data_dir)]
    for text in args.extra_domains or []:
        try:
            spec = DomainSpec.parse(text)
        except ValueError as exc:
            parser.error(str(exc))
        if any(existing.name == spec.name for existing in specs):
            parser.error(f"--domain {spec.name}: domain listed twice")
        specs.append(spec)
    return specs


def _serve_banner(args, specs, url: str) -> str:
    """The startup banner.  The URL stays last on the line (tools parse
    it with ``rsplit("listening on ", 1)``), and the classic
    single-domain single-process banner is unchanged."""
    if len(specs) == 1:
        parts = [f"domain: {args.domain}"]
    else:
        parts = [f"domains: {', '.join(spec.name for spec in specs)}"]
    if args.procs > 1:
        parts.append(f"procs: {args.procs}")
    return f"repro NLIDB — {' — '.join(parts)} — listening on {url}"


async def _serve_http(args, specs, backend, stdout) -> None:
    """Start the HTTP front end over ``backend``, print the banner, serve
    until SIGINT/SIGTERM, then close the server."""
    import asyncio
    import contextlib
    import signal

    from repro.server import NliHttpServer

    server = NliHttpServer(
        host=args.host, port=args.port, backend=backend,
        domain_qps=args.domain_qps, domain_burst=args.domain_burst,
    )
    await server.start()
    print(_serve_banner(args, specs, server.url), file=stdout, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # non-unix loops
            loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    await server.aclose()


def serve_main(argv: list[str] | None = None, stdout=None) -> int:
    """``repro serve``: run the asyncio HTTP front end until SIGINT/SIGTERM."""
    import asyncio

    from repro.server import ServiceBackend

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.qps is not None and args.qps <= 0:
        parser.error("--qps must be positive (omit it to disable rate limiting)")
    if args.burst < 1:
        parser.error("--burst must be >= 1")
    if args.domain_qps is not None and args.domain_qps <= 0:
        parser.error("--domain-qps must be positive (omit it to disable)")
    if args.domain_burst < 1:
        parser.error("--domain-burst must be >= 1")
    if args.checkpoint_every < 0:
        parser.error("--checkpoint-every must be >= 0")
    if args.procs < 1:
        parser.error("--procs must be >= 1")
    if args.respawn_delay < 0:
        parser.error("--respawn-delay must be >= 0")
    if args.request_timeout < 0:
        parser.error("--request-timeout must be >= 0 (0 disables it)")
    stdout = stdout or sys.stdout
    specs = _serve_specs(parser, args)
    config = NliConfig(
        clarification_margin=args.clarify_margin,
        rate_limit_qps=args.qps,
        rate_limit_burst=args.burst,
        service_workers=args.workers,
        data_dir=args.data_dir,
        checkpoint_every=args.checkpoint_every,
    )
    if args.procs > 1:
        return _serve_cluster(args, specs, config, stdout)

    # -- single-process path (--procs 1), one service per domain ----------
    from repro.cluster import build_local_service

    # --data-dir consolidates everything durable under one directory:
    # WAL + checkpoints (via config.data_dir) and the session log beside
    # them.
    persistence = None
    if args.data_dir is not None:
        import os

        persistence = os.path.join(args.data_dir, "sessions.jsonl")
    bundle = load_bundle(args.domain)
    services = {
        args.domain: NliService(
            bundle.database, domain=bundle.model, config=config,
            persistence=persistence,
        )
    }
    for spec in specs[1:]:
        services[spec.name] = build_local_service(spec, config)
    backend = ServiceBackend(services, default_domain=args.domain)
    try:
        asyncio.run(_serve_http(args, specs, backend, stdout))
    except KeyboardInterrupt:  # pragma: no cover - non-unix fallback
        pass
    # Graceful exit: shrink the session log to live state, write a final
    # snapshot checkpoint (collapsing the WAL), and release the worker
    # pool.  A kill -9 skips all of this, which is exactly what the
    # append logs are for.
    for service in services.values():
        service.compact_log()
        service.close()
    print("goodbye.", file=stdout)
    return 0


def _serve_cluster(args, specs, config, stdout) -> int:
    """The --procs > 1 path: fork the pool before asyncio starts (a fork
    must never cross a live event loop), then wire router + HTTP server
    into the loop.  See docs/cluster.md."""
    import asyncio

    from repro.cluster import build_cluster, start_router

    supervisor = build_cluster(
        specs, args.procs, config, respawn_delay_s=args.respawn_delay,
        request_timeout_s=args.request_timeout or None,
    )

    async def run() -> None:
        router = await start_router(
            supervisor, specs,
            default_domain=args.domain, qps=args.qps, burst=args.burst,
        )
        await _serve_http(args, specs, router, stdout)
        # Workers compact their session logs and write a final checkpoint
        # inside the shutdown op before the supervisor reaps them.
        await router.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - non-unix fallback
        pass
    # The parent's pre-fork service images never served requests and own
    # no storage; close just releases their thread pools.
    for service in supervisor.services.values():
        service.close()
    print("goodbye.", file=stdout)
    return 0


def build_subscribe_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro subscribe",
        description=(
            "Follow one standing question against a running server: "
            "GET /v1/subscribe and print one JSON frame per line as "
            "committed writes change the answer (docs/streaming.md)."
        ),
    )
    parser.add_argument("question", help="the English question to keep live")
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8977",
        help="base URL of a `repro serve` instance (default %(default)s)",
    )
    parser.add_argument("--domain", default=None, help="domain to ask against")
    parser.add_argument(
        "--session", default=None, help="session id for dialogue context"
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=0,
        help="close after N answer/error frames (0 = run until interrupted)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=10.0,
        help="idle keep-alive interval in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--raw",
        action="store_true",
        help="print every frame including heartbeats (default: answers only)",
    )
    return parser


def subscribe_main(argv: list[str] | None = None, stdout=None) -> int:
    """``repro subscribe`` — a streaming HTTP client over /v1/subscribe."""
    import http.client
    import urllib.parse

    stdout = stdout or sys.stdout
    args = build_subscribe_parser().parse_args(argv)
    parts = urllib.parse.urlsplit(args.url)
    if parts.scheme not in ("http", ""):
        print(f"unsupported URL scheme: {parts.scheme}", file=sys.stderr)
        return 2
    query: dict[str, str] = {
        "question": args.question,
        "heartbeat": str(args.heartbeat),
    }
    if args.domain:
        query["domain"] = args.domain
    if args.session:
        query["session"] = args.session
    if args.frames > 0:
        query["frames"] = str(args.frames)
    target = "/v1/subscribe?" + urllib.parse.urlencode(query)
    connection = http.client.HTTPConnection(parts.netloc or args.url)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        if response.status != 200:
            print(response.read().decode("utf-8", "replace"), file=stdout)
            return 2
        # http.client undoes the chunked framing: each readline() is one
        # NDJSON frame, arriving as the server pushes it.
        while True:
            line = response.readline()
            if not line:
                return 0  # stream terminated cleanly
            frame = json.loads(line)
            if not args.raw and frame.get("type") == "heartbeat":
                continue
            print(json.dumps(frame), file=stdout, flush=True)
            if frame.get("type") == "closed":
                return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        return 0
    except (ConnectionError, OSError) as exc:
        print(f"connection failed: {exc}", file=sys.stderr)
        return 2
    finally:
        connection.close()


def main(argv: list[str] | None = None, stdin=None, stdout=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:], stdout=stdout)
    if argv and argv[0] == "subscribe":
        return subscribe_main(argv[1:], stdout=stdout)
    args = build_parser().parse_args(argv)
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout

    bundle = load_bundle(args.domain)
    config = NliConfig(clarification_margin=CLARIFY_MARGIN) if args.clarify else None
    service = NliService(bundle.database, domain=bundle.model, config=config)
    session = Session()
    exit_code = 0

    if args.json_mode:
        # Line protocol: every input line is a question, every output line
        # one JSON envelope.  Clarifications resolve statefully: a bare
        # digit after an ambiguous response picks that choice.
        for raw in stdin:
            line = raw.strip()
            if not line:
                continue
            if line in ("\\q", "quit", "exit"):
                break
            response = _resolve_by_number(service, session, line)
            if response is None:
                response = service.ask(line, session=session, clarify=args.clarify)
            print(json.dumps(response.to_dict()), file=stdout)
            exit_code = EXIT_CODES[response.status]
        return exit_code

    print(f"repro NLIDB — domain: {args.domain}", file=stdout)
    print(service.database.summary(), file=stdout)
    print('Type an English question, or "\\q" to quit.', file=stdout)

    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        if line in ("\\q", "quit", "exit"):
            break
        answer_one(
            service, session, line, args.explain, args.clarify, args.max_rows, stdout
        )
        print("", file=stdout)
    print("goodbye.", file=stdout)
    # Status exit codes are a --json (scripting) feature; the interactive
    # console keeps its historical always-0 exit.
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
