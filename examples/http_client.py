"""Talk to a running ``repro serve`` over HTTP — pure stdlib client.

Start a server in one terminal::

    python -m repro.cli serve fleet --port 8977

then run the demo conversation (ask, clarify, resolve, follow-up)::

    python examples/http_client.py --url http://127.0.0.1:8977

The same script doubles as the load generator used by
``benchmarks/bench_f7_http.py``: ``--bench N`` fires N ``/v1/ask`` requests
(a fresh connection per request — honest serial round-trips) and prints
one JSON line of timings, so the benchmark can run several copies as
separate *processes* and measure concurrent throughput against the
single-process server.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

DEMO_QUESTIONS = [
    "how many ships are there",
    "show the carriers",
    "ships commissioned in 1970",
]


def call(url: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
    """One round trip; returns (http code, decoded JSON body)."""
    if payload is None:
        request = urllib.request.Request(url + path)
    else:
        request = urllib.request.Request(
            url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        # 409/422/429 still carry a JSON envelope — that's the protocol,
        # not a transport failure.  Transport errors (400/404/413/503 …)
        # come back as {"error": {"code", "message", "retry_after_s"}}.
        return error.code, json.loads(error.read())


def describe_failure(body: dict) -> str:
    """One line for a non-answered body, either protocol or transport."""
    if "error" in body:  # transport error: the uniform {"error": {...}} shape
        error = body["error"]
        suffix = (f" (retry in {error['retry_after_s']}s)"
                  if error.get("retry_after_s") else "")
        return f"{error['code']}: {error['message']}{suffix}"
    return body["diagnostics"][0]["message"]


def demo(url: str) -> None:
    code, health = call(url, "/v1/healthz")
    print(f"server: {url} -> {health['status']} ({code})")

    for question in DEMO_QUESTIONS:
        code, envelope = call(url, "/v1/ask", {"question": question})
        print(f"\nQ: {question}  [HTTP {code}]")
        if envelope.get("status") == "answered":
            print(f"A: {envelope['answer']['paraphrase']}")
        else:
            print(f"!: {describe_failure(envelope)}")

    # The clarification dialog, cross-process: ask with clarify on, pick a
    # reading by number, then send an elliptical follow-up in the same
    # session — it binds to the clarified reading.
    question = "ships from norfolk"
    code, envelope = call(
        url, "/v1/ask", {"question": question, "clarify": True, "session": "demo"}
    )
    print(f"\nQ: {question}  [HTTP {code}]")
    if envelope["status"] == "ambiguous":
        for choice in envelope["choices"]:
            print(f"   [{choice['index'] + 1}] {choice['paraphrase']}")
        code, resolved = call(
            url, "/v1/resolve",
            {"clarification_id": envelope["clarification_id"], "choice": 0},
        )
        print(f"picked [1] -> [HTTP {code}] {resolved['answer']['paraphrase']}")
        code, followup = call(
            url, "/v1/ask",
            {"question": "what about the carriers", "session": "demo"},
        )
        print(f"follow-up -> [HTTP {code}] {followup['answer']['paraphrase']}")
    elif envelope["status"] == "answered":
        print(f"A: {envelope['answer']['paraphrase']} (not ambiguous at this "
              "margin — start the server with a larger --clarify-margin)")

    code, stats = call(url, "/v1/stats")
    http_stats = stats["http"]
    print(f"\nserver stats: {http_stats['requests']} requests, "
          f"{http_stats['cache_hits']} response-cache hits")


def bench(url: str, count: int, questions: list[str]) -> None:
    """Load-generator mode: N sequential round-trips, one JSON result line."""
    ok = 0
    start = time.perf_counter()
    for i in range(count):
        code, _ = call(url, "/v1/ask", {"question": questions[i % len(questions)]})
        ok += code == 200
    elapsed = time.perf_counter() - start
    print(json.dumps({"requests": count, "ok": ok, "elapsed_s": elapsed}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default="http://127.0.0.1:8977")
    parser.add_argument(
        "--bench", type=int, default=None, metavar="N",
        help="fire N /v1/ask requests and print JSON timings instead of the demo",
    )
    parser.add_argument(
        "--questions", default=";".join(DEMO_QUESTIONS),
        help="semicolon-separated question mix for --bench",
    )
    args = parser.parse_args()
    try:
        if args.bench is not None:
            bench(args.url, args.bench, args.questions.split(";"))
        else:
            demo(args.url)
    except urllib.error.URLError as error:
        print(f"cannot reach {args.url}: {error.reason}", file=sys.stderr)
        print("start a server first:  python -m repro.cli serve fleet "
              "--port 8977", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
