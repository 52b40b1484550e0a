"""``http-2proc``: the hot stream against a live ``repro serve`` subprocess.

Two keep-alive ``http.client`` connections, one thread each, closed loop:
a connection sends its next request when the previous reply is read.
Half the asks carry that connection's session id (sticky worker, full
pipeline, never response-cached), half are sessionless (response-cache
eligible), and 2 % of requests are ``/v1/sql`` UPDATEs of a column no
gold statement reads — they keep moving the data stamp, so the response
cache has to earn its hit ratio, while the stored gold answers stay the
reference.

The traced pass measures the two transport layers by subtraction: the
same session asks on one connection against an in-process service, a
``--procs 1`` server and a ``--procs 2`` server.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Iterator

from harness import (
    OUT_DIR,
    SLICE_NS,
    SRC_DIR,
    Outcome,
    Samples,
    diagnostics,
    end_to_end,
    median,
    ms,
    now_ns,
    quiet_gc,
    ratio,
    repeat_setup,
    setup_metrics,
)
from inprocess import HotRepeat, ask_untraced
from oracle import Answer, normalise
from tracing import Recorder
from workloads import neutral_update, zipf_draws

from repro.datasets.base import rng_for

NAME = "http-2proc"
CONNECTIONS = 2
WRITE_SHARE = 0.02
#: Untimed requests per connection before the clock starts: both workers'
#: prepared caches and the response cache reach steady state.
WARMUP_REQUESTS = 400


class Server:
    """One ``repro serve fleet`` subprocess in its own process group."""

    def __init__(self, procs: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "fleet",
                "--port", "0", "--procs", str(procs), "--workers", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=OUT_DIR,
            start_new_session=True,
        )
        try:
            banner = self._proc.stdout.readline()
            if "listening on" not in banner:
                raise RuntimeError(f"server failed to start: {banner!r}")
            address = banner.strip().rsplit("listening on http://", 1)[1]
            host, port = address.rsplit(":", 1)
            self.host, self.port = host, int(port)
        except BaseException:
            self.stop()
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get(self, path: str) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its forked workers.

        Forked workers share copy-on-write pages with the parent, so the
        sum counts shared pages once per process; it is an upper bound
        that moves with anything that grows any of the processes.
        """
        pids = [self._proc.pid]
        pids += [w["pid"] for w in self.get("/v1/healthz").get("workers", [])]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Graceful stop, then a sweep of the group; returns once reaped."""
        proc = self._proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def post(connection: http.client.HTTPConnection, path: str, payload: dict) -> tuple:
    """One round trip; returns ``(status, body bytes, elapsed ns)``.

    The clock stops when the reply is fully read; decoding and checking
    are the client's own work and stay outside it.
    """
    body = json.dumps(payload)
    start = now_ns()
    connection.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    data = response.read()
    return response.status, data, now_ns() - start


def check_ask(
    samples: Samples, status: int, data: bytes, reference: Answer, text: str
) -> None:
    if status != 200:
        samples.problem("errors", f"HTTP {status} for {text!r}")
        return
    envelope = json.loads(data)
    if envelope.get("status") != "answered":
        samples.problem("errors", f"{envelope.get('status')} for {text!r}")
    elif normalise(envelope["answer"]["rows"]) != reference:
        samples.problem("wrong", text)


def requests(
    strings: list[tuple[str, Answer]], seed: int, client: int, with_writes: bool
) -> Iterator[tuple[str, dict, Answer | None, str]]:
    """This connection's endless request stream: (path, payload, ref, text)."""
    draws = zipf_draws(len(strings), seed, f"http-draws-{client}")
    kinds = rng_for(seed, f"http-kinds-{client}")
    session = f"bench-{client}"
    while True:
        kind = kinds.random()
        if with_writes and kind < WRITE_SHARE:
            yield "/v1/sql", {"sql": neutral_update(kinds, 60, 60)}, None, ""
            continue
        text, reference = strings[next(draws)]
        payload = {"question": text}
        if not with_writes or kinds.random() < 0.5:
            payload["session"] = session
        yield "/v1/ask", payload, reference, text


def drive(
    server: Server,
    stream: Iterator,
    seconds: float,
    samples: Samples,
    start_line: threading.Barrier | None = None,
    recorder: Recorder | None = None,
    leg: str = "",
) -> None:
    """One connection's closed loop for ``seconds`` (after its warm-up)."""
    connection = server.connect()
    try:
        for _ in range(WARMUP_REQUESTS):
            path, payload, _, _ = next(stream)
            post(connection, path, payload)
        if start_line is not None:
            start_line.wait()
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            path, payload, reference, text = next(stream)
            status, data, elapsed = post(connection, path, payload)
            if recorder is not None:
                recorder.new_request()
                end = now_ns()
                recorder.add(leg, end - elapsed, end)
            if reference is None:
                samples.record_write(elapsed)
                if status != 200:
                    samples.problem("errors", f"HTTP {status} for {payload['sql']}")
            else:
                samples.record_ask(elapsed)
                check_ask(samples, status, data, reference, text)
                samples.cut(SLICE_NS)
    finally:
        connection.close()


def _build(procs: int, first_question: str) -> tuple[Server, dict[str, float]]:
    """Nothing -> first answer over HTTP: spawn, load, fork, bind, ask."""
    start = time.perf_counter()
    server = Server(procs)
    try:
        connection = server.connect()
        post(connection, "/v1/ask", {"question": first_question})
        connection.close()
    except BaseException:
        server.stop()
        raise
    return server, {"serve": time.perf_counter() - start}


def _measure(server: Server, strings: list, seed: int, seconds: float) -> Samples:
    """The end-to-end loop: two connections, two threads, one barrier."""
    merged = Samples(clients=CONNECTIONS)
    parts = [Samples() for _ in range(CONNECTIONS)]
    failures: list[BaseException] = []
    start_line = threading.Barrier(CONNECTIONS)

    def client(index: int) -> None:
        try:
            stream = requests(strings, seed, index, with_writes=True)
            drive(server, stream, seconds, parts[index], start_line)
        except BaseException as exc:  # re-raised on the main thread below
            start_line.abort()
            failures.append(exc)

    threads = [
        threading.Thread(target=client, args=(index,)) for index in range(CONNECTIONS)
    ]
    with quiet_gc():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    for part in parts:
        merged.merge(part)
    return merged


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Outcome:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    generator = HotRepeat(seed)
    generator.prepare()
    strings = generator.strings
    first = strings[0][0]
    servers: list[Server] = []

    def build() -> tuple[Server, dict[str, float]]:
        server, phases = _build(2, first)
        servers.append(server)
        return server, phases

    try:
        server, setups = repeat_setup(build, Server.stop, 1 if smoke else 5)
        share = seconds / 2 if trace else seconds
        samples = _measure(server, strings, seed, share)
        stats = server.get("/v1/stats")["http"]
        rss_mb = server.peak_rss_mb()
        server.stop()
        problems = list(samples.first_problems)
        if not trace:
            metrics = end_to_end(samples, samples.write_ns, setups, rss_mb)
        else:
            metrics = diagnostics(samples, samples.write_ns)
            metrics["server.response_cache_hit_ratio"] = ratio(
                stats["cache_hits"], stats["responses_cached"]
            )
            metrics["setup.serve_s"] = setup_metrics(setups)[1]["serve"]
            metrics["typos_rejected"] = generator.typos_rejected
            legs, leg_problems = _legs(generator, share / 3, servers)
            metrics.update(legs)
            problems += leg_problems
        return Outcome(
            correct=not problems,
            attempted=samples.attempted,
            failed=samples.failed,
            metrics=metrics,
            notes=[f"PROBLEM {line}" for line in problems],
        )
    finally:
        for server in servers:
            server.stop()


def _legs(
    generator: HotRepeat, seconds: float, servers: list[Server]
) -> tuple[dict[str, float], list[str]]:
    """Round trips of the same session asks on three legs, one connection.

    ``server.http_ms`` = rtt(--procs 1) - in-process ``service.ask``;
    ``cluster.ipc_ms`` = rtt(--procs 2) - rtt(--procs 1).  Session asks
    run the full pipeline on every leg, so the differences are transport.
    """
    recorder = Recorder()
    problems: list[str] = []
    medians: dict[str, float] = {}

    strings, seed = generator.strings, generator.seed
    system, _ = generator.build()
    local = Samples()
    stream = requests(strings, seed, 0, with_writes=False)
    for _ in range(WARMUP_REQUESTS):
        ask_untraced(system, next(stream)[1]["question"])
    deadline = time.monotonic() + seconds
    with quiet_gc():
        while time.monotonic() < deadline:
            _, payload, reference, text = next(stream)
            start = now_ns()
            outcome = ask_untraced(system, payload["question"])
            end = now_ns()
            local.record_ask(end - start)
            recorder.new_request()
            recorder.add("leg.inprocess", start, end)
            if outcome is None or outcome[1].answer_set() != reference:
                local.problem("wrong", text)
    system.close()
    medians["leg.inprocess"] = median(local.ask_ns)
    problems += local.first_problems

    for procs in (1, 2):
        leg = f"leg.procs{procs}"
        server, _ = _build(procs, strings[0][0])
        servers.append(server)
        samples = Samples()
        stream = requests(strings, seed, 0, with_writes=False)
        with quiet_gc():
            drive(server, stream, seconds, samples, recorder=recorder, leg=leg)
        server.stop()
        medians[leg] = median(samples.ask_ns)
        problems += samples.first_problems

    recorder.write(OUT_DIR / f"trace-{NAME}.json")
    http_ns = medians["leg.procs1"] - medians["leg.inprocess"]
    ipc_ns = medians["leg.procs2"] - medians["leg.procs1"]
    return {
        "server.http_ms": ms(http_ns),
        "cluster.ipc_ms": ms(ipc_ns),
        "share.transport": (http_ns + ipc_ns) / medians["leg.procs2"],
    }, problems
