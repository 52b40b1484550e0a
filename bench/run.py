"""The repo's benchmark: one command, every metric by name.

    python3 bench/run.py                       every workload, both passes
    python3 bench/run.py --workload big-scan   one workload, both passes
    python3 bench/run.py --smoke               short pass of everything
    python3 bench/run.py --aa                  two full sets, compared

and the form the pipeline drives, one run per process::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

which prints the human-readable report first and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from harness import BENCH_DIR, REPO_ROOT, SRC_DIR

SPEC_PATH = REPO_ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with SPEC_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def run_once(
    spec: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """One run in this process; returns the result object."""
    if not (SRC_DIR / "repro").is_dir():
        raise SystemExit(
            f"bench: no program to measure: {SRC_DIR / 'repro'} is missing"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import inprocess
    import overhttp

    if name in inprocess.IN_PROCESS:
        workload = inprocess.IN_PROCESS[name](seed, smoke)
        outcome = inprocess.run(workload, seconds, trace)
    else:
        outcome = overhttp.run(seed, seconds, trace, smoke)

    declared = spec["per_layer" if trace else "end_to_end"]
    unknown = set(outcome.metrics) - {metric["name"] for metric in declared}
    if unknown:
        raise SystemExit(f"bench: metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in declared:
        if metric["name"] not in outcome.metrics and not trace:
            raise SystemExit(f"bench: {name} did not measure {metric['name']}")
        # A per-layer metric of a layer this workload never enters is 0.
        value = float(outcome.metrics.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name:34s} {metric['value']:>14.4f} {metric['unit']}")
    print(f"  attempted={outcome.attempted}  failed={outcome.failed}")
    for note in outcome.notes:
        print(f"  {note}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh process (its own heap, caches and peak RSS)."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
    ]
    done = subprocess.run(
        command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, timeout=600
    )
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench: run of {name} failed (exit {done.returncode})")
    return json.loads(lines[-1])


def run_set(spec: dict, names: list[str], seed: int, seconds: float) -> dict:
    """Both passes of every named workload: {workload: {metric: value}}."""
    results: dict = {}
    for name in names:
        merged: dict = {"correct": True, "failed": 0, "attempted": 0, "metrics": {}}
        for trace in (False, True):
            result = run_child(name, seed, seconds, trace)
            merged["correct"] &= result["correct"]
            if not trace:
                merged["failed"] = result["failed"]
                merged["attempted"] = result["attempted"]
            merged["metrics"].update(result["metrics"])
        results[name] = merged
    return results


def compare_sets(spec: dict, first: dict, second: dict) -> bool:
    """Print both sets side by side; True when every gated metric agrees."""
    agree = True
    print(f"\n{'workload':15s} {'metric':14s} {'first':>12s} {'second':>12s} "
          f"{'diff':>8s} {'bound':>6s}")
    for name in first:
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            diff = abs(b - a) / a
            within = diff <= metric["bound"]
            agree &= within
            print(f"{name:15s} {metric['name']:14s} {a:12.4f} {b:12.4f} "
                  f"{diff:8.1%} {metric['bound']:6.0%}{'' if within else '  OUT'}")
        same = (
            first[name]["failed"] * second[name]["attempted"]
            == second[name]["failed"] * first[name]["attempted"]
        )
        correct = first[name]["correct"] and second[name]["correct"]
        agree &= same and correct
        print(f"{name:15s} {'failed':14s} {first[name]['failed']:12d} "
              f"{second[name]['failed']:12d}{'' if same and correct else '  OUT'}")
    return agree


def main() -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--aa", action="store_true",
                        help="two full sets on this checkout, compared to the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass of every workload; checks on, no gating")
    args = parser.parse_args()

    if args.workload and args.trace is not None:
        result = run_once(
            spec, args.workload, args.seed, args.seconds, bool(args.trace)
        )
        print(json.dumps(result))
        return 0

    chosen = [args.workload] if args.workload else names
    if args.smoke:
        # One process, traced pass only: it holds an untraced loop, the
        # replay and every check, and nothing here is compared with a bound.
        results = [
            run_once(spec, name, args.seed, 1.0, trace=True, smoke=True)
            for name in chosen
        ]
        return 0 if all(r["correct"] and not r["failed"] for r in results) else 1
    first = run_set(spec, chosen, args.seed, args.seconds)
    if not args.aa:
        return 0 if all(r["correct"] for r in first.values()) else 1
    second = run_set(spec, chosen, args.seed, args.seconds)
    return 0 if compare_sets(spec, first, second) else 1


if __name__ == "__main__":
    sys.exit(main())
