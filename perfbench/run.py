"""Closed-loop benchmark of fuzzts: one client, one thread, one query at a time.

    python3 perfbench/run.py --workload refine|files|words|all --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` sends the workload's deck of queries over and over, in whole
passes, until ``--seconds`` seconds and at least `MIN_PASSES` passes are
done.  A query's latency is the slowest of its passes: on a shared host the
CPU speed changes by up to 1.8x within seconds as other tenants come and go,
and the reading taken while the host is busiest repeats best from run to
run.  The latency percentiles and ``queries_per_s`` are taken over the
deck's queries (at least 100, so ten or more lie beyond the 90th
percentile).  ``setup_s`` is the median of `SETUP_REPEATS` set-ups, done
between passes.

``--trace 1`` runs one pass with each query sent twice, untraced and then
traced, and reports the per-layer metrics; the counts repeat exactly for a
given seed.

Query records (kind, n_states, n_edges, rounds, seconds, ok) and, for traced
runs, the spans are written under ``.perfbench-out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3


def load_package():
    """Import ``fuzzts`` afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "fuzzts" or n.startswith("fuzzts.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fz = importlib.import_module("fuzzts")
    if not Path(fz.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fuzzts was imported from {fz.__file__}, not from {SRC}")
    importlib.import_module("fuzzts.cli")
    return fz


def setup(workload: str, seed: int, workdir: Path):
    """Import the package, generate the workload's deck and build the first
    pass's objects or write its files."""
    gc.collect()
    start = perf_counter()
    fz = load_package()
    stream = workloads.WORKLOADS[workload](fz, seed, workdir)
    return perf_counter() - start, stream


def _call(call):
    try:
        return call(), None
    except Exception as err:  # a failed query is counted, not fatal
        return None, err


class Loop:
    """Runs queries one after another and keeps one record per query."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.tracer = tracer
        self.records: list[dict] = []
        self.failed = 0

    def run_one(self, query: workloads.Query) -> None:
        qid = len(self.records)
        start = perf_counter_ns()
        if self.tracer is not None:
            result, error = self.tracer.query(qid, query.call)
        else:
            result, error = _call(query.call)
        elapsed = perf_counter_ns() - start
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
        ok = error is None and self._check(query.check, result)
        if not ok:
            self.failed += 1
            print(f"failed: query {qid} ({query.kind})", file=sys.stderr)
        self.records.append({
            "query": qid, "kind": query.kind, "n_states": query.n_states,
            "n_edges": query.n_edges, "rounds": None, "seconds": elapsed / 1e9, "ok": ok,
        })

    @staticmethod
    def _check(check, result) -> bool:
        try:
            return bool(check(result))
        except Exception:  # a malformed result is a wrong answer
            traceback.print_exc(file=sys.stderr)
            return False

    @property
    def busy_s(self) -> float:
        return sum(r["seconds"] for r in self.records)


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    took, stream = setup(workload, seed, workdir)
    setups = [took]
    loop = Loop()
    deck = workloads.DECK_SIZE[workload]
    start = perf_counter()
    passes = 0
    while perf_counter() - start < seconds or passes < MIN_PASSES:
        for query in islice(stream, deck):
            loop.run_one(query)
        passes += 1
        if len(setups) < SETUP_REPEATS:
            # set up again between passes, so the median spans the run's
            # changes in machine speed; the repeated inputs are identical
            setups.append(setup(workload, seed, workdir)[0])
            gc.collect()
    while len(setups) < SETUP_REPEATS:
        setups.append(setup(workload, seed, workdir)[0])

    latency = sorted(
        max(loop.records[p * deck + i]["seconds"] for p in range(passes)) for i in range(deck)
    )
    p90_rank = math.ceil(0.9 * deck)  # nearest rank; deck - p90_rank >= 10 lie beyond
    attempted = len(loop.records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (deck / sum(latency), "1/s"),
        "query_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "query_p90_ms": (latency[p90_rank - 1] * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "success_rate": ((attempted - loop.failed) / attempted, "ratio"),
    }
    print(f"{workload}: {passes} passes of {deck} queries, {deck - p90_rank} beyond p90, "
          f"error_rate {loop.failed / attempted:.4f}, setups {[round(s, 4) for s in setups]}")
    return loop, metrics, None


def traced(workload: str, seed: int, workdir: Path):
    deck = workloads.DECK_SIZE[workload]
    # the first stream keeps the package imported first, which the tracer
    # leaves alone; each query runs untraced, then traced on fresh objects
    _, plain_stream = setup(workload, seed, workdir)
    _, stream = setup(workload, seed, workdir)
    plain, tracer = Loop(), tracing.Tracer()
    loop = Loop(tracer)
    restore = tracer.install()
    try:
        for _ in range(deck):
            plain.run_one(next(plain_stream))
            loop.run_one(next(stream))
    finally:
        restore()
    rounds = tracing.rounds_per_query(tracer.spans)
    for record in loop.records:
        record["rounds"] = rounds[record["query"]]
    loop.failed += plain.failed
    values = tracing.layer_metrics(tracer.spans)
    values["trace.queries_per_s_ratio"] = plain.busy_s / loop.busy_s
    metrics = {
        name: (values[name], "s" if name.endswith(".self_s") else tracing.EXTRA_UNITS.get(name, "count"))
        for name in tracing.metric_names()
    }
    print(f"{workload}: {deck} queries traced, {len(tracer.spans)} spans, "
          f"overhead x{1 / values['trace.queries_per_s_ratio']:.2f}")
    return loop, metrics, tracer.spans


def write_out(tag: str, records: list[dict], spans) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}-queries.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    if spans is not None:
        with open(OUT / f"{tag}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def run_all(args) -> int:
    """Run every workload in its own process; print their metrics by name."""
    results = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if child.returncode != 0:
            print(child.stdout, end="")
            return child.returncode
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items() for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = OUT / tag
    try:
        if args.trace:
            loop, metrics, spans = traced(args.workload, args.seed, workdir)
        else:
            loop, metrics, spans = end_to_end(args.workload, args.seed, args.seconds, workdir)
    except ImportError as err:
        print(f"error: cannot import fuzzts: {err}", file=sys.stderr)
        return 2
    finally:
        for path in sorted(workdir.glob("*")):
            path.unlink()
        if workdir.exists():
            workdir.rmdir()
    write_out(tag, loop.records, spans)
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:>14.6g} {unit}")
    attempted = len(loop.records) + (workloads.DECK_SIZE[args.workload] if args.trace else 0)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
