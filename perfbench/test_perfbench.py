"""Self-tests of the benchmark: seeded inputs are reproducible, the answers
the generators promise agree with the package's independent oracles on
small instances, and the metric names match ``BENCHMARK.json``.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import fuzzts  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from helpers import all_words, path_degree  # noqa: E402

from fuzzts import (  # noqa: E402
    Relation,
    check_bisimulation_naive,
    enumerate_bisimulations_bruteforce,
)


def build(spec):
    return workloads.build(fuzzts, spec)


def deck_bytes(workload: str, seed: int, workdir: Path) -> bytes:
    """Every input of the first round of a workload, as bytes."""
    stream = workloads.WORKLOADS[workload](fuzzts, seed, workdir)
    deck = list(islice(stream, workloads.DECK_SIZE[workload]))
    texts = [gen.model_text(spec) for q in deck for spec in q.inputs]
    texts += [f"{q.kind} {q.n_states} {q.n_edges}" for q in deck]
    if workdir.exists():
        texts += [p.name + "\n" + p.read_text() for p in sorted(workdir.iterdir())]
    return "\n".join(texts).encode()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    first = deck_bytes(workload, 7, tmp_path / "a")
    again = deck_bytes(workload, 7, tmp_path / "a")
    other = deck_bytes(workload, 8, tmp_path / "a")
    assert first == again
    assert first != other


# --------------------------------------------------------------- refine


def brute_union(left, right, max_pairs=16) -> Relation:
    return enumerate_bisimulations_bruteforce(build(left), build(right), max_pairs=max_pairs)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("same", [True, False])
def test_chain_pair_answer_matches_bruteforce(n, same):
    left, right = gen.chain_pair(random.Random(n), n, same)
    assert ((left.init, right.init) in brute_union(left, right)) is same


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chain_states_are_pairwise_distinct(n):
    spec = gen.chain(random.Random(n), n, "s")
    assert brute_union(spec, spec) == Relation.diagonal(spec.states)


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (2, 2)])
def test_marked_product_has_p_classes_of_q(p, q):
    left, right = gen.marked_cycles(random.Random(p * 10 + q), p, q)
    product = gen.product_spec(left, right)
    assert build(product) == fuzzts.parallel_compose(build(left), build(right))
    classes = brute_union(product, product).equivalence_classes()
    assert sorted(len(c) for c in classes) == [q] * p


# ---------------------------------------------------------------- files


@pytest.mark.parametrize("seed", range(6))
def test_inflated_graph_is_a_bisimulation_and_perturbed_is_not(seed):
    rng = random.Random(seed)
    base = gen.sparse(rng, 3, ("a", "b"), "g")
    inf = gen.inflate(rng, base, 2, extra=0.5, name="big")
    g = build(base)
    graph = Relation(inf.big.states, base.states, inf.hom.items())
    assert check_bisimulation_naive(build(inf.big), g, graph)
    assert not check_bisimulation_naive(build(inf.perturbed), g, graph)
    # the promised quotient is related to the inflated system by the class map
    quotient = gen.quotient_spec(inf)
    class_of = {s: f"[{min(t for t in inf.hom if inf.hom[t] == x)}]" for s, x in inf.hom.items()}
    assert check_bisimulation_naive(
        build(inf.big), build(quotient), Relation(inf.big.states, quotient.states, class_of.items())
    )


# ---------------------------------------------------------------- words


@pytest.mark.parametrize("seed", range(4))
def test_spined_languages_match_path_enumeration(seed):
    rng = random.Random(seed)
    sp = gen.spined(rng, 6, 4)
    inflated = gen.inflate(rng, sp.system, 2, extra=0.5, name="inflated").big
    g, big, changed = build(sp.system), build(inflated), build(sp.changed)
    max_len = sp.first_diff
    table = gen.ref_table(sp.system, sp.system.init, max_len)
    differ = []
    for word in all_words(sp.system.labels, max_len):
        expected = path_degree(g, g.init, word)
        assert table.get(word, 0) * 10**6 == expected.numerator
        assert path_degree(big, big.init, word) == expected
        if path_degree(changed, changed.init, word) != expected:
            differ.append(len(word))
    assert differ and min(differ) == sp.first_diff


def accept_by_paths(spec, final, word) -> int:
    """Acceptance degree by enumerating every state path that reads ``word``."""
    adj = gen.adjacency(spec)

    def walk(state, i, acc):
        if i == len(word):
            return min(acc, final[state])
        return max((walk(t, i + 1, min(acc, d)) for t, d in adj.get((state, word[i]), ())), default=0)

    return walk(spec.init, 0, gen.FULL)


def test_reference_acceptance_matches_path_enumeration():
    rng = random.Random(3)
    sp = gen.spined(rng, 6, 4)
    final = {s: rng.randint(0, gen.FULL) for s in sp.system.states}
    for word in all_words(sp.system.labels, 4):
        assert gen.ref_accept(sp.system, final, word) == accept_by_paths(sp.system, final, word)


# ---------------------------------------------------------- the harness


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_harness():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    moves = json.loads((HERE / "layers.json").read_text())
    assert set(moves) == set(tracing.metric_names()) - {"trace.queries_per_s_ratio"}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for entry in moves.values():
        assert set(entry["moves"]) <= e2e
        assert entry["on"] in workloads.WORKLOADS


def test_tracer_counts_and_restores():
    f = build(gen.chain(random.Random(0), 4, "s"))
    original = fuzzts.bisim.decompose
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        assert fuzzts.bisim.decompose is not original
        assert fuzzts.core.decompose is fuzzts.bisim.decompose
        result, error = tracer.query(0, lambda: fuzzts.minimize(f))
    finally:
        restore()
    assert error is None and len(result.quotient.states) == 4
    assert fuzzts.bisim.decompose is original
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["algebra.minimize.calls"] == 1
    assert metrics["algebra.minimize.bisimilarity_per_call"] == 3
    assert metrics["bisim.refine.calls"] == metrics["core.decompose.calls"] > 0
    assert all(metrics[f"{layer}.{attr}.self_s"] >= 0 for layer, attr in tracing.WRAPPED)


def test_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "files", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_PASSES * workloads.DECK_SIZE["files"]
    assert list(result["metrics"]) == [m["name"] for m in benchmark_json()["end_to_end"]]
    assert result["metrics"]["success_rate"]["value"] == 1
