"""The three workloads, each a fixed deck of closed-loop queries sent over
and over.

A workload factory does its set-up eagerly: it generates the deck from the
seed, with every answer known from how the input was built, and builds the
library objects of the first pass (``refine``, ``words``) or writes the
files (``files``).  It returns an endless iterator of `Query` objects that
runs through the deck again and again, in the same order, building fresh
library objects for every pass between timed queries.  Each `Query` holds a
``call`` the runner times and a ``check`` it applies to the result outside
the timed region.

Input sharing: ``refine`` and ``files`` build every library object for one
query only, so a cache kept on an ``Fts`` or ``Relation`` cannot carry over
between timed queries; ``words`` reuses each system across its batch on
purpose.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import gen


@dataclass(frozen=True)
class Query:
    kind: str
    n_states: int
    n_edges: int
    call: Callable[[], object]
    check: Callable[[object], bool]
    inputs: tuple[gen.Spec, ...] = ()  # the generated systems, for refine and words


Maker = Callable[[], list[Query]]  # builds the objects of one or more queries


def build(fz, spec: gen.Spec):
    return fz.Fts.from_triples(spec.states, spec.labels, spec.init, spec.triples(), name=spec.name)


def cycle(first: list[Query], deck: list[Maker]) -> Iterator[Query]:
    yield from first
    while True:
        for make in deck:
            yield from make()


# ------------------------------------------------------------------ refine

CHAIN_SIZES = range(16, 49)
MINIMIZE_SIZES = range(16, 49, 4)
PRODUCT_SIZES = tuple((p, q) for p in range(5, 10) for q in range(5, 10))


def _are_bisimilar(fz, left, right, answer) -> list[Query]:
    f1, f2 = build(fz, left), build(fz, right)
    kind = "are_bisimilar." + ("same" if answer else "last-edge")
    return [Query(kind, 2 * len(left.states), 2 * left.n_edges,
                  lambda: fz.are_bisimilar(f1, f2), lambda result: result is answer, (left, right))]


def _minimize_chain(fz, spec, n) -> list[Query]:
    f = build(fz, spec)
    return [Query("minimize.chain", n, spec.n_edges, lambda: fz.minimize(f),
                  lambda result: len(result.quotient.states) == n, (spec,))]


def _minimize_product(fz, cp, cq, p, q) -> list[Query]:
    f1, f2 = build(fz, cp), build(fz, cq)

    def check(result):
        return sorted(len(block) for block in result.classes.values()) == [q] * p

    return [Query("minimize.cycle-product", p * q, p * q,
                  lambda: fz.minimize(fz.parallel_compose(f1, f2)), check, (cp, cq))]


def refine(fz, seed: int, workdir: Path) -> Iterator[Query]:
    """Bisimilar and non-bisimilar chain pairs, chain minimization and
    marked-cycle-product minimization, each over a fixed list of sizes."""
    rng = random.Random(seed)
    deck: list[Maker] = []
    for n in CHAIN_SIZES:
        for answer in (True, False):
            deck.append(partial(_are_bisimilar, fz, *gen.chain_pair(rng, n, answer), answer))
    for n in MINIMIZE_SIZES:
        deck.append(partial(_minimize_chain, fz, gen.chain(rng, n, "s"), n))
    for p, q in PRODUCT_SIZES:
        deck.append(partial(_minimize_product, fz, *gen.marked_cycles(rng, p, q), p, q))
    rng.shuffle(deck)
    return cycle([q for make in deck for q in make()], deck)


# ------------------------------------------------------------------- files

# (base states, copies): the inflated systems have 48 to 200 states
FILE_SIZES = ((16, 3), (20, 4), (24, 3), (24, 5), (28, 4), (30, 4), (32, 3), (36, 4), (40, 3), (40, 5)) * 2
FILE_COMMANDS = 11


@dataclass(frozen=True)
class FileCase:
    argv: list[str]
    code: int  # expected exit code
    stdout: str  # expected text, or a prefix when ``prefix`` is set
    output: Path | None = None
    expected_output: str | None = None
    prefix: bool = False


def write_files(rng: random.Random, workdir: Path, index: int, n: int, k: int) -> tuple[list[FileCase], int, int]:
    """Write one inflated instance and return its commands with their
    expected exit codes, standard output and output files."""
    base = gen.sparse(rng, n, ("a", "b"), f"g{index}s")
    inf = gen.inflate(rng, base, k, extra=0.3, name=f"big{index}")
    other = gen.sparse(rng, 4, ("b", "c"), f"h{index}s", fanout=1)
    small = gen.inflate(rng, gen.sparse(rng, n // 2, ("a", "b"), f"m{index}s"), 2, 0.3, f"small{index}").big

    def put(name: str, text: str) -> str:
        path = workdir / f"{index}-{name}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    g = put("base.fts", gen.model_text(base))
    big = put("big.fts", gen.model_text(inf.big))
    bad = put("bad.fts", gen.model_text(inf.perturbed))
    left = put("small.fts", gen.model_text(small))
    right = put("other.fts", gen.model_text(other))
    graph = put("graph.rel", gen.relation_text(inf.hom.items()))
    kernel = put("kernel.rel", gen.relation_text(gen.kernel_pairs(inf.hom)))
    hom = put("hom.map", gen.map_text(inf.hom))
    out_compose, out_image, out_quotient = (
        workdir / f"{index}-out-{name}.fts" for name in ("compose", "image", "quotient")
    )
    big_states = len(inf.big.states)

    def wrote(path: Path, spec: gen.Spec) -> dict:
        return dict(stdout=f"wrote {path} ({len(spec.states)} states)\n", output=path,
                    expected_output=gen.model_text(spec))

    cases = [
        FileCase(["validate", big], 0,
                 f"ok: system {inf.big.name} ({big_states} states, 2 labels, {inf.big.n_edges} transitions)\n"),
        FileCase(["compose", left, right, "-o", str(out_compose)], 0,
                 **wrote(out_compose, gen.product_spec(small, other))),
        FileCase(["check-bisim", big, g, "--relation", graph], 0, "holds\n"),
        FileCase(["check-bisim", bad, g, "--relation", graph], 1, "does not hold\n", prefix=True),
        FileCase(["check-bisim", big, g, "--relation", graph, "--strong"], 0, "holds\n"),
        FileCase(["check-bisim", bad, g, "--relation", graph, "--strong"], 1, "does not hold\n", prefix=True),
        FileCase(["hom-check", big, g, "--map", hom], 0, "homomorphism\n"),
        FileCase(["hom-check", bad, g, "--map", hom], 1, "not a homomorphism\n", prefix=True),
        FileCase(["hom-image", big, g, "--map", hom, "-o", str(out_image)], 0, **wrote(out_image, base)),
        FileCase(["hom-image", bad, g, "--map", hom, "-o", str(out_image)], 1,
                 "not a homomorphism\n", prefix=True),
        FileCase(["quotient", big, "--relation", kernel, "-o", str(out_quotient)], 0,
                 **wrote(out_quotient, gen.quotient_spec(inf))),
    ]
    assert len(cases) == FILE_COMMANDS
    return cases, big_states, inf.big.n_edges


def _cli_query(fz, case: FileCase, n_states: int, n_edges: int) -> list[Query]:
    """Runs ``fuzzts.cli.run`` in-process with its output captured."""
    if case.output is not None:
        case.output.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()

    def call():
        with redirect_stdout(out), redirect_stderr(err):
            return fz.cli.run(case.argv)

    def check(code):
        text = out.getvalue()
        if code != case.code or err.getvalue():
            return False
        if not (text.startswith(case.stdout) if case.prefix else text == case.stdout):
            return False
        if case.expected_output is not None:
            return case.output.read_text(encoding="utf-8") == case.expected_output
        return True

    return [Query(case.argv[0], n_states, n_edges, call, check)]


def files(fz, seed: int, workdir: Path) -> Iterator[Query]:
    """CLI commands over inflated systems and their perturbed copies."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    deck: list[Maker] = []
    for index, (n, k) in enumerate(FILE_SIZES):
        cases, n_states, n_edges = write_files(rng, workdir, index, n, k)
        deck += [partial(_cli_query, fz, case, n_states, n_edges) for case in cases]
    rng.shuffle(deck)
    return cycle([], deck)


# ------------------------------------------------------------------- words

WORD_SIZES = tuple(range(10, 25)) * 2  # states per system; one batch each
MAX_LEN = 8  # word length bound; also the length where the changed copy differs
ACCEPT_WORDS = 2
BATCH = 5 + ACCEPT_WORDS


@dataclass(frozen=True)
class WordBatch:
    sp: gen.Spined
    inflated: gen.Spec
    final: dict[str, int]
    accept: tuple[tuple[tuple[str, ...], int], ...]  # (word, expected degree)
    table: dict[tuple[str, ...], int]  # expected lang_table of the system


def word_batch(rng: random.Random, n: int) -> WordBatch:
    sp = gen.spined(rng, n, MAX_LEN)
    inflated = gen.inflate(rng, sp.system, 2, extra=0.5, name="inflated").big
    final = {s: rng.randint(0, gen.FULL) for s in sp.system.states}
    words = [tuple(rng.choice(sp.system.labels) for _ in range(MAX_LEN)) for _ in range(ACCEPT_WORDS)]
    accept = tuple((w, gen.ref_accept(sp.system, final, w)) for w in words)
    table = gen.ref_table(sp.system, sp.system.init, MAX_LEN)
    return WordBatch(sp, inflated, final, accept, table)


def _word_queries(fz, batch: WordBatch) -> list[Query]:
    """One system's batch: its table and its inflated copy's, language
    equality with both copies, and acceptance degrees.  All queries share
    the same library objects."""
    sp = batch.sp
    g, big, changed = build(fz, sp.system), build(fz, batch.inflated), build(fz, sp.changed)
    automaton = fz.FuzzyAutomaton(
        g, fz.FuzzySet(g.states, {s: gen.degree_text(d) for s, d in batch.final.items()})
    )
    table = {w: d * 10**6 for w, d in batch.table.items()}

    def query(kind, spec, call, check):
        return Query(kind, len(spec.states), spec.n_edges, call, check,
                     (sp.system, batch.inflated, sp.changed))

    def same_table(result):
        return list(result) == list(table) and {w: d.numerator for w, d in result.items()} == table

    qs = [
        query("lang_table", sp.system, lambda: fz.lang_table(g, g.init, MAX_LEN), same_table),
        query("lang_table.inflated", batch.inflated,
              lambda: fz.lang_table(big, big.init, MAX_LEN), same_table),
        query("lang_equal.inflated", batch.inflated,
              lambda: fz.lang_equal_up_to(g, g.init, big, big.init, MAX_LEN), lambda r: r is True),
        query("lang_equal.changed", sp.changed,
              lambda: fz.lang_equal_up_to(g, g.init, changed, changed.init, sp.first_diff),
              lambda r: r is False),
        query("lang_equal.changed-short", sp.changed,
              lambda: fz.lang_equal_up_to(g, g.init, changed, changed.init, sp.first_diff - 1),
              lambda r: r is True),
    ]
    for word, expected in batch.accept:
        qs.append(query("accept_degree", sp.system, lambda w=word: fz.accept_degree(automaton, w),
                        lambda r, e=expected * 10**6: r.numerator == e))
    assert len(qs) == BATCH
    return qs


def words(fz, seed: int, workdir: Path) -> Iterator[Query]:
    """Language tables, acceptance and bounded language equality on spined
    systems, one batch of queries per system."""
    rng = random.Random(seed)
    deck: list[Maker] = [partial(_word_queries, fz, word_batch(rng, n)) for n in WORD_SIZES]
    return cycle([q for make in deck for q in make()], deck)


WORKLOADS = {"refine": refine, "files": files, "words": words}

# queries in one pass over each workload's deck
DECK_SIZE = {
    "refine": 2 * len(CHAIN_SIZES) + len(MINIMIZE_SIZES) + len(PRODUCT_SIZES),
    "files": FILE_COMMANDS * len(FILE_SIZES),
    "words": BATCH * len(WORD_SIZES),
}
