"""Shared builders and oracles for the test suite."""

from __future__ import annotations

import random

from fuzzts import (
    Degree,
    Fts,
    FuzzyAutomaton,
    FuzzySet,
    ONE,
    QuotientFts,
    Relation,
    StateMap,
    Verdict,
    Witness,
    ZERO,
)

# degree pool used by the random generators; "0" means "no edge"
DEGREE_POOL = ("0", "0.3", "0.5", "0.8", "1")
NONZERO_DEGREES = ("0.3", "0.5", "0.8", "1")


def choice_late() -> Fts:
    """Four states; the b/c choice happens after the a-step."""
    return Fts.from_triples(
        states=["s0", "s1", "s2", "s3"],
        labels=["a", "b", "c"],
        init="s0",
        triples=[
            ("s0", "a", "0.9", "s1"),
            ("s1", "b", "0.8", "s2"),
            ("s1", "c", "0.7", "s3"),
        ],
        name="choice_late",
    )


def choice_early() -> Fts:
    """Same word degrees as choice_late but the choice is made at the
    a-step; not bisimilar to choice_late."""
    return Fts.from_triples(
        states=["t0", "t1", "t1'", "t2", "t3"],
        labels=["a", "b", "c"],
        init="t0",
        triples=[
            ("t0", "a", "0.9", "t1"),
            ("t0", "a", "0.9", "t1'"),
            ("t1", "b", "0.8", "t2"),
            ("t1'", "c", "0.7", "t3"),
        ],
        name="choice_early",
    )


def dup_branch() -> Fts:
    """Five states with a duplicated middle branch; minimizes to 3 states."""
    return Fts.from_triples(
        states=["s0", "s1", "s2", "s3", "s4"],
        labels=["a", "b", "c"],
        init="s0",
        triples=[
            ("s0", "a", "0.9", "s1"),
            ("s0", "a", "0.9", "s2"),
            ("s1", "b", "0.8", "s3"),
            ("s2", "b", "0.8", "s3"),
            ("s1", "c", "0.7", "s4"),
            ("s2", "c", "0.7", "s4"),
        ],
        name="dup_branch",
    )


def twin_fork() -> Fts:
    """One a-step of degree 0.8 into two indistinguishable dead ends."""
    return Fts.from_triples(
        states=["s0", "s", "t"],
        labels=["a"],
        init="s0",
        triples=[("s0", "a", "0.8", "s"), ("s0", "a", "0.8", "t")],
        name="twin_fork",
    )


def skew_pair() -> tuple[Fts, Fts, Relation]:
    """A bisimulation that is not strong: both sides offer a-moves of degrees
    0.8 and 0.3, but the relation pairs the 0.8-target only with the
    0.3-target."""
    left = Fts.from_triples(
        states=["s0", "s1", "s2"],
        labels=["a"],
        init="s0",
        triples=[("s0", "a", "0.8", "s1"), ("s0", "a", "0.3", "s2")],
        name="skew_left",
    )
    right = Fts.from_triples(
        states=["t0", "u1", "u2"],
        labels=["a"],
        init="t0",
        triples=[("t0", "a", "0.3", "u1"), ("t0", "a", "0.8", "u2")],
        name="skew_right",
    )
    rel = Relation(
        left.states,
        right.states,
        {("s0", "t0"), ("s1", "u1"), ("s2", "u1"), ("s2", "u2")},
    )
    return left, right, rel


def random_fts(rng: random.Random, n_states: int, labels, prefix: str = "s") -> Fts:
    """Every (source, label, target) degree drawn from DEGREE_POOL; zero
    means the edge is absent."""
    states = [f"{prefix}{i}" for i in range(n_states)]
    triples = []
    for s in states:
        for a in labels:
            for t in states:
                degree = rng.choice(DEGREE_POOL)
                if degree != "0":
                    triples.append((s, a, degree, t))
    return Fts.from_triples(states, labels, states[0], triples, name=f"{prefix}rnd")


_SIZE_PAIRS = [
    (i, j) for i in range(1, 13) for j in range(1, 13) if i * j <= 12
]


def _sparse_fts(rng: random.Random, n_states: int, labels, prefix: str, degrees) -> Fts:
    """Like random_fts but with half the edges absent and a restricted
    nonzero degree pool; sparse systems relate far more often."""
    states = [f"{prefix}{i}" for i in range(n_states)]
    triples = [
        (s, a, rng.choice(degrees), t)
        for s in states
        for a in labels
        for t in states
        if rng.random() < 0.5
    ]
    return Fts.from_triples(states, labels, states[0], triples, name=f"{prefix}rnd")


def _perturbed_copy(rng: random.Random, f: Fts, degrees) -> Fts:
    """Relabelled copy of ``f`` with up to two edges rewritten, so the pair
    carries a rich but usually imperfect bisimulation structure."""
    rename = {s: "t" + s[1:] for s in f.states}
    triples = [(rename[s], a, str(d), rename[t]) for s, a, d, t in f.transitions()]
    states = sorted(rename.values())
    labels = sorted(f.labels)
    copy = Fts.from_triples(states, labels, rename[f.init], triples, name="trnd")
    for _ in range(rng.randint(0, 2)):
        s, a, t = rng.choice(states), rng.choice(labels), rng.choice(states)
        new = rng.choice(("0",) + tuple(degrees))
        triples = [
            (x, l, str(d), y)
            for x, l, d, y in copy.transitions()
            if (x, l, y) != (s, a, t)
        ]
        if new != "0":
            triples.append((s, a, new, t))
        copy = Fts.from_triples(states, labels, copy.init, triples, name="trnd")
    return copy


def random_pair(rng: random.Random) -> tuple[Fts, Fts]:
    """A pair over a shared alphabet with |S1 x S2| <= 12 and <= 2 labels.

    Each instance draws its degrees from a one- or two-element nonzero pool.
    Half the pairs are independent sparse systems; the other half pair a
    small system with a perturbed relabelling of itself, so the corpus mixes
    unrelated pairs with strongly related ones."""
    labels = ["a", "b"][: rng.randint(1, 2)]
    degrees = tuple(rng.sample(NONZERO_DEGREES, rng.randint(1, 2)))
    if rng.random() < 0.5:
        f1 = _sparse_fts(rng, rng.randint(1, 3), labels, "s", degrees)
        return f1, _perturbed_copy(rng, f1, degrees)
    n1, n2 = rng.choice(_SIZE_PAIRS)
    return (
        _sparse_fts(rng, n1, labels, "s", degrees),
        _sparse_fts(rng, n2, labels, "t", degrees),
    )


def random_relation(rng: random.Random, f1: Fts, f2: Fts, density: float = 0.4) -> Relation:
    pairs = {
        (s, t)
        for s in f1.states
        for t in f2.states
        if rng.random() < density
    }
    return Relation(f1.states, f2.states, pairs)


def random_equivalence(rng: random.Random, f: Fts) -> Relation:
    """Random partition of the states, returned as an equivalence relation."""
    states = f.sorted_states()
    rng.shuffle(states)
    blocks: list[list[str]] = []
    for s in states:
        if blocks and rng.random() < 0.5:
            rng.choice(blocks).append(s)
        else:
            blocks.append([s])
    pairs = {(a, b) for block in blocks for a in block for b in block}
    return Relation(f.states, f.states, pairs)


def random_map(rng: random.Random, f1: Fts, f2: Fts):
    targets = f2.sorted_states()
    return StateMap(
        {s: rng.choice(targets) for s in f1.states}, f1.states, f2.states
    )


def inflated_hom_case(rng: random.Random) -> tuple[Fts, Fts, StateMap]:
    """A random base system g, a system made of 1-3 copies of each of its
    states, and the map from copies back to g.

    A copy of s gets, for each edge s -a-> t of degree d, one edge of degree
    d to a random copy of t and, now and then, weaker edges to other copies,
    so the unperturbed map is a homomorphism.  Three times in four the copy
    system then gets 1-2 perturbations (an edge's degree redrawn, an edge
    dropped, or an extra edge added), so most maps fail to be one."""
    labels = ["a", "b"][: rng.randint(1, 2)]
    g = random_fts(rng, rng.randint(1, 4), labels, prefix="g")
    k = rng.randint(1, 3)
    copies = {s: [f"{s}_{c}" for c in range(k)] for s in g.sorted_states()}
    edges: dict[tuple[str, str, str], str] = {}
    for s, a, d, t in g.transitions():
        for source in copies[s]:
            hit = rng.choice(copies[t])
            edges[(source, a, hit)] = str(d)
            for target in copies[t]:
                if target != hit and rng.random() < 0.3:
                    weaker = [x for x in NONZERO_DEGREES if Degree.parse(x) <= d]
                    edges[(source, a, target)] = rng.choice(weaker)
    states = [c for cs in copies.values() for c in cs]
    if rng.random() < 0.75:
        for _ in range(rng.randint(1, 2)):
            move = rng.choice(("degree", "drop", "extra"))
            if move != "extra" and edges:
                key = rng.choice(sorted(edges))
                if move == "drop":
                    del edges[key]
                else:
                    edges[key] = rng.choice(NONZERO_DEGREES)
            else:
                key = (rng.choice(states), rng.choice(labels), rng.choice(states))
                edges[key] = rng.choice(NONZERO_DEGREES)
    big = Fts.from_triples(
        states, labels, copies[g.init][0],
        [(s, a, d, t) for (s, a, t), d in edges.items()], name="big",
    )
    fmap = StateMap(
        {c: s for s, cs in copies.items() for c in cs}, big.states, g.states
    )
    return big, g, fmap


def check_homomorphism_oracle(f1: Fts, f2: Fts, fmap: StateMap) -> Verdict:
    """Definitional homomorphism check: for every (state, label, target)
    triple, in sorted order, the max of delta1 over the target's preimage
    must equal delta2 at the target.  O(|S1|*|A|*|S2|) point lookups."""
    mapped_init = fmap(f1.init)
    if mapped_init != f2.init:
        return Verdict(
            False, Witness(f1.init, mapped_init, None, "init-map", f2.init)
        )
    preimages: dict[str, list[str]] = {}
    for s, t in fmap.items():
        preimages.setdefault(t, []).append(s)
    for s in f1.sorted_states():
        fs = fmap(s)
        for a in f1.sorted_labels():
            mu = f1.delta(s, a)
            eta = f2.delta(fs, a)
            for t in f2.sorted_states():
                required = max(
                    (mu(t1) for t1 in preimages.get(t, ())), default=ZERO
                )
                actual = eta(t)
                if required != actual:
                    return Verdict(
                        False, Witness(s, fs, a, "hom-sup", t, required, actual)
                    )
    return Verdict(True)


def quotient_oracle(f: Fts, r: Relation) -> QuotientFts:
    """Definitional quotient: each class-to-class degree is the supremum of
    ``sup`` over every member of the source class, computed for every
    (block, label, target block) triple."""
    blocks = r.equivalence_classes()
    name_of = {block: f"[{min(block)}]" for block in blocks}
    classes = {name_of[block]: block for block in blocks}
    class_of = {s: name_of[block] for block in blocks for s in block}
    qstates = frozenset(classes)
    delta: dict[tuple[str, str], FuzzySet] = {}
    for block in blocks:
        for a in f.sorted_labels():
            entries: dict[str, Degree] = {}
            for target_block in blocks:
                best = ZERO
                for s in block:
                    value = f.delta(s, a).sup(target_block)
                    if value > best:
                        best = value
                if best:
                    entries[name_of[target_block]] = best
            if entries:
                delta[(name_of[block], a)] = FuzzySet(qstates, entries)
    qf = Fts(qstates, f.labels, class_of[f.init], delta, name=f.name)
    return QuotientFts(qf, StateMap(class_of, f.states, qstates), classes)


def is_equivalence_oracle(r: Relation) -> bool:
    """Definitional check: reflexive, symmetric, and transitive by a loop
    over every pair of pairs."""
    if r.left_universe != r.right_universe:
        return False
    return (
        all((s, s) in r for s in r.left_universe)
        and all((t, s) in r for s, t in r.pairs)
        and all((s, u) in r for s, t in r.pairs for t2, u in r.pairs if t == t2)
    )


def equivalence_classes_oracle(r: Relation) -> list[frozenset[str]]:
    """The distinct right-sets of an equivalence, sorted by least member."""
    blocks = {frozenset(t for s2, t in r.pairs if s2 == s) for s in r.left_universe}
    return sorted(blocks, key=min)


def random_automaton(rng: random.Random, n_states: int, labels, prefix: str = "s") -> FuzzyAutomaton:
    base = random_fts(rng, n_states, labels, prefix)
    final = {
        s: Degree.parse(rng.choice(DEGREE_POOL)) for s in base.sorted_states()
    }
    return FuzzyAutomaton(base, FuzzySet(base.states, final))


def path_degree(f: Fts, state: str, word) -> Degree:
    """Independent word-degree oracle: enumerate every state path of the
    word's length and take the best min of its edge degrees."""
    best = ZERO

    def walk(current: str, index: int, acc: Degree) -> None:
        nonlocal best
        if index == len(word):
            if acc > best:
                best = acc
            return
        for target in f.sorted_states():
            edge = f.degree(current, word[index], target)
            if edge:
                walk(target, index + 1, min(acc, edge))

    walk(state, 0, ONE)
    return best


def all_words(labels, max_len: int):
    """Every word over ``labels`` up to the given length, shortest first."""
    frontier = [()]
    for word in frontier:
        yield word
        if len(word) < max_len:
            frontier.extend(word + (a,) for a in sorted(labels))


def correlational_by_blocks(dec, left: frozenset, right: frozenset) -> bool:
    """Predicted correlational test from a block decomposition: inside the
    projections the two sets must be matching unions of whole blocks; outside
    states are unconstrained."""
    for block_left, block_right in dec.blocks:
        hit_left = left & block_left
        hit_right = right & block_right
        if hit_left not in (frozenset(), block_left):
            return False
        if hit_right not in (frozenset(), block_right):
            return False
        if bool(hit_left) != bool(hit_right):
            return False
    return True


def subsets(items):
    items = sorted(items)
    for mask in range(1 << len(items)):
        yield frozenset(x for i, x in enumerate(items) if mask >> i & 1)
