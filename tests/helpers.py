"""Shared builders and oracles for the test suite."""

from __future__ import annotations

import random
import re

from fuzzts import (
    AlphabetError,
    Degree,
    DegreeError,
    Fts,
    FuzzyAutomaton,
    FuzzySet,
    ModelError,
    ONE,
    ParseError,
    QuotientFts,
    Relation,
    SCALE,
    StateMap,
    UniverseError,
    Verdict,
    Witness,
    ZERO,
    decompose,
    parallel_compose,
)
from fuzzts.core import check_ident

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


def chain(n: int, last: str = "1", prefix: str = "c") -> Fts:
    """n states on one a-path of degree-1 edges; the last edge has degree
    ``last``."""
    states = [f"{prefix}{i}" for i in range(n)]
    triples = [(states[i], "a", "1", states[i + 1]) for i in range(n - 2)]
    triples.append((states[n - 2], "a", last, states[n - 1]))
    return Fts.from_triples(states, ["a"], states[0], triples)


def marked_cycle_product(rng: random.Random, p: int, q: int) -> tuple[Fts, Fts]:
    """The product of a p-cycle whose first edge carries its own degree with
    an unmarked q-cycle whose degrees are at least both of the p-cycle's,
    and the p-cycle itself: product state (c_i,k_j) behaves like c_i."""
    base, mark = rng.sample(("0.3", "0.5", "0.8"), 2)
    cp = Fts.from_triples(
        [f"c{i}" for i in range(p)], ["a"], "c0",
        [(f"c{i}", "a", mark if i == 0 else base, f"c{(i + 1) % p}") for i in range(p)],
        name="cp",
    )
    cq = Fts.from_triples(
        [f"k{j}" for j in range(q)], ["a"], "k0",
        [(f"k{j}", "a", rng.choice(("0.8", "1")), f"k{(j + 1) % q}") for j in range(q)],
        name="cq",
    )
    return parallel_compose(cp, cq), cp


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
    states, and the map from copies back to g (see :func:`inflate`)."""
    labels = ["a", "b"][: rng.randint(1, 2)]
    g = random_fts(rng, rng.randint(1, 4), labels, prefix="g")
    big, fmap = inflate(rng, g, rng.randint(1, 3))
    return big, g, fmap


def inflate(rng: random.Random, g: Fts, k: int, perturbed: bool = True) -> tuple[Fts, StateMap]:
    """A system made of k copies of each state of g, and the map from copies
    back to g.

    A copy of s gets, for each edge s -a-> t of degree d, one edge of degree
    d to a random copy of t and, now and then, weaker edges to other copies,
    so the unperturbed map is a homomorphism.  If ``perturbed``, three times
    in four the copy system then gets 1-2 perturbations (an edge's degree
    redrawn, an edge dropped, or an extra edge added), so most maps fail to
    be one."""
    labels = g.sorted_labels()
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
    if perturbed and rng.random() < 0.75:
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
    return big, fmap


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


def check_bisimulation_oracle(f1: Fts, f2: Fts, r: Relation) -> Verdict:
    """The correlational reduction with a dense profile: for every
    (state, label), a vector of the suprema of all blocks, zeros included,
    and the witness names the first index where two vectors differ.  Costs
    blocks times (state, label) pairs; assumes matching alphabets and
    universes."""
    blocks = decompose(r)

    def side_profile(f: Fts, part: int):
        block_of = {s: i for i, block in enumerate(blocks) for s in block[part]}
        cache: dict[tuple[str, str], tuple[list, tuple]] = {}

        def profile(state: str, label: str):
            key = (state, label)
            if key not in cache:
                sups = [ZERO] * len(blocks)
                outside = []
                for target, degree in f.delta(state, label).items():
                    index = block_of.get(target)
                    if index is None:
                        outside.append((target, degree))
                    elif degree > sups[index]:
                        sups[index] = degree
                cache[key] = (outside, tuple(sups))
            return cache[key]

        return profile

    left_prof, right_prof = side_profile(f1, 0), side_profile(f2, 1)
    for s, t in r.sorted_pairs():
        for a in f1.sorted_labels():
            outside_l, sups_l = left_prof(s, a)
            outside_r, sups_r = right_prof(t, a)
            if outside_l:
                state, degree = outside_l[0]
                return Verdict(False, Witness(s, t, a, "left-support", state, degree, ZERO))
            if outside_r:
                state, degree = outside_r[0]
                return Verdict(False, Witness(s, t, a, "right-support", state, ZERO, degree))
            if sups_l != sups_r:
                index = next(i for i in range(len(sups_l)) if sups_l[i] != sups_r[i])
                left, right = blocks[index]
                subject = f"{{{','.join(sorted(left))}}}~{{{','.join(sorted(right))}}}"
                return Verdict(
                    False,
                    Witness(s, t, a, "block-sup", subject, sups_l[index], sups_r[index]),
                )
    return Verdict(True)


def check_strong_bisimulation_oracle(f1: Fts, f2: Fts, r: Relation) -> Verdict:
    """The per-transition matching check with one loop per direction and its
    own partner lists: for each related pair and label, every left move,
    then every right move, must be answered by a partner of its target with
    at least its degree.  Assumes matching alphabets and universes."""
    partners_right: dict[str, list[str]] = {}
    partners_left: dict[str, list[str]] = {}
    for s, t in r.pairs:
        partners_right.setdefault(s, []).append(t)
        partners_left.setdefault(t, []).append(s)
    labels = f1.sorted_labels()
    for s, t in r.sorted_pairs():
        for a in labels:
            mu = f1.delta(s, a)
            eta = f2.delta(t, a)
            for target, moved in mu.items():
                best = max(
                    (eta(partner) for partner in partners_right.get(target, ())),
                    default=ZERO,
                )
                if best < moved:
                    return Verdict(
                        False, Witness(s, t, a, "left-move", target, moved, best)
                    )
            for target, moved in eta.items():
                best = max(
                    (mu(partner) for partner in partners_left.get(target, ())),
                    default=ZERO,
                )
                if best < moved:
                    return Verdict(
                        False, Witness(s, t, a, "right-move", target, best, moved)
                    )
    return Verdict(True)


def components_oracle(r: Relation) -> tuple[tuple[frozenset[str], frozenset[str]], ...]:
    """The bipartite components of a relation by merging: one block per
    pair, then blocks that share a state joined until none do; ordered by
    least left state."""
    blocks = [({s}, {t}) for s, t in r.pairs]
    found = []
    while blocks:
        u, v = blocks.pop()
        while True:
            rest = []
            for left, right in blocks:
                if left & u or right & v:
                    u |= left
                    v |= right
                else:
                    rest.append((left, right))
            if len(rest) == len(blocks):
                break
            blocks = rest
        found.append((frozenset(u), frozenset(v)))
    return tuple(sorted(found, key=lambda block: min(block[0])))


def threshold_cut_rounds(systems) -> list[list[dict[str, int]]]:
    """Crisp partition refinement on the threshold cut of the disjoint
    union of ``systems``, one ``{state: class}`` dict per system per round.

    The cut has an edge x -(a, lam)-> y whenever delta(x, a)(y) >= lam, for
    each degree lam that occurs in the systems.  Round 0 is one class; in
    round k a state's signature is its own class in round k - 1 plus the set
    of (a, lam, round-(k-1) class of y) over its cut edges.  The list ends
    with the first round that splits no class."""
    lams = sorted({d for f in systems for _, _, d, _ in f.transitions()})
    cut: dict[tuple[int, str], set] = {
        (i, s): set() for i, f in enumerate(systems) for s in f.states
    }
    for i, f in enumerate(systems):
        for s, a, d, t in f.transitions():
            cut[(i, s)] |= {(a, lam, (i, t)) for lam in lams if d >= lam}
    class_of = dict.fromkeys(cut, 0)
    rounds = [class_of]
    while True:
        numbers: dict[tuple, int] = {}
        refined = {
            x: numbers.setdefault(
                (class_of[x], frozenset((a, lam, class_of[y]) for a, lam, y in edges)),
                len(numbers),
            )
            for x, edges in cut.items()
        }
        rounds.append(refined)
        if len(numbers) == len(set(class_of.values())):
            break
        class_of = refined
    return [
        [{s: rnd[(i, s)] for s in f.states} for i, f in enumerate(systems)]
        for rnd in rounds
    ]


def z_closure_oracle(r: Relation) -> Relation:
    """Square completion iterated to a fixpoint: (s,t), (s',t), (s',t')
    present forces (s,t')."""
    pairs = set(r.pairs)
    while True:
        rights_of: dict[str, set[str]] = {}
        lefts_of: dict[str, set[str]] = {}
        for s, t in pairs:
            rights_of.setdefault(s, set()).add(t)
            lefts_of.setdefault(t, set()).add(s)
        new = {
            (s, t2)
            for s, t in pairs
            for s2 in lefts_of[t]
            for t2 in rights_of[s2]
        }
        if new <= pairs:
            return r.replace_pairs(pairs)
        pairs |= new


def kernel_oracle(fmap: StateMap) -> Relation:
    """Definitional kernel: every pair of domain states with equal images."""
    pairs = {
        (s, t)
        for s, fs in fmap.items()
        for t, ft in fmap.items()
        if fs == ft
    }
    return Relation(fmap.domain, fmap.domain, pairs)


def pull_relation_oracle(fmap: StateMap, r: Relation) -> Relation:
    """Definitional preimage: every pair of domain states whose images are
    related by ``r``."""
    pairs = {
        (s, t)
        for s in fmap.domain
        for t in fmap.domain
        if (fmap(s), fmap(t)) in r
    }
    return Relation(fmap.domain, fmap.domain, pairs)


def quotient_oracle(f: Fts, r: Relation) -> QuotientFts:
    """Definitional quotient: each class-to-class degree is the supremum of
    ``sup`` over every member of the source class, computed for every
    (block, label, target block) triple."""
    blocks = r.equivalence_classes()
    name_of = {block: f"[{min(block)}]" for block in blocks}
    class_of = {s: name_of[block] for block in blocks for s in block}
    qstates = frozenset(name_of.values())
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
    return QuotientFts(qf, StateMap(class_of, f.states, qstates))


def is_subsystem_oracle(f1: Fts, f2: Fts) -> bool:
    """Definitional subsystem check: f1's states lie in f2's, and every
    image of f1 equals f2's image of the same state and label."""
    if f1.labels != f2.labels:
        raise AlphabetError("label alphabets differ")
    if not f1.states <= f2.states:
        return False
    for s in f1.sorted_states():
        for a in f1.sorted_labels():
            if dict(f1.delta(s, a).items()) != dict(f2.delta(s, a).items()):
                return False
    return True


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


def step_oracle(f: Fts, mu: FuzzySet, label: str) -> FuzzySet:
    """Advance a distribution by one label: best-over-sources min of the
    source weight and the edge degree.  Works on ``FuzzySet`` and ``Degree``
    values throughout, building a new fuzzy set per step."""
    if mu.universe != f.states:
        raise UniverseError("distribution ranges over the wrong universe")
    best: dict[str, Degree] = {}
    for source, weight in mu.items():
        for target, edge in f.delta(source, label).items():
            reached = min(weight, edge)
            if target not in best or reached > best[target]:
                best[target] = reached
    return FuzzySet(f.states, best)


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


def correlational_by_blocks(blocks, left: frozenset, right: frozenset) -> bool:
    """Predicted correlational test from a block decomposition: inside the
    projections the two sets must be matching unions of whole blocks; outside
    states are unconstrained."""
    for block_left, block_right in blocks:
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


# ------------------------------------------------- model-file parsing oracles
# The regex parser of degree literals without a cache, and the model-file
# parser that splits lines with ``str.splitlines``, dispatches directives in
# file order and checks every literal through that parser.  Line endings
# other than "\n", "\r\n" and "\r" are where the library deliberately
# differs: it does not end a line at a form feed, NEL or U+2028.

_DECIMAL_ORACLE_RE = re.compile(r"([0-9]+)(?:\.([0-9]+))?")


def degree_parse_oracle(text: str) -> Degree:
    m = _DECIMAL_ORACLE_RE.fullmatch(text.strip())
    if m is None:
        raise DegreeError(f"not a decimal degree literal: {text!r}")
    whole, frac = m.group(1).lstrip("0"), m.group(2) or ""
    if len(frac) > 9:
        raise DegreeError(
            f"degree precision: {text!r} has more than 9 fractional digits"
        )
    if len(whole) > 1:
        raise DegreeError(f"degree out of range: {text!r}")
    numerator = int(whole or "0") * SCALE + int(frac.ljust(9, "0"))
    if numerator > SCALE:
        raise DegreeError(f"degree out of range: {text!r}")
    return Degree(numerator)


def parse_model_oracle(text: str) -> Fts | FuzzyAutomaton:
    def ident(lineno, kind, token):
        try:
            return check_ident(kind, token)
        except ModelError as err:
            raise ParseError(lineno, str(err)) from None

    def degree(lineno, token):
        try:
            return degree_parse_oracle(token)
        except DegreeError as err:
            raise ParseError(lineno, str(err)) from None

    name = states = labels = init = None
    images: dict[tuple[str, str], dict[str, Degree]] = {}
    finals: dict[str, Degree] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "system":
                raise ParseError(lineno, "expected 'system NAME' header")
            name = ident(lineno, "system name", parts[1])
            continue
        directive, sep, rest = line.partition(":")
        directive = directive.strip()
        if not sep or " " in directive:
            raise ParseError(lineno, "expected 'DIRECTIVE: ...'")
        tokens = rest.split()
        if directive == "states":
            if states is not None:
                raise ParseError(lineno, "duplicate 'states:' line")
            if not tokens:
                raise ParseError(lineno, "no states")
            if len(set(tokens)) != len(tokens):
                raise ParseError(lineno, "duplicate state in 'states:' line")
            states = frozenset(ident(lineno, "state", t) for t in tokens)
        elif directive == "labels":
            if labels is not None:
                raise ParseError(lineno, "duplicate 'labels:' line")
            if len(set(tokens)) != len(tokens):
                raise ParseError(lineno, "duplicate label in 'labels:' line")
            labels = frozenset(ident(lineno, "label", t) for t in tokens)
        elif directive == "init":
            if init is not None:
                raise ParseError(lineno, "duplicate 'init:' line")
            if states is None:
                raise ParseError(lineno, "'states:' must come before 'init:'")
            if len(tokens) != 1:
                raise ParseError(lineno, "expected 'init: STATE'")
            if tokens[0] not in states:
                raise ParseError(lineno, f"unknown state {tokens[0]!r}")
            init = tokens[0]
        elif directive == "trans":
            if states is None or labels is None:
                raise ParseError(
                    lineno, "'states:' and 'labels:' must come before 'trans:'"
                )
            if len(tokens) != 4:
                raise ParseError(lineno, "expected 'trans: SRC LABEL DEGREE DST'")
            src, label, degree_text, dst = tokens
            if src not in states:
                raise ParseError(lineno, f"unknown state {src!r}")
            if label not in labels:
                raise ParseError(lineno, f"unknown label {label!r}")
            if dst not in states:
                raise ParseError(lineno, f"unknown state {dst!r}")
            entries = images.setdefault((src, label), {})
            if dst in entries:
                raise ParseError(lineno, f"duplicate transition {src} {label} {dst}")
            entries[dst] = degree(lineno, degree_text)
        elif directive == "final":
            if states is None:
                raise ParseError(lineno, "'states:' must come before 'final:'")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected 'final: STATE DEGREE'")
            state, degree_text = tokens
            if state not in states:
                raise ParseError(lineno, f"unknown state {state!r}")
            if state in finals:
                raise ParseError(lineno, f"duplicate final degree for {state!r}")
            finals[state] = degree(lineno, degree_text)
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    end = max(1, len(text.splitlines()))
    if name is None:
        raise ParseError(end, "missing 'system NAME' header")
    if states is None:
        raise ParseError(end, "missing 'states:' line")
    if labels is None:
        raise ParseError(end, "missing 'labels:' line")
    if init is None:
        raise ParseError(end, "missing 'init:' line")
    base = Fts(states, labels, init, images, name=name)
    if finals:
        return FuzzyAutomaton(base, FuzzySet(states, finals))
    return base
