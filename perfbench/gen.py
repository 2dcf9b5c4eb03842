"""Seeded input families whose answers follow from how they are built.

A system is a plain `Spec` (names, labels and integer edge degrees in
thousandths), so the benchmark can write it as text, build it with the
library, or evaluate it with its own reference code, and two runs with the
same seed produce byte-identical inputs.

Families:

* chains: a path of n states; every state can take a different number of
  further steps, so no two states are bisimilar and minimizing keeps n
  states.  A renamed copy is bisimilar; a copy whose last edge has another
  degree is not, and refinement needs about n rounds to find that out.
* marked-cycle products: C_p with one edge of a different degree, composed
  with an unmarked C_q.  Product state (i, j) behaves like i alone, so
  minimizing leaves p classes of q states each.
* inflated systems: every state of a base system g copied k times; each
  copy keeps one edge of the base degree to some copy of the target and
  gets weaker edges to others.  The map back to g is then a homomorphism,
  its graph a (strong) bisimulation, and the quotient by its kernel is g
  renamed.  Lowering one of the exact edges breaks all three.
* spined systems: sparse random systems containing one path of degree-1
  edges (the spine) that is also a shortest path; every other edge has
  degree at most 0.9.  Setting an edge leaving the spine's end to degree 1
  changes the language first at length m, the spine's state count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FULL = 1000  # degree 1 in thousandths


@dataclass(frozen=True)
class Spec:
    name: str
    states: tuple[str, ...]
    labels: tuple[str, ...]
    init: str
    edges: tuple[tuple[str, str, int, str], ...]  # (src, label, milli, dst)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def renamed(self, rename, name: str | None = None) -> "Spec":
        return Spec(
            name or self.name,
            tuple(rename(s) for s in self.states),
            self.labels,
            rename(self.init),
            tuple((rename(s), a, d, rename(t)) for s, a, d, t in self.edges),
        )

    def with_edge(self, src: str, label: str, milli: int, dst: str) -> "Spec":
        """Copy with the (src, label, dst) edge set to ``milli``."""
        edges = [e for e in self.edges if (e[0], e[1], e[3]) != (src, label, dst)]
        edges.append((src, label, milli, dst))
        return Spec(self.name, self.states, self.labels, self.init, tuple(edges))

    def triples(self) -> list[tuple[str, str, str, str]]:
        """Edges in the library's (source, label, degree literal, target) form."""
        return [(s, a, degree_text(d), t) for s, a, d, t in self.edges]


def degree_text(milli: int) -> str:
    """Minimal decimal spelling, as the library serializes degrees."""
    if milli == FULL:
        return "1"
    if milli == 0:
        return "0"
    return "0." + f"{milli:03d}".rstrip("0")


def model_text(spec: Spec) -> str:
    """Canonical model file: sorted states, labels and transitions."""
    lines = [
        f"system {spec.name}",
        f"states: {' '.join(sorted(spec.states))}",
        f"labels: {' '.join(sorted(spec.labels))}".rstrip(),
        f"init: {spec.init}",
    ]
    for s, a, d, t in sorted(spec.edges, key=lambda e: (e[0], e[1], e[3])):
        lines.append(f"trans: {s} {a} {degree_text(d)} {t}")
    return "\n".join(lines) + "\n"


def relation_text(pairs) -> str:
    return "".join(f"rel: {a} {b}\n" for a, b in sorted(pairs))


def map_text(mapping: dict[str, str]) -> str:
    return "".join(f"map: {a} -> {b}\n" for a, b in sorted(mapping.items()))


# ---------------------------------------------------------------- chains


def chain(rng: random.Random, n: int, prefix: str) -> Spec:
    """A path of n states whose edges all carry one label and one degree, the
    worst case for the number of refinement rounds."""
    states = tuple(f"{prefix}{i}" for i in range(n))
    degree = rng.randrange(100, FULL + 1, 25)
    edges = tuple((states[i], "a", degree, states[i + 1]) for i in range(n - 1))
    return Spec(f"{prefix}chain", states, ("a",), states[0], edges)


def chain_pair(rng: random.Random, n: int, bisimilar: bool) -> tuple[Spec, Spec]:
    """A chain and a renamed copy; unless ``bisimilar``, the copy's last
    edge gets another degree."""
    left = chain(rng, n, "p")
    right = left.renamed(lambda s: "q" + s[1:], "qchain")
    if not bisimilar:
        s, a, d, t = right.edges[-1]
        other = rng.choice([x for x in range(100, FULL + 1, 25) if x != d])
        right = right.with_edge(s, a, other, t)
    return left, right


# ---------------------------------------------------- marked-cycle products


def marked_cycles(rng: random.Random, p: int, q: int) -> tuple[Spec, Spec]:
    """C_p with edge 0 -> 1 marked by its own degree, and an unmarked C_q
    whose degrees are at least both of C_p's, so the product keeps the mark."""
    base, mark = rng.sample(range(100, FULL, 50), 2)
    cp = tuple(f"c{i}" for i in range(p))
    cq = tuple(f"k{j}" for j in range(q))
    floor = max(base, mark)
    left = Spec(
        "cp", cp, ("a",), cp[0],
        tuple((cp[i], "a", mark if i == 0 else base, cp[(i + 1) % p]) for i in range(p)),
    )
    right = Spec(
        "cq", cq, ("a",), cq[0],
        tuple((cq[j], "a", rng.randint(floor, FULL), cq[(j + 1) % q]) for j in range(q)),
    )
    return left, right


# --------------------------------------------------------- inflated systems


@dataclass(frozen=True)
class Inflated:
    base: Spec
    big: Spec  # every base state copied k times
    perturbed: Spec  # big with one exact edge lowered
    hom: dict[str, str]  # big state -> base state


def copy_name(state: str, c: int) -> str:
    return f"{state}_{c}"


def inflate(rng: random.Random, g: Spec, k: int, extra: float, name: str) -> Inflated:
    """Copy each state of ``g`` k times.  A copy of x gets, for each base edge
    x -a-> y of degree d, one edge of degree d to a random copy of y and, with
    probability ``extra``, an edge of lower degree to each other copy."""
    edges = []
    exact = []
    for s, a, d, t in g.edges:
        for c in range(k):
            hit = rng.randrange(k)
            for c2 in range(k):
                if c2 == hit:
                    edge = (copy_name(s, c), a, d, copy_name(t, c2))
                    exact.append(edge)
                    edges.append(edge)
                elif rng.random() < extra:
                    edges.append((copy_name(s, c), a, rng.randint(1, d - 1), copy_name(t, c2)))
    states = tuple(copy_name(s, c) for s in g.states for c in range(k))
    big = Spec(name, states, g.labels, copy_name(g.init, 0), tuple(edges))
    s, a, d, t = rng.choice(exact)
    perturbed = big.with_edge(s, a, rng.randint(1, d - 1), t)
    hom = {copy_name(s, c): s for s in g.states for c in range(k)}
    return Inflated(g, big, perturbed, hom)


def _preimages(hom: dict[str, str]) -> dict[str, list[str]]:
    members: dict[str, list[str]] = {}
    for s, image in hom.items():
        members.setdefault(image, []).append(s)
    return members


def kernel_pairs(hom: dict[str, str]) -> list[tuple[str, str]]:
    return [(a, b) for block in _preimages(hom).values() for a in block for b in block]


def quotient_spec(inf: Inflated) -> Spec:
    """What quotienting ``inf.big`` by its kernel yields: the base system
    with each state named "[least copy]"."""
    members = _preimages(inf.hom)
    return inf.base.renamed(lambda s: f"[{min(members[s])}]", inf.big.name)


def product_spec(left: Spec, right: Spec) -> Spec:
    """Parallel composition: shared labels fire jointly with the min degree,
    private labels move one side."""
    def pid(s, t):
        return f"({s},{t})"

    shared = set(left.labels) & set(right.labels)
    edges = []
    for s, a, d1, s2 in left.edges:
        if a in shared:
            edges += [(pid(s, t), a, min(d1, d2), pid(s2, t2))
                      for t, b, d2, t2 in right.edges if b == a]
        else:
            edges += [(pid(s, t), a, d1, pid(s2, t)) for t in right.states]
    for t, b, d2, t2 in right.edges:
        if b not in shared:
            edges += [(pid(s, t), b, d2, pid(s, t2)) for s in left.states]
    return Spec(
        pid(left.name, right.name),
        tuple(pid(s, t) for s in left.states for t in right.states),
        tuple(sorted(set(left.labels) | set(right.labels))),
        pid(left.init, right.init),
        tuple(edges),
    )


def sparse(rng: random.Random, n: int, labels, prefix: str, fanout: int = 2) -> Spec:
    """Random system with one to ``fanout`` edges per state and label."""
    states = tuple(f"{prefix}{i}" for i in range(n))
    edges = []
    for s in states:
        for a in labels:
            for t in rng.sample(states, rng.randint(1, fanout)):
                edges.append((s, a, rng.randint(100, FULL), t))
    return Spec(f"{prefix}rnd", states, tuple(labels), states[0], tuple(edges))


# ----------------------------------------------------------- spined systems


@dataclass(frozen=True)
class Spined:
    system: Spec
    changed: Spec  # renamed copy with one edge leaving the spine's end at degree 1
    first_diff: int  # m: shortest length on which the two languages differ


def spined(rng: random.Random, n: int, m: int, labels=("a", "b")) -> Spined:
    """A system of n states holding a spine v0 .. v(m-1) of degree-1 edges.

    Every state has a level; the spine's states have levels 0 .. m-1 and no
    edge raises the level by more than one, so v(m-1) is first reached after
    exactly m-1 steps.  Every state has at least one edge per label, two when
    it has two targets to choose from, and every edge off the spine has a
    degree in [0.1, 0.9]; so every word has a positive degree and only the
    spine's prefixes have degree 1.  The spine and the changed edge read only
    the first label, so the shortest word on which the changed copy differs
    is the same for every seed.
    """
    states = tuple(f"v{i}" for i in range(n))
    level = {states[i]: i for i in range(m)}
    for s in states[m:]:
        level[s] = rng.randint(1, m - 1)
    edges: dict[tuple[str, str, str], int] = {}
    for i in range(m - 1):
        edges[(states[i], labels[0], states[i + 1])] = FULL
    for s in states[m:]:  # reach every extra state from the spine
        edges.setdefault((states[level[s] - 1], rng.choice(labels), s), rng.randint(100, 900))
    for s in states:
        allowed = [t for t in states if level[t] <= level[s] + 1]
        for a in labels:
            fresh = [t for t in allowed if (s, a, t) not in edges]
            have = len(allowed) - len(fresh)
            for t in rng.sample(fresh, min(len(fresh), max(0, 2 - have))):
                edges[(s, a, t)] = rng.randint(100, 900)
    system = Spec(
        "spined", states, tuple(labels), states[0],
        tuple((s, a, d, t) for (s, a, t), d in edges.items()),
    )
    end, a, target = states[m - 1], labels[0], rng.choice(states)
    changed = system.with_edge(end, a, FULL, target).renamed(lambda s: "w" + s[1:], "changed")
    return Spined(system, changed, m)


# ------------------------------------------------------ reference semantics


def adjacency(spec: Spec) -> dict[tuple[str, str], list[tuple[str, int]]]:
    adj: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for s, a, d, t in spec.edges:
        adj.setdefault((s, a), []).append((t, d))
    return adj


def ref_step(adj, mu: dict[str, int], label: str) -> dict[str, int]:
    nu: dict[str, int] = {}
    for s, w in mu.items():
        for t, d in adj.get((s, label), ()):
            v = min(w, d)
            if v > nu.get(t, 0):
                nu[t] = v
    return nu


def ref_table(spec: Spec, state: str, max_len: int) -> dict[tuple[str, ...], int]:
    """Word degrees (thousandths) up to ``max_len``, in the library's order:
    by length, then lexicographically; zero-degree words omitted."""
    adj = adjacency(spec)
    labels = sorted(spec.labels)
    table = {(): FULL}
    frontier = [((), {state: FULL})]
    for _ in range(max_len):
        nxt = []
        for word, mu in frontier:
            for a in labels:
                nu = ref_step(adj, mu, a)
                if nu:
                    table[word + (a,)] = max(nu.values())
                    nxt.append((word + (a,), nu))
        frontier = nxt
    return table


def ref_accept(spec: Spec, final: dict[str, int], word) -> int:
    adj = adjacency(spec)
    mu = {spec.init: FULL}
    for a in word:
        mu = ref_step(adj, mu, a)
    return max((min(w, final.get(s, 0)) for s, w in mu.items()), default=0)
