"""Coarsest stable partition by signature refinement.

The engine behind bisimilarity and minimization.  Over the disjoint union of
one or more systems it computes the coarsest partition of the states in
which any two states of one class give every class, under every label, the
same supremum of their transition degrees.  Restricted to S1 x S2, that
partition is the bisimilarity between two systems, and on a single system it
is self-bisimilarity.

The systems are first put in an integer-indexed form: states and labels
become ints, degrees their numerators, and each state gets a list of
out-edges.  Each round then gives a state the signature

    (its current class, {(label, target class) -> max numerator})

kept with the map's items in sorted order, and makes the states of equal
signature one class (Kanellakis & Smolka 1990).  It starts from a single
class; since a signature carries the current class, each round can only
split classes, and the first round that splits none has reached the fixed
point.  A round takes time about linear in the states plus edges, and there
are at most as many rounds as states.
"""

from __future__ import annotations

from typing import Sequence

from .core import Fts


def coarsest_partition(systems: Sequence[Fts]) -> list[dict[str, int]]:
    """Class numbers of the coarsest stable partition of the disjoint union
    of ``systems``, one ``{state: class}`` dict per system.

    Two states, of the same system or of different ones, are bisimilar
    exactly when they get the same class number.
    """
    index: list[dict[str, int]] = []
    n = 0
    for f in systems:
        index.append({s: n + i for i, s in enumerate(f.states)})
        n += len(f.states)
    label_of = {a: i for i, a in enumerate(sorted({a for f in systems for a in f.labels}))}
    nlabels = len(label_of)
    edges: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # (label, target, degree)
    for f, ids in zip(systems, index):
        for source, label, degree, target in f.transitions():
            edges[ids[source]].append((label_of[label], ids[target], degree.numerator))

    block = [0] * n
    count = 1
    while True:
        numbers: dict[tuple, int] = {}
        refined = []
        for state, out in enumerate(edges):
            sups: dict[int, int] = {}
            for label, target, degree in out:
                key = block[target] * nlabels + label
                if sups.get(key, 0) < degree:
                    sups[key] = degree
            signature = (block[state], *sorted(sups.items()))
            refined.append(numbers.setdefault(signature, len(numbers)))
        block = refined
        if len(numbers) == count:
            break
        count = len(numbers)
    return [{s: block[i] for s, i in ids.items()} for ids in index]
