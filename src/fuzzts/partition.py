"""Coarsest stable partition by signature refinement.

The engine behind bisimilarity, minimization and the bounded word
semantics.  Over the disjoint union of one or more systems it computes the
coarsest partition of the states in which any two states of one class give
every class, under every label, the same supremum of their transition
degrees.  Restricted to S1 x S2, that partition is the bisimilarity between
two systems, and on a single system it is self-bisimilarity.

The systems are first put in an integer-indexed form: states and labels
become ints, and each state gets a list of out-edges with their degrees
(a :class:`Degree` is an ``int``, so it is compared as it is).  Round k
then gives a state the signature

    (its class in round k-1, {(label, target class in round k-1) -> max degree})

kept with the map's items in sorted order, and makes the states of equal
signature one class (Kanellakis & Smolka 1990).  Round 0 is a single class;
since a signature carries the previous class, each round can only split
classes, and the first round that splits none has reached the fixed point.
The classes of round k are k-step bisimilarity, so states that share one
give every word of length <= k the same degree; :mod:`fuzzts.language`
walks words over these classes instead of over states.  A round takes
time about linear in the states plus edges, and there are at most as many
rounds as states.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import Fts

#: One round: each state's class, and each class's signature -> its number.
Round = tuple[list[int], dict[tuple, int]]


def rounds(systems: Sequence[Fts]) -> tuple[list[dict[str, int]], Iterator[Round]]:
    """The state index of the disjoint union of ``systems`` and its rounds.

    The index gives one ``{state: int}`` dict per system, numbering the n
    states of the union 0..n-1.  The iterator yields rounds 1, 2, ..., each
    as ``(block, numbers)``: ``block[i]`` is the class of state i, and the
    keys of ``numbers``, in insertion order, are the signatures of classes
    0, 1, ....  A signature is the previous class followed by
    ``(label * n + target class, supremum)`` items in key order, so its items
    are grouped by label, with labels numbered in sorted order.

    Classes are numbered by first appearance in state order, so the first
    round that splits no class repeats the previous round's numbers, and so
    would every round after it.  The iterator ends with that stable round.
    """
    index: list[dict[str, int]] = []
    n = 0
    for f in systems:
        index.append({s: n + i for i, s in enumerate(f.states)})
        n += len(f.states)
    label_of = {a: i for i, a in enumerate(sorted({a for f in systems for a in f.labels}))}
    edges: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # (label * n, target, degree)
    for f, ids in zip(systems, index):
        for source, label, degree, target in f.transitions():
            edges[ids[source]].append((label_of[label] * n, ids[target], degree))
    return index, _refine(edges)


def _refine(edges: list[list[tuple[int, int, int]]]) -> Iterator[Round]:
    block = [0] * len(edges)
    count = 1
    while True:
        numbers: dict[tuple, int] = {}
        refined = []
        for state, out in enumerate(edges):
            sups: dict[int, int] = {}
            for key, target, degree in out:
                key += block[target]
                if sups.get(key, 0) < degree:
                    sups[key] = degree
            signature = (block[state], *sorted(sups.items()))
            refined.append(numbers.setdefault(signature, len(numbers)))
        block = refined
        yield block, numbers
        if len(numbers) == count:
            return
        count = len(numbers)


def coarsest_partition(systems: Sequence[Fts]) -> list[dict[str, int]]:
    """Class numbers of the coarsest stable partition of the disjoint union
    of ``systems``, one ``{state: class}`` dict per system.

    Two states, of the same system or of different ones, are bisimilar
    exactly when they get the same class number.
    """
    index, history = rounds(systems)
    for block, _ in history:
        pass
    return [{s: block[i] for s, i in ids.items()} for ids in index]
