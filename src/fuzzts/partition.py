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

    {(label, target class in round k-1) -> max degree}

kept as the map's items in sorted order, and makes the states of equal
signature one class (Kanellakis & Smolka 1990).  Round 0 is a single class.
The signature leaves out the state's own class in round k-1 because that
class is already fixed by it.  Round k-1 refines round k-2 (by induction),
so every class of round k-2 is a union of classes of round k-1, and the
suprema into the round-(k-1) classes fix the suprema into the round-(k-2)
classes: the state's round-(k-1) signature, and with it its round-(k-1)
class.  Each round can therefore only split classes, and the first round
that splits none has reached the fixed point.  A round takes time about
linear in the states plus edges, and there are at most as many rounds as
states.

The classes of round k are k-step bisimilarity, so states that share one
give every word of length <= k the same degree.  :func:`graded` hands
the rounds to :mod:`fuzzts.language` as successor maps between classes, and
that module walks words over classes instead of over states.  This module
is the only one that reads a signature or numbers the union's states.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator, Sequence

from .core import Fts
from .degrees import Degree

#: A round's successor map: ``(class, label) -> [(class one round earlier, sup)]``.
Level = dict[tuple[int, str], list[tuple[int, Degree]]]


def _union(systems: Sequence[Fts]) -> tuple[list[dict[str, int]], list[str], list[list[tuple]]]:
    """The state index of the disjoint union of ``systems``, its labels in
    sorted order, and each state's out-edges ``(label * n, target,
    degree)``, with n the union's state count."""
    index: list[dict[str, int]] = []
    n = 0
    for f in systems:
        index.append({s: n + i for i, s in enumerate(f.states)})
        n += len(f.states)
    names = sorted({a for f in systems for a in f.labels})
    label_of = {a: i * n for i, a in enumerate(names)}
    edges: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for f, ids in zip(systems, index):
        for source, label, degree, target in f.transitions():
            edges[ids[source]].append((label_of[label], ids[target], degree))
    return index, names, edges


def _rounds(edges: list[list[tuple[int, int, int]]]) -> Iterator[tuple[list[int], dict[tuple, int]]]:
    """Rounds 1, 2, ... as ``(block, numbers)``: ``block[i]`` is the class of
    state i, and the keys of ``numbers``, in insertion order, are the
    signatures of classes 0, 1, ..., each a tuple of ``(label * n + target
    class, supremum)`` items in key order.

    Classes are numbered by first appearance in state order, so the first
    round that splits no class repeats the previous round's numbers, and so
    would every round after it.  The iterator ends with that stable round.
    """
    block = [0] * len(edges)
    count = 1
    while True:
        numbers: dict[tuple, int] = {}
        refined = []
        for out in edges:
            sups: dict[int, int] = {}
            for key, target, degree in out:
                key += block[target]
                if sups.get(key, 0) < degree:
                    sups[key] = degree
            signature = tuple(sorted(sups.items()))
            refined.append(numbers.setdefault(signature, len(numbers)))
        block = refined
        yield block, numbers
        if len(numbers) == count:
            return
        count = len(numbers)


def graded(
    systems: Sequence[Fts], depth: int
) -> tuple[list[dict[str, int]], Callable[[int], Level]]:
    """The classes of the disjoint union of ``systems`` that a walk of up
    to ``depth`` labels needs.

    Returns ``(classes, level)``.  ``classes`` holds one ``{state: class}``
    dict per system, as :func:`coarsest_partition` does, for round
    ``depth``, or for the stable round if refinement stops splitting before
    it; n states make at most n classes, so that is round n at the latest.
    ``level(k)``, for 1 <= k <= ``depth``, is round k's successor map
    ``(class, label) -> [(class in round k - 1, supremum)]``, which past the
    stable round is the stable round's.  Round 0 is the single class 0.
    """
    index, names, edges = _union(systems)
    n = len(edges)
    block = [0] * n
    levels: list[Level] = [{}]
    for block, numbers in islice(_rounds(edges), min(depth, n)):
        succ: Level = {}
        for source, signature in enumerate(numbers):
            for key, sup in signature:
                label, target = divmod(key, n)
                succ.setdefault((source, names[label]), []).append((target, sup))
        levels.append(succ)
    last = len(levels) - 1
    return [{s: block[i] for s, i in ids.items()} for ids in index], lambda k: levels[min(k, last)]


def coarsest_partition(systems: Sequence[Fts]) -> list[dict[str, int]]:
    """Class numbers of the coarsest stable partition of the disjoint union
    of ``systems``, one ``{state: class}`` dict per system.

    Two states, of the same system or of different ones, are bisimilar
    exactly when they get the same class number.
    """
    index, _, edges = _union(systems)
    for block, _ in _rounds(edges):
        pass
    return [{s: block[i] for s, i in ids.items()} for ids in index]
