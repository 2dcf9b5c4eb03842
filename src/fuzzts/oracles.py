"""Reference checks, kept as oracles.

Each function states a definition literally: every subset pair of states,
every subset of the state product, every edge of a relation, every iterate
of :func:`~fuzzts.bisim.refine`.  No library operation calls them; the tests
check the fast paths of :mod:`fuzzts.core` and :mod:`fuzzts.bisim` against
them, and ``check-bisim --naive`` runs :func:`check_bisimulation_naive`.  The
subset enumerations are exponential and refuse inputs above a cap; the rest
are polynomial and have none.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .bisim import check_bisimulation, refine
from .core import Fts, Relation, check_alphabets, check_relation
from .errors import CapError, UniverseError


def _subsets(states: list[str]):
    for mask in range(1 << len(states)):
        yield frozenset(s for i, s in enumerate(states) if mask >> i & 1)


def check_bisimulation_naive(
    f1: Fts, f2: Fts, r: Relation, max_states: int = 12
) -> bool:
    """Literal definitional check: enumerate every subset pair, keep the
    correlational ones, and compare suprema directly.

    Exponential in the combined state count; refuses above ``max_states``.
    """
    check_relation(f1, f2, r)
    if len(f1.states) + len(f2.states) > max_states:
        raise CapError(
            f"cap exceeded: {len(f1.states)} + {len(f2.states)} states > {max_states}"
        )
    correlational = [
        (u, v)
        for u in _subsets(f1.sorted_states())
        for v in _subsets(f2.sorted_states())
        if is_correlational(r, u, v)
    ]
    for s, t in r.pairs:
        for a in f1.labels:
            mu = f1.delta(s, a)
            eta = f2.delta(t, a)
            for u, v in correlational:
                if mu.sup(u) != eta.sup(v):
                    return False
    return True


def iter_bisimulations_bruteforce(f1: Fts, f2: Fts, max_pairs: int = 14):
    """Yield every subset of the state product that passes
    :func:`~fuzzts.bisim.check_bisimulation`, in mask order over sorted
    pairs.

    Exponential; refuses above ``max_pairs`` product states.
    """
    check_alphabets(f1, f2)
    pair_list = sorted(product(f1.sorted_states(), f2.sorted_states()))
    if len(pair_list) > max_pairs:
        raise CapError(f"cap exceeded: {len(pair_list)} product pairs > {max_pairs}")
    for mask in range(1 << len(pair_list)):
        subset = frozenset(p for i, p in enumerate(pair_list) if mask >> i & 1)
        rel = Relation(f1.states, f2.states, subset)
        if check_bisimulation(f1, f2, rel).holds:
            yield rel


def enumerate_bisimulations_bruteforce(
    f1: Fts, f2: Fts, max_pairs: int = 14
) -> Relation:
    """Union of all bisimulations found by exhaustive subset enumeration;
    an independent oracle for :func:`~fuzzts.bisim.bisimilarity`."""
    union: set[tuple[str, str]] = set()
    for rel in iter_bisimulations_bruteforce(f1, f2, max_pairs):
        union |= rel.pairs
    return Relation(f1.states, f2.states, union)


def iterate_refinement(f1: Fts, f2: Fts) -> list[Relation]:
    """The non-increasing iteration of :func:`refine` from the full product
    down to its fixed point, all iterates included.

    Its last iterate is bisimilarity by definition; the tests compare
    :func:`~fuzzts.bisim.bisimilarity` against it.  Each round decomposes
    and refines an explicit pair relation, far slower than the engine.
    """
    current = Relation.full(f1.states, f2.states)
    trace = [current]
    for _ in range(len(f1.states) * len(f2.states) + 1):
        refined = refine(f1, f2, current)
        trace.append(refined)
        if refined == current:
            return trace
        current = refined
    raise AssertionError("refinement failed to stabilize")


def is_correlational(relation: Relation, left: Iterable[str], right: Iterable[str]) -> bool:
    """Definitional test: the relation edges with source in ``left`` are
    exactly the edges with target in ``right``.

    This is the oracle the block decomposition is validated against.
    """
    left = frozenset(left)
    right = frozenset(right)
    if not left <= relation.left_universe:
        raise UniverseError("left set outside the relation's left universe")
    if not right <= relation.right_universe:
        raise UniverseError("right set outside the relation's right universe")
    restricted_by_source = {(s, t) for s, t in relation.pairs if s in left}
    restricted_by_target = {(s, t) for s, t in relation.pairs if t in right}
    return restricted_by_source == restricted_by_target
