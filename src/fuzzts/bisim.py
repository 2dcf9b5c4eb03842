"""Bisimulation checking and bisimilarity.

The definitional check quantifies over every correlational pair of the
relation, which is exponential if done literally.  Because a pair (U, V) is
correlational exactly when every relation edge has its source in U iff its
target is in V, the quantifier collapses to three linear conditions per
related pair (s, t) and label:

  1. the image of s puts no weight outside the relation's left projection,
  2. the image of t puts no weight outside the right projection,
  3. on each block (U, V) of :func:`~fuzzts.core.decompose`, the relation's
     bipartite components, the image of s over U and the image of t over V
     have equal suprema.

The check and :func:`refine` read all three from one
:func:`~fuzzts.core.image_sups` per image, with the blocks as keys;
:func:`check_strong_bisimulation` reads each side's answers to the other's
moves from one per image, with each state's partners as keys.  The literal
subset-pair form and the brute-force enumeration of bisimulations are
exponential oracles in :mod:`fuzzts.oracles`.  Verdicts carry the least
failing item by (left state, right state, label), then left support
violations by state, right ones by state, and block mismatches by index.

:func:`bisimilarity` runs on the partition engine of :mod:`fuzzts.partition`.
:func:`refine` and :func:`iterate_refinement` keep the definitional
greatest-fixed-point iteration as the reference it is tested against; they
stay here while the benchmark's tracer reads ``bisim.refine`` by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (
    Blocks, Fts, FuzzyAutomaton, Relation, adjacency, check_alphabets, check_relation,
    decompose, image, image_sups, least_difference, members,
)
from .degrees import Degree, ZERO
from .partition import coarsest_partition


@dataclass(frozen=True)
class Witness:
    """The least failing item of a check that did not hold."""

    left: str
    right: str
    label: str | None = None
    kind: str = ""
    subject: str | None = None
    left_degree: Degree | None = None
    right_degree: Degree | None = None


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.holds


def _format_block(block: tuple[frozenset[str], frozenset[str]]) -> str:
    left = ",".join(sorted(block[0]))
    right = ",".join(sorted(block[1]))
    return f"{{{left}}}~{{{right}}}"


def _block_maps(blocks: Blocks) -> tuple[dict[str, tuple[int]], dict[str, tuple[int]]]:
    """``{state: (block index,)}`` on each side, over the states the blocks cover."""
    left = {s: (i,) for i, (u, _) in enumerate(blocks) for s in u}
    right = {t: (i,) for i, (_, v) in enumerate(blocks) for t in v}
    return left, right


def check_bisimulation(f1: Fts, f2: Fts, r: Relation) -> Verdict:
    """Definitional bisimulation check via the correlational reduction.

    Holds iff for every related pair and label the two transition images put
    no weight outside the relation's projections and agree block by block on
    suprema.  Costs the edges of both systems plus, per related pair and
    label, the blocks the two images reach; not blocks times states.
    """
    check_relation(f1, f2, r)
    blocks = decompose(r)
    left_of, right_of = _block_maps(blocks)
    # a state is in one pair per partner, so each side reads a view once
    left = functools.cache(functools.partial(image_sups, f1, left_of))
    right = functools.cache(functools.partial(image_sups, f2, right_of))
    labels = f1.sorted_labels()
    for s, t in r.sorted_pairs():
        for a in labels:
            outside_l, sups_l = left(s, a)
            outside_r, sups_r = right(t, a)
            if outside_l:
                state, degree = outside_l[0]
                return Verdict(False, Witness(s, t, a, "left-support", state, degree, ZERO))
            if outside_r:
                state, degree = outside_r[0]
                return Verdict(False, Witness(s, t, a, "right-support", state, ZERO, degree))
            if sups_l != sups_r:
                index = least_difference(sups_l, sups_r)
                return Verdict(
                    False,
                    Witness(s, t, a, "block-sup", _format_block(blocks[index]),
                            sups_l.get(index, ZERO), sups_r.get(index, ZERO)),
                )
    return Verdict(True)


def check_strong_bisimulation(f1: Fts, f2: Fts, r: Relation) -> Verdict:
    """Per-transition matching check: every positive move of one side must be
    matched by a related target reached with at least the same degree."""
    check_relation(f1, f2, r)
    rights, lefts = adjacency(r)
    # a side's answer to a move into x: its image's supremum over x's partners
    right_answers = functools.cache(functools.partial(image_sups, f2, lefts))
    left_answers = functools.cache(functools.partial(image_sups, f1, rights))
    labels = f1.sorted_labels()
    for s, t in r.sorted_pairs():
        for a in labels:
            if miss := _unmatched(image(f1, s, a), right_answers(t, a)[1]):
                x, moved, best = miss
                return Verdict(False, Witness(s, t, a, "left-move", x, moved, best))
            if miss := _unmatched(image(f2, t, a), left_answers(s, a)[1]):
                y, moved, best = miss
                return Verdict(False, Witness(s, t, a, "right-move", y, best, moved))
    return Verdict(True)


def _unmatched(moves: dict, answers: dict) -> tuple | None:
    """The least target that ``answers`` gives less than ``moves`` does, with both degrees."""
    x = min((x for x, moved in moves.items() if answers.get(x, ZERO) < moved), default=None)
    return None if x is None else (x, moves[x], answers.get(x, ZERO))


def refine(f1: Fts, f2: Fts, r: Relation) -> Relation:
    """One refinement step: all product pairs passing the matching conditions
    measured against ``r``'s correlational structure.

    A relation is a bisimulation iff it is contained in its own refinement;
    iterating from the full product converges to bisimilarity.  This is the
    definitional form of bisimilarity, kept as the reference the tests compare
    :func:`bisimilarity` against; no library operation calls it.
    """
    check_relation(f1, f2, r)
    left_of, right_of = _block_maps(decompose(r))
    labels = f1.sorted_labels()

    def signature(f, class_of, state):
        sups = []
        for a in labels:
            outside, block_sups = image_sups(f, class_of, state, a)
            if outside:
                return None
            sups.append(tuple(sorted(block_sups.items())))
        return tuple(sups)

    left_sig: dict[tuple, list[str]] = {}
    for s in f1.states:
        sig = signature(f1, left_of, s)
        if sig is not None:
            left_sig.setdefault(sig, []).append(s)
    pairs = set()
    for t in f2.states:
        sig = signature(f2, right_of, t)
        if sig is not None:
            for s in left_sig.get(sig, ()):
                pairs.add((s, t))
    return Relation(f1.states, f2.states, pairs)


def iterate_refinement(f1: Fts, f2: Fts) -> list[Relation]:
    """The non-increasing iteration of :func:`refine` from the full product
    down to its fixed point, all iterates included.

    Its last iterate is bisimilarity by definition; the tests compare
    :func:`bisimilarity` against it.  Each round decomposes and refines an
    explicit pair relation, so this is far slower than the partition engine.
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


def bisimilarity(f1: Fts, f2: Fts) -> Relation:
    """The largest bisimulation between the two systems, equal to the union
    of all bisimulations and to the fixed point of :func:`iterate_refinement`.

    It is computed as the coarsest stable partition of the disjoint union of
    the two systems, restricted to S1 x S2: the related pairs are those whose
    states share a class.
    """
    left, right = map(members, _classes(f1, f2))
    blocks = ((u, right[c]) for c, u in left.items() if c in right)
    return Relation.from_blocks(f1.states, f2.states, blocks)


def are_bisimilar(f1: Fts, f2: Fts) -> bool:
    """Whether the two initial states are related by some bisimulation."""
    left, right = _classes(f1, f2)
    return left[f1.init] == right[f2.init]


def _classes(f1: Fts, f2: Fts) -> tuple[dict[str, int], dict[str, int]]:
    """Class numbers of the states of each system in the coarsest stable
    partition of their disjoint union."""
    check_alphabets(f1, f2)
    class_of = coarsest_partition((f1, f2))
    return class_of[0], class_of[-1]


def self_bisimilarity(f: Fts) -> Relation:
    """Bisimilarity of a system with itself: the equivalence whose classes
    are those of the partition engine run on ``f`` alone, as in
    :func:`fuzzts.algebra.minimize`.  Costs one engine run plus the pairs."""
    groups = members(coarsest_partition((f,))[0]).values()
    return Relation.from_blocks(f.states, f.states, ((g, g) for g in groups))


def z_closure(r: Relation) -> Relation:
    """Least superset closed under square completion:
    (s,t), (s',t), (s',t') present forces (s,t').  That is the union of
    U x V over the blocks (U, V) of the relation's decomposition."""
    return Relation.from_blocks(r.left_universe, r.right_universe, decompose(r))


def check_automaton_bisimulation(
    m1: FuzzyAutomaton, m2: FuzzyAutomaton, r: Relation
) -> Verdict:
    """Automaton form: the bases must be bisimilar under ``r`` and related
    states must carry equal final degrees."""
    base = check_bisimulation(m1.base, m2.base, r)
    if not base.holds:
        return base
    for q1, q2 in r.sorted_pairs():
        d1 = m1.final(q1)
        d2 = m2.final(q2)
        if d1 != d2:
            return Verdict(
                False, Witness(q1, q2, None, "final-degree", None, d1, d2)
            )
    return Verdict(True)
