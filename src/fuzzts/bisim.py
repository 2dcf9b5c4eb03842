"""Bisimulation checking and bisimilarity.

The definitional check quantifies over every correlational pair of the
relation, which is exponential if done literally.  Because a pair (U, V) is
correlational exactly when every relation edge has its source in U iff its
target is in V, the quantifier collapses to three linear conditions per
related pair (s, t) and label:

  1. the image of s puts no weight outside the relation's left projection,
  2. the image of t puts no weight outside the right projection,
  3. block by block of the relation's bipartite decomposition, the two
     images have equal suprema.

``check_bisimulation_naive`` keeps the literal subset-enumeration form as an
oracle for the reduction.  Verdicts carry the lexicographically least failing
item, ordered by (left state, right state, label), then within one such
triple: left support violations by state, right support violations by state,
block mismatches by block index.

:func:`bisimilarity` runs on the partition engine of :mod:`fuzzts.partition`.
:func:`refine` and :func:`iterate_refinement` keep the definitional
greatest-fixed-point iteration over explicit relations as the reference it
is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import BlockDecomposition, Fts, FuzzyAutomaton, Relation, decompose, is_correlational
from .degrees import Degree, ZERO
from .errors import AlphabetError, CapError, UniverseError
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


def _check_setting(f1: Fts, f2: Fts, r: Relation) -> None:
    if f1.labels != f2.labels:
        raise AlphabetError("label alphabets differ")
    if r.left_universe != f1.states or r.right_universe != f2.states:
        raise UniverseError("relation universes do not match the systems")


def _format_block(block: tuple[frozenset[str], frozenset[str]]) -> str:
    left = ",".join(sorted(block[0]))
    right = ",".join(sorted(block[1]))
    return f"{{{left}}}~{{{right}}}"


class _SideProfile:
    """Per-(state, label) view of one system against a decomposition: the
    support weight falling outside the relation's projection, and the supremum
    per block."""

    def __init__(self, f: Fts, block_of: dict[str, int], nblocks: int):
        self._f = f
        self._block_of = block_of
        self._nblocks = nblocks
        self._cache: dict[tuple[str, str], tuple[list, tuple]] = {}

    def __call__(self, state: str, label: str):
        key = (state, label)
        hit = self._cache.get(key)
        if hit is None:
            sups = [ZERO] * self._nblocks
            outside = []
            for target, degree in self._f.delta(state, label).items():
                index = self._block_of.get(target)
                if index is None:
                    outside.append((target, degree))
                elif degree > sups[index]:
                    sups[index] = degree
            hit = (outside, tuple(sups))
            self._cache[key] = hit
        return hit


def _profiles(f1: Fts, f2: Fts, dec: BlockDecomposition):
    block_left = {s: i for i, (u, _) in enumerate(dec.blocks) for s in u}
    block_right = {t: i for i, (_, v) in enumerate(dec.blocks) for t in v}
    n = len(dec.blocks)
    return _SideProfile(f1, block_left, n), _SideProfile(f2, block_right, n)


def check_bisimulation(f1: Fts, f2: Fts, r: Relation) -> Verdict:
    """Definitional bisimulation check via the correlational reduction.

    Holds iff for every related pair and label the two transition images put
    no weight outside the relation's projections and agree block by block on
    suprema.
    """
    _check_setting(f1, f2, r)
    dec = decompose(r)
    left_prof, right_prof = _profiles(f1, f2, dec)
    for s, t in r.sorted_pairs():
        for a in sorted(f1.labels):
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
                return Verdict(
                    False,
                    Witness(s, t, a, "block-sup", _format_block(dec.blocks[index]),
                            sups_l[index], sups_r[index]),
                )
    return Verdict(True)


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
    _check_setting(f1, f2, r)
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


def check_strong_bisimulation(f1: Fts, f2: Fts, r: Relation) -> Verdict:
    """Per-transition matching check: every positive move of one side must be
    matched by a related target reached with at least the same degree."""
    _check_setting(f1, f2, r)
    partners_right: dict[str, list[str]] = {}
    partners_left: dict[str, list[str]] = {}
    for s, t in r.pairs:
        partners_right.setdefault(s, []).append(t)
        partners_left.setdefault(t, []).append(s)
    for s, t in r.sorted_pairs():
        for a in sorted(f1.labels):
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


def refine(f1: Fts, f2: Fts, r: Relation) -> Relation:
    """One refinement step: all product pairs passing the matching conditions
    measured against ``r``'s correlational structure.

    A relation is a bisimulation iff it is contained in its own refinement;
    iterating from the full product converges to bisimilarity.  This is the
    definitional form of bisimilarity, kept as the reference the tests compare
    :func:`bisimilarity` against; no library operation calls it.
    """
    _check_setting(f1, f2, r)
    dec = decompose(r)
    left_prof, right_prof = _profiles(f1, f2, dec)
    labels = sorted(f1.labels)

    def signature(profile, state):
        sups = []
        for a in labels:
            outside, block_sups = profile(state, a)
            if outside:
                return None
            sups.append(block_sups)
        return tuple(sups)

    left_sig: dict[tuple, list[str]] = {}
    for s in f1.states:
        sig = signature(left_prof, s)
        if sig is not None:
            left_sig.setdefault(sig, []).append(s)
    pairs = set()
    for t in f2.states:
        sig = signature(right_prof, t)
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
    left, right = _classes(f1, f2)
    members: dict[int, list[str]] = {}
    for t, c in right.items():
        members.setdefault(c, []).append(t)
    pairs = {(s, t) for s, c in left.items() for t in members.get(c, ())}
    return Relation(f1.states, f2.states, pairs)


def are_bisimilar(f1: Fts, f2: Fts) -> bool:
    """Whether the two initial states are related by some bisimulation."""
    left, right = _classes(f1, f2)
    return left[f1.init] == right[f2.init]


def _classes(f1: Fts, f2: Fts) -> tuple[dict[str, int], dict[str, int]]:
    """Class numbers of the states of each system in the coarsest stable
    partition of their disjoint union."""
    if f1.labels != f2.labels:
        raise AlphabetError("label alphabets differ")
    class_of = coarsest_partition((f1, f2))
    return class_of[0], class_of[-1]


def self_bisimilarity(f: Fts) -> Relation:
    """Bisimilarity of a system with itself; always an equivalence, since
    it relates the states that share a class of one partition."""
    return bisimilarity(f, f)


def z_closure(r: Relation) -> Relation:
    """Least superset closed under square completion:
    (s,t), (s',t), (s',t') present forces (s,t')."""
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


def iter_bisimulations_bruteforce(f1: Fts, f2: Fts, max_pairs: int = 14):
    """Yield every subset of the state product that passes
    :func:`check_bisimulation`, in mask order over sorted pairs.

    Exponential; refuses above ``max_pairs`` product states.
    """
    if f1.labels != f2.labels:
        raise AlphabetError("label alphabets differ")
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
    an independent oracle for :func:`bisimilarity`."""
    union: set[tuple[str, str]] = set()
    for rel in iter_bisimulations_bruteforce(f1, f2, max_pairs):
        union |= rel.pairs
    return Relation(f1.states, f2.states, union)


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
