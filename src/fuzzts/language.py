"""Max-min word semantics of fuzzy transition systems.

The degree of a word is computed by propagating a possibility distribution
one label at a time: the weight of reaching a target is the best (max) over
intermediate states of the worst (min) edge along the way.  The fuzzy
language of a state maps each word to the supremum of its reachability
distribution; it is realized here as evaluation functions and bounded tables
rather than a stored infinite object.

Internally a distribution is a plain ``{state: numerator}`` dict of its
nonzero entries.  Each public call first indexes the edges it can follow
(the whole system's; for :func:`step`, those leaving the input's support)
as ``(source, label) -> [(target, numerator)]``, so one step costs the
edges leaving the distribution's support.  The index lives for one call
and is not kept on the :class:`Fts`, so a system holds no extra memory.
Max and min only ever pick one of their arguments, so every value
reachable from a unit distribution is an edge degree or 1; results are
turned back into :class:`Degree` values through a numerator -> degree map
of exactly those values.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import Fts, FuzzyAutomaton, FuzzySet, Word
from .degrees import ONE, SCALE, ZERO, Degree
from .errors import AlphabetError, UniverseError

_Successors = dict[tuple[str, str], list[tuple[str, int]]]


def _index(
    transitions: Iterable[tuple[str, str, Degree, str]],
) -> tuple[_Successors, dict[int, Degree]]:
    """The successor lists of ``transitions`` and a numerator -> degree map
    of their degrees, 0 and 1."""
    succ: _Successors = {}
    degree_of = {0: ZERO, SCALE: ONE}
    for source, label, degree, target in transitions:
        succ.setdefault((source, label), []).append((target, degree.numerator))
        degree_of[degree.numerator] = degree
    return succ, degree_of


def _advance(succ: _Successors, mu: dict[str, int], label: str) -> dict[str, int]:
    """One step on numerators: best-over-sources min of the source weight
    and the edge degree."""
    nu: dict[str, int] = {}
    for source, weight in mu.items():
        for target, edge in succ.get((source, label), ()):
            reached = edge if edge < weight else weight  # min(weight, edge)
            if reached > nu.get(target, 0):
                nu[target] = reached
    return nu


def _start(f: Fts, state: str) -> dict[str, int]:
    """The unit distribution at ``state``, on numerators."""
    if state not in f.states:
        raise UniverseError(f"unknown state {state!r}")
    return {state: SCALE}


def _reach(f: Fts, state: str, word: Sequence[str]) -> tuple[dict[str, int], dict[int, Degree]]:
    """The reachability distribution of ``word`` from ``state``, on
    numerators, with the map back to degrees."""
    mu = _start(f, state)
    word = f.check_word(word)
    succ, degree_of = _index(f.transitions())
    for label in word:
        mu = _advance(succ, mu, label)
    return mu, degree_of


def _fuzzy_set(f: Fts, mu: dict[str, int], degree_of: dict[int, Degree]) -> FuzzySet:
    return FuzzySet(f.states, {state: degree_of[n] for state, n in mu.items()})


def unit(f: Fts, state: str) -> FuzzySet:
    """The distribution concentrated on one state with degree 1."""
    _start(f, state)
    return FuzzySet(f.states, {state: ONE})


def step(f: Fts, mu: FuzzySet, label: str) -> FuzzySet:
    """Advance a distribution by one label: best-over-sources min of the
    source weight and the edge degree."""
    if mu.universe != f.states:
        raise UniverseError("distribution ranges over the wrong universe")
    if label not in f.labels:
        raise UniverseError(f"unknown label {label!r}")
    entries = mu.items()
    succ, degree_of = _index(
        (source, label, edge, target)
        for source, _ in entries
        for target, edge in f.delta(source, label).items()
    )
    degree_of.update((degree.numerator, degree) for _, degree in entries)
    weights = {state: degree.numerator for state, degree in entries}
    return _fuzzy_set(f, _advance(succ, weights, label), degree_of)


def delta_word(f: Fts, state: str, word: Sequence[str]) -> FuzzySet:
    """Reachability distribution after reading ``word`` from ``state``.

    The empty word yields the unit distribution at ``state``; each further
    label folds one step.
    """
    return _fuzzy_set(f, *_reach(f, state, word))


def lang_degree(f: Fts, state: str, word: Sequence[str]) -> Degree:
    """Degree of ``word`` in the fuzzy language of ``state``: the supremum of
    its reachability distribution."""
    mu, degree_of = _reach(f, state, word)
    return degree_of[max(mu.values(), default=0)]


def lang_table(f: Fts, state: str, max_len: int) -> dict[Word, Degree]:
    """All words of length <= ``max_len`` with nonzero degree, plus the empty
    word, in length-then-lexicographic order.

    Zero-degree words are omitted (support convention), except the empty word
    which always has degree 1.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    labels = f.sorted_labels()
    frontier: list[tuple[Word, dict[str, int]]] = [((), _start(f, state))]
    succ, degree_of = _index(f.transitions())
    table: dict[Word, Degree] = {(): ONE}
    for _ in range(max_len):
        next_frontier: list[tuple[Word, dict[str, int]]] = []
        for word, mu in frontier:
            for label in labels:
                nu = _advance(succ, mu, label)
                if nu:
                    extended = word + (label,)
                    table[extended] = degree_of[max(nu.values())]
                    next_frontier.append((extended, nu))
        frontier = next_frontier
    return table


def accept_degree(m: FuzzyAutomaton, word: Sequence[str]) -> Degree:
    """Acceptance degree of a word: best min of reachability and final
    degree over all states."""
    mu, degree_of = _reach(m.base, m.base.init, word)
    return max(
        (min(degree_of[weight], m.final(state)) for state, weight in mu.items()),
        default=ZERO,
    )


def lang_equal_up_to(
    f1: Fts, s1: str, f2: Fts, s2: str, max_len: int
) -> bool:
    """Exact agreement of the two fuzzy languages on every word of length
    <= ``max_len``.

    Explores both systems in lockstep and prunes a word as soon as both
    reachability distributions are empty (all longer extensions then have
    degree zero on both sides).
    """
    if f1.labels != f2.labels:
        raise AlphabetError("label alphabets differ")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    labels = sorted(f1.labels)
    stack = [(0, _start(f1, s1), _start(f2, s2))]
    succ1, _ = _index(f1.transitions())
    succ2, _ = _index(f2.transitions())
    while stack:
        depth, mu, nu = stack.pop()
        if max(mu.values(), default=0) != max(nu.values(), default=0):
            return False
        if depth == max_len:
            continue
        for label in labels:
            mu2 = _advance(succ1, mu, label)
            nu2 = _advance(succ2, nu, label)
            if mu2 or nu2:
                stack.append((depth + 1, mu2, nu2))
    return True
