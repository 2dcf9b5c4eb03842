"""Max-min word semantics of fuzzy transition systems.

The degree of a word is computed by propagating a possibility distribution
one label at a time: the weight of reaching a target is the best (max) over
intermediate states of the worst (min) edge along the way.  The fuzzy
language of a state maps each word to the supremum of its reachability
distribution; it is realized here as evaluation functions and bounded tables
rather than a stored infinite object.

Internally a distribution is a plain dict of its nonzero entries, and one
private kernel, ``_advance``, steps it by a label over successor entries
``(source, label) -> [(target, degree)]``.  Max and min only ever pick one
of their arguments, and a walk starts from :data:`ONE`, so every weight is
one of the input :class:`Degree` values.

Two kinds of walk use the kernel:

* :func:`lang_table` and :func:`lang_equal_up_to` walk classes of k-step
  bisimilarity: :func:`fuzzts.partition.graded` gives the start classes as
  ``{state: class}`` maps and each round as a successor map between
  classes.  All states of one class of round k have the same supremum into
  each class of round k - 1 under each label, so the maxima of a step's
  result over the round-(k-1) classes follow from the maxima of its input
  over the round-k classes.  For a bound L, the distribution after d labels
  is therefore kept as ``{class: degree}`` over the classes of round L - d,
  a step follows ``level(L - d)`` into round L - d - 1, and the height, the
  word's degree, is the same as on states.  :func:`lang_table` stops at the
  first length without words, and :func:`lang_equal_up_to` skips a pair of
  equal class distributions, whose extensions all have equal degrees.
* :func:`step`, :func:`delta_word`, :func:`lang_degree` and
  :func:`accept_degree` walk states, ``{state: degree}``: their results
  are per state or weigh final degrees, which bisimilarity does not keep.
  Each step, ``_step``, reads the images ``f.delta(source, label)`` of the
  sources in the distribution's support only, so a word costs the edges
  leaving its distributions' supports.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .core import Fts, FuzzyAutomaton, FuzzySet, Word, check_alphabets
from .degrees import ONE, ZERO, Degree
from .errors import UniverseError
from .partition import graded

_Successors = dict[tuple[Hashable, str], list[tuple[Hashable, Degree]]]


def _advance(succ: _Successors, mu: dict, label: str) -> dict:
    """One step: best-over-sources min of the source weight and the edge
    degree."""
    nu: dict = {}
    for source, weight in mu.items():
        for target, edge in succ.get((source, label), ()):
            reached = edge if edge < weight else weight  # min(weight, edge)
            if reached > nu.get(target, 0):
                nu[target] = reached
    return nu


def _step(f: Fts, mu: dict[str, Degree], label: str) -> dict[str, Degree]:
    """One step over the states of ``f``, reading the images of the
    support's states only."""
    images = {(source, label): f.delta(source, label).items() for source in mu}
    return _advance(images, mu, label)


def _start(f: Fts, state: str) -> dict[str, Degree]:
    """The unit distribution at ``state``."""
    if state not in f.states:
        raise UniverseError(f"unknown state {state!r}")
    return {state: ONE}


def _reach(f: Fts, state: str, word: Sequence[str]) -> dict[str, Degree]:
    """The reachability distribution of ``word`` from ``state``."""
    mu = _start(f, state)
    for label in f.check_word(word):
        mu = _step(f, mu, label)
    return mu


def unit(f: Fts, state: str) -> FuzzySet:
    """The distribution concentrated on one state with degree 1."""
    return FuzzySet(f.states, _start(f, state))


def step(f: Fts, mu: FuzzySet, label: str) -> FuzzySet:
    """Advance a distribution by one label: best-over-sources min of the
    source weight and the edge degree."""
    if mu.universe is not f.states and mu.universe != f.states:
        raise UniverseError("distribution ranges over the wrong universe")
    if label not in f.labels:
        raise UniverseError(f"unknown label {label!r}")
    return FuzzySet(f.states, _step(f, dict(mu.items()), label))


def delta_word(f: Fts, state: str, word: Sequence[str]) -> FuzzySet:
    """Reachability distribution after reading ``word`` from ``state``.

    The empty word yields the unit distribution at ``state``; each further
    label folds one step.
    """
    return FuzzySet(f.states, _reach(f, state, word))


def lang_degree(f: Fts, state: str, word: Sequence[str]) -> Degree:
    """Degree of ``word`` in the fuzzy language of ``state``: the supremum of
    its reachability distribution."""
    return max(_reach(f, state, word).values(), default=ZERO)


def lang_table(f: Fts, state: str, max_len: int) -> dict[Word, Degree]:
    """All words of length <= ``max_len`` with nonzero degree, plus the empty
    word, in length-then-lexicographic order.

    Zero-degree words are omitted (support convention), except the empty word
    which always has degree 1.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    _start(f, state)
    (classes,), level = graded((f,), max_len)
    labels = f.sorted_labels()
    frontier: list[tuple[Word, dict[int, Degree]]] = [((), {classes[state]: ONE})]
    table: dict[Word, Degree] = {(): ONE}
    left = max_len
    while frontier and left:
        succ, left = level(left), left - 1
        next_frontier: list[tuple[Word, dict[int, Degree]]] = []
        for word, mu in frontier:
            for label in labels:
                nu = _advance(succ, mu, label)
                if nu:
                    extended = word + (label,)
                    table[extended] = max(nu.values())
                    next_frontier.append((extended, nu))
        frontier = next_frontier
    return table


def accept_degree(m: FuzzyAutomaton, word: Sequence[str]) -> Degree:
    """Acceptance degree of a word: best min of reachability and final
    degree over all states."""
    mu = _reach(m.base, m.base.init, word)
    return max((min(weight, m.final(state)) for state, weight in mu.items()), default=ZERO)


def lang_equal_up_to(
    f1: Fts, s1: str, f2: Fts, s2: str, max_len: int
) -> bool:
    """Exact agreement of the two fuzzy languages on every word of length
    <= ``max_len``.

    Explores both systems in lockstep over the classes of their joint
    rounds, and prunes a word as soon as both class distributions are equal
    (all its extensions up to the bound then have equal degrees on both
    sides).  Start states that are ``max_len``-step bisimilar are answered
    at once.
    """
    check_alphabets(f1, f2)
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    _start(f1, s1)
    _start(f2, s2)
    (classes1, classes2), level = graded((f1, f2), max_len)
    labels = f1.sorted_labels()
    stack = [(max_len, {classes1[s1]: ONE}, {classes2[s2]: ONE})]
    while stack:
        left, mu, nu = stack.pop()
        if mu == nu:
            continue
        if max(mu.values(), default=ZERO) != max(nu.values(), default=ZERO):
            return False
        if left:
            succ = level(left)
            for label in labels:
                stack.append((left - 1, _advance(succ, mu, label), _advance(succ, nu, label)))
    return True
