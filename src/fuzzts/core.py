"""Core data model: fuzzy sets, fuzzy transition systems, relations.

Everything here is immutable after construction and every operation is a pure
function of its inputs, so concurrent reads are always safe.

A transition function is total: "no transition" is represented by the all-zero
fuzzy set, stored sparsely (missing key).  All identifiers are plain strings;
deterministic orderings are lexicographic throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .degrees import ZERO, Degree, as_degree
from .errors import ModelError, UniverseError

#: A word is a finite sequence of labels; ``()`` is the empty word.
Word = tuple[str, ...]

# Base identifiers use letters, digits, underscore and prime; the bracket and
# comma characters are reserved for machine-generated product states "(s,t)"
# and quotient classes "[s]" so that constructed systems stay serializable.
_IDENT_RE = re.compile(r"[A-Za-z0-9_'()\[\],]+")


def check_ident(kind: str, text: str) -> str:
    if not isinstance(text, str) or _IDENT_RE.fullmatch(text) is None:
        raise ModelError(f"bad {kind} identifier: {text!r}")
    return text


class FuzzySet:
    """A possibility distribution over a finite state universe.

    Canonical form: zero-degree entries are never stored.  ``mu(s)`` looks up
    the degree of ``s`` (zero when absent), ``mu.sup(U)`` is the maximum
    degree over a subset of the universe.
    """

    __slots__ = ("universe", "_entries")

    def __init__(self, universe: Iterable[str], entries: Mapping[str, Degree | str | int] = ()):
        universe = frozenset(universe)
        clean: dict[str, Degree] = {}
        for state, value in dict(entries).items():
            degree = as_degree(value)
            if state not in universe:
                raise UniverseError(f"state {state!r} outside universe")
            if degree:
                clean[state] = degree
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "_entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FuzzySet is immutable")

    def __call__(self, state: str) -> Degree:
        if state not in self.universe:
            raise UniverseError(f"state {state!r} outside universe")
        return self._entries.get(state, ZERO)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self._entries)

    def items(self) -> list[tuple[str, Degree]]:
        """Nonzero entries in lexicographic state order."""
        return sorted(self._entries.items())

    def sup(self, states: Iterable[str]) -> Degree:
        """Maximum degree over ``states`` (zero for the empty set)."""
        best = ZERO
        for state in states:
            if state not in self.universe:
                raise UniverseError(f"state {state!r} outside universe")
            degree = self._entries.get(state)
            if degree is not None and degree > best:
                best = degree
        return best

    @property
    def height(self) -> Degree:
        """Maximum degree over the whole universe."""
        return max(self._entries.values(), default=ZERO)

    def union(self, other: "FuzzySet") -> "FuzzySet":
        """Pointwise max."""
        self._check_same_universe(other)
        merged = dict(self._entries)
        for state, degree in other._entries.items():
            if state not in merged or degree > merged[state]:
                merged[state] = degree
        return FuzzySet(self.universe, merged)

    def intersection(self, other: "FuzzySet") -> "FuzzySet":
        """Pointwise min."""
        self._check_same_universe(other)
        merged = {
            state: min(degree, other._entries[state])
            for state, degree in self._entries.items()
            if state in other._entries
        }
        return FuzzySet(self.universe, merged)

    __or__ = union
    __and__ = intersection

    def _check_same_universe(self, other: "FuzzySet") -> None:
        if self.universe != other.universe:
            raise UniverseError("fuzzy sets range over different universes")

    def __eq__(self, other):
        if isinstance(other, FuzzySet):
            return self.universe == other.universe and self._entries == other._entries
        return NotImplemented

    def __hash__(self):
        return hash((self.universe, frozenset(self._entries.items())))

    def __bool__(self):
        return bool(self._entries)

    def __repr__(self):
        inner = ", ".join(f"{s}: {d}" for s, d in self.items())
        return f"FuzzySet({{{inner}}})"


class Fts:
    """A finite fuzzy transition system: states, labels, total fuzzy
    transition function, initial state.

    The transition function maps each (state, label) to a possibility
    distribution over target states; pairs that can fire nothing map to the
    all-zero distribution and are simply not stored.  The ``name`` is file
    metadata only and takes no part in equality.
    """

    __slots__ = ("states", "labels", "init", "name", "_delta", "_zero")

    def __init__(
        self,
        states: Iterable[str],
        labels: Iterable[str],
        init: str,
        delta: Mapping[tuple[str, str], FuzzySet] = (),
        name: str = "S",
    ):
        states = frozenset(check_ident("state", s) for s in states)
        labels = frozenset(check_ident("label", a) for a in labels)
        if not states:
            raise ModelError("no states")
        if init not in states:
            raise ModelError(f"initial state {init!r} is not a state")
        table: dict[tuple[str, str], FuzzySet] = {}
        for (source, label), image in dict(delta).items():
            if source not in states:
                raise ModelError(f"unknown state {source!r} in transition function")
            if label not in labels:
                raise ModelError(f"unknown label {label!r} in transition function")
            if image.universe != states:
                raise UniverseError(
                    f"transition image of ({source!r}, {label!r}) ranges over the wrong universe"
                )
            if image:
                table[(source, label)] = image
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_delta", table)
        object.__setattr__(self, "_zero", FuzzySet(states))

    @classmethod
    def from_triples(
        cls,
        states: Iterable[str],
        labels: Iterable[str],
        init: str,
        triples: Iterable[tuple[str, str, Degree | str | int, str]],
        name: str = "S",
    ) -> "Fts":
        """Build and validate a system from (source, label, degree, target)
        transition triples.

        Rejects unknown identifiers, out-of-range degrees, and duplicate
        (source, label, target) triples.
        """
        state_set = frozenset(states)
        label_set = frozenset(labels)
        images: dict[tuple[str, str], dict[str, Degree]] = {}
        seen: set[tuple[str, str, str]] = set()
        for source, label, value, target in triples:
            if source not in state_set:
                raise ModelError(f"unknown state {source!r} in transition")
            if target not in state_set:
                raise ModelError(f"unknown state {target!r} in transition")
            if label not in label_set:
                raise ModelError(f"unknown label {label!r} in transition")
            if (source, label, target) in seen:
                raise ModelError(
                    f"duplicate transition triple ({source}, {label}, {target})"
                )
            seen.add((source, label, target))
            images.setdefault((source, label), {})[target] = as_degree(value)
        delta = {
            key: FuzzySet(state_set, entries) for key, entries in images.items()
        }
        return cls(state_set, label_set, init, delta, name=name)

    def __setattr__(self, name, value):
        raise AttributeError("Fts is immutable")

    def delta(self, state: str, label: str) -> FuzzySet:
        """The possibility distribution of targets for (state, label)."""
        if state not in self.states:
            raise UniverseError(f"unknown state {state!r}")
        if label not in self.labels:
            raise UniverseError(f"unknown label {label!r}")
        return self._delta.get((state, label), self._zero)

    def degree(self, source: str, label: str, target: str) -> Degree:
        return self.delta(source, label)(target)

    def transitions(self) -> Iterator[tuple[str, str, Degree, str]]:
        """All positive-degree transitions, sorted by (source, label, target)."""
        for (source, label) in sorted(self._delta):
            for target, degree in self._delta[(source, label)].items():
                yield source, label, degree, target

    def sorted_states(self) -> list[str]:
        return sorted(self.states)

    def sorted_labels(self) -> list[str]:
        return sorted(self.labels)

    def check_word(self, word: Sequence[str]) -> Word:
        for symbol in word:
            if symbol not in self.labels:
                raise UniverseError(f"unknown label {symbol!r} in word")
        return tuple(word)

    def __eq__(self, other):
        if isinstance(other, Fts):
            return (
                self.states == other.states
                and self.labels == other.labels
                and self.init == other.init
                and self._delta == other._delta
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.states, self.labels, self.init))

    def __repr__(self):
        return (
            f"Fts(name={self.name!r}, |S|={len(self.states)}, "
            f"|A|={len(self.labels)}, init={self.init!r})"
        )


class FuzzyAutomaton:
    """A finite fuzzy transition system plus a fuzzy set of final states."""

    __slots__ = ("base", "final")

    def __init__(self, base: Fts, final: FuzzySet):
        if final.universe != base.states:
            raise UniverseError("final set ranges over the wrong universe")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "final", final)

    def __setattr__(self, name, value):
        raise AttributeError("FuzzyAutomaton is immutable")

    def __eq__(self, other):
        if isinstance(other, FuzzyAutomaton):
            return self.base == other.base and self.final == other.final
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.final))

    def __repr__(self):
        return f"FuzzyAutomaton({self.base!r}, final={self.final!r})"


class Relation:
    """A binary relation between two state universes."""

    __slots__ = ("left_universe", "right_universe", "pairs")

    def __init__(
        self,
        left_universe: Iterable[str],
        right_universe: Iterable[str],
        pairs: Iterable[tuple[str, str]] = (),
    ):
        left_universe = frozenset(left_universe)
        right_universe = frozenset(right_universe)
        pairs = frozenset(pairs)
        for left, right in pairs:
            if left not in left_universe:
                raise UniverseError(f"left state {left!r} outside universe")
            if right not in right_universe:
                raise UniverseError(f"right state {right!r} outside universe")
        object.__setattr__(self, "left_universe", left_universe)
        object.__setattr__(self, "right_universe", right_universe)
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    @classmethod
    def diagonal(cls, states: Iterable[str]) -> "Relation":
        states = frozenset(states)
        return cls(states, states, {(s, s) for s in states})

    @classmethod
    def full(cls, left: Iterable[str], right: Iterable[str]) -> "Relation":
        left, right = frozenset(left), frozenset(right)
        return cls(left, right, {(s, t) for s in left for t in right})

    def replace_pairs(self, pairs: Iterable[tuple[str, str]]) -> "Relation":
        return Relation(self.left_universe, self.right_universe, pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)

    def proj_left(self) -> frozenset[str]:
        return frozenset(left for left, _ in self.pairs)

    def proj_right(self) -> frozenset[str]:
        return frozenset(right for _, right in self.pairs)

    def inverse(self) -> "Relation":
        return Relation(
            self.right_universe,
            self.left_universe,
            {(right, left) for left, right in self.pairs},
        )

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition; requires this right universe to be the
        other's left universe."""
        if self.right_universe != other.left_universe:
            raise UniverseError("composition universes do not line up")
        by_mid: dict[str, set[str]] = {}
        for mid, right in other.pairs:
            by_mid.setdefault(mid, set()).add(right)
        pairs = {
            (left, right)
            for left, mid in self.pairs
            for right in by_mid.get(mid, ())
        }
        return Relation(self.left_universe, other.right_universe, pairs)

    def union(self, other: "Relation") -> "Relation":
        self._check_same_universes(other)
        return self.replace_pairs(self.pairs | other.pairs)

    def intersection(self, other: "Relation") -> "Relation":
        self._check_same_universes(other)
        return self.replace_pairs(self.pairs & other.pairs)

    __or__ = union
    __and__ = intersection

    def issubset(self, other: "Relation") -> bool:
        self._check_same_universes(other)
        return self.pairs <= other.pairs

    def _check_same_universes(self, other: "Relation") -> None:
        if (
            self.left_universe != other.left_universe
            or self.right_universe != other.right_universe
        ):
            raise UniverseError("relations range over different universes")

    def is_equivalence(self) -> bool:
        """Reflexive, symmetric and transitive on a shared universe."""
        return self._classes() is not None

    def equivalence_classes(self) -> list[frozenset[str]]:
        """The partition induced by an equivalence, sorted by least member."""
        classes = self._classes()
        if classes is None:
            raise ModelError("relation is not an equivalence")
        return classes

    def _classes(self) -> list[frozenset[str]] | None:
        """The classes sorted by least member, or None for a relation that
        is not an equivalence.

        A relation is one exactly when every state lies in its own right-set
        and every member of that set has the same right-set.  Each class is
        compared once per member, so the pass costs O(|pairs|).
        """
        if self.left_universe != self.right_universe:
            return None
        right_of: dict[str, set[str]] = {s: set() for s in self.left_universe}
        for s, t in self.pairs:
            right_of[s].add(t)
        seen: set[str] = set()
        classes = []
        for state in sorted(self.left_universe):
            if state in seen:
                continue
            block = right_of[state]
            if state not in block or any(right_of[t] != block for t in block):
                return None
            seen |= block
            classes.append(frozenset(block))
        return classes

    def __eq__(self, other):
        if isinstance(other, Relation):
            return (
                self.left_universe == other.left_universe
                and self.right_universe == other.right_universe
                and self.pairs == other.pairs
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.left_universe, self.right_universe, self.pairs))

    def __repr__(self):
        inner = ", ".join(f"({s},{t})" for s, t in self.sorted_pairs())
        return f"Relation{{{inner}}}"


@dataclass(frozen=True)
class BlockDecomposition:
    """Connected components of a relation's bipartite graph.

    ``blocks`` are (left part, right part) pairs ordered by least left state;
    ``left_outside``/``right_outside`` are the states carrying no relation
    edge at all.  Together they generate every correlational pair of the
    relation: a pair (U, V) is correlational exactly when U and V consist of
    the two sides of one set of blocks plus arbitrary outside states.
    """

    blocks: tuple[tuple[frozenset[str], frozenset[str]], ...]
    left_outside: frozenset[str]
    right_outside: frozenset[str]


def decompose(relation: Relation) -> BlockDecomposition:
    """Split a relation into its bipartite connected components."""
    parent: dict[tuple[int, str], tuple[int, str]] = {}

    def find(node):
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for left, right in relation.pairs:
        for node in ((0, left), (1, right)):
            parent.setdefault(node, node)
        union((0, left), (1, right))

    groups: dict[tuple[int, str], tuple[set[str], set[str]]] = {}
    for node in parent:
        side, state = node
        group = groups.setdefault(find(node), (set(), set()))
        group[side].add(state)
    blocks = tuple(
        (frozenset(u), frozenset(v))
        for u, v in sorted(groups.values(), key=lambda g: min(g[0]))
    )
    return BlockDecomposition(
        blocks=blocks,
        left_outside=relation.left_universe - relation.proj_left(),
        right_outside=relation.right_universe - relation.proj_right(),
    )


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
