"""Core data model: fuzzy sets, fuzzy transition systems, relations, state
maps, and the checking rules the other modules share, each stated once:
the setting guards, a relation's blocks, an image's suprema over the keys
its targets carry (a partition's classes or a relation's partners), and the
least key where two suprema differ (the witness).

Everything here is a value: immutable after construction, deletion included,
equal to another instance of its type with the same contents, hashable, and
safe to copy, deep-copy and pickle.  Every operation is a pure function of its
inputs, so concurrent reads are always safe.

A transition function is total: "no transition" is represented by the all-zero
fuzzy set, stored sparsely (missing key).  All identifiers are plain strings;
deterministic orderings are lexicographic throughout.
"""

from __future__ import annotations

import re
from itertools import product
from operator import attrgetter
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .degrees import ZERO, Degree, as_degree
from .errors import AlphabetError, ModelError, UniverseError

#: A word is a finite sequence of labels; ``()`` is the empty word.
Word = tuple[str, ...]

#: A relation's components as (left part, right part) blocks.
Blocks = tuple[tuple[frozenset[str], frozenset[str]], ...]

# Base identifiers use letters, digits, underscore and prime; the bracket and
# comma characters are reserved for machine-generated product states "(s,t)"
# and quotient classes "[s]" so that constructed systems stay serializable.
_IDENT_RE = re.compile(r"[A-Za-z0-9_'()\[\],]+")


def check_ident(kind: str, text: str) -> str:
    if not isinstance(text, str) or _IDENT_RE.fullmatch(text) is None:
        raise ModelError(f"bad {kind} identifier: {text!r}")
    return text


def check_alphabets(f1: Fts, f2: Fts) -> None:
    """Raise ``AlphabetError`` unless the two systems share their labels."""
    if f1.labels != f2.labels:
        raise AlphabetError("label alphabets differ")


def check_relation(f1: Fts, f2: Fts, r: Relation) -> None:
    """Raise ``AlphabetError`` unless the two systems share their labels,
    then ``UniverseError`` unless ``r`` runs from f1's states to f2's."""
    check_alphabets(f1, f2)
    if r.left_universe != f1.states or r.right_universe != f2.states:
        raise UniverseError("relation universes do not match the systems")


class Value:
    """Value semantics, defined once for the immutable types.

    A subclass lists its fields in ``__slots__`` and sets them in
    ``__init__`` through ``object.__setattr__``; afterwards setting or
    deleting any attribute raises ``AttributeError``.  Two instances of the
    same type are equal when their slot tuples are, and a copy or an
    unpickled instance is rebuilt from the slots without running
    ``__init__`` again.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the tuple of slot values; a subclass has at least two slots, since
        # attrgetter of one name gives the bare value
        cls._fields = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if type(other) is type(self):
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __reduce__(self):
        return _rebuild, (type(self), self._fields)


def _rebuild(cls: type[Value], fields: tuple) -> Value:
    """An instance of ``cls`` with the given slot values, as
    :meth:`Value.__reduce__` records them."""
    value = object.__new__(cls)
    for name, field in zip(cls.__slots__, fields):
        object.__setattr__(value, name, field)
    return value


def _names(universe: Iterable) -> str:
    """A universe as the reprs print it, ``{a, b}``: members through ``str``, sorted."""
    return "{" + ", ".join(sorted(map(str, universe))) + "}"


def _checked_entries(universe: frozenset, entries) -> dict[str, Degree]:
    """The nonzero entries of a mapping or of (state, degree) pairs, each
    degree coerced and each state checked against ``universe``."""
    clean: dict[str, Degree] = {}
    for state, value in dict(entries).items():
        degree = value if isinstance(value, Degree) else as_degree(value)
        if state not in universe:
            raise UniverseError(f"state {state!r} outside universe")
        if degree:
            clean[state] = degree
    return clean


class FuzzySet(Value):
    """A possibility distribution over a finite state universe.

    Canonical form: zero-degree entries are never stored.  ``mu(s)`` looks up
    the degree of ``s`` (zero when absent), ``mu.sup(U)`` is the maximum
    degree over a subset of the universe.
    """

    __slots__ = ("universe", "_entries")

    def __init__(self, universe: Iterable[str], entries: Mapping[str, Degree | str] = ()):
        universe = frozenset(universe)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "_entries", _checked_entries(universe, entries))

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
        return max(map(self, states), default=ZERO)

    @property
    def height(self) -> Degree:
        """Maximum degree over the whole universe."""
        return max(self._entries.values(), default=ZERO)

    def __hash__(self):
        return hash((self.universe, frozenset(self._entries.items())))

    def __bool__(self):
        return bool(self._entries)

    def __repr__(self):
        inner = ", ".join(f"{s}: {d}" for s, d in self.items())
        return f"FuzzySet({{{inner}}}, universe={_names(self.universe)})"


class Fts(Value):
    """A finite fuzzy transition system: states, labels, total fuzzy
    transition function, initial state.

    The transition function maps each (state, label) to a possibility
    distribution over target states; pairs that can fire nothing map to the
    all-zero distribution and are simply not stored.  The ``name`` is file
    metadata only and takes no part in equality; it must be an identifier,
    as the model file's ``system NAME`` header requires.

    ``delta`` gives each (state, label) image as its (target, degree)
    entries: a dict, or a ``FuzzySet`` read through ``items()``.  Every
    entry is checked, so a target outside ``states`` raises
    ``UniverseError``; building costs O(|S| + |A| + |E|).  Each nonzero
    image is stored as its ``{target: Degree}`` dict, read by :func:`image`
    and handed out by :meth:`delta` as a ``FuzzySet`` over ``states``.
    """

    __slots__ = ("states", "labels", "init", "name", "_delta")

    def __init__(
        self,
        states: Iterable[str],
        labels: Iterable[str],
        init: str,
        delta: Mapping[tuple[str, str], Mapping[str, Degree | str] | FuzzySet] = (),
        name: str = "S",
    ):
        states = frozenset(check_ident("state", s) for s in states)
        labels = frozenset(check_ident("label", a) for a in labels)
        check_ident("system name", name)
        if not states:
            raise ModelError("no states")
        if init not in states:
            raise ModelError(f"initial state {init!r} is not a state")
        images: dict[tuple[str, str], dict[str, Degree]] = {}
        for (source, label), entries in dict(delta).items():
            if source not in states:
                raise ModelError(f"unknown state {source!r} in transition function")
            if label not in labels:
                raise ModelError(f"unknown label {label!r} in transition function")
            images[source, label] = _checked_entries(states, entries.items())
        built = self._from_images(states, labels, init, images, name)
        for slot, field in zip(self.__slots__, built._fields):
            object.__setattr__(self, slot, field)

    @classmethod
    def _from_images(cls, states: frozenset[str], labels: frozenset[str], init: str,
                     images: Mapping[tuple[str, str], dict[str, Degree]], name: str) -> "Fts":
        """The one image builder: a system from ``{target: Degree}`` images
        whose identifiers, keys and degrees are already valid, as its six
        callers make them.  It stores each dict uncopied, dropping zero
        entries and empty images; a dict may be shared with another system,
        as ``hom_image`` shares f2's, since no system ever changes one."""
        table: dict[tuple[str, str], dict[str, Degree]] = {}
        for key, entries in images.items():
            if not all(entries.values()):
                entries = {target: degree for target, degree in entries.items() if degree}
            if entries:
                table[key] = entries
        return _rebuild(cls, (states, labels, init, name, table))

    @classmethod
    def from_triples(
        cls,
        states: Iterable[str],
        labels: Iterable[str],
        init: str,
        triples: Iterable[tuple[str, str, Degree | str, str]],
        name: str = "S",
    ) -> "Fts":
        """Build and validate a system from (source, label, degree, target)
        transition triples, checking each once.

        Rejects unknown identifiers, out-of-range degrees, and duplicate
        (source, label, target) triples, zero-degree ones included.  The
        setting is checked first, so a bad identifier, no states or an init
        that is not a state is reported before any triple's fault."""
        setting = cls(states, labels, init, name=name)
        state_set, label_set = setting.states, setting.labels
        images: dict[tuple[str, str], dict[str, Degree]] = {}
        for source, label, value, target in triples:
            if source not in state_set:
                raise ModelError(f"unknown state {source!r} in transition")
            if target not in state_set:
                raise ModelError(f"unknown state {target!r} in transition")
            if label not in label_set:
                raise ModelError(f"unknown label {label!r} in transition")
            entries = images.setdefault((source, label), {})
            if target in entries:
                raise ModelError(
                    f"duplicate transition triple ({source}, {label}, {target})"
                )
            entries[target] = as_degree(value)
        return cls._from_images(state_set, label_set, init, images, name)

    def delta(self, state: str, label: str) -> FuzzySet:
        """The possibility distribution of targets for (state, label)."""
        if state not in self.states:
            raise UniverseError(f"unknown state {state!r}")
        if label not in self.labels:
            raise UniverseError(f"unknown label {label!r}")
        return _rebuild(FuzzySet, (self.states, image(self, state, label)))

    def degree(self, source: str, label: str, target: str) -> Degree:
        return self.delta(source, label)(target)

    def transitions(self) -> Iterator[tuple[str, str, Degree, str]]:
        """All positive-degree transitions, sorted by (source, label, target)."""
        for (source, label) in sorted(self._delta):
            for target, degree in sorted(self._delta[(source, label)].items()):
                yield source, label, degree, target

    def sorted_states(self) -> list[str]:
        return sorted(self.states)

    def sorted_labels(self) -> list[str]:
        return sorted(self.labels)

    def check_word(self, word: Sequence[str]) -> Word:
        if isinstance(word, str):  # its characters are not its labels
            raise TypeError(f"a word must be a sequence of labels, got the str {word!r}")
        word = tuple(word)  # read once: an iterator is used up by one pass
        for symbol in word:
            if symbol not in self.labels:
                raise UniverseError(f"unknown label {symbol!r} in word")
        return word

    def __eq__(self, other):
        if isinstance(other, Fts):
            return (self.states, self.labels, self.init, self._delta) == (
                other.states, other.labels, other.init, other._delta
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.states, self.labels, self.init))

    def __repr__(self):
        return (
            f"Fts(name={self.name!r}, |S|={len(self.states)}, "
            f"|A|={len(self.labels)}, init={self.init!r})"
        )


class FuzzyAutomaton(Value):
    """A finite fuzzy transition system plus a fuzzy set of final states."""

    __slots__ = ("base", "final")

    def __init__(self, base: Fts, final: FuzzySet):
        if final.universe is not base.states and final.universe != base.states:
            raise UniverseError("final set ranges over the wrong universe")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "final", final)

    def __repr__(self):
        return f"FuzzyAutomaton({self.base!r}, final={self.final!r})"


class Relation(Value):
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

    @classmethod
    def diagonal(cls, states: Iterable[str]) -> "Relation":
        states = frozenset(states)
        return cls(states, states, {(s, s) for s in states})

    @classmethod
    def full(cls, left: Iterable[str], right: Iterable[str]) -> "Relation":
        left, right = frozenset(left), frozenset(right)
        return cls(left, right, {(s, t) for s in left for t in right})

    @classmethod
    def from_blocks(
        cls,
        left: Iterable[str],
        right: Iterable[str],
        blocks: Iterable[tuple[Iterable[str], Iterable[str]]],
    ) -> "Relation":
        """The union of U x V over the (U, V) ``blocks``."""
        return cls(left, right, {pair for u, v in blocks for pair in product(u, v)})

    def replace_pairs(self, pairs: Iterable[tuple[str, str]]) -> "Relation":
        return Relation(self.left_universe, self.right_universe, pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)

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
        rights, _ = adjacency(other)
        pairs = {(left, right) for left, mid in self.pairs for right in rights.get(mid, ())}
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

        A relation is one exactly when its universes are equal, every block
        of :func:`decompose` is a square (U, U), the blocks cover the
        universe, and the relation holds all of each U x U, that is,
        ``len(pairs) == sum(|U|**2)``.
        """
        if self.left_universe != self.right_universe:
            return None
        blocks = decompose(self)
        if (
            any(u != v for u, v in blocks)
            or sum(len(u) for u, _ in blocks) != len(self.left_universe)
            or sum(len(u) ** 2 for u, _ in blocks) != len(self.pairs)
        ):
            return None
        return [u for u, _ in blocks]

    def __repr__(self):
        inner = ", ".join(f"({s},{t})" for s, t in self.sorted_pairs())
        left, right = _names(self.left_universe), _names(self.right_universe)
        return f"Relation{{{inner}}} over {left} x {right}"


class StateMap(Value):
    """A total map between the state sets of two systems."""

    __slots__ = ("domain", "codomain", "_table")

    def __init__(self, mapping, domain, codomain):
        domain, codomain = frozenset(domain), frozenset(codomain)
        table = dict(mapping)
        for source in table:
            if source not in domain:
                raise UniverseError(f"map source {source!r} is outside the domain")
        if len(table) != len(domain):
            raise ModelError("map is not total on the domain")
        for value in table.values():
            if value not in codomain:
                raise UniverseError(f"map image {value!r} is outside the codomain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "_table", table)

    @classmethod
    def identity(cls, states) -> "StateMap":
        states = frozenset(states)
        return cls({s: s for s in states}, states, states)

    def __call__(self, state: str) -> str:
        if state not in self._table:
            raise UniverseError(f"unknown state {state!r}")
        return self._table[state]

    def items(self) -> list[tuple[str, str]]:
        return sorted(self._table.items())

    def image(self) -> frozenset[str]:
        return frozenset(self._table.values())

    def __hash__(self):
        return hash((self.domain, self.codomain, frozenset(self._table.items())))

    def __repr__(self):
        return f"StateMap({dict(self.items())!r}, codomain={sorted(self.codomain)!r})"


def members(class_of: Mapping[str, Hashable]) -> dict[Hashable, list[str]]:
    """Group states by class: ``{class: its states, sorted}``, with the
    classes in order of least member.  A map read this way gives the
    preimage of every value it takes."""
    groups: dict[Hashable, list[str]] = {}
    for state in sorted(class_of):
        groups.setdefault(class_of[state], []).append(state)
    return groups


def adjacency(relation: Relation) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """A relation's adjacency maps, ``{left: its rights}`` and ``{right: its lefts}``."""
    rights: dict[str, list[str]] = {}
    lefts: dict[str, list[str]] = {}
    for s, t in relation.pairs:
        rights.setdefault(s, []).append(t)
        lefts.setdefault(t, []).append(s)
    return rights, lefts


def image(f: Fts, state: str, label: str) -> Mapping[str, Degree]:
    """The stored ``{target: degree}`` image of ``state`` under ``label``, to
    read only; the caller checks the state and the label."""
    return f._delta.get((state, label), {})


def image_sups(f: Fts, keys_of: Mapping, state: str, label: str) -> tuple[list, dict]:
    """The image of ``state`` under ``label`` against a partial ``{state:
    keys}`` map, each state's keys a collection: its (target, degree) entries
    whose target has no keys, in state order, and ``{key: supremum}`` over
    the targets carrying each key, at the cost of the entries and their keys."""
    outside = []
    sups: dict[Hashable, Degree] = {}
    for target, degree in image(f, state, label).items():
        keys = keys_of.get(target)
        if keys is None:
            outside.append((target, degree))
        for key in keys or ():
            if degree > sups.get(key, ZERO):
                sups[key] = degree
    outside.sort()
    return outside, sups


def least_difference(a: Mapping, b: Mapping):
    """The least key on which two unequal maps differ, a missing key
    differing from any value."""
    return min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def decompose(relation: Relation) -> Blocks:
    """The connected components of a relation's bipartite graph, as
    (left part, right part) blocks ordered by least left state.

    With the states carrying no relation edge at all, the blocks generate
    every correlational pair of the relation: a pair (U, V) is
    correlational exactly when U and V consist of the two sides of one set
    of blocks plus arbitrary such outside states.

    A walk over the two :func:`adjacency` maps, started from each left state
    in sorted order, finds each block once: O(|pairs|) plus the sort.
    """
    rights, lefts = adjacency(relation)
    blocks = []
    for start in sorted(rights):
        if start not in rights:  # a walk pops each left state it reaches
            continue
        u, v = {start}, set()
        stack = [start]
        while stack:
            for t in rights.pop(stack.pop()):
                if t not in v:
                    v.add(t)
                    for s in lefts[t]:
                        if s not in u:
                            u.add(s)
                            stack.append(s)
        blocks.append((frozenset(u), frozenset(v)))
    return tuple(blocks)
