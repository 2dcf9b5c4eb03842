"""System constructions: parallel composition, subsystems, homomorphisms,
quotients, and minimization."""

from __future__ import annotations

from dataclasses import dataclass

from .bisim import Verdict, Witness, check_bisimulation
from .core import (
    Fts, Relation, StateMap, check_alphabets, check_relation, image, image_sups,
    least_difference, members,
)
from .degrees import ONE, ZERO, Degree
from .errors import ModelError, UniverseError
from .partition import coarsest_partition


def product_id(left: str, right: str) -> str:
    return f"({left},{right})"


def parallel_compose(f1: Fts, f2: Fts) -> Fts:
    """Synchronized product over the full state product.

    Under each label each side follows its own image, and a side whose
    alphabet lacks the label stays put with degree 1, so a private label
    moves its side and freezes the other; a product edge takes the min of
    the two degrees.  Raises ``ModelError`` when two state pairs get the
    same product id, which identifiers containing ``,`` can cause; past that
    check the images are valid as made and go to the builder unchecked.
    """
    labels = f1.labels | f2.labels
    states = frozenset(
        product_id(s, t) for s in f1.states for t in f2.states
    )
    if len(states) < len(f1.states) * len(f2.states):
        raise ModelError("product state ids collide: two state pairs share an id")
    delta: dict[tuple[str, str], dict[str, Degree]] = {}
    for s in f1.states:
        for t in f2.states:
            source = product_id(s, t)
            for a in labels:
                lefts = image(f1, s, a).items() if a in f1.labels else [(s, ONE)]
                rights = image(f2, t, a).items() if a in f2.labels else [(t, ONE)]
                delta[(source, a)] = {
                    product_id(s2, t2): min(d1, d2)
                    for s2, d1 in lefts
                    for t2, d2 in rights
                }
    return Fts._from_images(
        states, labels, product_id(f1.init, f2.init), delta, product_id(f1.name, f2.name)
    )


def is_subsystem(f1: Fts, f2: Fts) -> bool:
    """Whether f1 is literally a part of f2: nested state sets, and f1's
    diagonal a bisimulation, so no f2-transition leaves f1's states."""
    check_alphabets(f1, f2)
    if not f1.states <= f2.states:
        return False
    diagonal = Relation(f1.states, f2.states, {(s, s) for s in f1.states})
    return check_bisimulation(f1, f2, diagonal).holds


def check_homomorphism(f1: Fts, f2: Fts, fmap: StateMap) -> Verdict:
    """A map is a homomorphism when it sends init to init and the image
    degree of every transition equals the supremum over the preimage:
    delta2(f(s), a)(t) = sup of delta1(s, a) over f's preimage of t.

    Each (s, a), in sorted order, compares delta1(s, a)'s preimage suprema,
    read by :func:`~fuzzts.core.image_sups` with ``(f(s),)`` as the keys of
    s, with the stored entries of delta2(f(s), a); a mismatch names the
    least state where the two differ.  Cost O(|S1|*|A| + |E1| + |E2|).
    """
    check_alphabets(f1, f2)
    if fmap.domain != f1.states or fmap.codomain != f2.states:
        raise UniverseError("map does not run between the two state sets")
    mapped_init = fmap(f1.init)
    if mapped_init != f2.init:
        return Verdict(False, Witness(f1.init, mapped_init, None, "init-map", f2.init))
    pairs = fmap.items()
    keys_of = {s: (fs,) for s, fs in pairs}
    labels = f1.sorted_labels()
    for s, fs in pairs:
        for a in labels:
            _, required = image_sups(f1, keys_of, s, a)
            actual = image(f2, fs, a)
            if required != actual:
                t = least_difference(required, actual)
                return Verdict(False, Witness(
                    s, fs, a, "hom-sup", t,
                    required.get(t, ZERO), actual.get(t, ZERO),
                ))
    return Verdict(True)


class NotHomomorphismError(ModelError):
    """Raised by :func:`hom_image` for a map that is not a homomorphism;
    ``verdict`` is the failed check with its witness."""

    def __init__(self, verdict: Verdict):
        super().__init__("map is not a homomorphism")
        self.verdict = verdict


def hom_image(f1: Fts, f2: Fts, fmap: StateMap) -> Fts:
    """The subsystem of f2 carried by the image of a homomorphism.

    Checks the map once; a non-homomorphism raises
    :class:`NotHomomorphismError`, which carries the failed verdict.  The
    check also shows the image closed, a positive entry outside it being a
    mismatch, so f2's images of its states go to the builder unchecked.
    """
    verdict = check_homomorphism(f1, f2, fmap)
    if not verdict.holds:
        raise NotHomomorphismError(verdict)
    states = fmap.image()
    delta = {(s, a): image(f2, s, a) for s in states for a in f2.labels}
    return Fts._from_images(states, f2.labels, f2.init, delta, f2.name)


def kernel(fmap: StateMap) -> Relation:
    """States identified by the map; always an equivalence on the domain.

    Groups the domain by image, so it costs O(|D| log |D| + output)."""
    groups = members(dict(fmap.items())).values()
    return Relation.from_blocks(fmap.domain, fmap.domain, ((g, g) for g in groups))


def graph_of(fmap: StateMap) -> Relation:
    return Relation(fmap.domain, fmap.codomain, set(fmap.items()))


def push_relation(fmap: StateMap, r: Relation) -> Relation:
    """Image of a relation on the domain under the map, as a relation on the
    codomain."""
    if r.left_universe != fmap.domain or r.right_universe != fmap.domain:
        raise UniverseError("relation is not over the map's domain")
    pairs = {(fmap(s), fmap(t)) for s, t in r.pairs}
    return Relation(fmap.codomain, fmap.codomain, pairs)


def pull_relation(fmap: StateMap, r: Relation) -> Relation:
    """Preimage of a relation on the codomain, as a relation on the domain.

    Each pair (x, y) of ``r`` relates every preimage of x to every preimage
    of y, so it costs O(|D| log |D| + |r| + output)."""
    if r.left_universe != fmap.codomain or r.right_universe != fmap.codomain:
        raise UniverseError("relation is not over the map's codomain")
    preimage = members(dict(fmap.items()))
    pairs = {
        (s, t)
        for x, y in r.pairs
        for s in preimage.get(x, ())
        for t in preimage.get(y, ())
    }
    return Relation(fmap.domain, fmap.domain, pairs)


@dataclass(frozen=True)
class QuotientFts:
    """A quotient system and its natural projection, ``class_of``."""

    quotient: Fts
    class_of: StateMap

    @property
    def classes(self) -> dict[str, frozenset[str]]:
        """``{class: its members}`` by least member, read off ``class_of``."""
        return {c: frozenset(group) for c, group in members(dict(self.class_of.items())).items()}


def quotient(f: Fts, r: Relation) -> QuotientFts:
    """Quotient of a system by an equivalence on its states.

    Classes are named "[m]" after their least member; the class-to-class
    degree is the supremum over all member pairs, which makes the definition
    independent of representatives.
    """
    check_relation(f, f, r)
    return _quotient(f, {s: block for block in r.equivalence_classes() for s in block})


def _quotient(f: Fts, class_of: dict[str, object]) -> QuotientFts:
    """Quotient by a partition given as ``{state: class}``, with each class
    renamed "[m]" after its least member m.

    One pass over the transitions takes the max of each edge's degree into
    (class of source, label, class of target), O(|E| log |E|); the images
    are valid as made and go to the builder unchecked.
    """
    name_of = {c: f"[{group[0]}]" for c, group in members(class_of).items()}
    class_of = {s: name_of[c] for s, c in class_of.items()}
    qstates = frozenset(name_of.values())
    images: dict[tuple[str, str], dict[str, Degree]] = {}
    for source, label, degree, target in f.transitions():
        entries = images.setdefault((class_of[source], label), {})
        block = class_of[target]
        if entries.get(block, ZERO) < degree:
            entries[block] = degree
    qf = Fts._from_images(qstates, f.labels, class_of[f.init], images, f.name)
    return QuotientFts(qf, StateMap(class_of, f.states, qstates))


def minimize(f: Fts) -> QuotientFts:
    """Quotient by self-bisimilarity: the canonical smallest bisimilar
    system.  The result's self-bisimilarity is the diagonal.

    The classes are those of the partition engine run on ``f`` alone, taken
    as its ``{state: class}`` map, so no pair relation is built.
    """
    return _quotient(f, coarsest_partition((f,))[0])
