"""Value semantics of the immutable types: copies, deep copies and pickles
at every protocol are equal to the original, with equal hashes, no
attribute of a core value can be set or deleted, and equal values print
the same."""

import copy
import pickle

import pytest

import helpers
from fuzzts import (
    Fts,
    FuzzyAutomaton,
    FuzzySet,
    Relation,
    StateMap,
    bisimilarity,
    check_bisimulation,
    minimize,
)

# the types that guard their own slots
CORE = ("FuzzySet", "Fts", "FuzzyAutomaton", "Relation", "StateMap")
KINDS = CORE + ("QuotientFts", "Verdict", "Witness")

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle-{protocol}": lambda v, protocol=protocol: pickle.loads(pickle.dumps(v, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


def _values() -> dict:
    """One instance of each kind, built afresh on each call."""
    early, late = helpers.choice_early(), helpers.choice_late()
    final = FuzzySet(early.states, {"t2": "0.5", "t3": "1"})
    reduced = minimize(early)
    failed = check_bisimulation(late, early, Relation.full(late.states, early.states))
    assert not failed.holds
    return {
        "FuzzySet": early.delta("t0", "a"),
        "Fts": early,
        "FuzzyAutomaton": FuzzyAutomaton(early, final),
        "Relation": bisimilarity(late, early),
        "StateMap": reduced.class_of,
        "QuotientFts": reduced,
        "Verdict": failed,
        "Witness": failed.witness,
    }


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("kind", KINDS)
def test_copies_are_equal_values(kind, how):
    value = _values()[kind]
    clone = COPIES[how](value)
    assert type(clone) is type(value) and type(value).__name__ == kind
    assert clone == value and not clone != value
    assert hash(clone) == hash(value)
    assert clone == _values()[kind]


@pytest.mark.parametrize("how", COPIES)
def test_copied_systems_keep_names_finals_and_shared_universes(how):
    m = _values()["FuzzyAutomaton"]
    clone = COPIES[how](m)
    assert clone.base.name == m.base.name == "choice_early"
    assert clone.final.items() == m.final.items()
    assert all(image.universe is clone.base.states for image in clone.base._delta.values())
    assert clone.final.universe is clone.base.states


@pytest.mark.parametrize("kind", CORE)
def test_core_values_can_be_neither_set_nor_deleted(kind):
    value = _values()[kind]
    message = f"^{kind} is immutable$"
    for name in (*type(value).__slots__, "unknown"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert value == _values()[kind]


def test_equality_needs_the_same_type_and_contents():
    values = _values()
    for kind in CORE:
        assert all(values[kind] != other for k, other in values.items() if k != kind)
    early = values["Fts"]
    assert early.delta("t0", "a") != early.delta("t1", "b")
    assert FuzzyAutomaton(early, FuzzySet(early.states)) != values["FuzzyAutomaton"]


def _small(order) -> dict:
    """A small instance of each core kind, its contents listed in ``order``
    (``list`` keeps the lexicographic order, ``reversed`` turns it round)."""
    system = Fts(
        order(["x", "y"]), ["a"], "x",
        dict(order([(("x", "a"), {"y": "0.5"}), (("y", "a"), {"x": "1"})])), name="m",
    )
    return {
        "FuzzySet": FuzzySet(order(["x", "y"]), dict(order([("x", "1"), ("y", "0.5")]))),
        "Fts": system,
        "FuzzyAutomaton": FuzzyAutomaton(system, FuzzySet(system.states, {"y": "0.25"})),
        "Relation": Relation(["x", "y"], ["p", "q"], order([("x", "p"), ("y", "q")])),
        "StateMap": StateMap(dict(order([("x", "p"), ("y", "q")])), "xy", "pq"),
    }


REPRS = {
    "FuzzySet": "FuzzySet({x: 1, y: 0.5})",
    "Fts": "Fts(name='m', |S|=2, |A|=1, init='x')",
    "FuzzyAutomaton": (
        "FuzzyAutomaton(Fts(name='m', |S|=2, |A|=1, init='x'), final=FuzzySet({y: 0.25}))"
    ),
    "Relation": "Relation{(x,p), (y,q)}",
    "StateMap": "StateMap({'x': 'p', 'y': 'q'})",
}


@pytest.mark.parametrize("kind", CORE)
def test_equal_values_print_the_same(kind):
    forward, backward = _small(list)[kind], _small(reversed)[kind]
    assert forward == backward
    assert repr(forward) == repr(backward) == REPRS[kind]
