import random

import pytest

import helpers
from fuzzts import (
    Degree,
    Fts,
    FuzzyAutomaton,
    FuzzySet,
    ModelError,
    ONE,
    Relation,
    UniverseError,
    ZERO,
    decompose,
    is_correlational,
)


class TestFuzzySet:
    def test_lookup_and_support(self):
        mu = FuzzySet({"a", "b", "c"}, {"a": "0.5", "b": "0"})
        assert mu("a") == Degree.parse("0.5")
        assert mu("b") == ZERO
        assert mu("c") == ZERO
        assert mu.support == {"a"}
        assert mu.items() == [("a", Degree.parse("0.5"))]

    def test_zero_entries_are_dropped(self):
        assert FuzzySet({"a", "b"}, {"a": "0"}) == FuzzySet({"a", "b"})

    def test_universe_enforced(self):
        with pytest.raises(UniverseError):
            FuzzySet({"a"}, {"b": "0.5"})
        mu = FuzzySet({"a"}, {"a": "1"})
        with pytest.raises(UniverseError):
            mu("b")

    def test_sup_and_height(self):
        mu = FuzzySet({"a", "b", "c"}, {"a": "0.5", "b": "0.8"})
        assert mu.sup({"a", "c"}) == Degree.parse("0.5")
        assert mu.sup({"a", "b"}) == Degree.parse("0.8")
        assert mu.sup(set()) == ZERO
        assert mu.height == Degree.parse("0.8")
        assert FuzzySet({"a"}).height == ZERO

    def test_sup_outside_universe(self):
        mu = FuzzySet({"a"}, {"a": "1"})
        with pytest.raises(UniverseError):
            mu.sup({"z"})

    def test_union_intersection_pointwise(self):
        u = {"a", "b"}
        mu = FuzzySet(u, {"a": "0.5", "b": "0.2"})
        nu = FuzzySet(u, {"a": "0.3", "b": "0.8"})
        assert (mu | nu) == FuzzySet(u, {"a": "0.5", "b": "0.8"})
        assert (mu & nu) == FuzzySet(u, {"a": "0.3", "b": "0.2"})
        with pytest.raises(UniverseError):
            mu | FuzzySet({"a"}, {"a": "1"})

    def test_bool_and_eq(self):
        assert not FuzzySet({"a"})
        assert FuzzySet({"a"}, {"a": "0.1"})
        # same entries over different universes are different sets
        assert FuzzySet({"a"}, {"a": "1"}) != FuzzySet({"a", "b"}, {"a": "1"})


class TestFts:
    def test_delta_total(self, choice_late):
        mu = choice_late.delta("s0", "a")
        assert mu("s1") == Degree.parse("0.9")
        assert choice_late.delta("s2", "a") == FuzzySet(choice_late.states)
        assert choice_late.degree("s1", "b", "s2") == Degree.parse("0.8")
        assert choice_late.degree("s1", "b", "s3") == ZERO

    def test_delta_unknown(self, choice_late):
        with pytest.raises(UniverseError):
            choice_late.delta("zz", "a")
        with pytest.raises(UniverseError):
            choice_late.delta("s0", "z")

    def test_transitions_sorted(self, dup_branch):
        listed = list(dup_branch.transitions())
        assert listed == sorted(listed, key=lambda t: (t[0], t[1], t[3]))
        assert ("s0", "a", Degree.parse("0.9"), "s1") in listed
        assert len(listed) == 6

    def test_from_triples_rejects_bad_input(self):
        with pytest.raises(ModelError, match="unknown state"):
            Fts.from_triples(["s"], ["a"], "s", [("x", "a", "1", "s")])
        with pytest.raises(ModelError, match="unknown label"):
            Fts.from_triples(["s"], ["a"], "s", [("s", "z", "1", "s")])
        with pytest.raises(ModelError, match="duplicate"):
            Fts.from_triples(
                ["s"], ["a"], "s", [("s", "a", "1", "s"), ("s", "a", "0.5", "s")]
            )
        with pytest.raises(ModelError, match="no states"):
            Fts(set(), {"a"}, "s")
        with pytest.raises(ModelError, match="initial state"):
            Fts({"s"}, {"a"}, "x")

    def test_identifier_charset(self):
        # product and class ids are legal states; whitespace and colons are not
        Fts({"(s,t)", "[m]", "a'"}, {"a"}, "[m]")
        with pytest.raises(ModelError):
            Fts({"s 1"}, {"a"}, "s 1")
        with pytest.raises(ModelError):
            Fts({"s:1"}, {"a"}, "s:1")
        with pytest.raises(ModelError):
            Fts({""}, {"a"}, "")

    def test_equality_ignores_name(self, choice_late):
        other = Fts.from_triples(
            states=["s0", "s1", "s2", "s3"],
            labels=["a", "b", "c"],
            init="s0",
            triples=[
                ("s0", "a", "0.9", "s1"),
                ("s1", "b", "0.8", "s2"),
                ("s1", "c", "0.7", "s3"),
            ],
            name="renamed",
        )
        assert other == choice_late
        assert hash(other) == hash(choice_late)

    def test_zero_degree_triple_is_no_edge(self):
        f = Fts.from_triples(["s", "t"], ["a"], "s", [("s", "a", "0", "t")])
        g = Fts.from_triples(["s", "t"], ["a"], "s", [])
        assert f == g

    def test_check_word(self, choice_late):
        assert choice_late.check_word(["a", "b"]) == ("a", "b")
        with pytest.raises(UniverseError):
            choice_late.check_word(["a", "z"])


class TestFuzzyAutomaton:
    def test_final_universe_checked(self, choice_late):
        final = FuzzySet(choice_late.states, {"s2": "0.5"})
        m = FuzzyAutomaton(choice_late, final)
        assert m.final("s2") == Degree.parse("0.5")
        with pytest.raises(UniverseError):
            FuzzyAutomaton(choice_late, FuzzySet({"x"}, {"x": "1"}))

    def test_equality(self, choice_late):
        final = FuzzySet(choice_late.states, {"s2": "0.5"})
        assert FuzzyAutomaton(choice_late, final) == FuzzyAutomaton(choice_late, final)
        other = FuzzySet(choice_late.states, {"s2": "1"})
        assert FuzzyAutomaton(choice_late, final) != FuzzyAutomaton(choice_late, other)


class TestRelation:
    def test_membership_and_projections(self):
        r = Relation({"a", "b"}, {"x", "y"}, {("a", "x"), ("b", "x")})
        assert ("a", "x") in r
        assert ("a", "y") not in r
        assert len(r) == 2
        assert r.proj_left() == {"a", "b"}
        assert r.proj_right() == {"x"}
        assert r.sorted_pairs() == [("a", "x"), ("b", "x")]

    def test_pairs_must_fit_universes(self):
        with pytest.raises(UniverseError):
            Relation({"a"}, {"x"}, {("a", "z")})
        with pytest.raises(UniverseError):
            Relation({"a"}, {"x"}, {("z", "x")})

    def test_diagonal_and_full(self):
        d = Relation.diagonal({"a", "b"})
        assert d.sorted_pairs() == [("a", "a"), ("b", "b")]
        f = Relation.full({"a"}, {"x", "y"})
        assert len(f) == 2

    def test_inverse(self):
        r = Relation({"a"}, {"x", "y"}, {("a", "x")})
        assert r.inverse() == Relation({"x", "y"}, {"a"}, {("x", "a")})
        assert r.inverse().inverse() == r

    def test_compose(self):
        r = Relation({"a"}, {"x", "y"}, {("a", "x")})
        q = Relation({"x", "y"}, {"1"}, {("x", "1")})
        assert r.compose(q).sorted_pairs() == [("a", "1")]
        with pytest.raises(UniverseError):
            q.compose(r)

    def test_union_intersection(self):
        u, v = {"a", "b"}, {"x"}
        r1 = Relation(u, v, {("a", "x")})
        r2 = Relation(u, v, {("b", "x")})
        assert (r1 | r2).sorted_pairs() == [("a", "x"), ("b", "x")]
        assert len(r1 & r2) == 0
        with pytest.raises(UniverseError):
            r1 | Relation({"a"}, {"x"}, set())

    def test_issubset(self):
        u, v = {"a", "b"}, {"x"}
        small = Relation(u, v, {("a", "x")})
        big = Relation(u, v, {("a", "x"), ("b", "x")})
        assert small.issubset(big)
        assert not big.issubset(small)

    def test_is_equivalence(self):
        states = {"a", "b", "c"}
        eq = Relation(states, states,
                      {(x, y) for x in "ab" for y in "ab"} | {("c", "c")})
        assert eq.is_equivalence()
        assert [sorted(c) for c in eq.equivalence_classes()] == [["a", "b"], ["c"]]
        assert not Relation(states, states, {("a", "b")}).is_equivalence()
        # different universes can never be an equivalence
        assert not Relation({"a"}, {"b"}, set()).is_equivalence()

    def test_equivalence_classes_requires_equivalence(self):
        states = {"a", "b"}
        with pytest.raises(ModelError):
            Relation(states, states, {("a", "b")}).equivalence_classes()


class TestEquivalenceAgainstDefinition:
    def test_matches_triple_loop(self):
        """Random equivalences, and the same with one pair removed, one pair
        added, or a pair added both ways (which can merge two classes)."""
        rng = random.Random(4041)
        outcomes = {True: 0, False: 0}
        for _ in range(500):
            f = helpers.random_fts(rng, rng.randint(1, 7), ["a"])
            eq = helpers.random_equivalence(rng, f)
            s, t = rng.choice(f.sorted_states()), rng.choice(f.sorted_states())
            variants = [
                eq,
                eq.replace_pairs(eq.pairs - {rng.choice(eq.sorted_pairs())}),
                eq.replace_pairs(eq.pairs | {(s, t)}),
                eq.replace_pairs(eq.pairs | {(s, t), (t, s)}),
            ]
            for rel in variants:
                expected = helpers.is_equivalence_oracle(rel)
                assert rel.is_equivalence() == expected
                if expected:
                    assert rel.equivalence_classes() == helpers.equivalence_classes_oracle(rel)
                else:
                    with pytest.raises(ModelError, match="not an equivalence"):
                        rel.equivalence_classes()
                outcomes[expected] += 1
        assert outcomes[True] > 600 and outcomes[False] > 800


class TestDecompose:
    def test_skew_blocks(self, skew_pair):
        _, _, rel = skew_pair
        dec = decompose(rel)
        assert [(sorted(u), sorted(v)) for u, v in dec.blocks] == [
            (["s0"], ["t0"]),
            (["s1", "s2"], ["u1", "u2"]),
        ]
        assert dec.left_outside == frozenset()
        assert dec.right_outside == frozenset()

    def test_outside_states(self):
        r = Relation({"a", "b"}, {"x", "y"}, {("a", "x")})
        dec = decompose(r)
        assert dec.blocks == ((frozenset({"a"}), frozenset({"x"})),)
        assert dec.left_outside == {"b"}
        assert dec.right_outside == {"y"}

    def test_blocks_ordered_by_least_left_state(self):
        r = Relation(
            {"a", "b", "c"},
            {"x", "y", "z"},
            {("c", "z"), ("b", "y"), ("a", "x")},
        )
        dec = decompose(r)
        assert [min(u) for u, _ in dec.blocks] == ["a", "b", "c"]

    def test_empty_relation(self):
        r = Relation({"a"}, {"x"}, set())
        dec = decompose(r)
        assert dec.blocks == ()
        assert dec.left_outside == {"a"}
        assert dec.right_outside == {"x"}

    def test_matches_definitional_correlational_test(self):
        """decompose's block characterization must agree with the edge-scan
        definition of correlational pairs, on every subset pair."""
        rng = random.Random(20240817)
        for _ in range(30):
            n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
            left = frozenset(f"s{i}" for i in range(n1))
            right = frozenset(f"t{i}" for i in range(n2))
            pairs = {
                (s, t) for s in left for t in right if rng.random() < 0.4
            }
            r = Relation(left, right, pairs)
            dec = decompose(r)
            for u in helpers.subsets(left):
                for v in helpers.subsets(right):
                    assert is_correlational(r, u, v) == helpers.correlational_by_blocks(
                        dec, u, v
                    )

    def test_is_correlational_examples(self, skew_pair):
        _, _, rel = skew_pair
        # matching block unions are correlational
        assert is_correlational(rel, {"s0"}, {"t0"})
        assert is_correlational(rel, {"s1", "s2"}, {"u1", "u2"})
        assert is_correlational(rel, set(), set())
        # splitting a block is not
        assert not is_correlational(rel, {"s1"}, {"u1"})
        assert not is_correlational(rel, {"s0"}, {"u1"})

    def test_is_correlational_universe_checked(self, skew_pair):
        _, _, rel = skew_pair
        with pytest.raises(UniverseError):
            is_correlational(rel, {"zz"}, set())
