import random
import signal

import pytest

import helpers
from fuzzts import (
    Degree,
    DegreeError,
    Fts,
    FuzzyAutomaton,
    FuzzySet,
    ModelError,
    ONE,
    Relation,
    UniverseError,
    ZERO,
    decompose,
    graph_of,
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
        with pytest.raises(ModelError, match="unknown state 'x' in transition"):
            Fts.from_triples(["s"], ["a"], "s", [("s", "a", "1", "x")])
        with pytest.raises(ModelError, match="unknown label"):
            Fts.from_triples(["s"], ["a"], "s", [("s", "z", "1", "s")])
        with pytest.raises(ModelError, match="duplicate"):
            Fts.from_triples(
                ["s"], ["a"], "s", [("s", "a", "1", "s"), ("s", "a", "0.5", "s")]
            )
        with pytest.raises(ModelError, match="duplicate"):
            Fts.from_triples(
                ["s"], ["a"], "s", [("s", "a", "0", "s"), ("s", "a", "0", "s")]
            )
        with pytest.raises(DegreeError):
            Fts.from_triples(["s"], ["a"], "s", [("s", "a", "1.5", "s")])
        # triples are checked one at a time, in order
        with pytest.raises(DegreeError):
            Fts.from_triples(
                ["s"], ["a"], "s", [("s", "a", "x", "s"), ("x", "a", "1", "s")]
            )
        with pytest.raises(ModelError, match="no states"):
            Fts(set(), {"a"}, "s")
        with pytest.raises(ModelError, match="initial state"):
            Fts({"s"}, {"a"}, "x")
        with pytest.raises(UniverseError):
            Fts({"s"}, {"a"}, "s", {("s", "a"): {"x": "1"}})
        with pytest.raises(ModelError, match="unknown state 'x' in transition function"):
            Fts({"s"}, {"a"}, "s", {("x", "a"): {"s": "1"}})
        with pytest.raises(ModelError, match="unknown label 'z' in transition function"):
            Fts({"s"}, {"a"}, "s", {("s", "z"): {"s": "1"}})

    def test_identifier_charset(self):
        # product and class ids are legal states; whitespace and colons are not
        Fts({"(s,t)", "[m]", "a'"}, {"a"}, "[m]")
        with pytest.raises(ModelError):
            Fts({"s 1"}, {"a"}, "s 1")
        with pytest.raises(ModelError):
            Fts({"s:1"}, {"a"}, "s:1")
        with pytest.raises(ModelError):
            Fts({""}, {"a"}, "")

    @pytest.mark.parametrize("name", ["my system", "a#b", "a\nb", ""])
    def test_system_name_must_be_an_identifier(self, name):
        """The model file's ``system NAME`` header carries one identifier, so
        a name it could not carry is rejected where the system is built."""
        with pytest.raises(ModelError, match="bad system name identifier"):
            Fts(["s"], ["a"], "s", name=name)
        with pytest.raises(ModelError, match="bad system name identifier"):
            Fts.from_triples(["s"], ["a"], "s", [("s", "a", "1", "s")], name=name)

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
        # images given as dicts or as fuzzy sets build the same system
        images = {
            ("s0", "a"): {"s1": "0.9"},
            ("s1", "b"): {"s2": Degree.parse("0.8")},
            ("s1", "c"): {"s3": "0.7"},
        }
        states, labels = choice_late.sorted_states(), choice_late.sorted_labels()
        from_dicts = Fts(states, labels, "s0", images)
        from_sets = Fts(
            states, labels, "s0", {key: choice_late.delta(*key) for key in images}
        )
        # an image over another universe is read through its entries
        wider = frozenset(states) | {"elsewhere"}
        from_wider = Fts(
            states, labels, "s0",
            {key: FuzzySet(wider, entries) for key, entries in images.items()},
        )
        assert from_dicts == from_sets == from_wider == choice_late
        # one changed degree, target, image, initial state or state set is
        # a different system
        edited = [
            {**images, ("s1", "c"): {"s3": "0.6"}},
            {**images, ("s1", "c"): {"s2": "0.7"}},
            {**images, ("s2", "a"): {"s3": "0.7"}},
        ]
        for delta in edited:
            assert Fts(states, labels, "s0", delta) != choice_late
        assert Fts(states, labels, "s1", images) != choice_late
        assert Fts(states + ["s4"], labels, "s0", images) != choice_late

    def test_zero_degree_triple_is_no_edge(self):
        f = Fts.from_triples(["s", "t"], ["a"], "s", [("s", "a", "0", "t")])
        g = Fts.from_triples(["s", "t"], ["a"], "s", [])
        assert f == g
        # zero entries and empty images are not stored
        h = Fts(["s", "t"], ["a"], "s", {("s", "a"): {"t": "0"}, ("t", "a"): {}})
        assert h == g
        assert list(h.transitions()) == []

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
        blocks = decompose(rel)
        assert [(sorted(u), sorted(v)) for u, v in blocks] == [
            (["s0"], ["t0"]),
            (["s1", "s2"], ["u1", "u2"]),
        ]

    def test_outside_states(self):
        r = Relation({"a", "b"}, {"x", "y"}, {("a", "x")})
        blocks = decompose(r)
        assert blocks == ((frozenset({"a"}), frozenset({"x"})),)

    def test_blocks_ordered_by_least_left_state(self):
        r = Relation(
            {"a", "b", "c"},
            {"x", "y", "z"},
            {("c", "z"), ("b", "y"), ("a", "x")},
        )
        blocks = decompose(r)
        assert [min(u) for u, _ in blocks] == ["a", "b", "c"]

    def test_empty_relation(self):
        r = Relation({"a"}, {"x"}, set())
        blocks = decompose(r)
        assert blocks == ()

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
            blocks = decompose(r)
            for u in helpers.subsets(left):
                for v in helpers.subsets(right):
                    assert is_correlational(r, u, v) == helpers.correlational_by_blocks(
                        blocks, u, v
                    )

    def test_matches_components_oracle(self):
        """decompose against block merging, order included, on seeded
        relations of every density, graphs of maps and equivalences; the
        blocks' squares are the z-closure, and an equivalence's are itself."""
        rng = random.Random(16180)
        cases = []
        for density in (0, 0.05, 0.2, 0.6, 1):
            for _ in range(30):
                left = [f"s{i}" for i in range(rng.randint(1, 30))]
                right = [f"t{i}" for i in range(rng.randint(1, 30))]
                pairs = {(s, t) for s in left for t in right if rng.random() < density}
                cases.append(Relation(left, right, pairs))
        equivalences = []
        for _ in range(40):
            f1 = Fts([f"s{i}" for i in range(rng.randint(1, 30))], ["a"], "s0")
            f2 = Fts([f"t{i}" for i in range(rng.randint(1, 30))], ["a"], "t0")
            cases.append(graph_of(helpers.random_map(rng, f1, f2)))
            equivalences.append(helpers.random_equivalence(rng, f1))
        multi = 0
        for r in cases + equivalences:
            blocks = decompose(r)
            assert blocks == helpers.components_oracle(r), r
            closure = Relation.from_blocks(r.left_universe, r.right_universe, blocks)
            assert closure == helpers.z_closure_oracle(r)
            multi += len(blocks) >= 3
        for r in equivalences:
            assert Relation.from_blocks(r.left_universe, r.right_universe, decompose(r)) == r
        assert multi >= 80

    def test_scale_gate(self):
        """A one-block zig-zag of 10**5 pairs, s_i-t_i and s_(i+1)-t_i, and a
        2 * 10**4-state equivalence of about 10**5 pairs, each in 2 s; a
        recursive walk runs out of stack on the first."""
        n = 50_000
        left = [f"s{i}" for i in range(n)]
        right = [f"t{i}" for i in range(n)]
        pairs = [(left[i], right[i]) for i in range(n)]
        pairs += [(left[i + 1], right[i]) for i in range(n - 1)]
        zigzag = Relation(left, right, pairs)
        states = [f"q{i}" for i in range(20_000)]
        classes = [states[i:i + 5] for i in range(0, len(states), 5)]
        equivalence = Relation(states, states, ((s, t) for c in classes for s in c for t in c))

        def out_of_time(signum, frame):
            raise TimeoutError("exceeded 2 s")

        previous = signal.signal(signal.SIGALRM, out_of_time)
        try:
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            blocks = decompose(zigzag)
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            found = equivalence.equivalence_classes()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert blocks == ((frozenset(left), frozenset(right)),)
        assert len(pairs) == 2 * n - 1 and len(equivalence) == 100_000
        assert sorted(map(sorted, found)) == sorted(map(sorted, classes))

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
        with pytest.raises(UniverseError, match="left set"):
            is_correlational(rel, {"zz"}, set())
        with pytest.raises(UniverseError, match="right set"):
            is_correlational(rel, set(), {"s0"})
