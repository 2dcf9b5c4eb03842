import random
import signal
from collections import Counter
from itertools import product

import pytest

import helpers
from fuzzts import (
    AlphabetError,
    CapError,
    Degree,
    Fts,
    FuzzyAutomaton,
    FuzzySet,
    Relation,
    UniverseError,
    Verdict,
    Witness,
    ZERO,
    are_bisimilar,
    bisimilarity,
    check_automaton_bisimulation,
    check_bisimulation,
    check_bisimulation_naive,
    check_strong_bisimulation,
    decompose,
    enumerate_bisimulations_bruteforce,
    graph_of,
    is_correlational,
    iter_bisimulations_bruteforce,
    iterate_refinement,
    minimize,
    refine,
    self_bisimilarity,
    z_closure,
)
from fuzzts.partition import graded


def d(text):
    return Degree.parse(text)


def harvest_bisimulations(f1, f2, limit=None):
    """All bisimulations between two tiny systems, by brute force."""
    found = list(iter_bisimulations_bruteforce(f1, f2, max_pairs=12))
    return found if limit is None else found[:limit]


class TestCheckBisimulation:
    def test_skew_relation_holds(self, skew_pair):
        left, right, rel = skew_pair
        assert check_bisimulation(left, right, rel).holds
        assert check_bisimulation_naive(left, right, rel)

    def test_verdict_truth_is_holds(self, twin_fork):
        rel = Relation(twin_fork.states, twin_fork.states, {("s0", "s0")})
        failed = check_bisimulation(twin_fork, twin_fork, rel)
        assert not failed and failed.witness is not None
        assert Verdict(True) and not Verdict(False, Witness("s", "t"))

    def test_example_quotient_relation_holds(self, dup_branch):
        reduced = minimize(dup_branch).quotient
        rel = Relation(
            dup_branch.states,
            reduced.states,
            {("s0", "[s0]"), ("s1", "[s1]"), ("s2", "[s1]"),
             ("s3", "[s3]"), ("s4", "[s3]")},
        )
        assert check_bisimulation(dup_branch, reduced, rel).holds

    def test_outside_support_failure(self, choice_late, choice_early):
        rel = Relation(choice_late.states, choice_early.states, {("s0", "t0")})
        verdict = check_bisimulation(choice_late, choice_early, rel)
        assert not verdict.holds
        w = verdict.witness
        assert (w.left, w.right, w.label, w.kind) == ("s0", "t0", "a", "left-support")
        assert w.subject == "s1"
        assert w.left_degree == d("0.9")
        assert w.right_degree == ZERO

    def test_empty_relation_holds(self, choice_late, choice_early):
        rel = Relation(choice_late.states, choice_early.states, set())
        assert check_bisimulation(choice_late, choice_early, rel).holds

    def test_witness_only_when_failing(self, skew_pair):
        left, right, rel = skew_pair
        assert check_bisimulation(left, right, rel).witness is None

    def test_block_sup_witness(self):
        f1 = Fts.from_triples(["s0", "s1"], ["a"], "s0", [("s0", "a", "0.8", "s1")])
        f2 = Fts.from_triples(["t0", "t1"], ["a"], "t0", [("t0", "a", "0.5", "t1")])
        rel = Relation(f1.states, f2.states, {("s0", "t0"), ("s1", "t1")})
        verdict = check_bisimulation(f1, f2, rel)
        assert not verdict.holds
        w = verdict.witness
        assert w.kind == "block-sup"
        assert (w.left, w.right, w.label) == ("s0", "t0", "a")
        assert w.subject == "{s1}~{t1}"
        assert (w.left_degree, w.right_degree) == (d("0.8"), d("0.5"))

    def test_alphabet_and_universe_errors(self, choice_late, twin_fork):
        rel = Relation(choice_late.states, twin_fork.states, set())
        with pytest.raises(AlphabetError):
            check_bisimulation(choice_late, twin_fork, rel)
        other = Relation({"x"}, {"y"}, set())
        with pytest.raises(UniverseError):
            check_bisimulation(choice_late, choice_late, other)

    def test_agrees_with_naive_on_random_instances(self):
        rng = random.Random(55001)
        agreements = 0
        for _ in range(60):
            f1 = helpers.random_fts(rng, rng.randint(1, 4), ["a", "b"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 4), ["a", "b"], prefix="t")
            rel = helpers.random_relation(rng, f1, f2)
            fast = check_bisimulation(f1, f2, rel).holds
            slow = check_bisimulation_naive(f1, f2, rel)
            assert fast == slow
            agreements += fast
        # make sure the sample exercises both outcomes
        assert 0 < agreements < 60


    def test_verdict_matches_dense_oracle(self):
        """The whole verdict, witness included, against the dense-vector
        form kept in helpers, on maps' graphs, small random pairs and
        relations of at least 8 blocks."""
        rng = random.Random(55002)
        cases = []
        for _ in range(300):
            big, g, fmap = helpers.inflated_hom_case(rng)
            cases.append((big, g, graph_of(fmap)))
        for _ in range(300):
            f1, f2 = helpers.random_pair(rng)
            cases.append((f1, f2, helpers.random_relation(rng, f1, f2)))
        for i in range(150):
            labels = ["a", "b"][: rng.randint(1, 2)]
            g = helpers.random_fts(rng, rng.randint(8, 10), labels, prefix="g")
            if i % 2:
                big, fmap = helpers.inflate(rng, g, rng.randint(1, 2))
                cases.append((big, g, graph_of(fmap)))
                continue
            # a perfect matching, one pair of it now and then dropped
            f2 = helpers.random_fts(rng, len(g.states), labels, prefix="t")
            right = f2.sorted_states()
            rng.shuffle(right)
            pairs = list(zip(g.sorted_states(), right))
            if rng.random() < 0.3:
                pairs.pop(rng.randrange(len(pairs)))
            cases.append((g, f2, Relation(g.states, f2.states, pairs)))
        kinds = {"left-support": 0, "right-support": 0, "block-sup": 0, None: 0}
        wide = 0
        for f1, f2, rel in cases:
            verdict = check_bisimulation(f1, f2, rel)
            assert verdict == helpers.check_bisimulation_oracle(f1, f2, rel), (f1, f2, rel)
            kinds[verdict.witness.kind if verdict.witness else None] += 1
            wide += len(decompose(rel)) >= 8
        assert min(kinds.values()) > 20, kinds
        assert wide > 100

class TestVerdictLeast:
    """The one witness order: every check reports the least failing
    (left, right, label), asking in that order."""

    PAIRS = [("s0", "t0"), ("s0", "t1"), ("s1", "t0"), ("s1", "t1")]
    LABELS = ["a", "b", "c"]
    ITEMS = [(s, t, a) for (s, t), a in product(PAIRS, LABELS)]

    @staticmethod
    def failing(items):
        """A failure test that fails exactly on ``items``, and the list of
        the items it was asked about."""
        asked = []

        def failure(s, t, a):
            asked.append((s, t, a))
            return Witness(s, t, a, "test") if (s, t, a) in items else None

        return failure, asked

    def test_the_least_failing_item_wins_in_any_input_order(self):
        rng = random.Random(32)
        for _ in range(200):
            items = set(rng.sample(self.ITEMS, rng.randint(1, 4)))
            pairs, labels = self.PAIRS[:], self.LABELS[:]
            rng.shuffle(pairs)
            rng.shuffle(labels)
            failure, asked = self.failing(items)
            least = min(items)
            assert Verdict.least(pairs, labels, failure) == Verdict(False, Witness(*least, "test"))
            assert asked == self.ITEMS[: self.ITEMS.index(least) + 1]

    def test_a_pairs_first_failing_label_wins_over_later_pairs(self):
        failure, _ = self.failing({("s0", "t1", "c"), ("s1", "t0", "a")})
        verdict = Verdict.least(reversed(self.PAIRS), frozenset(self.LABELS), failure)
        assert verdict.witness == Witness("s0", "t1", "c", "test")

    def test_no_failure_holds(self):
        failure, asked = self.failing(set())
        assert Verdict.least(frozenset(self.PAIRS), self.LABELS, failure) == Verdict(True)
        assert asked == self.ITEMS
        assert Verdict.least([], self.LABELS, failure) == Verdict(True)


class TestCheckBisimulationNaive:
    def test_single_pair_on_twin_fork_fails(self, twin_fork):
        rel = Relation(twin_fork.states, twin_fork.states, {("s0", "s0")})
        assert not check_bisimulation_naive(twin_fork, twin_fork, rel)
        assert not check_bisimulation(twin_fork, twin_fork, rel).holds

    def test_diagonal_holds(self, choice_late):
        rel = Relation.diagonal(choice_late.states)
        assert check_bisimulation_naive(choice_late, choice_late, rel)

    def test_cap(self, choice_late, choice_early):
        rel = Relation(choice_late.states, choice_early.states, set())
        with pytest.raises(CapError):
            check_bisimulation_naive(choice_late, choice_early, rel, max_states=8)
        # the default cap admits 4 + 5 states
        assert check_bisimulation_naive(choice_late, choice_early, rel)


class TestCheckStrongBisimulation:
    def test_skew_fails_with_exact_witness(self, skew_pair):
        left, right, rel = skew_pair
        verdict = check_strong_bisimulation(left, right, rel)
        assert not verdict.holds
        w = verdict.witness
        assert (w.left, w.right, w.label, w.kind) == ("s0", "t0", "a", "left-move")
        assert w.subject == "s1"
        assert w.left_degree == d("0.8")
        assert w.right_degree == d("0.3")

    def test_z_closure_repairs_skew(self, skew_pair):
        left, right, rel = skew_pair
        closed = z_closure(rel)
        assert closed.pairs - rel.pairs == {("s1", "u2")}
        assert check_strong_bisimulation(left, right, closed).holds

    def test_diagonal_is_strong(self, choice_late):
        rel = Relation.diagonal(choice_late.states)
        assert check_strong_bisimulation(choice_late, choice_late, rel).holds

    def test_right_move_witness(self):
        f1 = Fts.from_triples(["s0", "s1"], ["a"], "s0", [])
        f2 = Fts.from_triples(["t0", "t1"], ["a"], "t0", [("t0", "a", "0.5", "t1")])
        rel = Relation(f1.states, f2.states, {("s0", "t0")})
        verdict = check_strong_bisimulation(f1, f2, rel)
        assert not verdict.holds
        assert verdict.witness.kind == "right-move"
        assert verdict.witness.subject == "t1"

    def test_strong_implies_plain(self):
        """Any relation passing the strong check passes the plain check."""
        rng = random.Random(98811)
        strong_seen = 0
        for _ in range(120):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="t")
            rel = helpers.random_relation(rng, f1, f2, density=0.5)
            if check_strong_bisimulation(f1, f2, rel).holds:
                strong_seen += 1
                assert check_bisimulation(f1, f2, rel).holds
        assert strong_seen > 5

    def test_matches_two_loop_oracle(self, skew_pair):
        """Verdict and witness equal the one-loop-per-direction oracle's on
        seeded relations over seeded pairs, on the skew pair and its
        z-closure, with both witness kinds and enough holding cases seen."""
        rng = random.Random(31415)
        left, right, rel = skew_pair
        cases = [(left, right, rel), (left, right, z_closure(rel))]
        for _ in range(400):
            f1, f2 = helpers.random_pair(rng)
            cases.append((f1, f2, helpers.random_relation(rng, f1, f2, rng.random())))
            cases.append((f1, f2, bisimilarity(f1, f2)))
        outcomes = Counter()
        for f1, f2, r in cases:
            verdict = check_strong_bisimulation(f1, f2, r)
            assert verdict == helpers.check_strong_bisimulation_oracle(f1, f2, r), (f1, f2, r)
            outcomes[verdict.witness.kind if verdict.witness else "holds"] += 1
        assert outcomes["holds"] >= 500, outcomes
        assert outcomes["left-move"] >= 150 and outcomes["right-move"] >= 100, outcomes

    def test_matches_two_loop_oracle_on_inflated_pairs(self):
        """Verdict and witness equal the oracle's where states have several
        partners, so one target's answers serve several pairs: the graph of
        an inflated system's map back to its base (its copies perturbed),
        the inflated system's self-bisimilarity, and seeded relations
        between the inflated system and its base."""
        rng = random.Random(27182)
        outcomes = Counter()
        for _ in range(600):
            big, g, fmap = helpers.inflated_hom_case(rng)
            cases = [
                (big, g, graph_of(fmap)),
                (big, big, bisimilarity(big, big)),
                (big, g, helpers.random_relation(rng, big, g, rng.random())),
            ]
            for f1, f2, r in cases:
                verdict = check_strong_bisimulation(f1, f2, r)
                assert verdict == helpers.check_strong_bisimulation_oracle(f1, f2, r), (f1, f2, r)
                outcomes[verdict.witness.kind if verdict.witness else "holds"] += 1
        assert outcomes["holds"] >= 600, outcomes
        assert outcomes["left-move"] >= 300 and outcomes["right-move"] >= 150, outcomes


class TestRefine:
    def test_bisimulation_iff_contained_in_refinement(self):
        """Fixed-point characterization, both directions; a failing check
        names the least related pair that the refinement drops."""
        rng = random.Random(13579)
        for _ in range(50):
            f1 = helpers.random_fts(rng, rng.randint(1, 4), ["a", "b"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 4), ["a", "b"], prefix="t")
            rel = helpers.random_relation(rng, f1, f2)
            verdict = check_bisimulation(f1, f2, rel)
            refined = refine(f1, f2, rel)
            assert verdict.holds == rel.issubset(refined)
            if not verdict.holds:
                witness = verdict.witness
                assert (witness.left, witness.right) == min(rel.pairs - refined.pairs)

    def test_empty_relation_on_silent_systems_gives_full_product(self):
        f1 = Fts.from_triples(["s0"], ["a"], "s0", [])
        f2 = Fts.from_triples(["t0"], ["a"], "t0", [])
        rel = Relation(f1.states, f2.states, set())
        assert refine(f1, f2, rel) == Relation.full(f1.states, f2.states)

    def test_one_step_from_full_product(self, choice_late, choice_early):
        full = Relation.full(choice_late.states, choice_early.states)
        step1 = refine(choice_late, choice_early, full)
        # the one-block structure forces per-label height agreement
        assert ("s1", "t1") not in step1
        assert ("s1", "t1'") not in step1
        assert ("s0", "t0") in step1

    def test_monotone(self):
        rng = random.Random(86420)
        for _ in range(40):
            f1 = helpers.random_fts(rng, rng.randint(1, 4), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 4), ["a"], prefix="t")
            big = helpers.random_relation(rng, f1, f2, density=0.6)
            small = helpers.random_subrelation(rng, big, 0.6)
            assert refine(f1, f2, small).issubset(refine(f1, f2, big))

    def test_refine_of_fixpoint_is_fixpoint(self):
        rng = random.Random(111213)
        for _ in range(20):
            f1, f2 = helpers.random_pair(rng)
            fix = bisimilarity(f1, f2)
            assert refine(f1, f2, fix) == fix


class TestCorrelationalMonotonicity:
    def test_correlational_pairs_shrink_with_larger_relations(self):
        """If r is contained in r', every r'-correlational pair is
        r-correlational; exhaustive over all subset pairs."""
        rng = random.Random(192837)
        for _ in range(20):
            left = frozenset(f"s{i}" for i in range(rng.randint(1, 4)))
            right = frozenset(f"t{i}" for i in range(rng.randint(1, 4)))
            big_pairs = {
                (s, t) for s in left for t in right if rng.random() < 0.5
            }
            small_pairs = {p for p in big_pairs if rng.random() < 0.6}
            big = Relation(left, right, big_pairs)
            small = Relation(left, right, small_pairs)
            for u in helpers.subsets(left):
                for v in helpers.subsets(right):
                    if is_correlational(big, u, v):
                        assert is_correlational(small, u, v)


class TestBisimilarity:
    def test_fig_systems_not_bisimilar(self, choice_late, choice_early):
        fix = bisimilarity(choice_late, choice_early)
        assert ("s0", "t0") not in fix
        assert not are_bisimilar(choice_late, choice_early)

    def test_dup_branch_self_classes(self, dup_branch):
        fix = self_bisimilarity(dup_branch)
        assert [sorted(c) for c in fix.equivalence_classes()] == [
            ["s0"], ["s1", "s2"], ["s3", "s4"],
        ]

    def test_twin_fork_self_classes(self, twin_fork):
        fix = self_bisimilarity(twin_fork)
        assert [sorted(c) for c in fix.equivalence_classes()] == [["s", "t"], ["s0"]]

    def test_single_state_diagonal(self):
        f = Fts.from_triples(["s0"], ["a"], "s0", [("s0", "a", "0.5", "s0")])
        assert self_bisimilarity(f) == Relation.diagonal(f.states)

    def test_isomorphic_copy_contains_isomorphism(self, choice_late):
        copy = Fts.from_triples(
            states=["u0", "u1", "u2", "u3"],
            labels=["a", "b", "c"],
            init="u0",
            triples=[
                ("u0", "a", "0.9", "u1"),
                ("u1", "b", "0.8", "u2"),
                ("u1", "c", "0.7", "u3"),
            ],
        )
        fix = bisimilarity(choice_late, copy)
        iso = {("s0", "u0"), ("s1", "u1"), ("s2", "u2"), ("s3", "u3")}
        assert iso <= fix.pairs
        assert are_bisimilar(choice_late, copy)

    def test_edges_into_one_class_match_a_single_edge(self):
        """Two a-edges into bisimilar dead ends act as one edge of the larger
        degree, whether a state has one out-edge or several."""
        fork = Fts.from_triples(
            ["s0", "s", "t"], ["a"], "s0", [("s0", "a", "0.8", "s"), ("s0", "a", "0.3", "t")]
        )
        single = Fts.from_triples(["u0", "u"], ["a"], "u0", [("u0", "a", "0.8", "u")])
        assert bisimilarity(fork, single).sorted_pairs() == [("s", "u"), ("s0", "u0"), ("t", "u")]
        assert bisimilarity(single, fork) == bisimilarity(fork, single).inverse()

    def test_self_bisimilarity_matches_two_copy_bisimilarity(self):
        """One engine run on ``f`` alone gives the classes of two copies."""
        rng = random.Random(456790)
        merged = 0
        for i in range(400):
            if i % 2:
                f, _, _ = helpers.inflated_hom_case(rng)
            else:
                labels = ["a", "b"][: rng.randint(1, 2)]
                f = helpers.random_fts(rng, rng.randint(1, 8), labels)
            rel = self_bisimilarity(f)
            assert rel == bisimilarity(f, f)
            merged += len(rel) > len(f.states)
        assert merged > 50

    def test_self_bisimilar(self, choice_early):
        assert are_bisimilar(choice_early, choice_early)

    def test_result_is_a_bisimulation_containing_every_bisimulation(self):
        rng = random.Random(456789)
        for _ in range(10):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="t")
            fix = bisimilarity(f1, f2)
            assert check_bisimulation(f1, f2, fix).holds
            for rel in harvest_bisimulations(f1, f2):
                assert rel.issubset(fix)

    def test_iteration_trace_non_increasing_and_bounded(self):
        rng = random.Random(192021)
        for _ in range(20):
            f1, f2 = helpers.random_pair(rng)
            trace = iterate_refinement(f1, f2)
            assert trace[0] == Relation.full(f1.states, f2.states)
            for earlier, later in zip(trace, trace[1:]):
                assert later.issubset(earlier)
            assert trace[-1] == trace[-2]
            # at most |S1 x S2| strict shrink steps
            assert len(trace) <= len(f1.states) * len(f2.states) + 2

    def test_alphabet_mismatch(self, choice_late, twin_fork):
        with pytest.raises(AlphabetError):
            bisimilarity(choice_late, twin_fork)

    @pytest.mark.parametrize("decide", [bisimilarity, are_bisimilar])
    def test_alphabet_mismatch_on_label_subset(self, decide):
        """The engine indexes the union of the alphabets, so a strict
        subset must still be rejected before it runs."""
        f1 = Fts.from_triples(["s0"], ["a"], "s0", [("s0", "a", "1", "s0")])
        f2 = Fts.from_triples(["t0"], ["a", "b"], "t0", [("t0", "a", "1", "t0")])
        with pytest.raises(AlphabetError):
            decide(f1, f2)
        with pytest.raises(AlphabetError):
            decide(f2, f1)


def _differential_pairs(rng):
    """200 pairs of random_fts systems, 200 random_pair pairs and 120
    self-pairs, in a fixed order for the seed."""
    for _ in range(200):
        labels = ["a", "b"][: rng.randint(1, 2)]
        yield (
            helpers.random_fts(rng, rng.randint(1, 12), labels, prefix="s"),
            helpers.random_fts(rng, rng.randint(1, 12), labels, prefix="t"),
        )
    for _ in range(200):
        yield helpers.random_pair(rng)
    for i in range(120):
        if i % 2:
            f = helpers.random_pair(rng)[0]
        else:
            f = helpers.random_fts(rng, rng.randint(1, 12), ["a", "b"][: rng.randint(1, 2)])
        yield f, f


class TestEngineAgainstRefinement:
    def test_bisimilarity_equals_refinement_fixpoint(self):
        """The partition engine against the definitional iteration of
        ``refine``, on systems too large for the brute-force oracle."""
        pairs = list(_differential_pairs(random.Random(20240613)))
        assert len(pairs) >= 500
        related_across = 0
        for f1, f2 in pairs:
            fix = bisimilarity(f1, f2)
            assert fix == iterate_refinement(f1, f2)[-1], (f1, f2)
            assert are_bisimilar(f1, f2) == ((f1.init, f2.init) in fix)
            related_across += f1 is not f2 and bool(fix.pairs)
        # enough distinct systems share bisimilar states to exercise matching
        assert related_across >= 50

    def test_round_k_equals_kth_refinement_iterate(self):
        """Round k of the engine, restricted to S1 x S2, is the k-th iterate
        of ``refine`` from the full product (k-step bisimilarity), up to and
        past the fixed point.  Each round before the stable one splits a
        class; the stable round splits none and keeps the previous round's
        class numbers, and every deeper round repeats it."""
        pairs = list(_differential_pairs(random.Random(5318008)))
        checks = long_traces = 0
        for f1, f2 in pairs:
            trace = iterate_refinement(f1, f2)
            long_traces += len(trace) > 3
            # refinement splits at most n - 1 times, so round n is stable
            n = len(f1.states) + len(f2.states)
            rounds = []
            for k in range(n + 2):
                rounds.append(graded((f1, f2), k)[0])
                if k and rounds[k] == rounds[k - 1]:
                    break
            stable = len(rounds) - 1
            assert rounds[0] == [dict.fromkeys(f1.states, 0), dict.fromkeys(f2.states, 0)]
            assert rounds[stable] == rounds[stable - 1]
            deeper = range(stable + 1, max(len(trace), stable + 1) + 2)
            rounds += [graded((f1, f2), k)[0] for k in deeper]
            assert all(
                _class_count(a) < _class_count(b) for a, b in zip(rounds, rounds[1:stable])
            )
            assert all(classes == rounds[stable] for classes in rounds[stable:])
            for k, (left, right) in enumerate(rounds[1:], 1):
                related = {
                    (s, t)
                    for s, c in left.items()
                    for t, e in right.items()
                    if c == e
                }
                expected = trace[min(k, len(trace) - 1)]
                assert Relation(f1.states, f2.states, related) == expected, (f1, f2, k)
                checks += 1
        assert checks >= 2400
        assert long_traces >= 250


def _class_count(class_maps) -> int:
    """The number of classes that per-system ``{state: class}`` maps use."""
    return len({c for class_of in class_maps for c in class_of.values()})


def _partition(class_maps):
    """The classes of per-system ``{state: class}`` maps, over (system
    index, state) nodes."""
    groups: dict[int, set] = {}
    for i, class_of in enumerate(class_maps):
        for s, c in class_of.items():
            groups.setdefault(c, set()).add((i, s))
    return {frozenset(group) for group in groups.values()}


class TestThresholdCutOracle:
    def test_engine_matches_crisp_refinement_of_the_cut(self):
        """Max-min bisimilarity is crisp bisimilarity of the threshold cut,
        round by round: the cut's round k is the engine's round k up to one
        past the stable round, and its last round, restricted to S1 x S2,
        is bisimilarity.  Three labels put several edges of different
        degrees under one (state, label), where a cut keeping only the
        exact degrees splits too finely."""
        rng = random.Random(27182)
        cases = list(_differential_pairs(rng))
        for _ in range(100):
            labels = ["a", "b", "c"]
            cases.append((
                helpers.random_fts(rng, rng.randint(1, 6), labels, prefix="s"),
                helpers.random_fts(rng, rng.randint(1, 6), labels, prefix="t"),
            ))
        for n in range(20, 41, 5):
            for last in ("1", "0.5"):
                cases.append((helpers.chain(n), helpers.chain(n, last, prefix="d")))
        for p in range(2, 6):
            for q in range(2, 5):
                cases.append(helpers.marked_cycle_product(rng, p, q))
        rounds = 0
        for f1, f2 in cases:
            cut = helpers.threshold_cut_rounds((f1, f2))
            left, right = cut[-1]
            related = {(s, t) for s, c in left.items() for t, e in right.items() if c == e}
            assert bisimilarity(f1, f2) == Relation(f1.states, f2.states, related), (f1, f2)
            stable = len(cut) - 1
            for k in range(stable + 2):
                engine, _ = graded((f1, f2), k)
                assert _partition(engine) == _partition(cut[min(k, stable)]), (f1, f2, k)
                rounds += 1
        assert len(cases) == 642 and rounds >= 3000


class TestEnumerateBruteforce:
    def test_matches_self_bisimilarity_on_twin_fork(self, twin_fork):
        union = enumerate_bisimulations_bruteforce(twin_fork, twin_fork)
        assert union == self_bisimilarity(twin_fork)

    def test_silent_single_states(self):
        f1 = Fts.from_triples(["s0"], ["a"], "s0", [])
        f2 = Fts.from_triples(["t0"], ["a"], "t0", [])
        union = enumerate_bisimulations_bruteforce(f1, f2)
        assert union.sorted_pairs() == [("s0", "t0")]

    def test_cap(self, dup_branch):
        with pytest.raises(CapError, match="cap exceeded"):
            enumerate_bisimulations_bruteforce(dup_branch, dup_branch)

    def test_alphabet_mismatch(self, choice_late, twin_fork):
        with pytest.raises(AlphabetError):
            next(iter_bisimulations_bruteforce(choice_late, twin_fork))

    def test_matches_fixpoint_on_random_pairs(self):
        rng = random.Random(654321)
        for _ in range(15):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 4), ["a"], prefix="t")
            assert enumerate_bisimulations_bruteforce(f1, f2) == bisimilarity(f1, f2)


class TestClosureOperations:
    def test_diagonal_is_bisimulation(self):
        rng = random.Random(2468)
        for _ in range(15):
            f = helpers.random_fts(rng, rng.randint(1, 5), ["a", "b"])
            rel = Relation.diagonal(f.states)
            assert check_bisimulation(f, f, rel).holds

    def test_inverse_closure(self):
        rng = random.Random(1357)
        for _ in range(10):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="t")
            for rel in harvest_bisimulations(f1, f2, limit=40):
                assert check_bisimulation(f2, f1, rel.inverse()).holds

    def test_union_closure(self):
        rng = random.Random(8642)
        for _ in range(8):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="t")
            found = harvest_bisimulations(f1, f2, limit=25)
            for r1 in found:
                for r2 in found:
                    assert check_bisimulation(f1, f2, r1 | r2).holds

    def test_composition_closure(self):
        rng = random.Random(7531)
        for _ in range(8):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="t")
            f3 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="u")
            for r in harvest_bisimulations(f1, f2, limit=15):
                for q in harvest_bisimulations(f2, f3, limit=15):
                    assert check_bisimulation(f1, f3, r.compose(q)).holds

    def test_intersection_not_closed(self, twin_fork):
        """The classic counterexample: two bisimulations whose intersection
        is not one."""
        states = twin_fork.states
        r1 = Relation.diagonal(states)
        r2 = Relation(states, states, {("s0", "s0"), ("s", "t"), ("t", "s")})
        assert check_bisimulation(twin_fork, twin_fork, r1).holds
        assert check_bisimulation(twin_fork, twin_fork, r2).holds
        meet = r1 & r2
        assert meet.sorted_pairs() == [("s0", "s0")]
        verdict = check_bisimulation(twin_fork, twin_fork, meet)
        assert not verdict.holds
        w = verdict.witness
        assert (w.left, w.right, w.label, w.kind) == ("s0", "s0", "a", "left-support")
        assert w.subject == "s"


class TestZClosure:
    def test_skew_example(self, skew_pair):
        _, _, rel = skew_pair
        closed = z_closure(rel)
        assert closed.pairs == rel.pairs | {("s1", "u2")}

    def test_complete_bipartite_is_fixed(self):
        rel = Relation.full({"a", "b"}, {"x", "y"})
        assert z_closure(rel) == rel

    def test_diagonal_is_fixed(self):
        rel = Relation.diagonal({"a", "b", "c"})
        assert z_closure(rel) == rel

    def test_closure_properties(self):
        rng = random.Random(314159)
        for _ in range(25):
            left = frozenset(f"s{i}" for i in range(rng.randint(1, 4)))
            right = frozenset(f"t{i}" for i in range(rng.randint(1, 4)))
            rel = Relation(
                left, right,
                {(s, t) for s in left for t in right if rng.random() < 0.4},
            )
            closed = z_closure(rel)
            assert rel.issubset(closed)
            assert z_closure(closed) == closed
            # squares are completed
            for s, t in closed.pairs:
                for s2, t2 in closed.pairs:
                    if (s2, t) in closed:
                        assert (s, t2) in closed

    def test_matches_fixpoint_oracle(self):
        rng = random.Random(161803)
        cases = [
            Relation(frozenset({"s0", "s1"}), frozenset({"t0"}), set()),
            Relation.full({"s0", "s1", "s2"}, {"t0", "t1"}),
            Relation(
                frozenset({"s0", "s1", "s2", "s3"}),
                frozenset({"t0", "t1", "t2", "t3"}),
                {("s0", "t1"), ("s1", "t1"), ("s1", "t0"), ("s2", "t2"), ("s3", "t3")},
            ),
        ]
        for _ in range(1000):
            left = frozenset(f"s{i}" for i in range(rng.randint(1, 9)))
            right = frozenset(f"t{i}" for i in range(rng.randint(1, 9)))
            density = rng.random()
            cases.append(Relation(
                left, right,
                {(s, t) for s in left for t in right if rng.random() < density},
            ))
        assert sum(len(decompose(rel)) >= 3 for rel in cases) >= 20
        for rel in cases:
            assert z_closure(rel) == helpers.z_closure_oracle(rel)

    def test_alternating_path_within_bound(self):
        """One block whose closure is all 200 x 200 pairs; the fixpoint
        loop needs minutes here, the block form milliseconds."""
        k = 200
        left = [f"s{i}" for i in range(k)]
        right = [f"t{i}" for i in range(k)]
        pairs = {(left[i], right[i]) for i in range(k)}
        pairs |= {(left[i + 1], right[i]) for i in range(k - 1)}
        rel = Relation(frozenset(left), frozenset(right), pairs)

        def out_of_time(signum, frame):
            raise TimeoutError("z_closure exceeded 2 s on a 200-state path")

        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            closed = z_closure(rel)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert closed == Relation.full(left, right)

    def test_z_closure_preserves_bisimulation(self):
        rng = random.Random(271828)
        for _ in range(10):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="t")
            for rel in harvest_bisimulations(f1, f2, limit=30):
                assert check_bisimulation(f1, f2, z_closure(rel)).holds


class TestMoveDomination:
    def test_related_moves_are_dominated(self):
        """In a bisimulation, each move is bounded by the best move of its
        partner into related targets."""
        rng = random.Random(161803)
        for _ in range(10):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="t")
            for rel in harvest_bisimulations(f1, f2, limit=30):
                for s, t in rel.pairs:
                    for a in f1.labels:
                        mu = f1.delta(s, a)
                        eta = f2.delta(t, a)
                        for s2 in mu.support:
                            best = max(
                                (eta(t2) for t2 in f2.states if (s2, t2) in rel),
                                default=ZERO,
                            )
                            assert mu(s2) <= best


class TestLargestBisimulationIsStrong:
    def test_bisimilarity_is_strong(self):
        rng = random.Random(141421)
        for _ in range(20):
            f1, f2 = helpers.random_pair(rng)
            fix = bisimilarity(f1, f2)
            assert check_strong_bisimulation(f1, f2, fix).holds

    def test_skew_bisimilarity_is_strong(self, skew_pair):
        left, right, _ = skew_pair
        fix = bisimilarity(left, right)
        assert check_strong_bisimulation(left, right, fix).holds


class TestAutomatonBisimulation:
    def _setup(self, dup_branch):
        q = minimize(dup_branch)
        rel = Relation(
            dup_branch.states,
            q.quotient.states,
            {("s0", "[s0]"), ("s1", "[s1]"), ("s2", "[s1]"),
             ("s3", "[s3]"), ("s4", "[s3]")},
        )
        m1 = FuzzyAutomaton(
            dup_branch, FuzzySet(dup_branch.states, {"s3": "1", "s4": "1"})
        )
        return q, rel, m1

    def test_matching_final_degrees_hold(self, dup_branch):
        q, rel, m1 = self._setup(dup_branch)
        m2 = FuzzyAutomaton(q.quotient, FuzzySet(q.quotient.states, {"[s3]": "1"}))
        assert check_automaton_bisimulation(m1, m2, rel).holds

    def test_final_degree_mismatch(self, dup_branch):
        q, rel, m1 = self._setup(dup_branch)
        m2 = FuzzyAutomaton(q.quotient, FuzzySet(q.quotient.states, {"[s3]": "0.5"}))
        verdict = check_automaton_bisimulation(m1, m2, rel)
        assert not verdict.holds
        w = verdict.witness
        assert (w.left, w.right, w.kind) == ("s3", "[s3]", "final-degree")
        assert (w.left_degree, w.right_degree) == (d("1"), d("0.5"))

    def test_base_failure_comes_first(self, dup_branch):
        q, _, m1 = self._setup(dup_branch)
        m2 = FuzzyAutomaton(q.quotient, FuzzySet(q.quotient.states, {"[s3]": "1"}))
        bad = Relation(dup_branch.states, q.quotient.states, {("s0", "[s3]")})
        verdict = check_automaton_bisimulation(m1, m2, bad)
        assert not verdict.holds
        assert verdict.witness.kind == "left-support"

    def test_empty_relation_holds(self, dup_branch):
        q, _, m1 = self._setup(dup_branch)
        m2 = FuzzyAutomaton(q.quotient, FuzzySet(q.quotient.states, {"[s3]": "0.5"}))
        empty = Relation(dup_branch.states, q.quotient.states, set())
        assert check_automaton_bisimulation(m1, m2, empty).holds


class TestDeterminism:
    def test_witnesses_and_traces_repeat(self, choice_late, choice_early):
        rel = Relation(choice_late.states, choice_early.states,
                       {("s0", "t0"), ("s1", "t1")})
        first = check_bisimulation(choice_late, choice_early, rel)
        second = check_bisimulation(choice_late, choice_early, rel)
        assert first == second
        t1 = iterate_refinement(choice_late, choice_early)
        t2 = iterate_refinement(choice_late, choice_early)
        assert t1 == t2

    def test_random_instances_repeat(self):
        rng1 = random.Random(99)
        rng2 = random.Random(99)
        f1a, f2a = helpers.random_pair(rng1)
        f1b, f2b = helpers.random_pair(rng2)
        assert f1a == f1b and f2a == f2b
        assert bisimilarity(f1a, f2a) == bisimilarity(f1b, f2b)
