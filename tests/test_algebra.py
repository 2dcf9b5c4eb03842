import random
import sys
import time

import pytest
from hypothesis import given, strategies as st

import helpers
from fuzzts import bisim, core
from fuzzts import (
    AlphabetError,
    Degree,
    Fts,
    ModelError,
    NotHomomorphismError,
    Relation,
    StateMap,
    UniverseError,
    are_bisimilar,
    bisimilarity,
    check_bisimulation,
    check_homomorphism,
    graph_of,
    hom_image,
    is_subsystem,
    iter_bisimulations_bruteforce,
    kernel,
    lang_equal_up_to,
    minimize,
    parallel_compose,
    parse_model,
    product_id,
    pull_relation,
    push_relation,
    quotient,
    self_bisimilarity,
    serialize_model,
)


def d(text):
    return Degree.parse(text)


# state identifiers over every identifier character except ','
idents = st.lists(
    st.text(alphabet="ab0_'()[]", min_size=1, max_size=4),
    min_size=1, max_size=4, unique=True,
)


class TestStateMap:
    def test_total_and_applied(self):
        m = StateMap({"a": "x", "b": "x"}, {"a", "b"}, {"x", "y"})
        assert m("a") == "x"
        assert m.image() == {"x"}
        assert m.items() == [("a", "x"), ("b", "x")]
        with pytest.raises(UniverseError):
            m("zz")

    def test_must_be_total(self):
        with pytest.raises(ModelError, match="not total"):
            StateMap({"a": "x"}, {"a", "b"}, {"x"})

    def test_images_in_codomain(self):
        with pytest.raises(UniverseError):
            StateMap({"a": "z"}, {"a"}, {"x"})

    def test_sources_in_domain(self):
        # every domain state is mapped, so the fault is the stray source
        with pytest.raises(UniverseError, match="map source 'z' is outside the domain"):
            StateMap({"x": "p", "z": "p"}, {"x"}, {"p"})
        with pytest.raises(UniverseError, match="map source 'z'"):
            StateMap({"z": "p"}, {"x"}, {"p"})

    def test_identity(self):
        m = StateMap.identity({"a", "b"})
        assert m("a") == "a"
        assert kernel(m) == Relation.diagonal({"a", "b"})


class TestParallelCompose:
    def test_shared_label_takes_min(self):
        f1 = Fts.from_triples(["s0", "s1"], ["a"], "s0", [("s0", "a", "0.9", "s1")])
        f2 = Fts.from_triples(["t0", "t1"], ["a"], "t0", [("t0", "a", "0.6", "t1")])
        product = parallel_compose(f1, f2)
        assert list(product.transitions()) == [
            ("(s0,t0)", "a", d("0.6"), "(s1,t1)")
        ]
        assert product.init == "(s0,t0)"
        assert product.labels == {"a"}

    def test_exclusive_label_freezes_other_side(self):
        f1 = Fts.from_triples(["s0", "s1"], ["a"], "s0", [("s0", "a", "0.9", "s1")])
        f2 = Fts.from_triples(["t0"], ["b"], "t0", [])
        product = parallel_compose(f1, f2)
        assert product.labels == {"a", "b"}
        assert list(product.transitions()) == [
            ("(s0,t0)", "a", d("0.9"), "(s1,t0)")
        ]

    def test_self_product_initial_step(self, choice_late):
        product = parallel_compose(choice_late, choice_late)
        mu = product.delta(product.init, "a")
        assert mu.items() == [("(s1,s1)", d("0.9"))]

    def test_state_set_is_full_product(self, choice_late, twin_fork):
        product = parallel_compose(choice_late, twin_fork)
        assert len(product.states) == 12
        assert product.init == "(s0,s0)"

    def test_colliding_product_ids_rejected(self):
        """(a,"b,c") and ("a,b",c) would both be named (a,b,c)."""
        f1 = Fts(["a", "a,b"], ["x"], "a")
        f2 = Fts(["c", "b,c"], ["x"], "c")
        with pytest.raises(ModelError, match="collide"):
            parallel_compose(f1, f2)

    @given(idents, idents)
    def test_comma_free_ids_give_full_product(self, left, right):
        f1 = Fts(left, ["a"], left[0], name="L")
        f2 = Fts(right, ["a"], right[0], name="R")
        assert len(parallel_compose(f1, f2).states) == len(left) * len(right)

    def test_commutes_up_to_bisimilarity(self):
        """The swap relation witnesses product commutativity."""
        rng = random.Random(505)
        for _ in range(10):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a", "b"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["b", "c"], prefix="t")
            left = parallel_compose(f1, f2)
            right = parallel_compose(f2, f1)
            swap = Relation(
                left.states,
                right.states,
                {
                    (product_id(s, t), product_id(t, s))
                    for s in f1.states
                    for t in f2.states
                },
            )
            assert check_bisimulation(left, right, swap).holds
            assert are_bisimilar(left, right)

    def test_congruence_with_minimized_partners(self):
        """Composing bisimilar systems yields bisimilar products."""
        rng = random.Random(606)
        for _ in range(6):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a", "b"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["b"], prefix="t")
            g1 = minimize(f1).quotient
            g2 = minimize(f2).quotient
            assert are_bisimilar(parallel_compose(f1, f2), parallel_compose(g1, g2))


class TestIsSubsystem:
    def test_transition_closed_subset(self, choice_late):
        tail = Fts.from_triples(
            ["s1", "s2", "s3"], ["a", "b", "c"], "s1",
            [("s1", "b", "0.8", "s2"), ("s1", "c", "0.7", "s3")],
        )
        assert is_subsystem(tail, choice_late)

    def test_leaking_subset_is_not(self, choice_late):
        head = Fts.from_triples(
            ["s0", "s1"], ["a", "b", "c"], "s0", [("s0", "a", "0.9", "s1")]
        )
        assert not is_subsystem(head, choice_late)

    def test_whole_system(self, choice_late):
        assert is_subsystem(choice_late, choice_late)

    def test_degree_disagreement_is_not(self, choice_late):
        other = Fts.from_triples(
            ["s1", "s2", "s3"], ["a", "b", "c"], "s1",
            [("s1", "b", "0.5", "s2"), ("s1", "c", "0.7", "s3")],
        )
        assert not is_subsystem(other, choice_late)

    def test_foreign_states_are_not(self, choice_late, dup_branch):
        # dup_branch has state s4 which choice_late lacks
        assert not is_subsystem(dup_branch, choice_late)

    def test_alphabet_mismatch(self, choice_late, twin_fork):
        with pytest.raises(AlphabetError):
            is_subsystem(twin_fork, choice_late)

    def test_prop9_diagonal_characterization(self):
        """is_subsystem agrees with the image-by-image oracle and with
        checking the diagonal of the candidate's states as a bisimulation,
        on restrictions of random systems, some closed under f2's edges,
        some with a perturbed degree or a dropped edge, and some with a
        state f2 lacks."""
        rng = random.Random(707)
        seen_true = seen_false = 0
        for _ in range(3000):
            f2 = helpers.random_fts(rng, rng.randint(1, 5), ["a", "b"])
            subset = set(rng.sample(f2.sorted_states(), rng.randint(1, len(f2.states))))
            if rng.random() < 0.5:
                # drop f2's edges that leave the subset
                kept = [e for e in f2.transitions() if e[0] not in subset or e[3] in subset]
                f2 = Fts.from_triples(f2.states, f2.labels, f2.init, kept)
            # the restriction keeps only internal edges
            triples = [e for e in f2.transitions() if e[0] in subset and e[3] in subset]
            change = rng.choice(("none", "none", "degree", "drop"))
            if change != "none" and triples:
                s, a, g, t = triples.pop(rng.randrange(len(triples)))
                if change == "degree":
                    other = rng.choice([x for x in helpers.NONZERO_DEGREES if d(x) != g])
                    triples.append((s, a, other, t))
            foreign = rng.random() < 0.1
            states = subset | {"x"} if foreign else subset
            f1 = Fts.from_triples(states, f2.labels, min(subset), triples)
            expected = helpers.is_subsystem_oracle(f1, f2)
            assert is_subsystem(f1, f2) == expected, (f1, f2)
            if foreign:
                assert not expected
            else:
                diag = Relation(f1.states, f2.states, {(s, s) for s in subset})
                assert check_bisimulation(f1, f2, diag).holds == expected, (f1, f2)
            seen_true += expected
            seen_false += not expected
        assert seen_true >= 900 and seen_false >= 900


class TestHomomorphism:
    def test_identity_holds(self, choice_late):
        ident = StateMap.identity(choice_late.states)
        assert check_homomorphism(choice_late, choice_late, ident).holds
        assert hom_image(choice_late, choice_late, ident) == choice_late

    def test_quotient_map_holds(self, dup_branch):
        q = minimize(dup_branch)
        assert check_homomorphism(dup_branch, q.quotient, q.class_of).holds

    def test_collapsing_map_fails(self, choice_late):
        loop = Fts.from_triples(
            ["x"], ["a", "b", "c"], "x", [("x", "a", "0.9", "x")]
        )
        const = StateMap(
            {s: "x" for s in choice_late.states}, choice_late.states, loop.states
        )
        verdict = check_homomorphism(choice_late, loop, const)
        assert not verdict.holds
        assert verdict.witness.kind == "hom-sup"
        # the b-requirement is among the violations: s1 reaches s2 at 0.8
        # but the collapsed state has no b-move
        mu = choice_late.delta("s1", "b")
        required = max(mu(t) for t in choice_late.states)
        assert required == d("0.8")
        assert loop.delta("x", "b")("x") == d("0")

    def test_init_must_map_to_init(self, choice_late):
        flip = {"s0": "s1", "s1": "s0", "s2": "s2", "s3": "s3"}
        fmap = StateMap(flip, choice_late.states, choice_late.states)
        verdict = check_homomorphism(choice_late, choice_late, fmap)
        assert not verdict.holds
        assert verdict.witness.kind == "init-map"
        assert (verdict.witness.left, verdict.witness.right) == ("s0", "s1")

    def test_alphabet_and_universe_errors(self, choice_late, twin_fork):
        fmap = StateMap(
            {s: "s0" for s in choice_late.states}, choice_late.states, twin_fork.states
        )
        with pytest.raises(AlphabetError):
            check_homomorphism(choice_late, twin_fork, fmap)
        small = StateMap.identity({"s0"})
        with pytest.raises(UniverseError):
            check_homomorphism(choice_late, choice_late, small)

    def test_hom_image_is_subsystem(self, dup_branch):
        q = minimize(dup_branch)
        image = hom_image(dup_branch, q.quotient, q.class_of)
        assert image == q.quotient
        assert is_subsystem(image, q.quotient)

    def test_embedding_gives_back_subsystem(self, choice_late):
        tail = Fts.from_triples(
            ["s1", "s2", "s3"], ["a", "b", "c"], "s1",
            [("s1", "b", "0.8", "s2"), ("s1", "c", "0.7", "s3")],
        )
        # an embedding must send init to init, so embed tail into a copy
        # of choice_late re-rooted at s1
        rerooted = Fts.from_triples(
            choice_late.states, choice_late.labels, "s1",
            [(s, a, g, t) for s, a, g, t in choice_late.transitions()],
        )
        embed = StateMap(
            {s: s for s in tail.states}, tail.states, rerooted.states
        )
        assert check_homomorphism(tail, rerooted, embed).holds
        assert hom_image(tail, rerooted, embed) == tail

    def test_hom_image_rejects_non_homomorphism(self, choice_late):
        loop = Fts.from_triples(["x"], ["a", "b", "c"], "x", [])
        const = StateMap(
            {s: "x" for s in choice_late.states}, choice_late.states, loop.states
        )
        with pytest.raises(ModelError, match="not a homomorphism") as err:
            hom_image(choice_late, loop, const)
        assert isinstance(err.value, NotHomomorphismError)
        assert err.value.verdict == check_homomorphism(choice_late, loop, const)

    def test_graph_characterizes_homomorphism(self):
        """A map is a homomorphism iff its graph is a bisimulation that
        contains the initial pair; tested in both directions."""
        rng = random.Random(808)
        homs = non_homs = 0
        for _ in range(60):
            f1 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), ["a"], prefix="t")
            fmap = helpers.random_map(rng, f1, f2)
            lhs = check_homomorphism(f1, f2, fmap).holds
            graph = graph_of(fmap)
            rhs = (
                check_bisimulation(f1, f2, graph).holds
                and (f1.init, f2.init) in graph
            )
            assert lhs == rhs
            homs += lhs
            non_homs += not lhs
        assert non_homs
        # random maps rarely hit homomorphisms, so add guaranteed ones
        for _ in range(5):
            f = helpers.random_fts(rng, rng.randint(1, 3), ["a"])
            q = minimize(f)
            graph = graph_of(q.class_of)
            assert check_bisimulation(f, q.quotient, graph).holds
            assert (f.init, q.quotient.init) in graph

    def test_prop10_kernel_is_bisimulation(self):
        rng = random.Random(909)
        for _ in range(10):
            f = helpers.random_fts(rng, rng.randint(1, 4), ["a", "b"])
            q = minimize(f)
            ker = kernel(q.class_of)
            assert ker.is_equivalence()
            assert check_bisimulation(f, f, ker).holds

    def test_kernel_of_quotient_map(self, dup_branch):
        q = minimize(dup_branch)
        ker = kernel(q.class_of)
        assert [sorted(c) for c in ker.equivalence_classes()] == [
            ["s0"], ["s1", "s2"], ["s3", "s4"],
        ]

    def test_graph_contains_projection_pairs(self, dup_branch):
        q = minimize(dup_branch)
        assert ("s0", "[s0]") in graph_of(q.class_of)


class TestPushPull:
    def test_push_of_diagonal(self, dup_branch):
        q = minimize(dup_branch)
        pushed = push_relation(q.class_of, Relation.diagonal(dup_branch.states))
        assert pushed == Relation.diagonal(q.quotient.states)

    def test_pull_of_diagonal_is_kernel(self, dup_branch):
        q = minimize(dup_branch)
        pulled = pull_relation(q.class_of, Relation.diagonal(q.quotient.states))
        assert pulled == kernel(q.class_of)

    def test_push_of_self_bisimilarity_is_diagonal(self, dup_branch):
        q = minimize(dup_branch)
        pushed = push_relation(q.class_of, self_bisimilarity(dup_branch))
        assert pushed == Relation.diagonal(q.quotient.states)

    def test_prop11_push_and_pull_preserve_bisimulations(self):
        rng = random.Random(1010)
        for _ in range(8):
            f = helpers.random_fts(rng, rng.randint(1, 3), ["a"])
            q = minimize(f)
            pi = q.class_of
            for rel in list(iter_bisimulations_bruteforce(f, f, max_pairs=9))[:25]:
                pushed = push_relation(pi, rel)
                assert check_bisimulation(q.quotient, q.quotient, pushed).holds
            for rel in list(
                iter_bisimulations_bruteforce(q.quotient, q.quotient, max_pairs=9)
            )[:25]:
                pulled = pull_relation(pi, rel)
                assert check_bisimulation(f, f, pulled).holds

    def test_universe_errors(self, dup_branch):
        q = minimize(dup_branch)
        wrong = Relation.diagonal(q.quotient.states)
        with pytest.raises(UniverseError):
            push_relation(q.class_of, wrong)
        with pytest.raises(UniverseError):
            pull_relation(q.class_of, Relation.diagonal(dup_branch.states))


class TestQuotient:
    def test_dup_branch_block_structure(self, dup_branch):
        states = dup_branch.states
        blocks = [{"s0"}, {"s1", "s2"}, {"s3", "s4"}]
        pairs = {(a, b) for block in blocks for a in block for b in block}
        q = quotient(dup_branch, Relation(states, states, pairs))
        assert q.quotient.sorted_states() == ["[s0]", "[s1]", "[s3]"]
        assert list(q.quotient.transitions()) == [
            ("[s0]", "a", d("0.9"), "[s1]"),
            ("[s1]", "b", d("0.8"), "[s3]"),
            ("[s1]", "c", d("0.7"), "[s3]"),
        ]
        assert q.quotient.init == "[s0]"
        assert q.classes == {
            "[s0]": frozenset({"s0"}),
            "[s1]": frozenset({"s1", "s2"}),
            "[s3]": frozenset({"s3", "s4"}),
        }
        assert q.class_of("s2") == "[s1]"

    def test_quotient_by_diagonal_is_renamed_copy(self, choice_late):
        q = quotient(choice_late, Relation.diagonal(choice_late.states))
        renamed = Fts.from_triples(
            [f"[{s}]" for s in choice_late.states],
            choice_late.labels,
            f"[{choice_late.init}]",
            [
                (f"[{s}]", a, g, f"[{t}]")
                for s, a, g, t in choice_late.transitions()
            ],
        )
        assert q.quotient == renamed

    def test_quotient_by_all_relation(self, twin_fork):
        q = quotient(twin_fork, Relation.full(twin_fork.states, twin_fork.states))
        assert q.quotient.sorted_states() == ["[s]"]
        assert list(q.quotient.transitions()) == [("[s]", "a", d("0.8"), "[s]")]

    def test_sup_over_member_pairs(self):
        f = Fts.from_triples(
            ["s0", "s1", "s2"], ["a"], "s0",
            [("s0", "a", "0.3", "s1"), ("s0", "a", "0.8", "s2")],
        )
        blocks = [{"s0"}, {"s1", "s2"}]
        pairs = {(a, b) for block in blocks for a in block for b in block}
        q = quotient(f, Relation(f.states, f.states, pairs))
        assert list(q.quotient.transitions()) == [("[s0]", "a", d("0.8"), "[s1]")]

    def test_rejects_non_equivalence(self, twin_fork):
        rel = Relation(twin_fork.states, twin_fork.states, {("s", "t")})
        with pytest.raises(ModelError, match="not an equivalence"):
            quotient(twin_fork, rel)

    def test_rejects_relation_over_other_states(self, twin_fork, choice_late):
        with pytest.raises(UniverseError, match="do not match the system"):
            quotient(twin_fork, Relation.diagonal(choice_late.states))

    def test_prop12_quotient_map_hom_iff_bisimulation(self):
        """An equivalence is a bisimulation exactly when its projection map
        is a homomorphism onto the quotient."""
        rng = random.Random(1111)
        holds_seen = fails_seen = 0
        for _ in range(40):
            f = helpers.random_fts(rng, rng.randint(2, 4), ["a", "b"])
            rel = helpers.random_equivalence(rng, f)
            q = quotient(f, rel)
            lhs = check_bisimulation(f, f, rel).holds
            rhs = check_homomorphism(f, q.quotient, q.class_of).holds
            assert lhs == rhs
            holds_seen += lhs
            fails_seen += not lhs
        assert holds_seen and fails_seen


def _hom_cases(rng: random.Random, count: int):
    """Three inflated systems (mostly perturbed) to one random pair under a
    random map, which often fails already at the initial state."""
    for i in range(count):
        if i % 4:
            yield helpers.inflated_hom_case(rng)
        else:
            labels = ["a", "b"][: rng.randint(1, 2)]
            f1 = helpers.random_fts(rng, rng.randint(1, 4), labels, prefix="s")
            f2 = helpers.random_fts(rng, rng.randint(1, 3), labels, prefix="t")
            yield f1, f2, helpers.random_map(rng, f1, f2)


class TestAgainstOracles:
    """The edge passes of check_homomorphism and quotient, and the grouping
    of kernel and pull_relation, against the definitional loops kept in
    helpers."""

    def test_check_homomorphism_matches_triple_loop(self):
        rng = random.Random(3031)
        kinds = {"init-map": 0, "hom-sup": 0, None: 0}
        for f1, f2, fmap in _hom_cases(rng, 1200):
            verdict = check_homomorphism(f1, f2, fmap)
            assert verdict == helpers.check_homomorphism_oracle(f1, f2, fmap)
            kinds[verdict.witness.kind if verdict.witness else None] += 1
        assert kinds["hom-sup"] > 600
        assert kinds["init-map"] > 100
        assert kinds[None] > 100

    def test_quotient_matches_member_pair_supremum(self):
        rng = random.Random(3032)
        for i in range(1000):
            if i % 2:
                f, _, fmap = helpers.inflated_hom_case(rng)
                rel = kernel(fmap)
            else:
                labels = ["a", "b"][: rng.randint(1, 2)]
                f = helpers.random_fts(rng, rng.randint(1, 6), labels)
                rel = helpers.random_equivalence(rng, f)
            q = quotient(f, rel)
            expected = helpers.quotient_oracle(f, rel)
            assert q == expected
            assert list(q.classes.items()) == list(expected.classes.items())
            assert serialize_model(q.quotient) == serialize_model(expected.quotient)


    def test_kernel_and_pull_match_pair_loops(self):
        rng = random.Random(3038)
        not_onto = 0
        for _ in range(400):
            f1 = Fts([f"s{i}" for i in range(rng.randint(1, 8))], ["a"], "s0")
            f2 = Fts([f"t{i}" for i in range(rng.randint(1, 5))], ["a"], "t0")
            fmap = helpers.random_map(rng, f1, f2)
            not_onto += fmap.image() != f2.states
            assert kernel(fmap) == helpers.kernel_oracle(fmap)
            density = rng.choice((0.0, 0.2, 0.5, 1.0))
            rel = helpers.random_relation(rng, f2, f2, density)
            assert pull_relation(fmap, rel) == helpers.pull_relation_oracle(fmap, rel)
        assert not_onto > 100

    def test_minimize_matches_quotient_by_self_bisimilarity(self):
        rng = random.Random(3036)
        merged = 0
        for i in range(600):
            if i % 2:
                f, _, _ = helpers.inflated_hom_case(rng)
            else:
                labels = ["a", "b"][: rng.randint(1, 2)]
                f = helpers.random_fts(rng, rng.randint(1, 8), labels)
            q = minimize(f)
            expected = quotient(f, self_bisimilarity(f))
            assert q == expected == helpers.quotient_oracle(f, self_bisimilarity(f))
            assert list(q.classes.items()) == list(expected.classes.items())
            assert serialize_model(q.quotient) == serialize_model(expected.quotient)
            merged += len(q.quotient.states) < len(f.states)
        assert merged > 100


class TestProducersAgainstFromTriples:
    """Each producer hands Fts its images as entries; the system it builds
    must equal the one from_triples builds from the same transitions.  The
    parser, the quotient (behind minimize too), the product, the
    homomorphic image and from_triples itself skip the constructor's
    checks, so their systems must also equal, hash like and serialize like
    the checking constructor's from the same images, and every image must
    range over the system's own states object."""

    def test_every_producer_matches_from_triples(self):
        rng = random.Random(3037)
        built = dict.fromkeys(
            ("parse", "quotient", "minimize", "compose", "hom_image"), 0
        )
        for f1, f2, fmap in _hom_cases(rng, 300):
            systems = {
                "parse": parse_model(serialize_model(f1)),
                "quotient": quotient(f1, kernel(fmap)).quotient,
                "minimize": minimize(f1).quotient,
                "compose": parallel_compose(f1, f2),
            }
            if check_homomorphism(f1, f2, fmap).holds:
                # an unreachable extra state keeps the map a homomorphism
                # and makes its image a proper part of the codomain
                wider = Fts.from_triples(
                    f2.states | {"extra"}, f2.labels, f2.init, f2.transitions()
                )
                into_wider = StateMap(dict(fmap.items()), f1.states, wider.states)
                systems["hom_image"] = hom_image(f1, wider, into_wider)
            for producer, g in systems.items():
                rebuilt = Fts.from_triples(
                    g.states, g.labels, g.init, g.transitions(), name=g.name
                )
                images = {(s, a): dict(g.delta(s, a).items()) for s in g.states for a in g.labels}
                checked = Fts(g.states, g.labels, g.init, images, name=g.name)
                assert g == rebuilt == checked, producer
                assert hash(g) == hash(checked), producer
                assert all(type(d) is Degree for _, _, d, _ in g.transitions()), producer
                text = serialize_model(g)
                assert text == serialize_model(rebuilt) == serialize_model(checked), producer
                assert all(
                    g.delta(s, a).universe is g.states for s in g.states for a in g.labels
                ), producer
                built[producer] += 1
        assert min(built.values()) > 50


class TestCheckedOnce:
    """Each system is checked once on its way in, counted by behaviour: the
    constructor checks each image it is given through
    ``core._checked_entries``, and ``from_triples``, which checks each
    triple as it reads it, and ``hom_image``, which takes its images from a
    checked system, check no image again."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        original = core._checked_entries

        def counted(universe, entries):
            calls.append(universe)
            return original(universe, entries)

        monkeypatch.setattr(core, "_checked_entries", counted)
        return calls

    def test_constructor_checks_each_image_once(self, checks):
        images = {("s", "a"): {"t": "1"}, ("t", "a"): {"s": "0"}, ("t", "b"): {}}
        Fts({"s", "t"}, {"a", "b"}, "s", images)
        assert len(checks) == 3
        checks.clear()
        Fts({"s"}, {"a"}, "s")
        assert checks == []

    def test_from_triples_and_hom_image_check_nothing_again(self, checks):
        rng = random.Random(3041)
        images = 0
        for f1, f2, fmap in _hom_cases(rng, 200):
            checks.clear()
            rebuilt = Fts.from_triples(f1.states, f1.labels, f1.init, f1.transitions())
            assert rebuilt == f1 and checks == []
            if check_homomorphism(f1, f2, fmap).holds:
                image = hom_image(f1, f2, fmap)
                assert image.states == fmap.image() and checks == []
                images += any(image.transitions())
        assert images > 20


class TestSubsystemReadsImages:
    """``is_subsystem`` compares stored images: it decomposes no relation and
    runs no bisimulation check, counted under every name a ``fuzzts``
    module binds ``core.decompose`` and ``bisim.check_bisimulation`` to."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fuzzts"]
        for original in (core.decompose, bisim.check_bisimulation):
            def counted(*args, original=original):
                calls.append(original.__name__)
                return original(*args)

            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        return calls

    def test_no_relation_is_checked(self, calls, choice_late):
        bisim.check_bisimulation(choice_late, choice_late, Relation.diagonal(choice_late.states))
        assert calls == ["check_bisimulation", "decompose"]
        calls.clear()
        rng = random.Random(3131)
        verdicts = []
        for _ in range(1000):
            f2 = helpers.random_fts(rng, rng.randint(1, 5), ["a", "b"])
            subset = set(rng.sample(f2.sorted_states(), rng.randint(1, len(f2.states))))
            if rng.random() < 0.5:
                kept = [e for e in f2.transitions() if e[0] not in subset or e[3] in subset]
                f2 = Fts.from_triples(f2.states, f2.labels, f2.init, kept)
            triples = [e for e in f2.transitions() if e[0] in subset and e[3] in subset]
            if triples and rng.random() < 0.3:
                triples.pop(rng.randrange(len(triples)))
            states = subset | {"x"} if rng.random() < 0.1 else subset
            f1 = Fts.from_triples(states, f2.labels, min(subset), triples)
            verdict = is_subsystem(f1, f2)
            assert verdict == helpers.is_subsystem_oracle(f1, f2), (f1, f2)
            verdicts.append(verdict)
        assert calls == []
        assert 100 < sum(verdicts) < 900


def test_homomorphism_suite_scales_linearly():
    """10^4 states made of four copies of a sparse 2,500-state base, with
    the map back to the base: checking the map's graph, its kernel and the
    pulled diagonal take well under a second in total when each costs
    edges plus output, and over twenty seconds when the kernel loops over
    every pair of domain states."""
    rng = random.Random(2500)
    states = [f"g{i}" for i in range(2500)]
    edges: dict[tuple[str, str, str], str] = {}
    while len(edges) < 7500:
        key = (rng.choice(states), rng.choice("ab"), rng.choice(states))
        edges[key] = rng.choice(helpers.NONZERO_DEGREES)
    base = Fts.from_triples(
        states, ["a", "b"], "g0", [(s, a, g, t) for (s, a, t), g in edges.items()]
    )
    big, fmap = helpers.inflate(rng, base, 4, perturbed=False)
    start = time.perf_counter()
    verdict = check_bisimulation(big, base, graph_of(fmap))
    ker = kernel(fmap)
    pulled = pull_relation(fmap, Relation.diagonal(base.states))
    seconds = time.perf_counter() - start
    assert len(big.states) == 10_000
    assert verdict.holds
    assert len(ker) == 4 * 10_000
    assert pulled == ker
    assert seconds < 3.0


class TestPostconditions:
    """Properties hom_image, kernel and minimize once asserted at run time,
    stated on random families."""

    def test_hom_image_is_subsystem_of_codomain(self):
        rng = random.Random(3033)
        images = 0
        for f1, f2, fmap in _hom_cases(rng, 400):
            if check_homomorphism(f1, f2, fmap).holds:
                image = hom_image(f1, f2, fmap)
                assert image.states == fmap.image()
                assert is_subsystem(image, f2)
                images += 1
        assert images > 50

    def test_kernel_is_equivalence(self):
        rng = random.Random(3034)
        for f1, f2, fmap in _hom_cases(rng, 300):
            ker = kernel(fmap)
            assert ker.is_equivalence()
            assert all((fmap(s) == fmap(t)) == ((s, t) in ker)
                       for s in f1.states for t in f1.states)

    def test_minimize_is_bisimilar_with_diagonal_self_bisimilarity(self):
        rng = random.Random(3035)
        for f, _, _ in _hom_cases(rng, 200):
            reduced = minimize(f).quotient
            assert are_bisimilar(f, reduced)
            assert self_bisimilarity(reduced) == Relation.diagonal(reduced.states)


class TestMinimize:
    def test_dup_branch_three_states(self, dup_branch):
        q = minimize(dup_branch)
        assert len(q.quotient.states) == 3
        assert are_bisimilar(dup_branch, q.quotient)

    def test_already_minimal_unchanged(self):
        chain = Fts.from_triples(
            ["s0", "s1", "s2"], ["a", "b"], "s0",
            [("s0", "a", "0.9", "s1"), ("s1", "b", "0.8", "s2")],
        )
        q = minimize(chain)
        assert len(q.quotient.states) == len(chain.states)

    def test_dead_ends_always_merge(self, choice_early):
        # t2 and t3 never move, so they are bisimilar and collapse
        q = minimize(choice_early)
        assert len(q.quotient.states) == 4
        assert q.classes["[t2]"] == frozenset({"t2", "t3"})

    def test_classes_are_read_off_the_projection(self, choice_early):
        """``classes`` is derived from ``class_of`` on each read, so
        clearing the dict it returns changes neither equality nor hash."""
        q = minimize(choice_early)
        h = hash(q)
        q.classes.clear()
        assert q == minimize(choice_early) and hash(q) == h
        assert q.classes == {
            "[t0]": frozenset({"t0"}),
            "[t1]": frozenset({"t1"}),
            "[t1']": frozenset({"t1'"}),
            "[t2]": frozenset({"t2", "t3"}),
        }

    def test_idempotent_on_state_count(self, dup_branch):
        q = minimize(dup_branch)
        again = minimize(q.quotient)
        assert len(again.quotient.states) == len(q.quotient.states)

    def test_minimized_self_bisimilarity_is_diagonal(self, dup_branch, choice_late):
        for f in (dup_branch, choice_late):
            reduced = minimize(f).quotient
            assert self_bisimilarity(reduced) == Relation.diagonal(reduced.states)

    def test_quotient_preserves_language(self):
        rng = random.Random(1212)
        for _ in range(10):
            f = helpers.random_fts(rng, rng.randint(1, 4), ["a", "b"])
            q = minimize(f)
            assert lang_equal_up_to(
                f, f.init, q.quotient, q.quotient.init, 5
            )

    def test_twin_fork_merges_dead_ends(self, twin_fork):
        q = minimize(twin_fork)
        assert q.quotient.sorted_states() == ["[s0]", "[s]"]
        assert q.classes["[s]"] == frozenset({"s", "t"})
