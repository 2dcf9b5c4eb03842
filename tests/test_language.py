import random
import signal

import pytest

import helpers
from fuzzts import (
    AlphabetError,
    Degree,
    Fts,
    FuzzyAutomaton,
    FuzzySet,
    ONE,
    UniverseError,
    ZERO,
    accept_degree,
    delta_word,
    lang_degree,
    lang_equal_up_to,
    lang_table,
    step,
    unit,
)
from fuzzts.partition import graded


def d(text):
    return Degree.parse(text)


def test_unit(choice_late):
    mu = unit(choice_late, "s1")
    assert mu("s1") == ONE
    assert mu.support == {"s1"}
    with pytest.raises(UniverseError):
        unit(choice_late, "zz")


def test_step_single_edge(choice_late):
    mu = step(choice_late, unit(choice_late, "s0"), "a")
    assert mu.items() == [("s1", d("0.9"))]
    # stepping a label with no enabled transition empties the distribution
    assert not step(choice_late, mu, "a")


def test_step_takes_best_over_sources(choice_early):
    mu = step(choice_early, unit(choice_early, "t0"), "a")
    assert mu.items() == [("t1", d("0.9")), ("t1'", d("0.9"))]
    nu = step(choice_early, mu, "b")
    assert nu.items() == [("t2", d("0.8"))]


def test_step_universe_check(choice_late, choice_early):
    with pytest.raises(UniverseError):
        step(choice_late, unit(choice_early, "t0"), "a")


def test_step_rejects_unknown_label(choice_late):
    with pytest.raises(UniverseError):
        step(choice_late, unit(choice_late, "s0"), "zz")
    # also when the distribution is empty and no edge is looked up
    with pytest.raises(UniverseError):
        step(choice_late, FuzzySet(choice_late.states), "zz")


def test_unknown_start_state_rejected(choice_late):
    with pytest.raises(UniverseError):
        lang_table(choice_late, "zz", 2)
    with pytest.raises(UniverseError):
        lang_equal_up_to(choice_late, "zz", choice_late, "s0", 2)
    with pytest.raises(UniverseError):
        lang_equal_up_to(choice_late, "s0", choice_late, "zz", 2)
    for word in ((), ("a",)):
        with pytest.raises(UniverseError):
            delta_word(choice_late, "zz", word)
        with pytest.raises(UniverseError):
            lang_degree(choice_late, "zz", word)


def test_delta_word_empty_is_unit(choice_late):
    assert delta_word(choice_late, "s1", ()) == unit(choice_late, "s1")


def test_delta_word_validates_word(choice_late):
    with pytest.raises(UniverseError):
        delta_word(choice_late, "s0", ("a", "zz"))
    # unknown labels are rejected even when the distribution is already empty
    with pytest.raises(UniverseError):
        delta_word(choice_late, "s2", ("a", "zz"))


def test_fixture_word_degrees(choice_late, choice_early):
    for f, s in ((choice_late, "s0"), (choice_early, "t0")):
        assert lang_degree(f, s, ()) == ONE
        assert lang_degree(f, s, ("a",)) == d("0.9")
        assert lang_degree(f, s, ("a", "b")) == d("0.8")
        assert lang_degree(f, s, ("a", "c")) == d("0.7")
        assert lang_degree(f, s, ("b",)) == ZERO
        assert lang_degree(f, s, ("a", "b", "c")) == ZERO


def test_lang_table_depth_two(choice_late):
    table = lang_table(choice_late, "s0", 2)
    assert table == {
        (): ONE,
        ("a",): d("0.9"),
        ("a", "b"): d("0.8"),
        ("a", "c"): d("0.7"),
    }
    # length-then-lexicographic iteration order
    assert list(table) == [(), ("a",), ("a", "b"), ("a", "c")]


def test_lang_table_zero_depth(choice_late):
    assert lang_table(choice_late, "s0", 0) == {(): ONE}


def test_lang_table_matches_lang_degree():
    rng = random.Random(90125)
    for _ in range(20):
        f = helpers.random_fts(rng, rng.randint(1, 5), ["a", "b"])
        state = rng.choice(f.sorted_states())
        table = lang_table(f, state, 3)
        for word in helpers.all_words(f.labels, 3):
            expected = lang_degree(f, state, word)
            if word == ():
                assert table[word] == ONE
            elif expected:
                assert table[word] == expected
            else:
                assert word not in table


def test_lang_degree_matches_path_oracle():
    rng = random.Random(4460)
    for _ in range(25):
        f = helpers.random_fts(rng, rng.randint(1, 5), ["a", "b"])
        state = rng.choice(f.sorted_states())
        for word in helpers.all_words(f.labels, 4):
            assert lang_degree(f, state, word) == helpers.path_degree(f, state, word)


def test_prefix_monotone():
    rng = random.Random(777)
    for _ in range(15):
        f = helpers.random_fts(rng, rng.randint(1, 5), ["a", "b"])
        state = f.init
        for word in helpers.all_words(f.labels, 4):
            degree = lang_degree(f, state, word)
            for cut in range(len(word)):
                assert lang_degree(f, state, word[:cut]) >= degree


def test_accept_degree(choice_late):
    m = FuzzyAutomaton(
        choice_late, FuzzySet(choice_late.states, {"s2": "0.5", "s3": "1"})
    )
    assert accept_degree(m, ("a", "b")) == d("0.5")
    assert accept_degree(m, ("a", "c")) == d("0.7")
    assert accept_degree(m, ()) == ZERO
    assert accept_degree(m, ("b",)) == ZERO


def test_accept_bounded_by_language():
    rng = random.Random(31337)
    for _ in range(15):
        m = helpers.random_automaton(rng, rng.randint(1, 5), ["a", "b"])
        for word in helpers.all_words(m.base.labels, 3):
            assert accept_degree(m, word) <= lang_degree(m.base, m.base.init, word)


def test_a_str_is_not_a_word():
    # with labels a, b and ab, the str "ab" could be read as the word a.b
    f = Fts.from_triples(
        ["s", "t", "u"], ["a", "b", "ab"], "s",
        [("s", "a", "1", "t"), ("t", "b", "0.5", "u"), ("s", "ab", "0.2", "u")],
    )
    m = FuzzyAutomaton(f, FuzzySet(f.states, {"u": "1"}))
    assert lang_degree(f, "s", ("ab",)) == accept_degree(m, ("ab",)) == d("0.2")
    assert lang_degree(f, "s", ("a", "b")) == accept_degree(m, ("a", "b")) == d("0.5")
    assert delta_word(f, "s", ("ab",)) == FuzzySet(f.states, {"u": "0.2"})
    for call in (
        lambda: lang_degree(f, "s", "ab"),
        lambda: delta_word(f, "s", "ab"),
        lambda: accept_degree(m, "ab"),
    ):
        with pytest.raises(TypeError, match="str"):
            call()


def test_an_iterator_word_reads_as_its_tuple():
    f = Fts.from_triples(["s", "t"], ["a"], "s", [("s", "a", "0.5", "t")])
    m = FuzzyAutomaton(f, FuzzySet(f.states, {"s": "1", "t": "1"}))
    for word in (("a",), ("a", "a"), ()):
        assert lang_degree(f, "s", (x for x in word)) == lang_degree(f, "s", word)
        assert delta_word(f, "s", (x for x in word)) == delta_word(f, "s", word)
        assert accept_degree(m, (x for x in word)) == accept_degree(m, word)
    assert lang_degree(f, "s", iter(["a"])) == d("0.5")
    assert delta_word(f, "s", iter(["a"])) == FuzzySet(f.states, {"t": "0.5"})
    assert accept_degree(m, iter(["a"])) == d("0.5")


def test_lang_equal_up_to_fixture(choice_late, choice_early):
    # same language even though the systems are not bisimilar
    assert lang_equal_up_to(choice_late, "s0", choice_early, "t0", 5)
    assert not lang_equal_up_to(choice_late, "s0", choice_early, "t1", 1)


def test_lang_equal_up_to_matches_tables():
    rng = random.Random(60902)
    for _ in range(25):
        f1 = helpers.random_fts(rng, rng.randint(1, 4), ["a", "b"], prefix="s")
        f2 = helpers.random_fts(rng, rng.randint(1, 4), ["a", "b"], prefix="t")
        s1 = rng.choice(f1.sorted_states())
        s2 = rng.choice(f2.sorted_states())
        expected = all(
            lang_degree(f1, s1, w) == lang_degree(f2, s2, w)
            for w in helpers.all_words(f1.labels, 3)
        )
        assert lang_equal_up_to(f1, s1, f2, s2, 3) == expected


def test_lang_equal_up_to_needs_same_alphabet(choice_late, twin_fork):
    with pytest.raises(AlphabetError):
        lang_equal_up_to(choice_late, "s0", twin_fork, "s0", 2)


def test_negative_bounds_rejected(choice_late):
    with pytest.raises(ValueError):
        lang_table(choice_late, "s0", -1)
    with pytest.raises(ValueError):
        lang_equal_up_to(choice_late, "s0", choice_late, "s0", -1)


def _cycle():
    """s -a 0.5-> t -a 1-> s"""
    return Fts(["s", "t"], ["a"], "s", {("s", "a"): {"t": "0.5"}, ("t", "a"): {"s": "1"}})


@pytest.mark.parametrize("bound", [2.5, "3", True], ids=["float", "str", "bool"])
def test_lang_table_refuses_a_bound_that_is_not_an_int(bound):
    with pytest.raises(TypeError, match="^max_len must be an int"):
        lang_table(_cycle(), "s", bound)


def test_lang_equal_up_to_refuses_a_bound_that_is_not_an_int():
    f = _cycle()
    with pytest.raises(TypeError, match="^max_len must be an int"):
        lang_equal_up_to(f, "s", f, "t", 1.5)


# ------------------------------------------------- differential vs oracles

# degrees that no random_fts edge carries, for input distributions of step
_OFF_POOL = ("0.1", "0.45", "0.65", "0.9", "1")


def _system(rng):
    labels = ["a", "b", "c"][: rng.randint(2, 3)]
    return helpers.random_fts(rng, rng.randint(1, 12), labels)


def _unit(f, state):
    return FuzzySet(f.states, {state: ONE})


def _delta_word_oracle(f, state, word):
    mu = _unit(f, state)
    for label in word:
        mu = helpers.step_oracle(f, mu, label)
    return mu


def _lang_table_oracle(f, state, max_len):
    table = {(): ONE}
    frontier = [((), _unit(f, state))]
    for _ in range(max_len):
        next_frontier = []
        for word, mu in frontier:
            for label in f.sorted_labels():
                nu = helpers.step_oracle(f, mu, label)
                if nu:
                    table[word + (label,)] = nu.height
                    next_frontier.append((word + (label,), nu))
        frontier = next_frontier
    return table


def _random_word(rng, f, max_len):
    return tuple(rng.choice(f.sorted_labels()) for _ in range(rng.randint(0, max_len)))


class TestAgainstOracles:
    def test_lang_table_matches_step_fold(self):
        rng = random.Random(5150)
        for _ in range(120):
            f = _system(rng)
            state = rng.choice(f.sorted_states())
            max_len = rng.randint(0, 5)
            table = lang_table(f, state, max_len)
            expected = _lang_table_oracle(f, state, max_len)
            assert list(table.items()) == list(expected.items())
            assert all(type(d) is Degree for d in table.values())

    def test_lang_degree_matches_path_enumeration(self):
        rng = random.Random(8128)
        for _ in range(120):
            f = _system(rng)
            state = rng.choice(f.sorted_states())
            max_len = 5 if len(f.states) <= 4 else 3
            for _ in range(4):
                word = _random_word(rng, f, max_len)
                degree = lang_degree(f, state, word)
                assert degree == helpers.path_degree(f, state, word)
                assert type(degree) is Degree

    def test_delta_word_matches_step_fold(self):
        rng = random.Random(2718)
        for _ in range(200):
            f = _system(rng)
            state = rng.choice(f.sorted_states())
            word = _random_word(rng, f, 5)
            mu = delta_word(f, state, word)
            assert mu == _delta_word_oracle(f, state, word)
            assert all(type(d) is Degree for _, d in mu.items())

    def test_step_matches_oracle_on_any_distribution(self):
        rng = random.Random(1618)
        for _ in range(300):
            f = _system(rng)
            pool = rng.choice((_OFF_POOL, helpers.DEGREE_POOL))
            mu = FuzzySet(f.states, {s: rng.choice(pool) for s in f.sorted_states()})
            for label in f.sorted_labels():
                nu = step(f, mu, label)
                assert nu == helpers.step_oracle(f, mu, label)
                assert all(type(d) is Degree for _, d in nu.items())

    def test_accept_degree_matches_oracle_distribution(self):
        rng = random.Random(3141)
        for _ in range(200):
            labels = ["a", "b", "c"][: rng.randint(2, 3)]
            m = helpers.random_automaton(rng, rng.randint(1, 12), labels)
            word = _random_word(rng, m.base, 5)
            mu = _delta_word_oracle(m.base, m.base.init, word)
            expected = max(
                (min(mu(s), m.final(s)) for s in m.base.sorted_states()), default=ZERO
            )
            degree = accept_degree(m, word)
            assert degree == expected
            assert type(degree) is Degree

    def test_lang_equal_up_to_matches_oracle_tables(self):
        rng = random.Random(1729)
        outcomes = []
        for _ in range(300):
            f1, f2 = helpers.random_pair(rng)
            s1 = rng.choice(f1.sorted_states())
            s2 = rng.choice(f2.sorted_states())
            max_len = rng.randint(0, 5)
            expected = _lang_table_oracle(f1, s1, max_len) == _lang_table_oracle(f2, s2, max_len)
            assert lang_equal_up_to(f1, s1, f2, s2, max_len) == expected
            outcomes.append(expected)
        assert 0 < sum(outcomes) < len(outcomes)


# ------------------------------------------ bounds against the class rounds


def _rounds_to_stability(*systems):
    """The first round that splits no class of the one before, on the
    disjoint union of ``systems``."""
    def class_count(k):
        return len({c for classes in graded(systems, k)[0] for c in classes.values()})

    k = 1
    while class_count(k) > class_count(k - 1):
        k += 1
    return k


class TestBoundEdges:
    def test_lowered_last_edge_shows_first_at_full_length(self):
        """Lowering a chain's last edge changes only the one word that
        crosses every edge, of length n - 1; chains of n >= 2 put that
        length at 1 up to 11, so max_len 0 and 1 are both edges here."""
        for n in range(2, 13):
            chain, lowered = helpers.chain(n), helpers.chain(n, last="0.5", prefix="d")
            assert lang_equal_up_to(chain, "c0", lowered, "d0", n - 2)
            assert not lang_equal_up_to(chain, "c0", lowered, "d0", n - 1)
            assert not lang_equal_up_to(lowered, "d0", chain, "c0", n + 2)
            for max_len in (n - 2, n - 1, n + 2):
                table = lang_table(lowered, "d0", max_len)
                expected = _lang_table_oracle(lowered, "d0", max_len)
                assert list(table.items()) == list(expected.items())
            word = ("a",) * (n - 1)
            assert lang_table(chain, "c0", n - 1)[word] == ONE
            assert lang_table(lowered, "d0", n - 1)[word] == d("0.5")

    def test_zero_and_one_bounds_match_oracles(self):
        rng = random.Random(6174)
        outcomes = {0: [], 1: []}
        for _ in range(150):
            f1, f2 = helpers.random_pair(rng)
            s1 = rng.choice(f1.sorted_states())
            s2 = rng.choice(f2.sorted_states())
            for max_len in (0, 1):
                table1 = _lang_table_oracle(f1, s1, max_len)
                expected = table1 == _lang_table_oracle(f2, s2, max_len)
                assert lang_equal_up_to(f1, s1, f2, s2, max_len) == expected
                outcomes[max_len].append(expected)
                assert list(lang_table(f1, s1, max_len).items()) == list(table1.items())
        assert all(outcomes[0])
        assert 0 < sum(outcomes[1]) < len(outcomes[1])

    def test_bounds_past_stability_reuse_the_last_round(self):
        """Bounds well past the round where refinement stops splitting."""
        rng = random.Random(1089)
        past = 0
        for _ in range(120):
            f1, f2 = helpers.random_pair(rng)
            s1 = rng.choice(f1.sorted_states())
            s2 = rng.choice(f2.sorted_states())
            # the union's rounds stabilize no earlier than f1's alone
            max_len = _rounds_to_stability(f1, f2) + rng.randint(1, 3)
            if max_len > 6:
                continue
            past += 1
            table1 = _lang_table_oracle(f1, s1, max_len)
            expected = table1 == _lang_table_oracle(f2, s2, max_len)
            assert lang_equal_up_to(f1, s1, f2, s2, max_len) == expected
            assert list(lang_table(f1, s1, max_len).items()) == list(table1.items())
        assert past >= 60

    def test_system_without_edges(self, choice_late):
        silent = Fts.from_triples(["s0", "s1"], ["a", "b", "c"], "s0", [])
        other = Fts.from_triples(["t0"], ["a", "b", "c"], "t0", [])
        for max_len in (0, 1, 4):
            assert lang_table(silent, "s1", max_len) == {(): ONE}
            assert lang_equal_up_to(silent, "s0", other, "t0", max_len)
            assert lang_equal_up_to(silent, "s0", silent, "s1", max_len)
        assert lang_equal_up_to(silent, "s0", choice_late, "s0", 0)
        assert not lang_equal_up_to(silent, "s0", choice_late, "s0", 1)
        assert not lang_equal_up_to(choice_late, "s0", silent, "s1", 3)
        assert lang_equal_up_to(choice_late, "s3", silent, "s1", 3)

    def test_bisimilar_copy_long_bound_within_time(self):
        """A dense 60-state system against an unperturbed 3-fold copy: the
        start states are bisimilar, so a bound of 12 (4,096 words per side
        on a state walk) is answered from the rounds."""
        rng = random.Random(7)
        g = helpers.random_fts(rng, 60, ["a", "b"])
        big, _ = helpers.inflate(rng, g, 3, perturbed=False)

        def out_of_time(signum, frame):
            raise TimeoutError("lang_equal_up_to exceeded 1 s at length 12")

        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            equal = lang_equal_up_to(g, g.init, big, big.init, 12)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert equal

    def test_huge_bound_on_an_acyclic_system_within_time(self, choice_late):
        """A bound past every index size: the engine runs no more rounds
        than there are states, and the table stops at the first length
        without words, so both answer as at a bound of 4."""
        huge = 2**63

        def out_of_time(signum, frame):
            raise TimeoutError("a bound of 2**63 exceeded 1 s")

        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            table = lang_table(choice_late, "s0", huge)
            equal = lang_equal_up_to(choice_late, "s0", choice_late, "s1", huge)
            same = lang_equal_up_to(choice_late, "s2", choice_late, "s3", huge)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert list(table.items()) == list(lang_table(choice_late, "s0", 4).items())
        assert len(table) == 4
        assert not equal and same


# ------------------------------------------------------------------ scale


def _sparse_system(rng: random.Random, states: list[str]) -> Fts:
    """A system on ``states``, starting at s0, with 5*10^4 random edges
    under the labels a, b and c."""
    edges: dict[tuple[str, str, str], str] = {}
    while len(edges) < 50_000:
        key = (rng.choice(states), rng.choice("abc"), rng.choice(states))
        edges[key] = rng.choice(helpers.NONZERO_DEGREES)
    return Fts.from_triples(states, "abc", "s0", [(s, a, d, t) for (s, a, t), d in edges.items()])


def test_state_walks_read_only_the_support():
    """100 calls each of lang_degree, delta_word and accept_degree on
    3-letter words over 10^4 states and 5*10^4 edges take well under a
    second when a step reads only the images of its distribution's
    support, and several seconds when each call indexes every edge."""
    rng = random.Random(4_096)
    states = [f"s{i}" for i in range(10_000)]
    f = _sparse_system(rng, states)
    final = FuzzySet(f.states, {s: rng.choice(helpers.NONZERO_DEGREES) for s in states[::3]})
    m = FuzzyAutomaton(f, final)
    queries = [(rng.choice(states), tuple(rng.choices("abc", k=3))) for _ in range(100)]

    def out_of_time(signum, frame):
        raise TimeoutError("300 state walks exceeded 1 s on 10^4 states")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        degrees = [lang_degree(f, s, word) for s, word in queries]
        reached = [delta_word(f, s, word) for s, word in queries]
        accepted = [accept_degree(m, word) for _, word in queries]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for (s, word), degree, mu, acceptance in zip(queries, degrees, reached, accepted):
        assert mu == _delta_word_oracle(f, s, word)
        assert degree == mu.height
        start = _delta_word_oracle(f, "s0", word)
        assert acceptance == max((min(start(t), final(t)) for t in start.support), default=ZERO)
    assert sum(map(bool, degrees)) >= 60
    assert sum(map(bool, accepted)) >= 25


def test_step_and_equality_match_a_shared_universe_by_identity():
    """10,000 steps from unit distributions on the 10^4-state system of
    test_state_walks_read_only_the_support, and then 10,000 equality tests
    between their results, each take well under a second when a universe
    shared with the system is matched by identity, and over two seconds
    when each call compares the 10^4 states one by one."""
    rng = random.Random(4_096)
    states = [f"s{i}" for i in range(10_000)]
    f = _sparse_system(rng, states)
    queries = [(rng.choice(states), rng.choice("abc")) for _ in range(5_000)] * 2
    starts = [unit(f, s) for s, _ in queries]
    # 5,000 pairs of equal results built apart, then 5,000 neighbours
    pairs = list(zip(range(5_000), range(5_000, 10_000))) + [(i, i + 1) for i in range(5_000)]

    def out_of_time(signum, frame):
        raise TimeoutError("10,000 calls exceeded 1 s on 10^4 states")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        reached = [step(f, mu, a) for mu, (_, a) in zip(starts, queries)]
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        equal = [reached[i] == reached[j] for i, j in pairs]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for mu, (_, a), nu in zip(starts[:50], queries, reached):
        assert nu == helpers.step_oracle(f, mu, a)
    assert equal == [reached[i].items() == reached[j].items() for i, j in pairs]
    assert all(equal[:5_000]) and 0 < sum(equal[5_000:]) < 5_000
    assert sum(map(bool, reached)) >= 3_000
